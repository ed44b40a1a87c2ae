#include "analysis/atom_graph.h"

#include <algorithm>

namespace afp {

AtomDependencyGraph::AtomDependencyGraph(const RuleView& view)
    : num_atoms_(view.num_atoms) {
  // Build CSR adjacency head -> body atoms.
  adj_offsets_.assign(num_atoms_ + 1, 0);
  for (const GroundRule& r : view.rules) {
    adj_offsets_[r.head + 1] += r.pos_len + r.neg_len;
  }
  for (std::size_t i = 1; i < adj_offsets_.size(); ++i) {
    adj_offsets_[i] += adj_offsets_[i - 1];
  }
  adj_.resize(adj_offsets_.back());
  adj_negative_.resize(adj_offsets_.back());
  std::vector<std::uint32_t> cursor(adj_offsets_.begin(),
                                    adj_offsets_.end() - 1);
  for (const GroundRule& r : view.rules) {
    for (AtomId a : view.pos(r)) {
      adj_[cursor[r.head]] = a;
      adj_negative_[cursor[r.head]] = 0;
      ++cursor[r.head];
    }
    for (AtomId a : view.neg(r)) {
      adj_[cursor[r.head]] = a;
      adj_negative_[cursor[r.head]] = 1;
      ++cursor[r.head];
    }
  }

  ComputeSccs(view);

  // Local stratification: no negative arc within a component.
  for (AtomId h = 0; h < num_atoms_; ++h) {
    for (std::uint32_t k = adj_offsets_[h]; k < adj_offsets_[h + 1]; ++k) {
      if (adj_negative_[k] && comp_[h] == comp_[adj_[k]]) {
        locally_stratified_ = false;
        return;
      }
    }
  }
}

void AtomDependencyGraph::ComputeSccs(const RuleView& view) {
  (void)view;
  // Iterative Tarjan.
  constexpr std::uint32_t kUnvisited = UINT32_MAX;
  std::vector<std::uint32_t> index(num_atoms_, kUnvisited);
  std::vector<std::uint32_t> lowlink(num_atoms_, 0);
  std::vector<bool> on_stack(num_atoms_, false);
  std::vector<AtomId> scc_stack;
  comp_.assign(num_atoms_, 0);
  std::uint32_t next_index = 0;

  struct Frame {
    AtomId v;
    std::uint32_t edge;  // next adjacency slot to explore
  };
  std::vector<Frame> call_stack;

  for (AtomId root = 0; root < num_atoms_; ++root) {
    if (index[root] != kUnvisited) continue;
    call_stack.push_back({root, adj_offsets_[root]});
    index[root] = lowlink[root] = next_index++;
    scc_stack.push_back(root);
    on_stack[root] = true;

    while (!call_stack.empty()) {
      Frame& f = call_stack.back();
      if (f.edge < adj_offsets_[f.v + 1]) {
        AtomId w = adj_[f.edge++];
        if (index[w] == kUnvisited) {
          index[w] = lowlink[w] = next_index++;
          scc_stack.push_back(w);
          on_stack[w] = true;
          call_stack.push_back({w, adj_offsets_[w]});
        } else if (on_stack[w]) {
          lowlink[f.v] = std::min(lowlink[f.v], index[w]);
        }
        continue;
      }
      // Post-order: pop the frame.
      AtomId v = f.v;
      call_stack.pop_back();
      if (!call_stack.empty()) {
        AtomId parent = call_stack.back().v;
        lowlink[parent] = std::min(lowlink[parent], lowlink[v]);
      }
      if (lowlink[v] == index[v]) {
        members_.emplace_back();
        AtomId w;
        do {
          w = scc_stack.back();
          scc_stack.pop_back();
          on_stack[w] = false;
          comp_[w] = static_cast<std::uint32_t>(members_.size() - 1);
          members_.back().push_back(w);
        } while (w != v);
      }
    }
  }
  num_components_ = members_.size();
}

AtomDependencyGraph::DeltaAppendResult AtomDependencyGraph::TryAppendDelta(
    const RuleView& view, std::span<const std::uint32_t> added_rules,
    std::size_t old_num_atoms) {
  DeltaAppendResult out;
  out.first_new_component = static_cast<std::uint32_t>(num_components_);
  const std::size_t new_num_atoms = view.num_atoms;

  // Feasibility: an old head may only gain dependencies on old atoms in
  // components at or below its own — anything else could merge or reorder
  // old components, which the splice cannot express.
  for (std::uint32_t ri : added_rules) {
    const GroundRule& r = view.rules[ri];
    if (r.head >= old_num_atoms) continue;
    const std::uint32_t ch = comp_[r.head];
    for (AtomId a : view.pos(r)) {
      if (a >= old_num_atoms || comp_[a] > ch) return out;
    }
    for (AtomId a : view.neg(r)) {
      if (a >= old_num_atoms || comp_[a] > ch) return out;
    }
  }

  // The condensation must reflect the pre-delta adjacency before that
  // adjacency goes stale (see header): build it now if still pending.
  EnsureCondensation();

  // SCCs of the new atoms over new->new edges only (new->old edges leave
  // the subgraph; old->new edges do not exist on this path). Tarjan
  // completion order appends the new components in reverse topological
  // order, so id order stays a valid schedule.
  const std::size_t nn = new_num_atoms - old_num_atoms;
  if (nn > 0) {
    // Local CSR over new atoms (ids shifted by old_num_atoms).
    std::vector<std::uint32_t> offsets(nn + 1, 0);
    for (std::uint32_t ri : added_rules) {
      const GroundRule& r = view.rules[ri];
      if (r.head < old_num_atoms) continue;
      for (AtomId a : view.pos(r)) {
        if (a >= old_num_atoms) ++offsets[r.head - old_num_atoms + 1];
      }
      for (AtomId a : view.neg(r)) {
        if (a >= old_num_atoms) ++offsets[r.head - old_num_atoms + 1];
      }
    }
    for (std::size_t i = 1; i <= nn; ++i) offsets[i] += offsets[i - 1];
    std::vector<AtomId> adj(offsets.back());
    std::vector<std::uint32_t> cursor(offsets.begin(), offsets.end() - 1);
    for (std::uint32_t ri : added_rules) {
      const GroundRule& r = view.rules[ri];
      if (r.head < old_num_atoms) continue;
      const std::size_t h = r.head - old_num_atoms;
      for (AtomId a : view.pos(r)) {
        if (a >= old_num_atoms) adj[cursor[h]++] = a - old_num_atoms;
      }
      for (AtomId a : view.neg(r)) {
        if (a >= old_num_atoms) adj[cursor[h]++] = a - old_num_atoms;
      }
    }

    constexpr std::uint32_t kUnvisited = UINT32_MAX;
    std::vector<std::uint32_t> index(nn, kUnvisited), lowlink(nn, 0);
    std::vector<bool> on_stack(nn, false);
    std::vector<std::uint32_t> scc_stack;
    std::uint32_t next_index = 0;
    struct Frame {
      std::uint32_t v;
      std::uint32_t edge;
    };
    std::vector<Frame> call_stack;
    comp_.resize(new_num_atoms, 0);
    for (std::uint32_t root = 0; root < nn; ++root) {
      if (index[root] != kUnvisited) continue;
      call_stack.push_back({root, offsets[root]});
      index[root] = lowlink[root] = next_index++;
      scc_stack.push_back(root);
      on_stack[root] = true;
      while (!call_stack.empty()) {
        Frame& f = call_stack.back();
        if (f.edge < offsets[f.v + 1]) {
          std::uint32_t w = adj[f.edge++];
          if (index[w] == kUnvisited) {
            index[w] = lowlink[w] = next_index++;
            scc_stack.push_back(w);
            on_stack[w] = true;
            call_stack.push_back({w, offsets[w]});
          } else if (on_stack[w]) {
            lowlink[f.v] = std::min(lowlink[f.v], index[w]);
          }
          continue;
        }
        std::uint32_t v = f.v;
        call_stack.pop_back();
        if (!call_stack.empty()) {
          std::uint32_t parent = call_stack.back().v;
          lowlink[parent] = std::min(lowlink[parent], lowlink[v]);
        }
        if (lowlink[v] == index[v]) {
          members_.emplace_back();
          std::uint32_t w;
          do {
            w = scc_stack.back();
            scc_stack.pop_back();
            on_stack[w] = false;
            comp_[w + old_num_atoms] =
                static_cast<std::uint32_t>(members_.size() - 1);
            members_.back().push_back(static_cast<AtomId>(w + old_num_atoms));
          } while (w != v);
        }
      }
    }
    num_components_ = members_.size();
    num_atoms_ = new_num_atoms;
  }

  // Local stratification can only degrade: a new negative arc inside a
  // (new or old) component.
  if (locally_stratified_) {
    for (std::uint32_t ri : added_rules) {
      const GroundRule& r = view.rules[ri];
      for (AtomId a : view.neg(r)) {
        if (comp_[a] == comp_[r.head]) {
          locally_stratified_ = false;
          break;
        }
      }
      if (!locally_stratified_) break;
    }
  }

  // Condensation splice: the delta's distinct cross-component edges,
  // merged row-wise into the cached CSR (rows stay sorted).
  std::vector<std::uint64_t> extra;
  for (std::uint32_t ri : added_rules) {
    const GroundRule& r = view.rules[ri];
    const std::uint32_t ch = comp_[r.head];
    auto add_edge = [&](AtomId a) {
      const std::uint32_t ca = comp_[a];
      if (ca != ch) extra.push_back((static_cast<std::uint64_t>(ca) << 32) | ch);
    };
    for (AtomId a : view.pos(r)) add_edge(a);
    for (AtomId a : view.neg(r)) add_edge(a);
  }
  std::sort(extra.begin(), extra.end());
  extra.erase(std::unique(extra.begin(), extra.end()), extra.end());
  // Drop edges already present (both endpoints old).
  const std::uint32_t old_nc = out.first_new_component;
  std::erase_if(extra, [&](std::uint64_t e) {
    const std::uint32_t src = static_cast<std::uint32_t>(e >> 32);
    const std::uint32_t dst = static_cast<std::uint32_t>(e);
    if (src >= old_nc || dst >= old_nc) return false;
    auto begin = cond_successors_.begin() + cond_offsets_[src];
    auto end = cond_successors_.begin() + cond_offsets_[src + 1];
    return std::binary_search(begin, end, dst);
  });

  std::vector<std::uint32_t> new_offsets(num_components_ + 1, 0);
  for (std::uint32_t c = 0; c < old_nc; ++c) {
    new_offsets[c + 1] = cond_offsets_[c + 1] - cond_offsets_[c];
  }
  for (std::uint64_t e : extra) ++new_offsets[(e >> 32) + 1];
  for (std::size_t i = 1; i < new_offsets.size(); ++i) {
    new_offsets[i] += new_offsets[i - 1];
  }
  std::vector<std::uint32_t> new_succ(new_offsets.back());
  std::size_t ei = 0;
  for (std::uint32_t c = 0; c < num_components_; ++c) {
    std::uint32_t* outp = new_succ.data() + new_offsets[c];
    const std::uint32_t* old_it = nullptr;
    const std::uint32_t* old_end = nullptr;
    if (c < old_nc) {
      old_it = cond_successors_.data() + cond_offsets_[c];
      old_end = cond_successors_.data() + cond_offsets_[c + 1];
    }
    while (old_it != old_end ||
           (ei < extra.size() && (extra[ei] >> 32) == c)) {
      const bool take_extra =
          (old_it == old_end) ||
          (ei < extra.size() && (extra[ei] >> 32) == c &&
           static_cast<std::uint32_t>(extra[ei]) < *old_it);
      if (take_extra) {
        *outp++ = static_cast<std::uint32_t>(extra[ei++]);
      } else {
        *outp++ = *old_it++;
      }
    }
  }
  cond_offsets_ = std::move(new_offsets);
  cond_successors_ = std::move(new_succ);
  condensation_built_ = true;

  out.applied = true;
  return out;
}

void AtomDependencyGraph::EnsureCondensation() const {
  if (condensation_built_) return;
  // Cross-component arcs, flipped to dependency -> dependent (an atom
  // arc h -> a means h depends on a, so the condensation edge runs
  // comp(a) -> comp(h)), deduped by sort+unique. Tarjan already gives
  // comp(a) < comp(h), so every edge points id-upward and component id
  // order is a topological order of the condensation.
  std::vector<std::uint64_t> edges;
  for (AtomId h = 0; h < num_atoms_; ++h) {
    const std::uint32_t ch = comp_[h];
    for (std::uint32_t k = adj_offsets_[h]; k < adj_offsets_[h + 1]; ++k) {
      const std::uint32_t ca = comp_[adj_[k]];
      if (ca != ch) {
        edges.push_back((static_cast<std::uint64_t>(ca) << 32) | ch);
      }
    }
  }
  std::sort(edges.begin(), edges.end());
  edges.erase(std::unique(edges.begin(), edges.end()), edges.end());

  cond_offsets_.assign(num_components_ + 1, 0);
  cond_successors_.resize(edges.size());
  for (std::uint64_t e : edges) ++cond_offsets_[(e >> 32) + 1];
  for (std::size_t i = 1; i < cond_offsets_.size(); ++i) {
    cond_offsets_[i] += cond_offsets_[i - 1];
  }
  std::vector<std::uint32_t> cursor(cond_offsets_.begin(),
                                    cond_offsets_.end() - 1);
  for (std::uint64_t e : edges) {
    cond_successors_[cursor[e >> 32]++] = static_cast<std::uint32_t>(e);
  }
  condensation_built_ = true;
}

}  // namespace afp
