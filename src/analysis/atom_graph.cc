#include "analysis/atom_graph.h"

#include <algorithm>

namespace afp {

namespace {

constexpr std::uint32_t kNoComponent = UINT32_MAX;

/// Builds a CSR over `rows` rows from `for_each_arc(emit)`, which calls
/// emit(row, target) for every arc and must enumerate the same arcs in the
/// same order each time: it runs twice, to count and then to fill, and
/// each row keeps that order. The counts sit two slots ahead of their row,
/// so the fill uses the slot after each row as that row's cursor and
/// leaves the offsets final: no cursor array, one allocation per array.
template <typename ForEachArc>
void FillCsr(std::size_t rows, ForEachArc&& for_each_arc,
             std::vector<std::uint32_t>* offsets,
             std::vector<std::uint32_t>* targets) {
  std::vector<std::uint32_t>& off = *offsets;
  off.assign(rows + 2, 0);
  for_each_arc([&](std::uint32_t row, std::uint32_t) { ++off[row + 2]; });
  for (std::size_t i = 2; i < off.size(); ++i) off[i] += off[i - 1];
  targets->resize(off.back());
  for_each_arc([&](std::uint32_t row, std::uint32_t target) {
    (*targets)[off[row + 1]++] = target;
  });
  off.pop_back();
}

}  // namespace

AtomDependencyGraph::AtomDependencyGraph(const RuleView& view)
    : num_atoms_(view.num_atoms) {
  FillCsr(
      num_atoms_,
      [&](auto&& emit) {
        for (const GroundRule& r : view.rules) {
          for (AtomId a : view.pos(r)) emit(r.head, a);
          for (AtomId a : view.neg(r)) emit(r.head, a);
        }
      },
      &adj_offsets_, &adj_);
  comp_.assign(num_atoms_, kNoComponent);
  member_offsets_.reserve(num_atoms_ + 1);
  members_.reserve(num_atoms_);
  AppendSccs(adj_offsets_, adj_, 0);

  // Local stratification: no negative arc within a component.
  for (const GroundRule& r : view.rules) {
    for (AtomId a : view.neg(r)) {
      if (comp_[a] == comp_[r.head]) {
        locally_stratified_ = false;
        return;
      }
    }
  }
}

void AtomDependencyGraph::AppendSccs(std::span<const std::uint32_t> offsets,
                                     std::span<const AtomId> adj,
                                     AtomId base) {
  // Iterative Tarjan. An atom's comp_ entry stays kNoComponent until its
  // component completes, so a visited atom is on the SCC stack iff it has
  // no component yet.
  const std::uint32_t n = static_cast<std::uint32_t>(offsets.size() - 1);
  constexpr std::uint32_t kUnvisited = UINT32_MAX;
  std::vector<std::uint32_t> index(n, kUnvisited);
  std::vector<std::uint32_t> lowlink(n, 0);
  std::vector<std::uint32_t> scc_stack;
  std::uint32_t next_index = 0;

  struct Frame {
    std::uint32_t v;
    std::uint32_t edge;  // next adjacency slot to explore
  };
  std::vector<Frame> call_stack;

  for (std::uint32_t root = 0; root < n; ++root) {
    if (index[root] != kUnvisited) continue;
    call_stack.push_back({root, offsets[root]});
    index[root] = lowlink[root] = next_index++;
    scc_stack.push_back(root);

    while (!call_stack.empty()) {
      Frame& f = call_stack.back();
      if (f.edge < offsets[f.v + 1]) {
        const std::uint32_t w = adj[f.edge++];
        if (index[w] == kUnvisited) {
          index[w] = lowlink[w] = next_index++;
          scc_stack.push_back(w);
          call_stack.push_back({w, offsets[w]});
        } else if (comp_[base + w] == kNoComponent) {
          lowlink[f.v] = std::min(lowlink[f.v], index[w]);
        }
        continue;
      }
      // Post-order: pop the frame.
      const std::uint32_t v = f.v;
      call_stack.pop_back();
      if (!call_stack.empty()) {
        const std::uint32_t parent = call_stack.back().v;
        lowlink[parent] = std::min(lowlink[parent], lowlink[v]);
      }
      if (lowlink[v] == index[v]) {
        const std::uint32_t c = static_cast<std::uint32_t>(num_components());
        std::uint32_t w;
        do {
          w = scc_stack.back();
          scc_stack.pop_back();
          comp_[base + w] = c;
          members_.push_back(base + w);
        } while (w != v);
        member_offsets_.push_back(static_cast<std::uint32_t>(members_.size()));
      }
    }
  }
}

AtomDependencyGraph::DeltaAppendResult AtomDependencyGraph::TryAppendDelta(
    const RuleView& view, std::span<const std::uint32_t> added_rules,
    std::size_t old_num_atoms) {
  DeltaAppendResult out;
  out.first_new_component = static_cast<std::uint32_t>(num_components());
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
    std::vector<std::uint32_t> offsets;
    std::vector<AtomId> adj;
    FillCsr(
        nn,
        [&](auto&& emit) {
          for (std::uint32_t ri : added_rules) {
            const GroundRule& r = view.rules[ri];
            if (r.head < old_num_atoms) continue;
            const std::uint32_t h =
                static_cast<std::uint32_t>(r.head - old_num_atoms);
            for (AtomId a : view.pos(r)) {
              if (a >= old_num_atoms) emit(h, a - old_num_atoms);
            }
            for (AtomId a : view.neg(r)) {
              if (a >= old_num_atoms) emit(h, a - old_num_atoms);
            }
          }
        },
        &offsets, &adj);
    comp_.resize(new_num_atoms, kNoComponent);
    AppendSccs(offsets, adj, static_cast<AtomId>(old_num_atoms));
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

  const std::size_t nc = num_components();
  std::vector<std::uint32_t> new_offsets(nc + 1, 0);
  for (std::uint32_t c = 0; c < old_nc; ++c) {
    new_offsets[c + 1] = cond_offsets_[c + 1] - cond_offsets_[c];
  }
  for (std::uint64_t e : extra) ++new_offsets[(e >> 32) + 1];
  for (std::size_t i = 1; i < new_offsets.size(); ++i) {
    new_offsets[i] += new_offsets[i - 1];
  }
  std::vector<std::uint32_t> new_succ(new_offsets.back());
  std::size_t ei = 0;
  for (std::uint32_t c = 0; c < nc; ++c) {
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
  // comp(a) -> comp(h)). Tarjan already gives comp(a) < comp(h), so every
  // edge points id-upward and component id order is a topological order
  // of the condensation. Dependents are visited in ascending id order, so
  // each source row fills in ascending order, and all of one dependent's
  // edges are emitted together, so `last[ca] == ch` catches every repeat:
  // the rows come out sorted and distinct without a sort.
  const std::size_t nc = num_components();
  std::vector<std::uint32_t> last(nc);
  FillCsr(
      nc,
      [&](auto&& emit) {
        std::fill(last.begin(), last.end(), kNoComponent);
        for (std::uint32_t ch = 0; ch < nc; ++ch) {
          for (AtomId h : members(ch)) {
            for (std::uint32_t k = adj_offsets_[h]; k < adj_offsets_[h + 1];
                 ++k) {
              const std::uint32_t ca = comp_[adj_[k]];
              if (ca != ch && last[ca] != ch) {
                last[ca] = ch;
                emit(ca, ch);
              }
            }
          }
        }
      },
      &cond_offsets_, &cond_successors_);
  condensation_built_ = true;
}

}  // namespace afp
