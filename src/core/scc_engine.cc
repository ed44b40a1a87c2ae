#include "core/scc_engine.h"

#include <algorithm>
#include <cassert>
#include <limits>
#include <utility>
#include <vector>

#include "analysis/atom_graph.h"
#include "core/component_solver.h"

namespace afp {

RuleBuckets::RuleBuckets(const RuleView& view,
                         const AtomDependencyGraph& graph)
    : rows_(graph.num_components()), pool_(view.rules.size()) {
  // Counting sort by head component, in rule-id order: every row is
  // packed exactly and ascending.
  const std::vector<std::uint32_t>& comp_of = graph.component_of();
  for (const GroundRule& r : view.rules) ++rows_[comp_of[r.head]].cap;
  std::uint32_t begin = 0;
  for (Row& row : rows_) {
    row.begin = begin;
    begin += row.cap;
  }
  for (std::uint32_t ri = 0; ri < view.rules.size(); ++ri) {
    Row& row = rows_[comp_of[view.rules[ri].head]];
    pool_[row.begin + row.size++] = ri;
  }
}

void RuleBuckets::Resize(std::size_t n) { rows_.resize(n); }

void RuleBuckets::Append(std::uint32_t c, std::uint32_t rule) {
  Row& row = rows_[c];
  assert(row.size == 0 || row_data(c)[row.size - 1] < rule);
  if (row.size == row.cap) {
    // Outgrown: move the row to the end of the pool, doubling its slot.
    const std::uint32_t begin = static_cast<std::uint32_t>(pool_.size());
    const std::uint32_t cap = row.cap == 0 ? 1 : 2 * row.cap;
    pool_.resize(begin + cap);
    std::copy_n(pool_.begin() + row.begin, row.size, pool_.begin() + begin);
    row.begin = begin;
    row.cap = cap;
  }
  pool_[row.begin + row.size++] = rule;
}

void RuleBuckets::Erase(std::uint32_t c, std::uint32_t rule) {
  std::uint32_t* first = row_data(c);
  std::uint32_t* last = first + rows_[c].size;
  std::uint32_t* it = std::lower_bound(first, last, rule);
  assert(it != last && *it == rule);
  std::copy(it + 1, last, it);
  --rows_[c].size;
}

void RuleBuckets::Renumber(std::uint32_t c, std::uint32_t rule,
                           std::uint32_t to) {
  assert(to < rule);
  std::uint32_t* first = row_data(c);
  std::uint32_t* last = first + rows_[c].size;
  std::uint32_t* it = std::lower_bound(first, last, rule);
  assert(it != last && *it == rule);
  // Slide the entries between `to`'s sorted slot and `rule` up by one.
  std::uint32_t* slot = std::lower_bound(first, it, to);
  std::copy_backward(slot, it, it + 1);
  *slot = to;
}

bool RuleBuckets::operator==(const RuleBuckets& other) const {
  if (num_rows() != other.num_rows()) return false;
  for (std::uint32_t c = 0; c < num_rows(); ++c) {
    const std::span<const std::uint32_t> a = (*this)[c];
    const std::span<const std::uint32_t> b = other[c];
    if (!std::equal(a.begin(), a.end(), b.begin(), b.end())) return false;
  }
  return true;
}

SccWfsResult WellFoundedSccOnGraph(EvalContext& ctx, const RuleView& view,
                                   const AtomDependencyGraph& graph,
                                   const RuleBuckets& comp_rules,
                                   const SccOptions& options) {
  const std::size_t n = view.num_atoms;
  const EvalStats start = ctx.stats();

  SccWfsResult result;
  result.num_components = graph.num_components();
  result.locally_stratified = graph.IsLocallyStratified();
  result.component_iterations.reserve(graph.num_components());

  // Components in id order (a topological order of the condensation), one
  // ComponentSolver, the caller's context throughout.
  Bitset global_true = ctx.AcquireBitset(n);
  Bitset global_false = ctx.AcquireBitset(n);
  GlobalModel gm{&global_true, &global_false};
  {
    ComponentSolver solver(ctx, options, view, graph, comp_rules);
    for (std::uint32_t c = 0; c < graph.num_components(); ++c) {
      ComponentSolver::Outcome o = solver.Solve(c, gm);
      result.component_iterations.push_back(o.iterations);
      result.total_local_size += o.local_size;
    }
  }

  ctx.NoteEscapedBytes(global_true.CapacityBytes() +
                       global_false.CapacityBytes());
  result.model =
      PartialModel(std::move(global_true), std::move(global_false));
  result.eval = ctx.stats().Since(start);
  return result;
}

SccWfsResult WellFoundedScc(const GroundProgram& gp,
                            const SccOptions& options) {
  EvalContext ctx;
  const RuleView view = gp.View();
  AtomDependencyGraph graph(view);
  return WellFoundedSccOnGraph(ctx, view, graph, RuleBuckets(view, graph),
                               options);
}

void SccUpdateScratch::Ensure(std::size_t nc) {
  const bool wrap = epoch_ == std::numeric_limits<std::uint32_t>::max();
  if (in_closure_.size() != nc || wrap) {
    // One O(num_components) fill when the condensation (re)sizes or the
    // epoch wraps; every other update resets nothing — epoch comparison
    // does the clearing. A zeroed stamp reads as unset under every epoch
    // from 1 on, so a resize keeps the epoch counting.
    in_closure_.assign(nc, 0);
    need_.assign(nc, 0);
    if (wrap) epoch_ = 0;
  }
  ++epoch_;
  closure_.clear();
}

SccUpdateStats SccResolveDownstream(
    ComponentSolver& solver, std::span<const AtomId> touched_atoms,
    GlobalModel& gm, std::vector<std::uint32_t>* component_iterations,
    SccUpdateScratch& s) {
  SccUpdateStats out;
  const AtomDependencyGraph& graph = solver.graph();
  const std::size_t nc = graph.num_components();
  if (nc == 0 || touched_atoms.empty()) return out;

  const std::vector<std::uint32_t>& comp_of = graph.component_of();
  const std::vector<std::uint32_t>& off = graph.condensation_offsets();
  const std::vector<std::uint32_t>& succ = graph.condensation_successors();

  // All per-update bookkeeping lives in the caller's persistent scratch
  // (epoch-stamped, so nothing O(num_components) is cleared per update).
  s.Ensure(nc);
  const std::uint32_t epoch = s.epoch_;
  std::vector<std::uint32_t>& closure = s.closure_;

  // Static downstream closure of the touched components. Every successor
  // of a closure member is itself a member, so the closure is exactly the
  // set the re-solve may visit; its ascending id order is a topological
  // order. Change-frontier stamps: need_[c] == epoch means the frontier
  // reaches c — seeded here by the touched components, advanced below
  // when a re-solve changes a verdict.
  for (AtomId a : touched_atoms) {
    const std::uint32_t c = comp_of[a];
    s.need_[c] = epoch;
    if (s.in_closure_[c] != epoch) {
      s.in_closure_[c] = epoch;
      closure.push_back(c);
    }
  }
  for (std::size_t i = 0; i < closure.size(); ++i) {
    const std::uint32_t c = closure[i];
    for (std::uint32_t k = off[c]; k < off[c + 1]; ++k) {
      if (s.in_closure_[succ[k]] != epoch) {
        s.in_closure_[succ[k]] = epoch;
        closure.push_back(succ[k]);
      }
    }
  }
  // A search node's closure is often its branch atom's component alone.
  if (closure.size() > 1) std::sort(closure.begin(), closure.end());
  out.components_downstream = closure.size();

  // Closure components in ascending (topological) id order: every
  // frontier flag is final before its component is visited.
  for (std::uint32_t c : closure) {
    if (s.need_[c] != epoch) {
      ++out.components_skipped;
      continue;
    }
    ComponentSolver::Outcome o = solver.Solve(c, gm);
    ++out.components_resolved;
    if (component_iterations) (*component_iterations)[c] = o.iterations;
    if (gm.changed) {
      out.model_changed = true;
      for (std::uint32_t k = off[c]; k < off[c + 1]; ++k) {
        s.need_[succ[k]] = epoch;
      }
    }
  }
  return out;
}

SccConeStats SccSolveUpstream(ComponentSolver& solver,
                              std::span<const AtomId> atoms, GlobalModel& gm,
                              SccUpdateScratch& s) {
  SccConeStats out;
  if (atoms.empty()) return out;
  const RuleView& view = solver.view();
  const RuleBuckets& comp_rules = solver.comp_rules();
  const std::vector<std::uint32_t>& comp_of = solver.graph().component_of();

  s.Ensure(solver.graph().num_components());
  const std::uint32_t epoch = s.epoch_;
  std::vector<std::uint32_t>& closure = s.closure_;
  auto visit = [&](AtomId a) {
    const std::uint32_t c = comp_of[a];
    if (s.in_closure_[c] != epoch) {
      s.in_closure_[c] = epoch;
      closure.push_back(c);
    }
  };
  // Upstream closure: a component's rules read only atoms of itself and
  // of components before it, so the closure is everything the queried
  // atoms reach, and its ascending id order is a topological order.
  for (AtomId a : atoms) visit(a);
  for (std::size_t i = 0; i < closure.size(); ++i) {
    for (std::uint32_t ri : comp_rules[closure[i]]) {
      const GroundRule& r = view.rules[ri];
      for (AtomId q : view.pos(r)) visit(q);
      for (AtomId q : view.neg(r)) visit(q);
    }
  }
  std::sort(closure.begin(), closure.end());
  out.components = closure.size();
  for (std::uint32_t c : closure) {
    out.local_size += solver.Solve(c, gm).local_size;
  }
  return out;
}

}  // namespace afp
