#ifndef AFP_ANALYSIS_ATOM_GRAPH_H_
#define AFP_ANALYSIS_ATOM_GRAPH_H_

#include <cstdint>
#include <span>
#include <vector>

#include "ground/ground_program.h"

namespace afp {

/// Atom-level dependency analysis of a ground program: the graph with an
/// arc from each rule head to each of its body atoms. This is the ground
/// analogue of the predicate dependency graph (§8.2) and the basis of
///   * ground local stratification (Przymusinski, §2.3): no cycle through a
///     negative arc — decidable here because the program is ground, unlike
///     the general case the paper cites as undecidable (Cholak);
///   * the component-wise well-founded engine (core/scc_engine.h).
///
/// Every array is flat: the adjacency, the component membership and the
/// condensation are each one CSR pair, built in linear time without a
/// sort, so building the analysis costs a few passes over the program
/// regardless of how many components it has.
class AtomDependencyGraph {
 public:
  /// Builds the graph and its components; O(program size).
  explicit AtomDependencyGraph(const RuleView& view);

  std::size_t num_atoms() const { return num_atoms_; }

  /// Strongly connected components, iterative Tarjan (safe on deep ground
  /// programs). Component ids are assigned in reverse topological order:
  /// if p's body mentions q in another component, then comp(q) < comp(p).
  const std::vector<std::uint32_t>& component_of() const { return comp_; }
  std::size_t num_components() const { return member_offsets_.size() - 1; }

  /// The atoms of component c, in the order Tarjan popped them off its
  /// stack (local ids, compiled buckets and trajectories all index them in
  /// this order). The span is invalidated by TryAppendDelta, which appends
  /// to the same array.
  std::span<const AtomId> members(std::uint32_t c) const {
    return {members_.data() + member_offsets_[c],
            member_offsets_[c + 1] - member_offsets_[c]};
  }

  /// True iff no negative arc connects two atoms of the same component,
  /// i.e. the ground program is locally stratified. Locally stratified
  /// programs have a total well-founded model (their perfect model).
  bool IsLocallyStratified() const { return locally_stratified_; }

  /// The condensation DAG, CSR by source component: for component c,
  /// entries [condensation_offsets()[c], condensation_offsets()[c+1]) of
  /// condensation_successors() are the distinct components that depend on
  /// c, in ascending order (edges point dependency -> dependent, so every
  /// edge goes from a smaller component id to a larger one). The
  /// incremental repair (SccResolveDownstream) walks it to collect the
  /// downstream closure of the touched components.
  ///
  /// Built lazily on first access and cached (a full solve never pays for
  /// it), in two linear passes over the components — count, then fill —
  /// with a per-source stamp dropping repeated edges; no sort. Like
  /// HornSolver's lazy negative index, the build is not thread-safe.
  const std::vector<std::uint32_t>& condensation_offsets() const {
    EnsureCondensation();
    return cond_offsets_;
  }
  const std::vector<std::uint32_t>& condensation_successors() const {
    EnsureCondensation();
    return cond_successors_;
  }

  /// --- Incremental maintenance (Solver::AddRule / RemoveRule) ---

  /// Outcome of TryAppendDelta.
  struct DeltaAppendResult {
    /// False: the mutation was not id-order compatible and the graph is
    /// UNCHANGED — the caller must rebuild from scratch.
    bool applied = false;
    /// New component ids are [first_new_component, num_components()).
    std::uint32_t first_new_component = 0;
  };

  /// Splices the analysis for a grown universe and `added_rules` (gp rule
  /// ids into `view`, whose atoms >= `old_num_atoms` are the new ones)
  /// into the cached SCC numbering, recomputing only what the delta
  /// touches:
  ///
  ///   * new atoms are grouped into SCCs by a Tarjan run over the
  ///     new-atom subgraph only and appended, in reverse topological
  ///     order, to the same membership CSR, preserving the
  ///     id-order-is-schedule invariant (every new component may depend
  ///     only on old or earlier-new components);
  ///   * membership of every old component is untouched — the fast path
  ///     applies only when each added dependency h -> a with an old head
  ///     satisfies comp(a) <= comp(h) (no merge, no reordering) and no
  ///     old head depends on a new atom;
  ///   * the cached condensation CSR gains the delta's cross-component
  ///     edges by a linear merge (semantic work is O(delta); the merge
  ///     itself is an O(existing edges) index copy, the same housekeeping
  ///     class as the comp-of remap);
  ///   * local stratification can only degrade (a new negative intra-
  ///     component arc), never silently recover.
  ///
  /// Returns applied=false — graph untouched — when the delta would merge
  /// or reorder old components; the caller rebuilds wholesale.
  ///
  /// Rule REMOVAL never needs this: dropping edges cannot merge
  /// components, so as long as no removed edge was intra-component
  /// (caller-checked via component_of()), membership and numbering stay
  /// valid; stale condensation edges only over-approximate downstream
  /// closures, which is conservative for repair.
  ///
  /// After the first successful splice the atom-level adjacency CSR is
  /// STALE (it is construction-only state); all further maintenance runs
  /// off component_of() plus the delta's own edges.
  DeltaAppendResult TryAppendDelta(const RuleView& view,
                                   std::span<const std::uint32_t> added_rules,
                                   std::size_t old_num_atoms);

 private:
  /// Tarjan over atoms [base, base + offsets.size() - 1) with adjacency
  /// `adj` (CSR by atom - base, targets as atom - base; arcs leaving the
  /// range must already be filtered out): assigns comp_ and appends each
  /// component to the membership CSR as it completes.
  void AppendSccs(std::span<const std::uint32_t> offsets,
                  std::span<const AtomId> adj, AtomId base);
  void EnsureCondensation() const;

  std::size_t num_atoms_;
  // CSR adjacency: head -> body atoms (each rule's positive then negative
  // body, rules in id order — the order Tarjan explores arcs in).
  std::vector<std::uint32_t> adj_offsets_;
  std::vector<AtomId> adj_;
  std::vector<std::uint32_t> comp_;
  // CSR membership: component c's atoms are
  // members_[member_offsets_[c], member_offsets_[c + 1]).
  std::vector<std::uint32_t> member_offsets_{0};
  std::vector<AtomId> members_;
  bool locally_stratified_ = true;
  mutable bool condensation_built_ = false;
  mutable std::vector<std::uint32_t> cond_offsets_;
  mutable std::vector<std::uint32_t> cond_successors_;
};

}  // namespace afp

#endif  // AFP_ANALYSIS_ATOM_GRAPH_H_
