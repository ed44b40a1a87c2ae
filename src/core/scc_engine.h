#ifndef AFP_CORE_SCC_ENGINE_H_
#define AFP_CORE_SCC_ENGINE_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "analysis/atom_graph.h"
#include "core/eval_context.h"
#include "core/interpretation.h"
#include "ground/ground_program.h"
#include "util/bitset.h"

namespace afp {

class ComponentSolver;  // core/component_solver.h
class BucketCache;      // core/rule_kernel.h

/// Which engine solves each component's local subprogram. By Theorem 7.8
/// both compute the same local (well-founded) model; the axis exists so the
/// delta-driven machinery of either engine family can be exercised under
/// the many-small-programs access pattern.
enum class SccInnerEngine {
  /// The alternating fixpoint (§5): S_P twice per round (SpEvaluator).
  kAfp,
  /// The W_P iteration (§6): T_P + greatest unfounded set per round
  /// (TpEvaluator + GusEvaluator).
  kWp,
};

/// Options for the component-wise well-founded computation.
struct SccOptions {
  SccInnerEngine inner = SccInnerEngine::kAfp;
  /// Where the general-path components' buckets (core/rule_kernel.h) are
  /// kept: a caller that solves the same analysis again (the Solver
  /// session) passes its cache so buckets outlive the run; null keeps them
  /// for the run only. Results do not depend on the cache's contents.
  BucketCache* buckets = nullptr;
};

/// Result of the component-wise well-founded computation.
struct SccWfsResult {
  /// The well-founded partial model (identical to AlternatingFixpoint's).
  PartialModel model;
  /// Number of atom-level strongly connected components processed.
  std::size_t num_components = 0;
  /// Sum of local subprogram sizes actually solved; compare against
  /// rounds × full size for the monolithic engines.
  std::size_t total_local_size = 0;
  /// Whether the ground program was locally stratified (in which case the
  /// model is total — the perfect model).
  bool locally_stratified = false;
  /// Work counters for this computation (rules rescanned, delta sizes,
  /// peak scratch bytes), drawn from the caller's context.
  EvalStats eval;
  /// Per-component inner-solve iteration counts (A_P rounds under kAfp,
  /// W_P rounds under kWp), indexed by component id — the trajectory the
  /// differential tests compare (incremental repair vs a from-scratch
  /// solve, and the reference per-component loop of tests/reference/).
  std::vector<std::uint32_t> component_iterations;
};

/// One undo record of a logged GlobalModel write: the atom and the verdict
/// it held before the write.
struct TrailEntry {
  AtomId atom;
  TruthValue old;
};

/// The global partial model the component-wise engine reads and writes:
/// two bitsets that are exact for every atom of an already solved
/// component (components run in id order, a topological order of the
/// condensation, so a component's externals are always decided by the
/// time it runs). ComponentSolver reads decided externals through
/// IsTrue / IsFalse and publishes each component's verdicts once, through
/// Publish (the general path) or PublishOne (the singleton fast path).
/// Publishing OVERWRITES the members' previous bits — a full solve starts
/// from empty sets, an incremental repair from the previous model, a cone
/// solve from whatever earlier cones left — and records in `changed`
/// whether the component just published changed any verdict: the signal
/// that advances the repair's change frontier. With a `trail`, every
/// overwrite first logs the verdict it replaces, and UndoTo rolls the
/// model back to a trail mark (the stable search backtracks this way;
/// session repairs log nothing).
struct GlobalModel {
  Bitset* true_atoms;
  Bitset* false_atoms;
  std::vector<TrailEntry>* trail = nullptr;
  bool changed = false;

  bool IsTrue(AtomId a) const { return true_atoms->Test(a); }
  bool IsFalse(AtomId a) const { return false_atoms->Test(a); }
  TruthValue Value(AtomId a) const {
    if (IsTrue(a)) return TruthValue::kTrue;
    if (IsFalse(a)) return TruthValue::kFalse;
    return TruthValue::kUndefined;
  }

  /// Publishes member i's verdict from local atom i of the two sets (true
  /// if in `local_true`, else false if in `local_false`, else undefined).
  void Publish(std::span<const AtomId> members, const Bitset& local_true,
               const Bitset& local_false) {
    changed = false;
    for (std::uint32_t i = 0; i < members.size(); ++i) {
      const TruthValue now = local_true.Test(i)    ? TruthValue::kTrue
                             : local_false.Test(i) ? TruthValue::kFalse
                                                   : TruthValue::kUndefined;
      if (Value(members[i]) == now) continue;
      changed = true;
      Write(members[i], now);
    }
  }

  void PublishOne(AtomId a, TruthValue v) {
    changed = Value(a) != v;
    if (changed) Write(a, v);
  }

  /// Restores, newest first, every write logged after trail position
  /// `mark`, and truncates the trail to it.
  void UndoTo(std::size_t mark) {
    while (trail->size() > mark) {
      const TrailEntry e = trail->back();
      trail->pop_back();
      Assign(e.atom, e.old);
    }
  }

 private:
  void Write(AtomId a, TruthValue v) {
    if (trail != nullptr) trail->push_back({a, Value(a)});
    Assign(a, v);
  }

  void Assign(AtomId a, TruthValue v) {
    true_atoms->Reset(a);
    false_atoms->Reset(a);
    if (v == TruthValue::kTrue) {
      true_atoms->Set(a);
    } else if (v == TruthValue::kFalse) {
      false_atoms->Set(a);
    }
  }
};

/// Computes the well-founded model one strongly connected component of the
/// atom dependency graph at a time, bottom-up (the evaluation strategy of
/// XSB-style engines, and the natural executable form of the paper's
/// "dynamic stratification" view of the well-founded semantics):
///
///   * body literals referring to completed components are substituted by
///     their decided truth values (true literals are erased, false ones
///     delete the rule);
///   * literals whose external atom is *undefined* are capped with a
///     sentinel undefined atom (defined by `u :- not u`), which preserves
///     the three-valued semantics inside the component;
///   * each component is then solved on its (usually tiny) local
///     subprogram by the alternating fixpoint or, under
///     SccInnerEngine::kWp, by the W_P iteration; the local subprogram is
///     the component's bucket, lowered once, bound per solve
///     (core/rule_kernel.h).
///
/// On (ground-)locally-stratified programs every component is negation-free
/// internally, so each local fixpoint is a plain Horn solve and the result
/// is the perfect model. Equivalence with AlternatingFixpoint is pinned by
/// the property tests. Runs on a private, throwaway EvalContext; callers
/// that keep a context, a dependency graph and rule buckets alive across
/// solves use WellFoundedSccOnGraph.
SccWfsResult WellFoundedScc(const GroundProgram& gp,
                            const SccOptions& options = {});

/// The program's rule ids bucketed by the component of their head: row c
/// lists, in ascending order, the rules whose head lies in component c —
/// the rules ComponentSolver lowers when it solves c. Callers that keep a
/// program and its dependency graph alive across solves (the Solver
/// facade, the stable search) build this once and patch it across EDB
/// fact and rule mutations instead of re-bucketing per call.
///
/// All rows share one pool. Row c occupies a slot of cap(c) entries at
/// offset begin(c), of which the first size(c) are live. The build is one
/// counting sort in rule-id order that packs every row exactly; a row that
/// outgrows its slot moves to the end of the pool with doubled capacity,
/// leaving its old slot unused until the next build compacts the pool.
class RuleBuckets {
 public:
  RuleBuckets() = default;
  /// Buckets every rule of `view` by `graph` (which must describe it).
  RuleBuckets(const RuleView& view, const AtomDependencyGraph& graph);

  std::size_t num_rows() const { return rows_.size(); }
  std::span<const std::uint32_t> operator[](std::uint32_t c) const {
    return {pool_.data() + rows_[c].begin, rows_[c].size};
  }

  /// Adds empty rows up to `n` rows (components appended to the graph).
  void Resize(std::size_t n);
  /// Appends `rule` to row c; it must exceed every id already there (a
  /// rule appended to the program has the largest id).
  void Append(std::uint32_t c, std::uint32_t rule);
  /// Removes `rule` from row c.
  void Erase(std::uint32_t c, std::uint32_t rule);
  /// Changes `rule`'s id in row c to the smaller id `to`, keeping the row
  /// sorted — the patch for GroundProgram's swap-erase, which moves the
  /// last rule down into the erased slot.
  void Renumber(std::uint32_t c, std::uint32_t rule, std::uint32_t to);

  /// Equal iff both have the same rows with the same ids, whatever the
  /// pool layout.
  bool operator==(const RuleBuckets& other) const;

 private:
  struct Row {
    std::uint32_t begin = 0;
    std::uint32_t size = 0;
    std::uint32_t cap = 0;
  };
  std::uint32_t* row_data(std::uint32_t c) {
    return pool_.data() + rows_[c].begin;
  }

  std::vector<Row> rows_;
  std::vector<std::uint32_t> pool_;
};

/// The full-control entry point: component-wise solve over a caller-owned
/// dependency graph and rule bucketing (both must describe `view`
/// exactly). WellFoundedScc is this plus a private context, graph
/// construction and bucketing; a long-lived Solver calls this directly so
/// repeated solves share one cached condensation.
SccWfsResult WellFoundedSccOnGraph(EvalContext& ctx, const RuleView& view,
                                   const AtomDependencyGraph& graph,
                                   const RuleBuckets& comp_rules,
                                   const SccOptions& options = {});

/// Outcome of an incremental downstream re-solve (SccResolveDownstream):
/// what the walk visited. Its evaluation work is charged to the solver's
/// context, and a caller that wants it as a receipt snapshots the
/// context's EvalStats around the call (the Solver session does; the
/// stable search, which repairs at every node, reads the context once per
/// run instead).
struct SccUpdateStats {
  /// Components in the static downstream closure of the touched atoms
  /// (the candidates; everything else keeps its verdict untouched).
  std::size_t components_downstream = 0;
  /// Local fixpoints actually re-run: a closure component is re-solved
  /// only if it contains a touched atom or some predecessor's member
  /// verdicts changed.
  std::size_t components_resolved = 0;
  /// Closure components skipped because every input was unchanged.
  std::size_t components_skipped = 0;
  /// Whether any atom's verdict changed at all.
  bool model_changed = false;
};

/// Outcome of a cone solve (SccSolveUpstream); its evaluation work is
/// charged to the solver's context, as for SccUpdateStats.
struct SccConeStats {
  /// Components in the upstream cone of the queried atoms; every one of
  /// them was solved.
  std::size_t components = 0;
  /// Sum of their local subprogram sizes (same accounting as
  /// SccWfsResult::total_local_size).
  std::size_t local_size = 0;
};

/// Caller-owned persistent scratch for SccResolveDownstream and
/// SccSolveUpstream. Without it, every update or cone solve would
/// allocate and zero-fill its O(num_components) working arrays (closure
/// membership, change-frontier flags) — a memset floor that dominates
/// small calls once the condensation reaches ~100k components. The
/// scratch keeps those arrays alive across calls and replaces the clears
/// with a per-call epoch: an entry is "set for this call" iff its stamp
/// equals the current epoch, so per-call cost is O(closure), independent
/// of num_components after the first use. Stamps are 32-bit (8 bytes per
/// component for both arrays): when the epoch wraps, both arrays are
/// zero-filled again and the epoch restarts at 1. One scratch serves one
/// graph at a time; a Solver owns one for its cached condensation, a
/// StableSearch one for its own.
class SccUpdateScratch {
 public:
  SccUpdateScratch() = default;
  /// Starts the epoch at `epoch` instead of 0, so a test can cross the
  /// wrap without running 2^32 updates.
  explicit SccUpdateScratch(std::uint32_t epoch) : epoch_(epoch) {}
  SccUpdateScratch(SccUpdateScratch&&) = default;
  SccUpdateScratch& operator=(SccUpdateScratch&&) = default;
  SccUpdateScratch(const SccUpdateScratch&) = delete;
  SccUpdateScratch& operator=(const SccUpdateScratch&) = delete;

 private:
  friend SccUpdateStats SccResolveDownstream(
      ComponentSolver& solver, std::span<const AtomId> touched_atoms,
      GlobalModel& gm, std::vector<std::uint32_t>* component_iterations,
      SccUpdateScratch& scratch);
  friend SccConeStats SccSolveUpstream(ComponentSolver& solver,
                                       std::span<const AtomId> atoms,
                                       GlobalModel& gm,
                                       SccUpdateScratch& scratch);

  /// (Re)sizes the stamp arrays to `nc` components and starts the next
  /// epoch; zero-fills only when the component count changed or the
  /// epoch wraps (stamp 0 never matches a live epoch).
  void Ensure(std::size_t nc);

  std::uint32_t epoch_ = 0;
  /// stamp == epoch_ → component is in this call's closure (downstream
  /// for a repair, upstream for a cone solve).
  std::vector<std::uint32_t> in_closure_;
  /// stamp == epoch_ → the change frontier reaches this component (seeded
  /// by the touched components, advanced by changed predecessors).
  std::vector<std::uint32_t> need_;
  /// The O(closure)-sized closure, pooled for capacity reuse.
  std::vector<std::uint32_t> closure_;
};

/// Incrementally repairs a previously computed well-founded model after
/// the rules of `touched_atoms` changed — an EDB fact mutation
/// (GroundProgram::AddFact / RemoveFact), a rule-op delta, or a stable
/// search branch assumption — re-running only components
/// condensation-downstream of `touched_atoms`:
///
///   * the static closure of the touched components under the
///     condensation's successor relation is collected (component id order
///     is topological, so ascending order is a valid schedule);
///   * a closure component is re-solved by `solver` — the same
///     ComponentSolver machinery as a full solve — only while the change
///     frontier reaches it: it contains a touched atom, or a predecessor
///     re-solve changed some member's verdict. Unreached closure
///     components and all upstream components keep their verdicts.
///
/// `gm` holds the previous well-founded model on entry and the repaired
/// one on return (writes go through its trail when it has one); the
/// result is pinned bit-identical — model AND per-component trajectories
/// — to a from-scratch solve of the changed program (the Solver
/// differential tests enforce this). The solver's graph and rule buckets
/// must already describe the CHANGED program (facts change no dependency
/// arcs, so the graph needs no rebuild; the buckets must have been
/// patched for added/removed fact rules; search assumptions only remove
/// arcs, so the base condensation stays a valid order).
/// `component_iterations`, when non-null, must be sized to
/// graph.num_components() and is updated for re-solved components.
/// `scratch` must be dedicated to this graph; it makes the per-update
/// bookkeeping O(downstream closure) instead of O(num_components) (see
/// SccUpdateScratch). Results do not depend on the scratch's history.
SccUpdateStats SccResolveDownstream(
    ComponentSolver& solver, std::span<const AtomId> touched_atoms,
    GlobalModel& gm, std::vector<std::uint32_t>* component_iterations,
    SccUpdateScratch& scratch);

/// Solves the upstream cone of `atoms` — the query-directed evaluation
/// the paper's conclusion calls for, on an analysis the caller already
/// keeps: the closure of their components under "component → components
/// of its rules' body atoms" (read off the solver's rule buckets), each
/// solved by `solver` in ascending (topological) id order. An atom's
/// well-founded value depends only on the atoms it reaches, so on return
/// `gm` holds, for every atom of the cone, exactly its value in the
/// program's well-founded model.
///
/// The solver's graph and rule buckets must describe the program as it
/// stands (a session patches them at every fact repair and rule op).
/// `gm` may hold anything on entry: each solve overwrites its members'
/// bits and reads only members of cone components solved before it, so
/// stale bits outside the cone are never read and the caller never clears
/// the bitsets. Costs O(cone rules and body literals) plus the cone's
/// solves; `scratch` is the repair's (SccResolveDownstream), dedicated to
/// the same graph.
SccConeStats SccSolveUpstream(ComponentSolver& solver,
                              std::span<const AtomId> atoms, GlobalModel& gm,
                              SccUpdateScratch& scratch);

}  // namespace afp

#endif  // AFP_CORE_SCC_ENGINE_H_
