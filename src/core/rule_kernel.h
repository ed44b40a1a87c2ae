#ifndef AFP_CORE_RULE_KERNEL_H_
#define AFP_CORE_RULE_KERNEL_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "analysis/atom_graph.h"
#include "core/eval_context.h"
#include "core/interpretation.h"
#include "core/scc_engine.h"
#include "ground/ground_program.h"
#include "util/bitset.h"

namespace afp {

/// When the Solver session compiles a component's rule bucket into a
/// packed kernel (SolverOptions::compile).
enum class CompileMode {
  /// Never compile; every component runs the interpreted lowering.
  kOff,
  /// Interpret-cold / compile-hot staging (default): a component starts
  /// interpreted and is compiled once its accumulated interpreted solve
  /// work crosses SolverOptions::compile_hot_threshold — the mips32-bt
  /// style profile-then-translate pipeline. One-shot solves stay fully
  /// interpreted (no component is solved often enough to heat up);
  /// long-lived serving sessions migrate their re-solved components onto
  /// kernels automatically.
  kHot,
  /// Compile every eligible component up front, before the first solve.
  kAlways,
};

/// One component's rule bucket lowered into flat arrays — the
/// packed struct-of-arrays form of the interpreted per-solve lowering in
/// ComponentSolver::Solve. Everything that does NOT depend on the global
/// model is precomputed here, once, at compile time:
///
///   * body literals are split by locality: literals internal to the
///     component are stored as local ids (dense in [0, num_members)),
///     external literals as global AtomIds in their original body order
///     (order matters: the interpreted lowering stops scanning a body at
///     the first decided-false external, so which undefined externals it
///     has seen — and hence whether the sentinel atom gets materialized —
///     depends on scan order; KernelEvaluator::Bind replays it exactly);
///   * the positive-occurrence CSR over local atoms that drives the
///     counting propagation of S_P and of the externally-supported set is
///     built once instead of once per solve (HornSolver rebuilds it per
///     component per solve on the interpreted path);
///   * rule heads are pre-remapped to local ids.
///
/// What remains per solve is Bind: one pass over the external-literal
/// segments against the global model, producing a per-rule undefined-
/// external count (the number of sentinel copies capping that body) and a
/// dead flag. The local universe is num_members + 1; local atom
/// num_members is the sentinel (`u :- not u`), whose rule and positive
/// occurrences are bind-dynamic and never stored.
///
/// A bucket snapshots rule CONTENT, not rule ids, so GroundProgram's
/// swap-erase fact removal moving an unrelated rule to a new id never
/// stales it; only mutations that change this component's own rule set do
/// (KernelCache's invalidation contract).
struct CompiledBucket {
  CompiledBucket() = default;
  /// The arrays below point into `storage`; a copy would alias the
  /// original's.
  CompiledBucket(const CompiledBucket&) = delete;
  CompiledBucket& operator=(const CompiledBucket&) = delete;

  std::uint32_t num_rules = 0;
  std::uint32_t num_members = 0;
  /// The component's member atoms, copied into `storage`; local id
  /// i is members[i], the same remap the interpreted lowering uses. A copy,
  /// not a view of the dependency graph's membership CSR: rule-level
  /// universe growth (AtomDependencyGraph::TryAppendDelta) appends to that
  /// array and may reallocate it, while an old component's bucket stays
  /// valid as long as its own membership is untouched.
  const AtomId* members = nullptr;
  /// Local head id per rule.
  const std::uint32_t* head = nullptr;
  /// Internal body literals as local ids, CSR by rule (multiplicity
  /// preserved — duplicate literals count once per occurrence, matching
  /// the countdown convention of HornSolver).
  const std::uint32_t* int_pos_offsets = nullptr;  // [num_rules + 1]
  const std::uint32_t* int_pos = nullptr;
  const std::uint32_t* int_neg_offsets = nullptr;  // [num_rules + 1]
  const std::uint32_t* int_neg = nullptr;
  /// External body literals as global AtomIds, CSR by rule, original
  /// body order preserved.
  const std::uint32_t* ext_pos_offsets = nullptr;  // [num_rules + 1]
  const AtomId* ext_pos = nullptr;
  const std::uint32_t* ext_neg_offsets = nullptr;  // [num_rules + 1]
  const AtomId* ext_neg = nullptr;
  /// Occurrence CSR of int_pos over the local universe: for local atom a,
  /// pos_occ[pos_occ_offsets[a] .. pos_occ_offsets[a+1]) are the bucket-
  /// local rule indexes with a in their internal positive body, once per
  /// occurrence. The sentinel row (a == num_members) is empty.
  const std::uint32_t* pos_occ_offsets = nullptr;  // [num_members + 2]
  const std::uint32_t* pos_occ = nullptr;
  /// The one allocation every array above lives in, freed with the bucket
  /// when the cache invalidates or drops it.
  std::vector<std::uint32_t> storage;
};

/// Session-lifetime cache of compiled buckets, owned by afp::Solver
/// alongside the condensation it is indexed by. The cache fills two
/// roles: the staging profiler (per-component heat counters fed by
/// interpreted solves, with threshold crossings queued for compilation)
/// and the invalidation authority (epoch protocol against GroundProgram's
/// mutation counter).
///
/// Buckets are compiled and invalidated only between engine runs; during
/// a run the engine reads Get() and feeds NoteInterpretedSolve().
///
/// Epoch protocol: the cache records the GroundProgram::mutation_epoch()
/// its buckets were built against. A caller that mutates the program
/// through the cache-aware paths (Solver::UpdateFactsById) invalidates
/// exactly the touched components and then AcknowledgeEpoch()s the new
/// counter; SyncEpoch() at every entry point drops ALL buckets on any
/// unexplained change — the safety net that keeps a bare
/// GroundProgram::AddRule from ever being evaluated against a stale
/// kernel (the rule-append staleness regression test pins this).
///
/// Each bucket owns its storage, so an invalidation frees what it drops
/// and a long-lived session holds only its live kernels (kernel_bytes()).
class KernelCache {
 public:
  /// All references must outlive the cache; `comp_rules` is the Solver's
  /// live bucketing (indexed per compile, so post-compile bucket surgery
  /// is observed as long as the touched components are invalidated).
  /// `initial_epoch` is ground.mutation_epoch() at creation.
  KernelCache(const GroundProgram& ground, const AtomDependencyGraph& graph,
              const RuleBuckets& comp_rules, std::uint32_t hot_threshold,
              std::uint64_t initial_epoch);

  KernelCache(const KernelCache&) = delete;
  KernelCache& operator=(const KernelCache&) = delete;

  /// The compiled bucket for component c, or null if it runs interpreted.
  const CompiledBucket* Get(std::uint32_t c) const {
    return buckets_[c].get();
  }

  /// Heat feedback from an interpreted general-path solve of component c
  /// that took `iterations` inner rounds. Charges iterations + 1 heat
  /// units; the crossing of hot_threshold queues c for the next
  /// CompilePending() drain.
  void NoteInterpretedSolve(std::uint32_t c, std::uint32_t iterations);

  /// Compiles every eligible not-yet-compiled component (CompileMode::
  /// kAlways, and the post-invalidation recovery path). Session thread
  /// only. Returns the number of buckets compiled.
  std::size_t CompileAllEligible();

  /// Drains the heat-crossing queue, compiling each still-eligible,
  /// still-uncompiled entry (CompileMode::kHot). Session thread only.
  /// Also empties the CompileInvalidated queue: under staging an
  /// invalidated component recompiles once it is hot again, and a queue
  /// nobody drains would grow by one entry per fact update.
  /// Returns the number of buckets compiled.
  std::size_t CompilePending();

  /// Recompiles exactly the components dropped by InvalidateComponent
  /// since the last drain (the CompileMode::kAlways counterpart of
  /// CompilePending: a serving update touches a handful of components, so
  /// recovery must cost O(touched), not an O(num_components) rescan).
  /// Session thread only. Returns the number of buckets compiled.
  std::size_t CompileInvalidated();

  /// Drops component c's bucket and resets its heat (the precise
  /// invalidation of a cache-aware mutation path); queues c for
  /// CompileInvalidated.
  void InvalidateComponent(std::uint32_t c);

  /// Drops every bucket, resets all heat, clears the pending queue.
  void InvalidateAll();

  /// Entry-point check against the program's current mutation epoch: any
  /// change not explained by an AcknowledgeEpoch invalidates everything.
  /// Returns true if the cache was dropped.
  bool SyncEpoch(std::uint64_t epoch);

  /// Records `epoch` as explained (call after cache-aware mutations have
  /// invalidated their touched components).
  void AcknowledgeEpoch(std::uint64_t epoch) { expected_epoch_ = epoch; }

  /// Grows the cache to the graph's CURRENT component and atom counts
  /// after a rule-level delta was spliced (AtomDependencyGraph::
  /// TryAppendDelta): new components start uncompiled and cold, with
  /// freshly computed eligibility; existing buckets, heat, and queues are
  /// untouched (old components' membership is unchanged on that path, and
  /// each bucket owns a copy of its members). The caller then invalidates each
  /// old component whose rule bucket changed — via InvalidateComponent +
  /// RecomputeEligibility — and AcknowledgeEpoch()s. Session thread only.
  void GrowToComponents();

  /// Recomputes component c's eligibility bit in place. Rule-level
  /// mutations CAN flip eligibility (a singleton gains or loses its
  /// self-dependent rule; a bucket becomes empty), unlike the fact
  /// mutations the bitmap was originally frozen for. No-op while the
  /// bitmap is invalid (the next EnsureEligibility rescan re-derives
  /// everything anyway).
  void RecomputeEligibility(std::uint32_t c);

  /// Nanoseconds spent compiling since the last take (drained into
  /// EvalStats::kernel_compile_ns by the Solver after each run).
  std::uint64_t TakeCompileNs() {
    std::uint64_t ns = compile_ns_;
    compile_ns_ = 0;
    return ns;
  }

  /// A component is eligible iff its bucket is non-empty and it would
  /// reach the general solve path at all: multi-member, or a singleton
  /// with a self-dependent rule (everything else is decided by the
  /// singleton fast path without ever lowering a subprogram). Computed
  /// once for the whole condensation and cached: fact mutations cannot
  /// change it (a fact rule has no body, so it never creates a
  /// self-dependency, and no multi-member bucket can become empty), and
  /// the mutations that can (a general rule append) go through
  /// InvalidateAll, which drops the cache.
  bool Eligible(std::uint32_t c) const;

  std::size_t num_components() const { return buckets_.size(); }
  std::size_t num_compiled() const { return compiled_count_; }
  /// Bytes held by the live compiled buckets.
  std::size_t kernel_bytes() const;

  /// The program this cache borrows. A moved Solver session compares this
  /// against its own (relocated) GroundProgram member and rebuilds the
  /// cache on mismatch — the references above do not survive a move of
  /// their referents.
  const GroundProgram& ground() const { return ground_; }

 private:
  /// Lowers component c's bucket (unconditionally; caller checks
  /// eligibility).
  std::unique_ptr<CompiledBucket> Compile(std::uint32_t c);

  const GroundProgram& ground_;
  const AtomDependencyGraph& graph_;
  const RuleBuckets& comp_rules_;
  std::uint32_t hot_threshold_;
  std::uint64_t expected_epoch_;

  /// Ensures the eligibility bitmap (and its count) is current.
  void EnsureEligibility() const;
  /// The uncached predicate behind the bitmap.
  bool ComputeEligible(std::uint32_t c) const;

  std::vector<std::unique_ptr<CompiledBucket>> buckets_;
  std::size_t compiled_count_ = 0;
  /// Components dropped by InvalidateComponent awaiting recompilation.
  std::vector<std::uint32_t> invalidated_;
  /// Lazily computed eligibility bitmap (see Eligible).
  mutable std::vector<std::uint8_t> eligible_;
  mutable std::size_t num_eligible_ = 0;
  mutable bool eligibility_valid_ = false;
  /// Accumulated interpreted-solve work per component.
  std::vector<std::uint32_t> heat_;
  /// Components whose heat crossed the threshold, awaiting CompilePending.
  std::vector<std::uint32_t> pending_;
  std::uint64_t compile_ns_ = 0;

  /// Compile-time scratch: AtomId -> local id. Only the compiled
  /// component's members are read back (a body atom is internal iff its
  /// component_of() is the component), so the map never needs clearing.
  std::vector<std::uint32_t> local_id_;
};

/// The outcome of a kernel-served component solve — mirrors
/// ComponentSolver::Outcome (which this header cannot name: the
/// component solver includes us).
struct KernelOutcome {
  std::uint32_t iterations = 0;
  std::size_t local_size = 0;
};

/// Executes compiled buckets: the packed, branch-light replacement for
/// the interpreted per-component pipeline (lower into OwnedRules →
/// HornSolver CSR build → SpEvaluator/TpEvaluator/GusEvaluator rounds).
/// One evaluator per ComponentSolver, bound to its EvalContext, reused
/// across every compiled component it solves (all per-rule scratch is
/// pooled and recycled).
///
/// Semantics: bit-identical to the interpreted path — same local model,
/// same inner iteration count — because S_P, T_P, and the externally-
/// supported set are computed as pure functions of (bucket, bound
/// externals) with exactly the interpreted operators' definitions, and
/// the outer loops replicate AlternatingFixpointOnEvaluators /
/// WellFoundedViaWpOnEvaluators termination tests verbatim. The
/// differential tests pin this across the corpus, engines and modes.
/// (EvalStats work counters are NOT pinned: kernels charge
/// kernel_components / kernel_rounds instead of the interpreted path's
/// rescan counters.)
class KernelEvaluator {
 public:
  KernelEvaluator(EvalContext& ctx, SccInnerEngine inner);
  ~KernelEvaluator();

  KernelEvaluator(const KernelEvaluator&) = delete;
  KernelEvaluator& operator=(const KernelEvaluator&) = delete;

  /// Solves one compiled component against the global model and publishes
  /// the members' verdicts, exactly as ComponentSolver::Solve's general
  /// path would.
  KernelOutcome Solve(const CompiledBucket& b, GlobalModel& gm);

 private:
  static constexpr std::uint32_t kDead = UINT32_MAX;
  static constexpr std::uint32_t kDisabled = UINT32_MAX;

  /// The per-solve half of the lowering: replays the interpreted body
  /// scan over the external segments (in original order, stopping at the
  /// first decided-false literal exactly as the interpreted loop breaks),
  /// leaving per-rule undefined-external counts (undef_, kDead for dead
  /// rules), the list of alive rules holding sentinel copies
  /// (undef_rules_ — the sentinel's dynamic occurrence list), the
  /// sentinel_used_ flag, and the interpreted path's local_size
  /// accounting. Every slot is written each Bind; nothing needs clearing.
  void Bind(const CompiledBucket& b, const GlobalModel& gm);

  /// S_P(assumed_false) over the bound bucket (Definition 4.2: counting
  /// Horn propagation among rules whose negative body is contained in the
  /// assumed-false set). Matches SpEvaluator::Eval bit for bit.
  void EvalSp(const CompiledBucket& b, const Bitset& assumed_false,
              Bitset* out);
  /// T_P(I) (Definition 3.7). Matches TpEvaluator::Eval bit for bit.
  void EvalTp(const CompiledBucket& b, const PartialModel& I, Bitset* out);
  /// The externally supported set X = H − U_P(I) (Definition 6.1).
  /// Matches GusEvaluator::EvalSupported bit for bit.
  void EvalX(const CompiledBucket& b, const PartialModel& I, Bitset* out);

  /// The two outer loops, replicated termination-test-for-termination-
  /// test from the interpreted engines; return the iteration count and
  /// leave the local model's (pool-acquired) bitsets in *local.
  std::uint32_t RunAfp(const CompiledBucket& b, PartialModel* local);
  std::uint32_t RunWp(const CompiledBucket& b, PartialModel* local);

  /// Shared counting-propagation tail of EvalSp/EvalX: drains queue_,
  /// decrementing remaining_ through the static occurrence CSR — and,
  /// when the sentinel pops, through the dynamic undef_rules_ list with
  /// per-rule multiplicity undef_[r].
  void Propagate(const CompiledBucket& b, Bitset* out);

  EvalContext& ctx_;
  SccInnerEngine inner_;
  /// Bound per-solve state (see Bind).
  std::vector<std::uint32_t> undef_;
  std::vector<std::uint32_t> undef_rules_;
  bool sentinel_used_ = false;
  std::size_t local_size_ = 0;
  /// Per-eval scratch: rule countdowns and the propagation stack.
  std::vector<std::uint32_t> remaining_;
  std::vector<std::uint32_t> queue_;
};

}  // namespace afp

#endif  // AFP_CORE_RULE_KERNEL_H_
