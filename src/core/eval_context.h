#ifndef AFP_CORE_EVAL_CONTEXT_H_
#define AFP_CORE_EVAL_CONTEXT_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "core/horn_solver.h"
#include "ground/ground_program.h"
#include "ground/owned_rules.h"
#include "util/bitset.h"

namespace afp {

/// Work counters accumulated by every evaluation that runs through one
/// EvalContext. Engines snapshot the counters around a run and report the
/// difference in their result structs.
struct EvalStats {
  /// S_P fixpoint evaluations performed (Definition 4.2 applications; two
  /// per alternating round plus the confirming ones).
  std::size_t sp_calls = 0;
  /// Rule-enablement examinations: how many per-rule negative-body checks
  /// were (re)done. A priming call pays one per rule (none when Ĩ = ∅);
  /// a delta call pays one per rule *touched by a flipped atom*. A
  /// from-scratch evaluation would pay one per rule per call (the test
  /// reference in tests/reference/ charges exactly that, and the
  /// AblationCounters test pins the gap). It does NOT include the
  /// propagation itself, which re-derives the full S_P output on every
  /// call (inherently Ω(|output|)) — so wall-clock improves by less than
  /// this counter's ratio. The W_P side (TpEvaluator) charges its body
  /// examinations here too.
  std::size_t rules_rescanned = 0;
  /// Atoms whose assumed-false status flipped between consecutive delta
  /// evaluations (the |Δ| that drives the incremental path). The W_P-side
  /// delta evaluators (TpEvaluator, GusEvaluator) add their interpretation
  /// flips here too.
  std::size_t delta_atoms = 0;
  /// Greatest-unfounded-set solves performed (U_P applications,
  /// Definition 6.1 — one per W_P round).
  std::size_t gus_calls = 0;
  /// Rule-body witness examinations done by the unfounded-set side: how
  /// many per-rule witness-of-unusability checks were (re)done. A priming
  /// call pays one per rule (none on the all-undefined interpretation); a
  /// delta call pays one per rule *occurrence touched by a flipped atom*
  /// plus one per defining rule of each over-deleted atom during
  /// re-derivation. A from-scratch evaluation would pay one per rule per
  /// U_P call, a slightly different unit — on shallow iterations over
  /// wide-bodied rules the incidence touches can exceed the per-rule
  /// count; the delta win is an amortized one, materializing as rounds
  /// grow (each atom flips at most once per polarity across a monotone
  /// W_P run, so the delta total is bounded by program size while a
  /// rescan pays rounds × rules).
  std::size_t gus_rules_rescanned = 0;
  /// Component solves that took the general path: a CompiledBucket
  /// (core/rule_kernel.h) bound and evaluated, instead of the singleton
  /// fast path.
  std::size_t bucket_solves = 0;
  /// Buckets lowered (a component's first general-path solve, or its first
  /// after its rules changed); the rest of bucket_solves reused one.
  std::size_t buckets_built = 0;
  /// High-water mark of scratch bytes owned by the context — pooled plus
  /// checked-out, observed at every acquire/release. Slightly approximate:
  /// growth of a buffer while checked out is seen only once it returns
  /// (so buffers held for their holder's life — an evaluator's counters,
  /// a ComponentSolver's fixpoint round buffers — count at their full
  /// size only once the holder is destroyed), and buffers that escape
  /// into results are deducted via EvalContext::NoteEscapedBytes at the
  /// hand-off.
  std::size_t peak_scratch_bytes = 0;

  /// Counter difference (for snapshotting around an engine run); the peak
  /// is carried over, not subtracted.
  EvalStats Since(const EvalStats& start) const {
    EvalStats d;
    d.sp_calls = sp_calls - start.sp_calls;
    d.rules_rescanned = rules_rescanned - start.rules_rescanned;
    d.delta_atoms = delta_atoms - start.delta_atoms;
    d.gus_calls = gus_calls - start.gus_calls;
    d.gus_rules_rescanned = gus_rules_rescanned - start.gus_rules_rescanned;
    d.bucket_solves = bucket_solves - start.bucket_solves;
    d.buckets_built = buckets_built - start.buckets_built;
    d.peak_scratch_bytes = peak_scratch_bytes;
    return d;
  }
};

/// Reusable evaluation scratch shared by all well-founded engines: pooled
/// bitsets, rule-counter vectors, propagation queues, and rewritable rule
/// buffers. One context can serve any number of solves over programs of any
/// size — buffers are recycled across calls instead of reallocated, so the
/// steady-state allocation rate of an engine loop is zero.
///
/// Not thread-safe; each engine (or thread) owns or borrows one context.
class EvalContext {
 public:
  EvalContext() = default;
  EvalContext(const EvalContext&) = delete;
  EvalContext& operator=(const EvalContext&) = delete;

  /// Returns a cleared bitset over `universe` atoms.
  Bitset AcquireBitset(std::size_t universe);
  void ReleaseBitset(Bitset&& b);

  /// Returns an empty uint32 vector with whatever capacity the pool has.
  std::vector<std::uint32_t> AcquireU32();
  void ReleaseU32(std::vector<std::uint32_t>&& v);

  /// Returns an empty rewritable rule buffer (capacity retained across
  /// uses — the stable search's conditioned programs cycle through
  /// these).
  OwnedRules AcquireRules();
  void ReleaseRules(OwnedRules&& r);

  /// Records that an acquired buffer permanently left the pool cycle
  /// (moved into a result the caller keeps): its bytes stop counting
  /// toward the scratch high-water mark, which otherwise would grow with
  /// every returned model.
  void NoteEscapedBytes(std::size_t bytes);

  const EvalStats& stats() const { return stats_; }
  EvalStats& stats() { return stats_; }
  void ResetStats() { stats_ = EvalStats{}; }

 private:
  /// Bookkeeping around every pool transition: `delta` is the byte change
  /// in checked-out capacity (positive on acquire, negative on release).
  void NoteScratchBytes(std::ptrdiff_t outstanding_delta);

  std::vector<Bitset> bitsets_;
  std::vector<std::vector<std::uint32_t>> u32s_;
  std::vector<OwnedRules> rules_;
  std::size_t pool_bytes_ = 0;
  std::ptrdiff_t outstanding_bytes_ = 0;
  EvalStats stats_;
};

/// Fills `offsets`/`entries` with the CSR occurrence index of
/// `literals(rule)` over `rules`: for every atom a, entries
/// [offsets[a], offsets[a+1]) are the rule ids in whose `literals` span a
/// occurs. One counting-sort pass; `cursor` is caller-provided scratch
/// (draw all three vectors from an EvalContext so per-round or per-node
/// index rebuilds allocate nothing). This single builder produces every
/// occurrence index of the evaluation core: HornSolver's positive- and
/// negative-body indexes (S_P propagation and delta enablement) and
/// GusEvaluator's head index (U_P re-derivation).
template <typename LiteralsFn>
void BuildCsrIndex(std::size_t num_atoms, std::span<const GroundRule> rules,
                   LiteralsFn&& literals, std::vector<std::uint32_t>* offsets,
                   std::vector<std::uint32_t>* entries,
                   std::vector<std::uint32_t>* cursor) {
  offsets->assign(num_atoms + 1, 0);
  for (const GroundRule& r : rules) {
    for (AtomId a : literals(r)) ++(*offsets)[a + 1];
  }
  for (std::size_t i = 1; i < offsets->size(); ++i) {
    (*offsets)[i] += (*offsets)[i - 1];
  }
  entries->resize(offsets->back());
  cursor->assign(offsets->begin(), offsets->end() - 1);
  for (std::uint32_t ri = 0; ri < rules.size(); ++ri) {
    for (AtomId a : literals(rules[ri])) {
      (*entries)[(*cursor)[a]++] = ri;
    }
  }
}

/// The per-solve state a component bucket's Bind (core/rule_kernel.h)
/// lays over the bucket's local program, so the evaluators run on rules
/// lowered once instead of on a program re-lowered per solve. With a
/// binding the program an evaluator evaluates is:
///
///   * every rule whose state is not kDead, and a kCapped rule's positive
///     body also holds the sentinel atom s, the last atom of the universe;
///   * `s :- not s` when `sentinel` is set, which keeps s undefined, so a
///     capped rule is never true and never unfounded for want of its
///     undefined externals;
///   * a body-free rule for every atom of `facts`.
///
/// The sentinel has no entries in the solver's occurrence indexes: the
/// evaluators read its value straight off their interpretation argument.
/// SpEvaluator does so on every call; TpEvaluator and GusEvaluator read it
/// when they prime and prime again if it flips (the W_P iteration never
/// flips it: s is undefined throughout).
struct RuleBinding {
  static constexpr std::uint8_t kLive = 0;
  static constexpr std::uint8_t kCapped = 1;
  static constexpr std::uint8_t kDead = 2;
  /// Added to a dead rule's counters when TpEvaluator or GusEvaluator
  /// primes, so they never reach zero whatever the later deltas do
  /// (SpEvaluator visits only `live`).
  static constexpr std::uint32_t kDeadBias = 1u << 30;

  /// One entry per rule of the solver's view.
  std::span<const std::uint8_t> state;
  /// The rules that are not dead, ascending.
  std::span<const std::uint32_t> live;
  std::span<const AtomId> facts;
  bool sentinel = false;

  bool dead(std::uint32_t r) const { return state[r] == kDead; }
  bool capped(std::uint32_t r) const { return state[r] == kCapped; }
};

/// Incremental S_P evaluator binding one HornSolver to one EvalContext.
///
/// Construction borrows scratch from the context (cheap once the context is
/// warm); destruction returns it. The first Eval primes the per-rule
/// unsatisfied-negative-literal counters with one full scan (free when
/// Ĩ = ∅); every later call updates them only from the atoms whose
/// membership in `assumed_false` changed, via the solver's
/// negative-occurrence index. The Ĩ arguments of the alternating sequences
/// are monotone per subsequence (Theorem 5.4), so these deltas shrink to
/// nothing as the fixpoint is approached.
///
/// The alternating fixpoint keeps two evaluators — one per subsequence of
/// Ĩ_k arguments — so each sees a monotone, shrinking delta stream.
class SpEvaluator {
 public:
  SpEvaluator(const HornSolver& solver, EvalContext& ctx);
  ~SpEvaluator();

  SpEvaluator(const SpEvaluator&) = delete;
  SpEvaluator& operator=(const SpEvaluator&) = delete;

  /// Re-targets the evaluator at a different solver, and at the binding
  /// that solver's rules carry for this solve (null: none), keeping the
  /// pooled buffers (the next Eval re-primes into them). This is how the
  /// SCC engine's ComponentSolver runs one evaluator pair across every
  /// component bucket without a pool round-trip per component.
  void Rebind(const HornSolver& solver, const RuleBinding* binding = nullptr) {
    solver_ = &solver;
    binding_ = binding;
    primed_ = false;
  }

  /// Computes S_P(assumed_false) into `*out` (resized and cleared here).
  /// Precondition: `out` must not alias `assumed_false`, and
  /// `assumed_false` must have the solver's atom universe size.
  /// Postcondition: `*out` equals S_P(assumed_false) bit for bit, for any
  /// call sequence (monotone or not).
  void Eval(const Bitset& assumed_false, Bitset* out);

  /// Convenience: returns a fresh bitset (allocates; prefer the in-place
  /// overload in loops).
  Bitset Eval(const Bitset& assumed_false);

 private:
  /// Sizes the per-rule arrays for a fresh prime; the counters themselves
  /// are set by the priming Propagate.
  void PrimeScratch();
  void ApplyDelta(const Bitset& assumed_false);
  /// One pass over the (live) rules: primes their counters when `prime`,
  /// seeds the enabled body-free ones, then counts positive bodies down.
  void Propagate(const Bitset& assumed_false, bool prime, Bitset* out);

  const HornSolver* solver_;
  const RuleBinding* binding_ = nullptr;
  EvalContext& ctx_;
  bool primed_ = false;
  /// neg_missing_[r]: negative body literals of rule r not satisfied by the
  /// last assumed_false seen (unread for a dead rule). Rule enabled iff 0.
  /// Persistent across calls.
  std::vector<std::uint32_t> neg_missing_;
  Bitset last_false_;
  /// Per-call scratch: positive-body countdown (UINT32_MAX: disabled, for
  /// a dead rule the whole solve) and propagation queue.
  std::vector<std::uint32_t> remaining_;
  std::vector<std::uint32_t> queue_;
};

}  // namespace afp

#endif  // AFP_CORE_EVAL_CONTEXT_H_
