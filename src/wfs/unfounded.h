#ifndef AFP_WFS_UNFOUNDED_H_
#define AFP_WFS_UNFOUNDED_H_

#include <cstdint>
#include <vector>

#include "core/eval_context.h"
#include "core/horn_solver.h"
#include "core/interpretation.h"
#include "util/bitset.h"

namespace afp {

/// Incremental evaluator of the greatest unfounded set U_P(I) (Definition
/// 6.1), binding one HornSolver to one EvalContext — the unfounded-set
/// mirror of SpEvaluator.
///
/// An atom p belongs to an unfounded set U iff every rule for p has a
/// "witness of unusability": a body literal false in I, or a positive body
/// literal in U. The union of all unfounded sets is itself unfounded; it is
/// computed through its complement X = H − U, the least set closed under
/// "p has a rule with no false literal whose positive body lies in X" — a
/// Horn-style least fixpoint evaluated by counting propagation.
///
/// Construction borrows scratch from the context (cheap once the context is
/// warm); destruction returns it. The first Eval primes
/// per-rule witness-of-unusability counters over BOTH body polarities
/// (positive body literals false in I, via the positive-occurrence index;
/// negative body literals true in I, via the negative-occurrence one) and
/// computes the externally-supported set X = H − U_P(I) by counting
/// propagation. Every later call:
///
///   1. updates the witness counters only for rules reachable from atoms
///      whose truth status flipped since the previous call;
///   2. shrinks X by an over-delete worklist seeded from rules that lost
///      their last witness-free firing (cascading through the
///      positive-occurrence index, DRed-style: any counted support that
///      passed through an invalidated rule is tentatively retracted);
///   3. re-derives over-deleted atoms that still have a firing rule, found
///      through the solver's head index (rules grouped by head atom), and
///      propagates additions from newly-enabled rules.
///
/// Under the monotone W_P iteration every atom flips at most once per
/// polarity, so the total witness-update work across a whole run is bounded
/// by the program size — independent of the number of rounds — where a
/// from-scratch evaluation pays |rules| per round. Arbitrary
/// (non-monotone) call sequences are also supported: flips in either
/// direction are handled, as the differential tests pin against the
/// from-scratch reference in tests/reference/.
///
/// Precondition: `I` passed to Eval is sized to the solver's universe and
/// consistent (true/false disjoint). Postcondition: `*out` equals the
/// greatest unfounded set of the solver's program w.r.t. I, bit for bit.
class GusEvaluator {
 public:
  GusEvaluator(const HornSolver& solver, EvalContext& ctx);
  ~GusEvaluator();

  GusEvaluator(const GusEvaluator&) = delete;
  GusEvaluator& operator=(const GusEvaluator&) = delete;

  /// Re-targets the evaluator at a different solver and binding (sharing
  /// this evaluator's context), keeping the pooled buffers; the next Eval
  /// re-primes. See SpEvaluator::Rebind.
  void Rebind(const HornSolver& solver, const RuleBinding* binding = nullptr) {
    solver_ = &solver;
    binding_ = binding;
    primed_ = false;
  }

  /// Computes U_P(I) into `*out` (resized and overwritten here). Charges
  /// one gus_call; gus_rules_rescanned grows by the witness examinations
  /// actually performed (the full program when priming on a non-empty I,
  /// touched rules plus re-derivation probes afterwards).
  void Eval(const PartialModel& I, Bitset* out);

  /// Borrowed-view evaluation: updates the internally maintained
  /// externally-supported set X = H − U_P(I) and returns a reference to
  /// it, valid until the next Eval/EvalSupported/Rebind or destruction.
  /// U_P membership is read as !x.Test(a). This skips the O(n/64)
  /// copy+complement that Eval pays per call to materialize U_P into
  /// `out` — the engine loop (WellFoundedViaWpOnEvaluators) consumes X
  /// directly via Bitset::IsComplementOf / AssignComplementOf.
  /// Same charging and postconditions as Eval otherwise.
  const Bitset& EvalSupported(const PartialModel& I);

 private:
  void Prime(const PartialModel& I);
  void FullSolve();
  void ApplyDelta(const PartialModel& I);

  const HornSolver* solver_;
  const RuleBinding* binding_ = nullptr;
  EvalContext& ctx_;
  bool primed_ = false;
  /// witness_[r]: number of unusability witnesses rule r has in the last I
  /// seen — positive body literals false in I plus negative body literals
  /// true in I (plus RuleBinding::kDeadBias for a dead rule). Rule usable
  /// iff 0. Persistent across calls.
  std::vector<std::uint32_t> witness_;
  /// missing_[r]: positive body atoms of rule r not (yet) in x_ —
  /// maintained for every rule regardless of usability, so rules re-enabled
  /// by a later delta resume with an accurate countdown. Rule fires iff
  /// witness_ and missing_ are both 0.
  std::vector<std::uint32_t> missing_;
  /// The externally-supported set X = H − U_P(I), maintained across calls.
  Bitset x_;
  Bitset last_true_;
  Bitset last_false_;
  /// Deduplicates touched rules within one delta application.
  std::vector<std::uint32_t> rule_stamp_;
  std::uint32_t epoch_ = 0;
  /// Per-call scratch: atom worklist, touched-rule records
  /// ((rule_id << 1) | was_usable), atoms over-deleted this call.
  std::vector<std::uint32_t> queue_;
  std::vector<std::uint32_t> touched_;
  std::vector<std::uint32_t> removed_;
};

}  // namespace afp

#endif  // AFP_WFS_UNFOUNDED_H_
