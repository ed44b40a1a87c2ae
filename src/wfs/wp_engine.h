#ifndef AFP_WFS_WP_ENGINE_H_
#define AFP_WFS_WP_ENGINE_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/eval_context.h"
#include "core/horn_solver.h"
#include "core/interpretation.h"
#include "ground/ground_program.h"

namespace afp {

class GusEvaluator;  // wfs/unfounded.h

/// Result of the W_P iteration.
struct WpResult {
  /// The well-founded partial model: least fixpoint of W_P (Definition 6.2).
  PartialModel model;
  /// Number of W_P applications until the fixpoint (including the final
  /// confirming application). The trajectory does not depend on how the
  /// body checks are recomputed (pinned against the from-scratch
  /// reference in tests/reference/).
  std::size_t iterations = 0;
  /// Work counters for this computation (rules rescanned on the T_P side,
  /// gus_calls / gus_rules_rescanned on the U_P side, delta sizes, peak
  /// scratch bytes).
  EvalStats eval;
};

/// Incremental T_P evaluator (Definition 3.7) binding one HornSolver to one
/// EvalContext — the same counter treatment SpEvaluator gives S_P, applied
/// to the immediate consequence operator over BOTH body polarities.
///
/// The first Eval primes one per-rule countdown of body
/// literals not yet true in I (positive literals not in I+, negative ones
/// whose atom is not in I−) and a per-head count of fully-satisfied rules;
/// every later call updates both only from the atoms whose truth status
/// flipped since the previous call, through the positive- and
/// negative-occurrence indexes. T_P(I) is then read off the maintained
/// head set without touching any rule body, so a whole W_P run costs
/// O(program size) in body examinations instead of O(rounds × rules).
///
/// Precondition: `I` passed to Eval is sized to the solver's universe.
/// Postcondition: `*out` equals T_P(I) — the heads of rules whose body is
/// true in I, where a negative literal `not q` is true iff q is false in
/// I — bit for bit.
class TpEvaluator {
 public:
  TpEvaluator(const HornSolver& solver, EvalContext& ctx);
  ~TpEvaluator();

  TpEvaluator(const TpEvaluator&) = delete;
  TpEvaluator& operator=(const TpEvaluator&) = delete;

  /// Re-targets the evaluator at a different solver and binding (sharing
  /// this evaluator's context), keeping the pooled buffers; the next Eval
  /// re-primes. See SpEvaluator::Rebind.
  void Rebind(const HornSolver& solver, const RuleBinding* binding = nullptr) {
    solver_ = &solver;
    binding_ = binding;
    primed_ = false;
  }

  /// Computes T_P(I) into `*out` (resized and overwritten here). Body
  /// examinations are charged to the context's rules_rescanned (the full
  /// program when priming on a non-empty I, touched rules afterwards).
  void Eval(const PartialModel& I, Bitset* out);

 private:
  void Prime(const PartialModel& I);
  void ApplyDelta(const PartialModel& I);

  const HornSolver* solver_;
  const RuleBinding* binding_ = nullptr;
  EvalContext& ctx_;
  bool primed_ = false;
  /// unsat_[r]: body literals of rule r not (yet) true in the last I seen
  /// (plus RuleBinding::kDeadBias for a dead rule). Rule contributes its
  /// head to T_P(I) iff 0. Persistent across calls.
  std::vector<std::uint32_t> unsat_;
  /// support_[a]: number of fully-satisfied rules with head a; heads_ keeps
  /// the atoms with support_ > 0, i.e. exactly T_P(I).
  std::vector<std::uint32_t> support_;
  Bitset heads_;
  Bitset last_true_;
  Bitset last_false_;
};

/// Computes the well-founded partial model by the original
/// Van Gelder–Ross–Schlipf construction (§6): iterate
/// W_P(I) = T_P(I) ∪ ¬·U_P(I) from the empty interpretation. This is the
/// baseline the alternating fixpoint is compared against (Theorem 7.8
/// guarantees both return the same model; bench_afp_vs_wfs measures the
/// relative cost).
WpResult WellFoundedViaWp(const GroundProgram& gp);

/// As above, drawing the occurrence indexes and all per-iteration scratch
/// from `ctx`: WellFoundedViaWpOnEvaluators on two fresh evaluators and
/// three buffers checked out of `ctx`. The two that hold the model move
/// into the result and are escape-noted (EvalContext::NoteEscapedBytes);
/// the third returns to the pool.
WpResult WellFoundedViaWpWithContext(EvalContext& ctx,
                                     const GroundProgram& gp);

/// The W_P iteration's round buffers: the interpretation I and the next
/// T_P(I). Whoever runs the loop owns them: WellFoundedViaWpWithContext
/// checks a set out of its context per call, and a ComponentSolver
/// (SccInnerEngine::kWp) checks one out once, at its first general-path
/// solve, and keeps it until it is destroyed. What they hold on entry does
/// not matter; on return `interp` is the well-founded partial model. They
/// count toward EvalStats::peak_scratch_bytes as AfpBuffers do.
struct WpBuffers {
  PartialModel interp;
  Bitset new_true;
};

/// The W_P iteration's one loop, on caller-owned evaluators (both already
/// bound — or Rebind-ed — to the same solver over `n` atoms) and buffers,
/// from the empty interpretation. Returns the number of W_P applications,
/// the confirming one included; the model is left in `buffers.interp`.
/// The loop itself touches no pool and no counter: the evaluators charge
/// their work to their context. The SCC engine's ComponentSolver keeps one
/// Tp/Gus pair and one set of buffers alive across all components and
/// re-enters here per component, so a component's solve constructs
/// nothing and checks nothing out.
std::size_t WellFoundedViaWpOnEvaluators(TpEvaluator& tp, GusEvaluator& gus,
                                         std::size_t n, WpBuffers& buffers);

}  // namespace afp

#endif  // AFP_WFS_WP_ENGINE_H_
