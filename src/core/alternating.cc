#include "core/alternating.h"

#include <cassert>
#include <utility>

namespace afp {

std::size_t AlternatingFixpointOnEvaluators(
    SpEvaluator& even, SpEvaluator& odd, std::size_t n, const Bitset* seed,
    AfpBuffers& b, std::vector<AfpTraceRow>* trace) {
  assert(seed == nullptr || seed->universe_size() == n);
  b.under_neg.Resize(n);  // Ĩ_0 (⊆ final Ã)
  if (seed != nullptr) b.under_neg |= *seed;

  std::size_t rounds = 0;
  while (true) {
    ++rounds;

    // First half-step: overestimate. S_P(under_neg) is an underestimate of
    // the positives, so its conjugate Ĩ_{2k+1} overestimates the negatives.
    even.Eval(b.under_neg, &b.under_pos);
    if (trace != nullptr) trace->push_back({b.under_neg, b.under_pos});
    b.over_neg.AssignComplementOf(b.under_pos);

    // Second half-step: S_P(over_neg) overestimates the positives; its
    // conjugate Ĩ_{2k+2} = A_P(Ĩ_{2k}) underestimates the negatives again.
    odd.Eval(b.over_neg, &b.over_pos);
    if (trace != nullptr) trace->push_back({b.over_neg, b.over_pos});
    b.next_under_neg.AssignComplementOf(b.over_pos);
    if (seed != nullptr) b.next_under_neg |= *seed;

    if (b.next_under_neg == b.over_neg) {
      // The under- and over-sequences met: Ĩ is a fixpoint of S̃_P itself
      // (the paper's Example 5.2(a)/(c) termination), hence the least
      // fixpoint of A_P, and the model is total.
      if (trace != nullptr) {
        trace->push_back({b.next_under_neg, b.over_pos});
      }
      std::swap(b.under_neg, b.next_under_neg);
      std::swap(b.under_pos, b.over_pos);
      break;
    }
    if (b.next_under_neg == b.under_neg) {
      // Record the confirming half-step (the paper's Table I prints the row
      // at which the even subsequence repeats, e.g. Ĩ_4 = Ĩ_2).
      if (trace != nullptr) trace->push_back({b.under_neg, b.under_pos});
      break;
    }
    std::swap(b.under_neg, b.next_under_neg);
  }
  // A+ = S_P(Ã): at the fixpoint the last under_pos already equals it.
  return rounds;
}

AfpResult AlternatingFixpointWithContext(EvalContext& ctx,
                                         const HornSolver& solver,
                                         const Bitset& seed_negatives,
                                         const AfpOptions& options) {
  // One evaluator per subsequence: the even arguments Ĩ_0 ⊆ Ĩ_2 ⊆ ...
  // increase and the odd ones decrease (monotone by §5), so each evaluator
  // sees a shrinking delta stream and the enablement updates between
  // consecutive rounds approach zero as the fixpoint nears. (The W_P
  // engine applies the same treatment to its T_P/U_P halves through
  // TpEvaluator and GusEvaluator; docs/ARCHITECTURE.md lays the two delta
  // index families side by side.)
  SpEvaluator even(solver, ctx);
  SpEvaluator odd(solver, ctx);
  const std::size_t n = solver.view().num_atoms;
  const EvalStats start = ctx.stats();
  AfpBuffers b{ctx.AcquireBitset(n), ctx.AcquireBitset(n),
               ctx.AcquireBitset(n), ctx.AcquireBitset(n),
               ctx.AcquireBitset(n)};
  AfpResult result;
  result.outer_iterations = AlternatingFixpointOnEvaluators(
      even, odd, n,
      seed_negatives.universe_size() == 0 ? nullptr : &seed_negatives, b,
      options.record_trace ? &result.trace : nullptr);

  ctx.NoteEscapedBytes(b.under_pos.CapacityBytes() +
                       b.under_neg.CapacityBytes());
  result.model = PartialModel(std::move(b.under_pos), std::move(b.under_neg));
  ctx.ReleaseBitset(std::move(b.over_neg));
  ctx.ReleaseBitset(std::move(b.over_pos));
  ctx.ReleaseBitset(std::move(b.next_under_neg));
  result.eval = ctx.stats().Since(start);
  result.sp_calls = result.eval.sp_calls;
  return result;
}

AfpResult AlternatingFixpoint(const GroundProgram& gp,
                              const AfpOptions& options) {
  EvalContext ctx;
  HornSolver solver(gp.View(), &ctx);
  return AlternatingFixpointWithContext(ctx, solver, Bitset(), options);
}

}  // namespace afp
