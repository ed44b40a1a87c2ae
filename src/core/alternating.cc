#include "core/alternating.h"

#include <cassert>
#include <utility>

namespace afp {

AfpResult AlternatingFixpointOnEvaluators(EvalContext& ctx,
                                          SpEvaluator& even, SpEvaluator& odd,
                                          std::size_t n,
                                          const Bitset& seed_negatives,
                                          const AfpOptions& options) {
  AfpResult result;
  // A default-constructed seed (universe 0) means "no seed": substitute a
  // properly sized empty set once, so the iteration below stays one code
  // path for the seeded and unseeded cases alike.
  Bitset sized_empty_seed;
  const Bitset* seed = &seed_negatives;
  if (seed_negatives.universe_size() == 0 && n != 0) {
    sized_empty_seed = Bitset(n);
    seed = &sized_empty_seed;
  }
  assert(seed->universe_size() == n);
  const EvalStats start = ctx.stats();

  Bitset under_neg = ctx.AcquireBitset(n);  // Ĩ_0 (⊆ final Ã)
  under_neg |= *seed;
  Bitset under_pos = ctx.AcquireBitset(n);
  Bitset over_neg = ctx.AcquireBitset(n);
  Bitset over_pos = ctx.AcquireBitset(n);
  Bitset next_under_neg = ctx.AcquireBitset(n);

  while (true) {
    ++result.outer_iterations;

    // First half-step: overestimate. S_P(under_neg) is an underestimate of
    // the positives, so its conjugate Ĩ_{2k+1} overestimates the negatives.
    even.Eval(under_neg, &under_pos);
    if (options.record_trace) {
      result.trace.push_back(AfpTraceRow{under_neg, under_pos});
    }
    over_neg = under_pos;
    over_neg.Complement();

    // Second half-step: S_P(over_neg) overestimates the positives; its
    // conjugate Ĩ_{2k+2} = A_P(Ĩ_{2k}) underestimates the negatives again.
    odd.Eval(over_neg, &over_pos);
    if (options.record_trace) {
      result.trace.push_back(AfpTraceRow{over_neg, over_pos});
    }
    next_under_neg = over_pos;
    next_under_neg.Complement();
    next_under_neg |= *seed;

    if (next_under_neg == over_neg) {
      // The under- and over-sequences met: Ĩ is a fixpoint of S̃_P itself
      // (the paper's Example 5.2(a)/(c) termination), hence the least
      // fixpoint of A_P, and the model is total.
      if (options.record_trace) {
        result.trace.push_back(AfpTraceRow{next_under_neg, over_pos});
      }
      std::swap(under_neg, next_under_neg);
      std::swap(under_pos, over_pos);
      break;
    }
    if (next_under_neg == under_neg) {
      // Record the confirming half-step (the paper's Table I prints the row
      // at which the even subsequence repeats, e.g. Ĩ_4 = Ĩ_2).
      if (options.record_trace) {
        result.trace.push_back(AfpTraceRow{under_neg, under_pos});
      }
      break;
    }
    std::swap(under_neg, next_under_neg);
  }

  // A+ = S_P(Ã). At the fixpoint the last under_pos already equals S_P(Ã).
  ctx.NoteEscapedBytes(under_pos.CapacityBytes() + under_neg.CapacityBytes());
  result.model = PartialModel(std::move(under_pos), std::move(under_neg));
  ctx.ReleaseBitset(std::move(over_neg));
  ctx.ReleaseBitset(std::move(over_pos));
  ctx.ReleaseBitset(std::move(next_under_neg));

  result.eval = ctx.stats().Since(start);
  result.sp_calls = result.eval.sp_calls;
  return result;
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
  return AlternatingFixpointOnEvaluators(ctx, even, odd,
                                         solver.view().num_atoms,
                                         seed_negatives, options);
}

AfpResult AlternatingFixpoint(const GroundProgram& gp,
                              const AfpOptions& options) {
  EvalContext ctx;
  HornSolver solver(gp.View(), &ctx);
  return AlternatingFixpointWithContext(ctx, solver,
                                        Bitset(gp.num_atoms()), options);
}

}  // namespace afp
