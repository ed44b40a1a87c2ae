#ifndef AFP_CORE_ALTERNATING_H_
#define AFP_CORE_ALTERNATING_H_

#include <cstddef>
#include <vector>

#include "core/eval_context.h"
#include "core/horn_solver.h"
#include "core/interpretation.h"
#include "ground/ground_program.h"
#include "util/bitset.h"

namespace afp {

/// One half-step of the alternating sequence: Ĩ_k together with S_P(Ĩ_k).
/// These are exactly the two columns of the paper's Table I.
struct AfpTraceRow {
  /// The negative set Ĩ_k, as a set of atoms (to be read negated).
  Bitset neg_set;
  /// S_P(Ĩ_k): the positive consequences under those negative assumptions.
  Bitset sp_result;
};

/// Options for the alternating fixpoint computation.
struct AfpOptions {
  /// Record every half-step (Ĩ_k, S_P(Ĩ_k)). Costs two bitset copies per
  /// half-step; leave off for large instances.
  bool record_trace = false;
};

/// Result of the alternating fixpoint computation.
struct AfpResult {
  /// The alternating fixpoint partial model (A+ ⊎ Ã), Definition 5.2.
  /// By Theorem 7.8 it equals the well-founded partial model.
  PartialModel model;
  /// Number of applications of A_P (full double-steps) until the least
  /// fixpoint was detected, including the final confirming application.
  std::size_t outer_iterations = 0;
  /// Number of S_P evaluations performed (two per A_P application, plus the
  /// initial one).
  std::size_t sp_calls = 0;
  /// Work counters for this computation (rules rescanned, delta sizes,
  /// peak scratch bytes — see EvalStats).
  EvalStats eval;
  /// Table-I style trace; empty unless AfpOptions::record_trace.
  std::vector<AfpTraceRow> trace;
};

/// Computes the alternating fixpoint of the ground program (§5):
///
///   Ĩ_0 = ∅,  Ĩ_{k+1} = S̃_P(Ĩ_k),  where S̃_P(Ĩ) = ¬·(H̄ − S_P(Ĩ)).
///
/// The even subsequence Ĩ_0 ⊆ Ĩ_2 ⊆ ... increases to Ã, the least fixpoint
/// of the monotonic A_P = S̃_P ∘ S̃_P; the odd subsequence decreases to
/// S̃_P(Ã). The returned model has true = S_P(Ã) and false = Ã.
AfpResult AlternatingFixpoint(const GroundProgram& gp,
                              const AfpOptions& options = {});

/// The full-control entry point: alternating fixpoint on an existing solver
/// drawing all scratch from `ctx`. Callers that solve many programs (a
/// Solver session's components, the stable search) pass one context
/// through every call, reducing the steady-state allocation rate to zero;
/// the context's counters accumulate and the result carries this call's
/// share.
///
/// `seed_negatives` seeds the iteration with Ĩ_0 = seed (a set of atoms
/// assumed false over the solver's atom universe), computing the least
/// fixpoint of X ↦ A_P(X ∪ seed). For any stable model M whose negative
/// part contains the seed, the result under-approximates M (this need not
/// hold for inconsistent seeds). A default-constructed (universe-0) bitset
/// is accepted as "no seed"; the seeded and unseeded iterations are one
/// code path.
AfpResult AlternatingFixpointWithContext(EvalContext& ctx,
                                         const HornSolver& solver,
                                         const Bitset& seed_negatives,
                                         const AfpOptions& options = {});

/// The innermost loop on caller-owned evaluators: `even` and `odd` must
/// both be bound (or Rebind-ed) to the same solver over `n` atoms,
/// sharing `ctx`, and fresh (not yet primed) for this run — the two
/// monotone subsequences each need their own delta stream. The SCC
/// engine's ComponentSolver keeps one even/odd pair alive across all
/// components and re-enters here per component, paying zero evaluator
/// construction and zero pool round-trips per component. Semantics and
/// escape-noting as AlternatingFixpointWithContext (which is now this
/// plus evaluator construction).
AfpResult AlternatingFixpointOnEvaluators(EvalContext& ctx, SpEvaluator& even,
                                          SpEvaluator& odd, std::size_t n,
                                          const Bitset& seed_negatives,
                                          const AfpOptions& options = {});

}  // namespace afp

#endif  // AFP_CORE_ALTERNATING_H_
