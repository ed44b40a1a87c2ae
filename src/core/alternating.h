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

/// The five round buffers of the alternating fixpoint's loop: the even
/// argument Ĩ_{2k} and its image S_P(Ĩ_{2k}), the odd argument Ĩ_{2k+1}
/// and its image S_P(Ĩ_{2k+1}), and the next even argument. Whoever runs
/// the loop owns them: AlternatingFixpointWithContext checks a set out of
/// its context per call, and a ComponentSolver checks one out once, at
/// its first general-path solve, and keeps it until it is destroyed.
/// What the buffers hold on entry does not matter (the loop sizes and
/// overwrites every one of them); on return `under_pos` holds S_P(Ã), the
/// true atoms, and `under_neg` holds Ã, the false atoms.
///
/// In EvalStats::peak_scratch_bytes the buffers count as the owner's
/// checkouts do: per call at the size they are checked out with (and the
/// two that leave in the result stop counting at the hand-off); for a
/// ComponentSolver with the capacity the pool handed over, and at their
/// full size once the solver returns them.
struct AfpBuffers {
  Bitset under_neg;
  Bitset under_pos;
  Bitset over_neg;
  Bitset over_pos;
  Bitset next_under_neg;
};

/// The full-control entry point: alternating fixpoint on an existing solver
/// drawing all scratch from `ctx`. Callers that solve many programs pass
/// one context through every call, reducing the steady-state allocation
/// rate to zero; the context's counters accumulate and the result carries
/// this call's share. The oracles, AlternatingFixpoint and CLI `--trace`
/// come through here.
///
/// `seed_negatives` seeds the iteration with Ĩ_0 = seed (a set of atoms
/// assumed false over the solver's atom universe), computing the least
/// fixpoint of X ↦ A_P(X ∪ seed). For any stable model M whose negative
/// part contains the seed, the result under-approximates M (this need not
/// hold for inconsistent seeds). A default-constructed (universe-0) bitset
/// is accepted as "no seed". The call runs AlternatingFixpointOnEvaluators
/// on two fresh evaluators and five buffers checked out of `ctx`; the two
/// that hold the model move into the result and are escape-noted
/// (EvalContext::NoteEscapedBytes), the other three return to the pool.
AfpResult AlternatingFixpointWithContext(EvalContext& ctx,
                                         const HornSolver& solver,
                                         const Bitset& seed_negatives,
                                         const AfpOptions& options = {});

/// The alternating fixpoint's one loop, on caller-owned evaluators and
/// buffers: `even` and `odd` must both be bound (or Rebind-ed) to the same
/// solver over `n` atoms and fresh (not yet primed) for this run — the
/// two monotone subsequences each need their own delta stream. `seed`
/// is null for no seed, or a set over `n` atoms (see
/// AlternatingFixpointWithContext). Appends every half-step to `trace`
/// when it is non-null. Returns the number of A_P applications, the
/// confirming one included; the model is left in `buffers` (see
/// AfpBuffers). The loop itself touches no pool and no counter: the
/// evaluators charge their S_P calls to their context. The SCC engine's
/// ComponentSolver keeps one evaluator pair and one set of buffers alive
/// across all components and re-enters here per component, so a
/// component's solve constructs nothing and checks nothing out.
std::size_t AlternatingFixpointOnEvaluators(
    SpEvaluator& even, SpEvaluator& odd, std::size_t n, const Bitset* seed,
    AfpBuffers& buffers, std::vector<AfpTraceRow>* trace = nullptr);

}  // namespace afp

#endif  // AFP_CORE_ALTERNATING_H_
