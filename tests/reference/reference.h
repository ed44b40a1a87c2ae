#ifndef AFP_TESTS_REFERENCE_REFERENCE_H_
#define AFP_TESTS_REFERENCE_REFERENCE_H_

/// \file
/// From-scratch reference operators for the differential tests.
///
/// The library evaluates S_P (Definition 4.2), T_P (Definition 3.7) and
/// U_P (Definition 6.1) through delta-driven evaluators that keep per-rule
/// counters alive across calls (SpEvaluator, TpEvaluator, GusEvaluator).
/// The functions here are the textbook definitions instead: every call
/// rescans every rule, and the least fixpoints are plain iterations to
/// convergence, with no occurrence index and no state between calls. They
/// are small enough to check by eye, which is what makes them useful as
/// oracles. This library is linked into the test executables only.

#include <cstdint>
#include <vector>

#include "core/alternating.h"
#include "core/interpretation.h"
#include "core/scc_engine.h"
#include "ground/ground_program.h"
#include "util/bitset.h"
#include "wfs/wp_engine.h"

namespace afp::reference {

/// S_P(assumed_false): the least fixpoint of T_{P∪Ĩ} by naive iteration —
/// sweep every rule until a sweep derives nothing new. A negative literal
/// `not q` is satisfied iff q ∈ assumed_false.
Bitset NaiveEventualConsequences(const RuleView& view,
                                 const Bitset& assumed_false);

/// T_P(I) (Definition 3.7): heads of rules whose body is true in I, where
/// a negative literal `not q` is true iff q is false in I. One sweep.
Bitset ImmediateConsequences(const RuleView& view, const PartialModel& I);

/// The externally-supported set X = H − U_P(I): the least set such that p
/// is in X whenever some rule for p has no body literal false in I and all
/// its positive body atoms in X. Naive iteration.
Bitset ExternallySupportedSet(const RuleView& view, const PartialModel& I);

/// The greatest unfounded set U_P(I) (Definition 6.1): the complement of
/// ExternallySupportedSet.
Bitset GreatestUnfoundedSet(const RuleView& view, const PartialModel& I);

/// Whether `candidate` is an unfounded set w.r.t. I, by direct check of
/// Definition 6.1: every rule whose head is in the candidate has a witness
/// of unusability (a positive literal false in I or in the candidate, or a
/// negative literal false in I).
bool IsUnfoundedSet(const RuleView& view, const PartialModel& I,
                    const Bitset& candidate);

/// The alternating fixpoint (§5) with every S_P re-evaluated from scratch
/// by NaiveEventualConsequences. Same half-step loop, termination tests and
/// trace as AlternatingFixpointOnEvaluators, so the model, the round count
/// and the trace must match the library's bit for bit. `eval` is charged
/// as a from-scratch evaluation pays: one sp_call and |rules|
/// rules_rescanned per S_P call, except that a call on Ĩ = ∅ satisfies no
/// negative literal and so rescans nothing.
AfpResult ScratchAlternatingFixpoint(const RuleView& view,
                                     const AfpOptions& options = {});
inline AfpResult ScratchAlternatingFixpoint(const GroundProgram& gp,
                                            const AfpOptions& options = {}) {
  return ScratchAlternatingFixpoint(gp.View(), options);
}

/// The W_P iteration (§6) with T_P and U_P re-evaluated from scratch every
/// round. Same loop and termination test as WellFoundedViaWpOnEvaluators,
/// so the model and the round count must match the library's. `eval` is
/// charged |rules| rules_rescanned per T_P call, and one gus_call plus
/// |rules| gus_rules_rescanned per U_P call.
WpResult ScratchWellFoundedViaWp(const RuleView& view);
inline WpResult ScratchWellFoundedViaWp(const GroundProgram& gp) {
  return ScratchWellFoundedViaWp(gp.View());
}

/// The model and per-component trajectory of ScratchWellFoundedScc.
struct SccReference {
  PartialModel model;
  /// Inner rounds per component of AtomDependencyGraph(gp.View()).
  std::vector<std::uint32_t> component_iterations;
};

/// The component-wise well-founded computation written plainly, one fresh
/// local program per component (what WellFoundedScc computes through its
/// compiled buckets). Components run in id order. A singleton that does
/// not depend on itself takes its value from its bodies, evaluated
/// three-valued over the decided externals (1 round). Every other
/// component is lowered: its members are renumbered 0..m-1; a body
/// literal on a decided external is erased if it holds and deletes the
/// rule if it fails (the scan of that body stops there); an undefined
/// external becomes a positive literal on the sentinel atom u = m, which
/// `u :- not u` keeps undefined (added if any undefined external was
/// scanned). The local program is solved by ScratchAlternatingFixpoint
/// (kAfp) or ScratchWellFoundedViaWp (kWp), whose rounds are the
/// component's trajectory entry.
SccReference ScratchWellFoundedScc(const GroundProgram& gp,
                                   SccInnerEngine inner);

}  // namespace afp::reference

#endif  // AFP_TESTS_REFERENCE_REFERENCE_H_
