#ifndef AFP_AFP_AFP_H_
#define AFP_AFP_AFP_H_

/// \file
/// Umbrella header for the alternating-fixpoint library.
///
/// The public API is the afp::Solver session (afp/solver.h): construct it
/// from program text or a Program, then Solve(), Query(), Select(),
/// StableModels(), Explain() — and update it in place with AssertFacts()
/// / RetractFacts(), which re-solve incrementally instead of from
/// scratch. A session always solves component by component; one
/// consolidated SolverOptions selects the per-component engine and the
/// grounding controls, and every engine evaluates its operators through
/// the same delta-driven evaluators.
///
/// The individual headers expose the full machinery underneath — the
/// three well-founded engines as free functions, the evaluators, and the
/// analyses — which remains the differential-testing surface. The
/// one-shot SolveWellFounded() helper below predates the Solver and is
/// kept for small scripts and the test suite; new code should prefer the
/// session API.

#include <memory>
#include <string>
#include <utility>

#include "afp/solver.h"
#include "analysis/atom_graph.h"
#include "analysis/dependency_graph.h"
#include "analysis/strictness.h"
#include "ast/program.h"
#include "core/alternating.h"
#include "core/eval_context.h"
#include "core/explain.h"
#include "core/horn_solver.h"
#include "core/interpretation.h"
#include "core/query.h"
#include "core/scc_engine.h"
#include "fitting/fitting.h"
#include "fol/formula.h"
#include "fol/general_program.h"
#include "fol/simplify.h"
#include "ground/grounder.h"
#include "parser/parser.h"
#include "search/stable_search.h"
#include "stable/enumerate.h"
#include "stable/gl_transform.h"
#include "stratified/inflationary.h"
#include "stratified/stratified_eval.h"
#include "util/status.h"
#include "util/table_printer.h"
#include "wfs/unfounded.h"
#include "wfs/wp_engine.h"

namespace afp {

/// A ground program paired with its well-founded model — the one-shot
/// result form (prefer afp::Solver for anything longer-lived). The Program
/// is held behind a unique_ptr so that the GroundProgram's back-reference
/// stays valid when the solution is moved.
struct WfsSolution {
  std::unique_ptr<Program> program;
  GroundProgram ground;
  AfpResult afp;

  /// Truth value of a ground atom written as text, e.g. "wins(a)".
  StatusOr<TruthValue> Query(const std::string& atom_text) const {
    return QueryAtom(ground, afp.model, atom_text);
  }

  /// The model rendered as true/false/undef atom lists (IDB only by
  /// default).
  std::string ModelText(const ModelPrintOptions& opts = {}) const {
    return ModelToString(ground, afp.model, opts);
  }
};

/// One-call pipeline: parse -> validate -> ground -> alternating fixpoint.
/// Returns the well-founded partial model of the program text (by
/// Theorem 7.8 the AFP model is the well-founded model).
inline StatusOr<WfsSolution> SolveWellFounded(
    std::string_view program_text, const GroundOptions& ground_options = {},
    const AfpOptions& afp_options = {}) {
  AFP_ASSIGN_OR_RETURN(Program parsed, ParseProgram(program_text));
  auto program = std::make_unique<Program>(std::move(parsed));
  AFP_ASSIGN_OR_RETURN(GroundProgram ground,
                       Grounder::Ground(*program, ground_options));
  WfsSolution solution{std::move(program), std::move(ground), AfpResult{}};
  solution.afp = AlternatingFixpoint(solution.ground, afp_options);
  return solution;
}

}  // namespace afp

#endif  // AFP_AFP_AFP_H_
