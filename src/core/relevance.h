#ifndef AFP_CORE_RELEVANCE_H_
#define AFP_CORE_RELEVANCE_H_

#include <span>
#include <string>
#include <vector>

#include "core/eval_context.h"
#include "core/interpretation.h"
#include "core/scc_engine.h"
#include "ground/ground_program.h"
#include "ground/owned_rules.h"
#include "util/bitset.h"
#include "util/status.h"

namespace afp {

/// A query-relevant slice of a ground program, renumbered to dense local
/// atom ids so that solving it costs nothing per atom outside it.
struct RelevantSlice {
  /// The rules whose head is relevant, over local ids: local atom i is
  /// the program's atom atoms[i].
  OwnedRules rules;
  /// The atoms the queries depend on (transitively, through both positive
  /// and negative body literals): the query atoms first, in ascending id
  /// order, then the rest in the order the closure reached them.
  std::vector<AtomId> atoms;
};

/// Computes the subprogram relevant to `query_atoms`: the closure of the
/// queries under "head -> body atoms of its rules", keeping exactly the
/// rules for relevant heads. The well-founded value of every relevant atom
/// in the slice equals its value in the full program (an atom's value
/// depends only on atoms reachable from it), so point queries can be
/// answered without solving the whole program — the query-directed
/// evaluation the paper's conclusion calls for. Finding the slice is one
/// pass over the rule heads; everything after it is slice-sized.
RelevantSlice RelevantSubprogram(const RuleView& view,
                                 const Bitset& query_atoms);

/// Result of a relevance-restricted point query.
struct RelevanceQueryResult {
  TruthValue value = TruthValue::kFalse;
  /// Size of the slice actually solved vs the full program.
  std::size_t slice_size = 0;
  std::size_t full_size = 0;
};

/// Answers a single ground-atom query (text form, e.g. "wins(n17)") by
/// slicing to the relevant subprogram and solving it component-wise.
/// Atoms outside the grounded base are false (closed world).
StatusOr<RelevanceQueryResult> QueryWithRelevance(
    const GroundProgram& gp, const std::string& atom_text);

/// Result of a relevance-restricted query batch.
struct RelevanceBatchResult {
  /// One verdict per input text, in input order; a text that does not
  /// parse as a ground atom holds its error in its own slot.
  std::vector<StatusOr<TruthValue>> values;
  /// Size of the one slice solved vs the full program.
  std::size_t slice_size = 0;
  std::size_t full_size = 0;
};

/// Answers a batch of ground-atom queries with ONE slice: resolves every
/// text, takes the subprogram relevant to the union of the resolved atoms
/// (a union of dependency-closed atom sets is dependency-closed, so each
/// verdict equals its single-query verdict) and solves it once, component
/// by component with `inner` as the per-component engine (the session's
/// Solve path, on the slice's own dependency analysis), drawing the
/// fixpoint scratch from `ctx`. Atoms outside the grounded base are false
/// without entering the slice; a batch of only such atoms solves nothing.
RelevanceBatchResult QueryWithRelevanceWithContext(
    EvalContext& ctx, const GroundProgram& gp,
    std::span<const std::string> atom_texts,
    SccInnerEngine inner = SccInnerEngine::kAfp);

}  // namespace afp

#endif  // AFP_CORE_RELEVANCE_H_
