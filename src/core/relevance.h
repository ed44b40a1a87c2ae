#ifndef AFP_CORE_RELEVANCE_H_
#define AFP_CORE_RELEVANCE_H_

#include <string>
#include <vector>

#include "core/eval_context.h"
#include "core/interpretation.h"
#include "ground/ground_program.h"
#include "ground/owned_rules.h"
#include "util/bitset.h"
#include "util/status.h"

namespace afp {

/// A query-relevant slice of a ground program.
struct RelevantSlice {
  /// The rules whose head is relevant, over the original atom ids.
  OwnedRules rules;
  /// The atoms the query depends on (transitively, through both positive
  /// and negative body literals).
  Bitset relevant;
};

/// Computes the subprogram relevant to `query_atoms`: the closure of the
/// queries under "head -> body atoms of its rules", keeping exactly the
/// rules for relevant heads. The well-founded value of every relevant atom
/// in the slice equals its value in the full program (an atom's value
/// depends only on atoms reachable from it), so point queries can be
/// answered without solving the whole program — the query-directed
/// evaluation the paper's conclusion calls for.
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
/// slicing to the relevant subprogram and running the alternating fixpoint
/// there. Atoms outside the grounded base are false (closed world).
StatusOr<RelevanceQueryResult> QueryWithRelevance(
    const GroundProgram& gp, const std::string& atom_text);

/// As above, drawing the slice buffer, the solver indexes, and the
/// fixpoint scratch from `ctx`, so a loop of point queries allocates
/// like a single one.
StatusOr<RelevanceQueryResult> QueryWithRelevanceWithContext(
    EvalContext& ctx, const GroundProgram& gp, const std::string& atom_text);

/// Options for a relevance-sliced query batch.
struct QueryBatchOptions {
  /// Worker threads. Point queries are mutually independent, so the batch
  /// hands its query indices to RunWorkPool as roots (exec/scheduler.h),
  /// each worker slicing and solving through its own registry context;
  /// <= 1 answers every query on the calling thread through `registry`'s
  /// slot 0. The pool never has more workers than queries.
  int num_threads = 1;
  /// Optional warm per-worker contexts (grown as needed); null means a
  /// batch-private registry. Must not be used concurrently by two runs.
  EvalContextRegistry* registry = nullptr;
};

/// Answers a batch of point queries, one RelevanceQueryResult per input
/// atom (same order). Results are identical at every thread count — each
/// query reads only the immutable ground program.
std::vector<StatusOr<RelevanceQueryResult>> QueryBatchWithRelevance(
    const GroundProgram& gp, const std::vector<std::string>& atom_texts,
    const QueryBatchOptions& options = {});

}  // namespace afp

#endif  // AFP_CORE_RELEVANCE_H_
