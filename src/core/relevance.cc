#include "core/relevance.h"

#include <algorithm>
#include <utility>
#include <vector>

#include "core/alternating.h"
#include "exec/scheduler.h"
#include "parser/parser.h"

namespace afp {

RelevantSlice RelevantSubprogram(const RuleView& view,
                                 const Bitset& query_atoms) {
  const std::size_t n = view.num_atoms;
  // Head -> rules index.
  std::vector<std::uint32_t> offsets(n + 1, 0);
  for (const GroundRule& r : view.rules) ++offsets[r.head + 1];
  for (std::size_t i = 1; i <= n; ++i) offsets[i] += offsets[i - 1];
  std::vector<std::uint32_t> by_head(view.rules.size());
  {
    std::vector<std::uint32_t> cursor(offsets.begin(), offsets.end() - 1);
    for (std::uint32_t ri = 0; ri < view.rules.size(); ++ri) {
      by_head[cursor[view.rules[ri].head]++] = ri;
    }
  }

  RelevantSlice slice;
  slice.relevant = Bitset(n);
  std::vector<AtomId> stack;
  query_atoms.ForEach([&](std::size_t a) {
    slice.relevant.Set(a);
    stack.push_back(static_cast<AtomId>(a));
  });

  slice.rules.num_atoms = n;
  while (!stack.empty()) {
    AtomId a = stack.back();
    stack.pop_back();
    for (std::uint32_t k = offsets[a]; k < offsets[a + 1]; ++k) {
      const GroundRule& r = view.rules[by_head[k]];
      slice.rules.Add(r.head, view.pos(r), view.neg(r));
      auto visit = [&](AtomId q) {
        if (!slice.relevant.Test(q)) {
          slice.relevant.Set(q);
          stack.push_back(q);
        }
      };
      for (AtomId q : view.pos(r)) visit(q);
      for (AtomId q : view.neg(r)) visit(q);
    }
  }
  return slice;
}

StatusOr<RelevanceQueryResult> QueryWithRelevanceWithContext(
    EvalContext& ctx, const GroundProgram& gp, const std::string& atom_text) {
  RelevanceQueryResult result;
  result.full_size = gp.TotalSize();

  AFP_ASSIGN_OR_RETURN(AtomId target, ResolveAtom(gp, atom_text));
  if (target == kInvalidAtom) {
    result.value = TruthValue::kFalse;  // not in the base: unfounded
    result.slice_size = 0;
    return result;
  }

  Bitset query = ctx.AcquireBitset(gp.num_atoms());
  query.Set(target);
  RelevantSlice slice = RelevantSubprogram(gp.View(), query);
  ctx.ReleaseBitset(std::move(query));
  result.slice_size = slice.rules.pool.size() + slice.rules.rules.size();

  {
    HornSolver solver(slice.rules.View(), &ctx);
    Bitset seed = ctx.AcquireBitset(gp.num_atoms());
    AfpResult afp = AlternatingFixpointWithContext(ctx, solver, seed);
    ctx.ReleaseBitset(std::move(seed));
    result.value = afp.model.Value(target);
    // The model's bitsets were escape-noted by the fixpoint; a point
    // query keeps only the verdict, so hand them back to the pool.
    ctx.NoteAdoptedBytes(afp.model.true_atoms().CapacityBytes() +
                         afp.model.false_atoms().CapacityBytes());
    ctx.ReleaseBitset(std::move(afp.model.true_atoms()));
    ctx.ReleaseBitset(std::move(afp.model.false_atoms()));
  }
  return result;
}

StatusOr<RelevanceQueryResult> QueryWithRelevance(
    const GroundProgram& gp, const std::string& atom_text) {
  EvalContext ctx;
  return QueryWithRelevanceWithContext(ctx, gp, atom_text);
}

std::vector<StatusOr<RelevanceQueryResult>> QueryBatchWithRelevance(
    const GroundProgram& gp, const std::vector<std::string>& atom_texts,
    const QueryBatchOptions& options) {
  std::vector<StatusOr<RelevanceQueryResult>> results;
  results.reserve(atom_texts.size());
  for (std::size_t i = 0; i < atom_texts.size(); ++i) {
    results.push_back(Status::FailedPrecondition("query not executed"));
  }

  EvalContextRegistry private_registry;
  EvalContextRegistry& registry =
      options.registry ? *options.registry : private_registry;
  // No more workers than queries: an idle worker could only park.
  int num_workers = std::clamp(options.num_threads, 1, kMaxPoolWorkers);
  if (static_cast<std::size_t>(num_workers) > atom_texts.size()) {
    num_workers = std::max(static_cast<int>(atom_texts.size()), 1);
  }
  registry.EnsureSize(static_cast<std::size_t>(num_workers));

  // The queries are independent roots; no task submits more. The workers
  // write disjoint results slots, and each reads only the immutable
  // ground program plus its own registry context.
  std::vector<std::uint64_t> roots(atom_texts.size());
  for (std::size_t i = 0; i < roots.size(); ++i) roots[i] = i;
  RunWorkPool(roots, num_workers,
              [&](WorkPool&, std::uint64_t i, std::uint32_t worker) {
                results[i] = QueryWithRelevanceWithContext(
                    registry.ForWorker(worker), gp, atom_texts[i]);
              });
  return results;
}

}  // namespace afp
