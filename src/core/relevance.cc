#include "core/relevance.h"

#include <utility>
#include <vector>

#include "core/alternating.h"

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

RelevanceBatchResult QueryWithRelevanceWithContext(
    EvalContext& ctx, const GroundProgram& gp,
    std::span<const std::string> atom_texts) {
  RelevanceBatchResult result;
  result.full_size = gp.TotalSize();
  result.values.reserve(atom_texts.size());
  std::vector<AtomId> targets(atom_texts.size(), kInvalidAtom);
  Bitset query = ctx.AcquireBitset(gp.num_atoms());
  for (std::size_t i = 0; i < atom_texts.size(); ++i) {
    StatusOr<AtomId> id = ResolveAtom(gp, atom_texts[i]);
    if (!id.ok()) {
      result.values.push_back(id.status());
      continue;
    }
    // Not in the base: unfounded, and nothing to slice for it.
    result.values.push_back(TruthValue::kFalse);
    if (*id == kInvalidAtom) continue;
    targets[i] = *id;
    query.Set(*id);
  }
  if (query.None()) {
    ctx.ReleaseBitset(std::move(query));
    return result;
  }

  RelevantSlice slice = RelevantSubprogram(gp.View(), query);
  ctx.ReleaseBitset(std::move(query));
  result.slice_size = slice.rules.pool.size() + slice.rules.rules.size();

  HornSolver solver(slice.rules.View(), &ctx);
  Bitset seed = ctx.AcquireBitset(gp.num_atoms());
  AfpResult afp = AlternatingFixpointWithContext(ctx, solver, seed);
  ctx.ReleaseBitset(std::move(seed));
  for (std::size_t i = 0; i < targets.size(); ++i) {
    if (targets[i] != kInvalidAtom) {
      result.values[i] = afp.model.Value(targets[i]);
    }
  }
  // The model's bitsets were escape-noted by the fixpoint; a query batch
  // keeps only the verdicts, so hand them back to the pool.
  ctx.NoteAdoptedBytes(afp.model.true_atoms().CapacityBytes() +
                       afp.model.false_atoms().CapacityBytes());
  ctx.ReleaseBitset(std::move(afp.model.true_atoms()));
  ctx.ReleaseBitset(std::move(afp.model.false_atoms()));
  return result;
}

StatusOr<RelevanceQueryResult> QueryWithRelevance(
    const GroundProgram& gp, const std::string& atom_text) {
  EvalContext ctx;
  RelevanceBatchResult batch =
      QueryWithRelevanceWithContext(ctx, gp, {&atom_text, 1});
  if (!batch.values[0].ok()) return batch.values[0].status();
  RelevanceQueryResult result;
  result.value = *batch.values[0];
  result.slice_size = batch.slice_size;
  result.full_size = batch.full_size;
  return result;
}

}  // namespace afp
