#include "core/relevance.h"

#include <algorithm>
#include <utility>
#include <vector>

#include "analysis/atom_graph.h"

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
  std::vector<AtomId> local(n, kInvalidAtom);
  auto visit = [&](AtomId a) {
    if (local[a] == kInvalidAtom) {
      local[a] = static_cast<AtomId>(slice.atoms.size());
      slice.atoms.push_back(a);
    }
    return local[a];
  };
  query_atoms.ForEach([&](std::size_t a) { visit(static_cast<AtomId>(a)); });

  // slice.atoms doubles as the work queue: each atom's rules are copied,
  // renumbered, once the closure reaches it.
  std::vector<AtomId> pos, neg;
  for (std::size_t i = 0; i < slice.atoms.size(); ++i) {
    const AtomId a = slice.atoms[i];
    for (std::uint32_t k = offsets[a]; k < offsets[a + 1]; ++k) {
      const GroundRule& r = view.rules[by_head[k]];
      pos.clear();
      neg.clear();
      for (AtomId q : view.pos(r)) pos.push_back(visit(q));
      for (AtomId q : view.neg(r)) neg.push_back(visit(q));
      slice.rules.Add(static_cast<AtomId>(i), pos, neg);
    }
  }
  slice.rules.num_atoms = slice.atoms.size();
  return slice;
}

RelevanceBatchResult QueryWithRelevanceWithContext(
    EvalContext& ctx, const GroundProgram& gp,
    std::span<const std::string> atom_texts, SccInnerEngine inner) {
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
  const std::size_t num_queried = query.Count();
  if (num_queried == 0) {
    ctx.ReleaseBitset(std::move(query));
    return result;
  }

  RelevantSlice slice = RelevantSubprogram(gp.View(), query);
  ctx.ReleaseBitset(std::move(query));
  result.slice_size = slice.rules.pool.size() + slice.rules.rules.size();

  const RuleView view = slice.rules.View();
  const AtomDependencyGraph graph(view);
  SccOptions options;
  options.inner = inner;
  SccWfsResult solved = WellFoundedSccOnGraph(
      ctx, view, graph, RuleBuckets(view, graph), options);
  // The queried atoms are the slice's first local ids, in ascending order.
  const auto first = slice.atoms.begin();
  const auto last = first + static_cast<std::ptrdiff_t>(num_queried);
  for (std::size_t i = 0; i < targets.size(); ++i) {
    if (targets[i] == kInvalidAtom) continue;
    const AtomId local =
        static_cast<AtomId>(std::lower_bound(first, last, targets[i]) - first);
    result.values[i] = solved.model.Value(local);
  }
  // The model's bitsets were escape-noted by the solve; a query batch
  // keeps only the verdicts, so hand them back to the pool.
  ctx.NoteAdoptedBytes(solved.model.true_atoms().CapacityBytes() +
                       solved.model.false_atoms().CapacityBytes());
  ctx.ReleaseBitset(std::move(solved.model.true_atoms()));
  ctx.ReleaseBitset(std::move(solved.model.false_atoms()));
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
