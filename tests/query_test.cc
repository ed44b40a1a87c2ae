// Query layer tests: Select pattern matching with bindings, filters, and
// relevance-restricted point queries.

#include "core/query.h"

#include <gtest/gtest.h>

#include <memory>

#include "core/alternating.h"
#include "core/relevance.h"
#include "ground/grounder.h"
#include "workload/graphs.h"
#include "workload/programs.h"

namespace afp {
namespace {

struct Solved {
  Program program;
  GroundProgram ground;
  PartialModel model;
};

// Note: `ground` borrows `program`; this fixture is only safe because it is
// used in-place (never moved).
Solved* Solve(const char* text) {
  auto parsed = ParseProgram(text);
  EXPECT_TRUE(parsed.ok()) << parsed.status().ToString();
  auto* s = new Solved{std::move(parsed).value(),
                       GroundProgram(nullptr), PartialModel()};
  auto ground = Grounder::Ground(s->program);
  EXPECT_TRUE(ground.ok()) << ground.status().ToString();
  s->ground = std::move(ground).value();
  s->model = AlternatingFixpoint(s->ground).model;
  return s;
}

TEST(Select, BindsVariables) {
  std::unique_ptr<Solved> s(Solve(R"(
    move(a,b). move(b,a). move(b,c).
    wins(X) :- move(X,Y), not wins(Y).
  )"));
  auto matches = Select(s->ground, s->model, "wins(X)");
  ASSERT_TRUE(matches.ok()) << matches.status().ToString();
  ASSERT_EQ(matches->size(), 1u);
  EXPECT_EQ((*matches)[0].atom, "wins(b)");
  EXPECT_EQ((*matches)[0].bindings.at("X"), "b");
}

TEST(Select, FiltersByTruthValue) {
  std::unique_ptr<Solved> s(Solve(R"(
    move(a,b). move(b,a). move(b,c).
    wins(X) :- move(X,Y), not wins(Y).
  )"));
  auto false_matches =
      Select(s->ground, s->model, "wins(X)", QueryFilter::kFalseOnly);
  ASSERT_TRUE(false_matches.ok());
  ASSERT_EQ(false_matches->size(), 1u);  // wins(a); wins(c) not materialized
  EXPECT_EQ((*false_matches)[0].atom, "wins(a)");

  auto all = Select(s->ground, s->model, "wins(X)", QueryFilter::kAll);
  ASSERT_TRUE(all.ok());
  EXPECT_EQ(all->size(), 2u);
}

TEST(Select, PartiallyBoundPatterns) {
  std::unique_ptr<Solved> s(Solve(R"(
    e(a,b). e(b,c). e(a,c).
    tc(X,Y) :- e(X,Y).
    tc(X,Y) :- e(X,Z), tc(Z,Y).
  )"));
  auto from_a = Select(s->ground, s->model, "tc(a,Y)");
  ASSERT_TRUE(from_a.ok());
  ASSERT_EQ(from_a->size(), 2u);
  EXPECT_EQ((*from_a)[0].bindings.at("Y"), "b");
  EXPECT_EQ((*from_a)[1].bindings.at("Y"), "c");

  auto ground_query = Select(s->ground, s->model, "tc(a,c)");
  ASSERT_TRUE(ground_query.ok());
  EXPECT_EQ(ground_query->size(), 1u);
  EXPECT_TRUE((*ground_query)[0].bindings.empty());
}

TEST(Select, RepeatedVariablesMustAgree) {
  std::unique_ptr<Solved> s(Solve(R"(
    e(a,a). e(a,b).
    tc(X,Y) :- e(X,Y).
  )"));
  auto diag = Select(s->ground, s->model, "tc(X,X)");
  ASSERT_TRUE(diag.ok());
  ASSERT_EQ(diag->size(), 1u);
  EXPECT_EQ((*diag)[0].atom, "tc(a,a)");
}

TEST(Select, UnknownPredicateGivesNoMatches) {
  std::unique_ptr<Solved> s(Solve("p."));
  auto matches = Select(s->ground, s->model, "q(X)");
  ASSERT_TRUE(matches.ok());
  EXPECT_TRUE(matches->empty());
}

TEST(Select, MalformedPatternErrors) {
  std::unique_ptr<Solved> s(Solve("p."));
  EXPECT_FALSE(Select(s->ground, s->model, "p :- q").ok());
  EXPECT_FALSE(Select(s->ground, s->model, "").ok());
}

TEST(Relevance, SliceContainsOnlyReachableAtoms) {
  std::unique_ptr<Solved> s(Solve(R"(
    a :- not b. b :- not a.
    x :- y. y.
  )"));
  auto id = ResolveAtom(s->ground, "x");
  ASSERT_TRUE(id.ok());
  Bitset query(s->ground.num_atoms());
  query.Set(*id);
  RelevantSlice slice = RelevantSubprogram(s->ground.View(), query);
  // x depends on y only; the a/b tangle is irrelevant. The slice is
  // renumbered: x (the query) is local atom 0, y local atom 1.
  ASSERT_EQ(slice.atoms.size(), 2u);
  EXPECT_EQ(slice.atoms[0], *id);
  EXPECT_EQ(slice.atoms[1], *ResolveAtom(s->ground, "y"));
  EXPECT_EQ(slice.rules.num_atoms, 2u);
  EXPECT_EQ(slice.rules.rules.size(), 2u);
}

TEST(Relevance, PointQueryMatchesFullSolve) {
  for (std::uint64_t seed = 0; seed < 15; ++seed) {
    Program p = workload::WinMove(graphs::ErdosRenyi(30, 70, seed));
    auto ground = Grounder::Ground(p);
    ASSERT_TRUE(ground.ok());
    GroundProgram gp = std::move(ground).value();
    PartialModel full = AlternatingFixpoint(gp).model;
    for (int node = 0; node < 30; node += 7) {
      std::string atom = "wins(" + workload::NodeName(node) + ")";
      auto sliced = QueryWithRelevance(gp, atom);
      ASSERT_TRUE(sliced.ok());
      auto direct = QueryAtom(gp, full, atom);
      ASSERT_TRUE(direct.ok());
      EXPECT_EQ(sliced->value, *direct) << atom << " seed " << seed;
      EXPECT_LE(sliced->slice_size, sliced->full_size);
    }
  }
}

TEST(Relevance, UnmaterializedAtomIsFalse) {
  std::unique_ptr<Solved> s(Solve("p."));
  auto r = QueryWithRelevance(s->ground, "q");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->value, TruthValue::kFalse);
  EXPECT_EQ(r->slice_size, 0u);
}

TEST(Relevance, ContextThreadedQueriesMatchAndPoolScratch) {
  // One context across a loop of point queries (the PR 2 follow-up):
  // answers match the fresh-context entry point, and the shared context
  // accumulates the batch's S_P work.
  Program p = workload::WinMove(graphs::ErdosRenyi(25, 60, 11));
  auto ground = Grounder::Ground(p);
  ASSERT_TRUE(ground.ok());
  EvalContext ctx;
  std::size_t answered = 0;
  for (int node = 0; node < 25; ++node) {
    std::string atom = "wins(" + workload::NodeName(node) + ")";
    auto pooled = QueryWithRelevanceWithContext(ctx, *ground, {&atom, 1});
    auto fresh = QueryWithRelevance(*ground, atom);
    ASSERT_TRUE(pooled.values[0].ok() && fresh.ok());
    EXPECT_EQ(*pooled.values[0], fresh->value) << atom;
    EXPECT_EQ(pooled.slice_size, fresh->slice_size) << atom;
    ++answered;
  }
  EXPECT_GT(answered, 0u);
  EXPECT_GT(ctx.stats().sp_calls, 0u);
}

TEST(Relevance, BatchMatchesSingleQueries) {
  // One slice over the union of the batch's atoms answers every query as
  // its own slice would; an unparsable text fails only its own slot.
  Program p = workload::WinMove(graphs::ErdosRenyi(40, 100, 5));
  auto ground = Grounder::Ground(p);
  ASSERT_TRUE(ground.ok());
  std::vector<std::string> atoms;
  for (int node = 0; node < 40; node += 3) {
    atoms.push_back("wins(" + workload::NodeName(node) + ")");
  }
  atoms.push_back("wins(nowhere)");  // closed world: false, not an error
  const std::size_t bad = atoms.size();
  atoms.push_back("wins(");

  EvalContext ctx;
  RelevanceBatchResult batch =
      QueryWithRelevanceWithContext(ctx, *ground, atoms);
  ASSERT_EQ(batch.values.size(), atoms.size());
  EXPECT_LE(batch.slice_size, batch.full_size);
  for (std::size_t i = 0; i < atoms.size(); ++i) {
    auto single = QueryWithRelevance(*ground, atoms[i]);
    if (i == bad) {
      ASSERT_FALSE(single.ok());
      ASSERT_FALSE(batch.values[i].ok());
      EXPECT_EQ(batch.values[i].status().code(), single.status().code());
      continue;
    }
    ASSERT_TRUE(single.ok()) << atoms[i];
    ASSERT_TRUE(batch.values[i].ok()) << atoms[i];
    EXPECT_EQ(*batch.values[i], single->value) << atoms[i];
    EXPECT_LE(single->slice_size, batch.slice_size) << atoms[i];
  }
}

TEST(Relevance, SliceCanBeMuchSmallerThanProgram) {
  // Two disconnected game boards; querying one should not pay for the
  // other.
  Digraph g1 = graphs::Chain(50);
  Program p;
  for (auto [u, v] : g1.edges) {
    p.AddFact("move", {workload::NodeName(u), workload::NodeName(v)});
  }
  // Second, much larger board: shifted node ids.
  for (auto [u, v] : graphs::Chain(200).edges) {
    p.AddFact("move",
              {workload::NodeName(u + 1000), workload::NodeName(v + 1000)});
  }
  Atom head = p.MakeAtom("wins", {p.Var("X")});
  p.AddRule(head,
            {Program::Pos(p.MakeAtom("move", {p.Var("X"), p.Var("Y")})),
             Program::Neg(p.MakeAtom("wins", {p.Var("Y")}))});
  auto ground = Grounder::Ground(p);
  ASSERT_TRUE(ground.ok());
  auto r = QueryWithRelevance(*ground, "wins(a)");
  ASSERT_TRUE(r.ok());
  EXPECT_LT(r->slice_size, r->full_size / 2);
}

}  // namespace
}  // namespace afp
