// Query layer tests: Select pattern matching with bindings, filters, and
// the point queries an unsolved session answers from their cones.

#include "core/query.h"

#include <gtest/gtest.h>

#include <memory>

#include "afp/solver.h"
#include "core/alternating.h"
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

// Relevance: an unsolved session answers a point query by solving only
// the upstream cone of the queried atom, on its own dependency analysis.

TEST(Relevance, SliceContainsOnlyReachableAtoms) {
  auto s = Solver::FromText(R"(
    a :- not b. b :- not a.
    x :- y. y.
  )");
  ASSERT_TRUE(s.ok()) << s.status().ToString();
  EXPECT_EQ(*s->Query("x"), TruthValue::kTrue);
  // x depends on y only; the a/b tangle is irrelevant. The cone is x's and
  // y's singleton components: `x :- y.` (2) and `y.` (1).
  EXPECT_EQ(s->Stats().cone_components, 2u);
  EXPECT_EQ(s->Stats().cone_local_size, 3u);
  EXPECT_EQ(s->Stats().buckets, 0u) << "the a/b component was solved";
  EXPECT_FALSE(s->solved());
}

TEST(Relevance, PointQueryMatchesFullSolve) {
  for (std::uint64_t seed = 0; seed < 15; ++seed) {
    auto s = Solver::FromProgram(
        workload::WinMove(graphs::ErdosRenyi(30, 70, seed)));
    ASSERT_TRUE(s.ok());
    const PartialModel full = AlternatingFixpoint(s->ground()).model;
    for (int node = 0; node < 30; node += 7) {
      std::string atom = "wins(" + workload::NodeName(node) + ")";
      auto coned = s->Query(atom);
      ASSERT_TRUE(coned.ok());
      auto direct = QueryAtom(s->ground(), full, atom);
      ASSERT_TRUE(direct.ok());
      EXPECT_EQ(*coned, *direct) << atom << " seed " << seed;
      EXPECT_LE(s->Stats().cone_local_size, s->Stats().ground_size);
    }
    EXPECT_FALSE(s->solved());
  }
}

TEST(Relevance, UnmaterializedAtomIsFalse) {
  auto s = Solver::FromText("p.");
  ASSERT_TRUE(s.ok());
  auto r = s->Query("q");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, TruthValue::kFalse);
  EXPECT_EQ(s->Stats().cone_components, 0u);
  EXPECT_EQ(s->Stats().cone_local_size, 0u);
  EXPECT_EQ(s->DependencyGraph(), nullptr) << "nothing to solve, nothing built";
}

TEST(Relevance, ContextThreadedQueriesMatchAndPoolScratch) {
  // One session across a loop of point queries: each answer and cone
  // receipt matches a fresh session's, and the session's one context
  // carries the loop's S_P work.
  const Program p = workload::WinMove(graphs::ErdosRenyi(25, 60, 11));
  auto shared = Solver::FromProgram(p);
  ASSERT_TRUE(shared.ok());
  std::size_t sp_calls = 0;
  for (int node = 0; node < 25; ++node) {
    std::string atom = "wins(" + workload::NodeName(node) + ")";
    auto pooled = shared->Query(atom);
    auto fresh_session = Solver::FromProgram(p);
    ASSERT_TRUE(fresh_session.ok());
    auto fresh = fresh_session->Query(atom);
    ASSERT_TRUE(pooled.ok() && fresh.ok());
    EXPECT_EQ(*pooled, *fresh) << atom;
    EXPECT_EQ(shared->Stats().cone_components,
              fresh_session->Stats().cone_components)
        << atom;
    EXPECT_EQ(shared->Stats().cone_local_size,
              fresh_session->Stats().cone_local_size)
        << atom;
    EXPECT_EQ(shared->Stats().eval.sp_calls,
              fresh_session->Stats().eval.sp_calls)
        << atom;
    sp_calls += shared->Stats().eval.sp_calls;
  }
  EXPECT_GT(sp_calls, 0u);
}

TEST(Relevance, BatchMatchesSingleQueries) {
  // One cone over the union of the batch's atoms answers every query as
  // its own cone would; an unparsable text fails only its own slot.
  const Program p = workload::WinMove(graphs::ErdosRenyi(40, 100, 5));
  std::vector<std::string> atoms;
  for (int node = 0; node < 40; node += 3) {
    atoms.push_back("wins(" + workload::NodeName(node) + ")");
  }
  atoms.push_back("wins(nowhere)");  // closed world: false, not an error
  const std::size_t bad = atoms.size();
  atoms.push_back("wins(");

  auto session = Solver::FromProgram(p);
  ASSERT_TRUE(session.ok());
  const std::vector<StatusOr<TruthValue>> batch = session->QueryBatch(atoms);
  const SolverStats batch_stats = session->Stats();
  ASSERT_EQ(batch.size(), atoms.size());
  EXPECT_LE(batch_stats.cone_local_size, batch_stats.ground_size);
  for (std::size_t i = 0; i < atoms.size(); ++i) {
    auto single_session = Solver::FromProgram(p);
    ASSERT_TRUE(single_session.ok());
    auto single = single_session->Query(atoms[i]);
    if (i == bad) {
      ASSERT_FALSE(single.ok());
      ASSERT_FALSE(batch[i].ok());
      EXPECT_EQ(batch[i].status().code(), single.status().code());
      continue;
    }
    ASSERT_TRUE(single.ok()) << atoms[i];
    ASSERT_TRUE(batch[i].ok()) << atoms[i];
    EXPECT_EQ(*batch[i], *single) << atoms[i];
    EXPECT_LE(single_session->Stats().cone_components,
              batch_stats.cone_components)
        << atoms[i];
    EXPECT_LE(single_session->Stats().cone_local_size,
              batch_stats.cone_local_size)
        << atoms[i];
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
  auto s = Solver::FromProgram(std::move(p));
  ASSERT_TRUE(s.ok());
  auto r = s->Query("wins(a)");
  ASSERT_TRUE(r.ok());
  EXPECT_LT(s->Stats().cone_local_size, s->Stats().ground_size / 2);
}

}  // namespace
}  // namespace afp
