// End-to-end tests through the public facade (afp/afp.h): text in, model
// out, across the paper's flagship scenarios.

#include "afp/afp.h"

#include <gtest/gtest.h>

#include "reference/reference.h"
#include "workload/graphs.h"
#include "workload/programs.h"

namespace afp {
namespace {

TEST(Facade, SolveWellFoundedWinMove) {
  auto sol = SolveWellFounded(R"(
    move(a,b). move(b,a). move(b,c).
    wins(X) :- move(X,Y), not wins(Y).
  )");
  ASSERT_TRUE(sol.ok()) << sol.status().ToString();
  EXPECT_EQ(*sol->Query("wins(b)"), TruthValue::kTrue);
  EXPECT_EQ(*sol->Query("wins(a)"), TruthValue::kFalse);
  EXPECT_EQ(*sol->Query("wins(c)"), TruthValue::kFalse);
  // Atoms outside the grounded universe are false (closed world).
  EXPECT_EQ(*sol->Query("wins(zebra)"), TruthValue::kFalse);
}

TEST(Facade, SolutionSurvivesMove) {
  // The WfsSolution must stay valid after being moved (the ground program
  // back-references the owned Program).
  auto sol = SolveWellFounded("p :- not q. q :- not p. r.");
  ASSERT_TRUE(sol.ok());
  WfsSolution moved = std::move(sol).value();
  EXPECT_EQ(*moved.Query("r"), TruthValue::kTrue);
  EXPECT_EQ(*moved.Query("p"), TruthValue::kUndefined);
  std::string text = moved.ModelText();
  EXPECT_NE(text.find("true:"), std::string::npos);
}

TEST(Facade, ParseErrorsSurface) {
  auto sol = SolveWellFounded("p :- ");
  ASSERT_FALSE(sol.ok());
  EXPECT_EQ(sol.status().code(), StatusCode::kInvalidArgument);
}

// A constructed Program goes through the session's Program entry point.
TEST(Facade, ProgramOverloadAndPrinting) {
  Program p = workload::WinMove(graphs::Figure4b());
  auto sol = Solver::FromProgram(std::move(p));
  ASSERT_TRUE(sol.ok()) << sol.status().ToString();
  std::string text = sol->ModelText();
  EXPECT_NE(text.find("wins(c)"), std::string::npos);
  // EDB hidden by default.
  EXPECT_EQ(text.find("move("), std::string::npos);
  ModelPrintOptions opts;
  opts.include_edb = true;
  EXPECT_NE(sol->ModelText(opts).find("move("), std::string::npos);
}

TEST(Integration, DrawnPositionsAreUndefined) {
  // Game intuition: undefined well-founded value = drawn position.
  // A 4-cycle where every node also has an escape to a losing sink would
  // be winnable; a bare cycle is all draws.
  Program p = workload::WinMove(graphs::Cycle(4));
  auto sol = Solver::FromProgram(std::move(p));
  ASSERT_TRUE(sol.ok());
  EXPECT_EQ(sol->model().num_undefined(), 4u);
}

TEST(Integration, LargerWinMoveAgreesWithBaselines) {
  Program p1 = workload::WinMove(graphs::ErdosRenyi(60, 150, 7));
  auto sol = Solver::FromProgram(std::move(p1));
  ASSERT_TRUE(sol.ok());
  WpResult wp = WellFoundedViaWp(sol->ground());
  EXPECT_EQ(sol->model(), wp.model);
  EXPECT_EQ(sol->model(),
            reference::ScratchAlternatingFixpoint(sol->ground()).model);
}

TEST(Integration, TransitiveClosureEndToEnd) {
  auto sol = SolveWellFounded(R"(
    e(a,b). e(b,c). e(c,a).  % a 3-cycle
    e(d,a).                  % d reaches the cycle
    tc(X,Y) :- e(X,Y).
    tc(X,Y) :- e(X,Z), tc(Z,Y).
    node(a). node(b). node(c). node(d).
    ntc(X,Y) :- node(X), node(Y), not tc(X,Y).
  )");
  ASSERT_TRUE(sol.ok()) << sol.status().ToString();
  EXPECT_EQ(*sol->Query("tc(d,c)"), TruthValue::kTrue);
  EXPECT_EQ(*sol->Query("tc(a,d)"), TruthValue::kFalse);
  EXPECT_EQ(*sol->Query("ntc(a,d)"), TruthValue::kTrue);
  EXPECT_EQ(*sol->Query("tc(a,a)"), TruthValue::kTrue);  // via the cycle
  EXPECT_TRUE(sol->afp.model.IsTotal());
}

TEST(Integration, QueryRejectsNonAtoms) {
  auto sol = SolveWellFounded("p.");
  ASSERT_TRUE(sol.ok());
  EXPECT_FALSE(sol->Query("p :- q").ok());
  EXPECT_FALSE(sol->Query("").ok());
}

TEST(Integration, StableAndWfsPipelinesCompose) {
  // Ground once, use everywhere: WFS, stable enumeration, Fitting,
  // stratified all run off the same GroundProgram.
  Program p = workload::TransitiveClosureComplement(graphs::Chain(4));
  auto sol = Solver::FromProgram(std::move(p));
  ASSERT_TRUE(sol.ok());
  const PartialModel& wfs = sol->model();
  ASSERT_TRUE(wfs.IsTotal());

  StableSearch search(sol->ground());
  auto models = search.Enumerate().models;
  ASSERT_EQ(models.size(), 1u);
  EXPECT_EQ(models[0], wfs.true_atoms());

  auto strat = StratifiedEvaluate(sol->ground());
  ASSERT_TRUE(strat.ok());
  EXPECT_EQ(strat->model, wfs);

  FittingResult fit = FittingFixpoint(sol->ground());
  EXPECT_TRUE(fit.model.true_atoms().IsSubsetOf(wfs.true_atoms()));
}

TEST(Integration, ModelToJsonRoundStructure) {
  auto sol = SolveWellFounded("p :- not q. q :- not p. r.");
  ASSERT_TRUE(sol.ok());
  // IDB only by default: r (a fact, EDB) is filtered from list AND counts.
  std::string json = ModelToJson(sol->ground, sol->afp.model);
  EXPECT_NE(json.find("\"counts\":{\"true\":0,\"false\":0,\"undefined\":2}"),
            std::string::npos)
      << json;
  EXPECT_NE(json.find("{\"atom\":\"p\",\"value\":\"undef\"}"),
            std::string::npos);
  EXPECT_EQ(json.find("\"r\""), std::string::npos);

  ModelPrintOptions opts;
  opts.include_edb = true;
  std::string with_edb = ModelToJson(sol->ground, sol->afp.model, opts);
  EXPECT_NE(with_edb.find("{\"atom\":\"r\",\"value\":\"true\"}"),
            std::string::npos)
      << with_edb;
}

TEST(Integration, SpCallCountsAreReported) {
  auto sol = SolveWellFounded("p :- not q. q :- not p.");
  ASSERT_TRUE(sol.ok());
  EXPECT_GE(sol->afp.sp_calls, 2u);
  EXPECT_GE(sol->afp.outer_iterations, 1u);
}

}  // namespace
}  // namespace afp
