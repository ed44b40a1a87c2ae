// Stratified evaluation (§2.3) and the inflationary fixpoint (§2.2, §3.4):
// the ntc example, agreement with WFS on stratified programs, and
// Example 2.2's IFP anomaly.

#include "stratified/stratified_eval.h"

#include <gtest/gtest.h>

#include "core/alternating.h"
#include "ground/grounder.h"
#include "search/stable_search.h"
#include "stratified/inflationary.h"
#include "workload/graphs.h"
#include "workload/programs.h"

namespace afp {
namespace {

GroundProgram MustGround(Program& p) {
  auto g = Grounder::Ground(p);
  EXPECT_TRUE(g.ok()) << g.status().ToString();
  return std::move(g).value();
}

TEST(Stratified, NtcComesOutRight) {
  // The complement of transitive closure "comes out in the natural way"
  // under stratified semantics (§2.3).
  Digraph g;
  g.n = 3;
  g.edges = {{0, 1}, {1, 0}};  // the 1-2 cycle plus isolated node 3
  Program p = workload::TransitiveClosureComplement(g);
  GroundProgram gp = MustGround(p);
  auto r = StratifiedEvaluate(gp);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_TRUE(r->model.IsTotal());
  EXPECT_EQ(*QueryAtom(gp, r->model, "tc(a,b)"), TruthValue::kTrue);
  EXPECT_EQ(*QueryAtom(gp, r->model, "tc(a,c)"), TruthValue::kFalse);
  EXPECT_EQ(*QueryAtom(gp, r->model, "ntc(a,c)"), TruthValue::kTrue);
  EXPECT_EQ(*QueryAtom(gp, r->model, "ntc(a,b)"), TruthValue::kFalse);
}

TEST(Stratified, RejectsUnstratifiedProgram) {
  Program p = workload::WinMove(graphs::Figure4b());  // cyclic move graph
  GroundProgram gp = MustGround(p);
  auto r = StratifiedEvaluate(gp);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
}

TEST(Stratified, WinMoveIsUnstratifiedEvenOnAcyclicGraphs) {
  // Stratification is a property of the program (predicate level), not the
  // data: wins depends negatively on itself.
  Program p = workload::WinMove(graphs::Figure4a());
  GroundProgram gp = MustGround(p);
  EXPECT_FALSE(StratifiedEvaluate(gp).ok());
}

TEST(Stratified, AgreesWithWfsAndStableOnStratifiedPrograms) {
  // On stratified programs: perfect model = total WFS model = unique
  // stable model (§2.4).
  for (std::uint64_t seed = 0; seed < 20; ++seed) {
    Program p = workload::RandomStratified(
        /*num_atoms=*/18, /*num_rules=*/30, /*body_len=*/2,
        /*num_layers=*/3, seed);
    GroundOptions opts;
    opts.mode = GroundMode::kFull;
    auto ground = Grounder::Ground(p, opts);
    ASSERT_TRUE(ground.ok()) << ground.status().ToString();
    GroundProgram gp = std::move(ground).value();

    auto strat = StratifiedEvaluate(gp);
    ASSERT_TRUE(strat.ok()) << "seed " << seed << ": "
                            << strat.status().ToString();
    AfpResult wfs = AlternatingFixpoint(gp);
    EXPECT_TRUE(wfs.model.IsTotal()) << "seed " << seed;
    EXPECT_EQ(strat->model, wfs.model) << "seed " << seed;

    StableSearch search(gp);
    auto models = search.Enumerate().models;
    ASSERT_EQ(models.size(), 1u) << "seed " << seed;
    EXPECT_EQ(models[0], wfs.model.true_atoms()) << "seed " << seed;
  }
}

TEST(Stratified, MultiLayerChain) {
  auto parsed = ParseProgram(R"(
    base(a). base(b).
    lvl1(X) :- base(X), not excluded(X).
    excluded(a).
    lvl2(X) :- lvl1(X), not blocked(X).
    blocked(X) :- excluded(X).
  )");
  ASSERT_TRUE(parsed.ok());
  Program p = std::move(parsed).value();
  GroundProgram gp = MustGround(p);
  auto r = StratifiedEvaluate(gp);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(*QueryAtom(gp, r->model, "lvl1(b)"), TruthValue::kTrue);
  EXPECT_EQ(*QueryAtom(gp, r->model, "lvl1(a)"), TruthValue::kFalse);
  EXPECT_EQ(*QueryAtom(gp, r->model, "lvl2(b)"), TruthValue::kTrue);
  EXPECT_GE(r->num_strata, 2);
}

TEST(Inflationary, Example22NpAnomaly) {
  // Example 2.2: under IFP, np(X,Y) fires in round one for every pair
  // (nothing is in tc yet), and conclusions are never retracted.
  Digraph g = graphs::Chain(3);  // a -> b -> c
  Program p = workload::TransitiveClosureComplement(g);
  GroundOptions opts;
  opts.mode = GroundMode::kFull;
  auto ground = Grounder::Ground(p, opts);
  ASSERT_TRUE(ground.ok());
  GroundProgram gp = std::move(ground).value();

  InflationaryResult inf = InflationaryFixpoint(gp);
  // Every ntc pair is (wrongly) concluded, even ntc(a,b) with a->b an edge.
  int ntc_count = 0;
  inf.true_atoms.ForEach([&](std::size_t a) {
    if (gp.AtomName(static_cast<AtomId>(a)).rfind("ntc(", 0) == 0) {
      ++ntc_count;
    }
  });
  EXPECT_EQ(ntc_count, 9);  // all 3x3 pairs

  // The stratified/WFS result gets it right instead.
  AfpResult wfs = AlternatingFixpoint(gp);
  EXPECT_EQ(*QueryAtom(gp, wfs.model, "ntc(a,b)"), TruthValue::kFalse);
  EXPECT_EQ(*QueryAtom(gp, wfs.model, "ntc(c,a)"), TruthValue::kTrue);
}

TEST(Inflationary, PositivePartRetained) {
  // On negation-free programs IFP equals the least fixpoint.
  Program p = workload::TransitiveClosureComplement(graphs::Chain(4));
  // Strip the ntc rule by rebuilding only tc.
  auto parsed = ParseProgram(R"(
    e(a,b). e(b,c). e(c,d).
    tc(X,Y) :- e(X,Y).
    tc(X,Y) :- e(X,Z), tc(Z,Y).
  )");
  ASSERT_TRUE(parsed.ok());
  Program tc_only = std::move(parsed).value();
  GroundProgram gp = MustGround(tc_only);
  InflationaryResult inf = InflationaryFixpoint(gp);
  AfpResult wfs = AlternatingFixpoint(gp);
  EXPECT_EQ(inf.true_atoms, wfs.model.true_atoms());
}

TEST(Inflationary, NeverRetractsAndTerminates) {
  // Odd loop under IFP: p fires in round one (¬p holds initially) and is
  // retained forever, unlike WFS where p is undefined.
  auto parsed = ParseProgram("p :- not p.");
  ASSERT_TRUE(parsed.ok());
  Program p = std::move(parsed).value();
  GroundOptions opts;
  opts.mode = GroundMode::kFull;
  auto ground = Grounder::Ground(p, opts);
  ASSERT_TRUE(ground.ok());
  GroundProgram gp = std::move(ground).value();
  InflationaryResult inf = InflationaryFixpoint(gp);
  EXPECT_EQ(inf.true_atoms.Count(), 1u);
}

}  // namespace
}  // namespace afp
