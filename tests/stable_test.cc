// Stable models (§4, §2.4): GL transform, stability checks, brute-force vs
// backtracking enumeration, and the paper's WFS/stable relationships.

#include <gtest/gtest.h>

#include <algorithm>

#include "analysis/atom_graph.h"
#include "core/alternating.h"
#include "ground/grounder.h"
#include "search/stable_search.h"
#include "stable/enumerate.h"
#include "stable/gl_transform.h"
#include "workload/graphs.h"
#include "workload/programs.h"

namespace afp {
namespace {

GroundProgram MustGround(Program& p) {
  GroundOptions opts;
  opts.mode = GroundMode::kFull;
  auto g = Grounder::Ground(p, opts);
  EXPECT_TRUE(g.ok()) << g.status().ToString();
  return std::move(g).value();
}

std::vector<std::string> ModelNames(const GroundProgram& gp,
                                    const Bitset& pos) {
  std::vector<std::string> out;
  pos.ForEach([&](std::size_t a) {
    out.push_back(gp.AtomName(static_cast<AtomId>(a)));
  });
  std::sort(out.begin(), out.end());
  return out;
}

TEST(GlTransform, ReductDeletesAndStrips) {
  auto parsed = ParseProgram("p :- q, not r. q. r :- not p.");
  ASSERT_TRUE(parsed.ok());
  Program p = std::move(parsed).value();
  GroundProgram gp = MustGround(p);

  Bitset m(gp.num_atoms());
  for (AtomId a = 0; a < gp.num_atoms(); ++a) {
    if (gp.AtomName(a) == "r") m.Set(a);
  }
  // Reduct w.r.t. {r}: the rule for p (not r) is deleted; r :- not p keeps
  // its (empty) positive body.
  auto reduct = GlReduct(gp.View(), m);
  ASSERT_EQ(reduct.size(), 2u);  // q. and r.
  for (const auto& rr : reduct) EXPECT_TRUE(rr.pos.empty());
}

TEST(GlTransform, StabilityViaSp) {
  // This program has exactly the stable models {q,r} and {p,q}; {q} alone
  // is not stable (its reduct derives p and r too).
  auto parsed = ParseProgram("p :- q, not r. q. r :- not p.");
  ASSERT_TRUE(parsed.ok());
  Program p = std::move(parsed).value();
  GroundProgram gp = MustGround(p);
  HornSolver solver(gp.View());

  auto named = [&](std::vector<std::string> names) {
    Bitset out(gp.num_atoms());
    for (AtomId a = 0; a < gp.num_atoms(); ++a) {
      for (const auto& n : names) {
        if (gp.AtomName(a) == n) out.Set(a);
      }
    }
    return out;
  };
  EXPECT_TRUE(IsStableModel(solver, named({"q", "r"})));
  EXPECT_TRUE(IsStableModel(solver, named({"p", "q"})));
  EXPECT_FALSE(IsStableModel(solver, named({"q"})));
  EXPECT_FALSE(IsStableModel(solver, named({"p", "q", "r"})));
}

TEST(StableModels, EvenCycleHasTwoModels) {
  Program p = workload::EvenNegativeCycles(1);
  GroundProgram gp = MustGround(p);
  auto brute = EnumerateStableModelsBruteForce(gp);
  ASSERT_TRUE(brute.ok());
  EXPECT_EQ(brute->size(), 2u);

  StableSearch search(gp);
  EXPECT_EQ(search.Enumerate().models.size(), 2u);
}

TEST(StableModels, OddLoopHasNoModel) {
  auto parsed = ParseProgram("p :- not p.");
  ASSERT_TRUE(parsed.ok());
  Program p = std::move(parsed).value();
  GroundProgram gp = MustGround(p);
  auto brute = EnumerateStableModelsBruteForce(gp);
  ASSERT_TRUE(brute.ok());
  EXPECT_TRUE(brute->empty());
  StableSearch search(gp);
  EXPECT_EQ(search.Count().search.models, 0u);
}

TEST(StableModels, CountGrowsAsTwoToTheK) {
  for (int k = 1; k <= 4; ++k) {
    Program p = workload::EvenNegativeCycles(k);
    GroundProgram gp = MustGround(p);
    StableSearch search(gp);
    EXPECT_EQ(search.Count().search.models, (1u << k)) << "k=" << k;
  }
}

TEST(StableModels, BacktrackingMatchesBruteForce) {
  for (std::uint64_t seed = 0; seed < 30; ++seed) {
    Program p = workload::RandomPropositional(
        /*num_atoms=*/8, /*num_rules=*/14, /*body_len=*/2,
        /*neg_prob_percent=*/50, seed);
    GroundProgram gp = MustGround(p);
    auto brute = EnumerateStableModelsBruteForce(gp);
    ASSERT_TRUE(brute.ok());

    StableSearch search(gp);
    auto models = search.Enumerate().models;

    auto canon = [&](const std::vector<Bitset>& ms) {
      std::vector<std::vector<std::string>> out;
      for (const Bitset& m : ms) out.push_back(ModelNames(gp, m));
      std::sort(out.begin(), out.end());
      return out;
    };
    EXPECT_EQ(canon(*brute), canon(models)) << "seed " << seed;
  }
}

// One component holds every atom, so the search's second branch atom (c)
// lands in the component of its first assumption (a false): the repair
// must re-solve that component with both assumptions applied.
TEST(StableModels, SecondBranchInFirstAssumptionsComponent) {
  auto parsed = ParseProgram(
      "a :- not b. b :- not a. c :- not d. d :- not c. a :- c. c :- a.");
  ASSERT_TRUE(parsed.ok());
  Program p = std::move(parsed).value();
  GroundProgram gp = MustGround(p);
  ASSERT_EQ(AtomDependencyGraph(gp.View()).num_components(), 1u);
  auto brute = EnumerateStableModelsBruteForce(gp);
  ASSERT_TRUE(brute.ok());

  StableSearch search(gp);
  const StableResult r = search.Enumerate();
  auto canon = [&](const std::vector<Bitset>& ms) {
    std::vector<std::vector<std::string>> out;
    for (const Bitset& m : ms) out.push_back(ModelNames(gp, m));
    std::sort(out.begin(), out.end());
    return out;
  };
  const std::vector<std::vector<std::string>> expected = {{"a", "c"},
                                                          {"b", "d"}};
  EXPECT_EQ(canon(*brute), expected);
  EXPECT_EQ(canon(r.models), expected);
  // Root, a false (branch on c), its two leaves, and the a-true leaf.
  EXPECT_EQ(r.search.nodes, 5u);
  EXPECT_EQ(r.search.leaves, 3u);
}

TEST(StableModels, NaivePropagationAgreesWithWfsPropagation) {
  for (std::uint64_t seed = 100; seed < 115; ++seed) {
    Program p = workload::RandomPropositional(
        /*num_atoms=*/8, /*num_rules=*/14, /*body_len=*/2,
        /*neg_prob_percent=*/50, seed);
    GroundProgram gp = MustGround(p);
    StableSearchOptions wfs_opts;
    wfs_opts.wfs_propagation = true;
    StableSearchOptions naive_opts;
    naive_opts.wfs_propagation = false;
    StableSearch s1(gp, wfs_opts);
    StableSearch s2(gp, naive_opts);
    EXPECT_EQ(s1.Count().search.models, s2.Count().search.models)
        << "seed " << seed;
  }
}

TEST(StableModels, WfsPruningVisitsFewerNodes) {
  // On the win-move chain (stratified-ish but with deep alternation),
  // WFS propagation decides everything without branching.
  Program p = workload::WinMove(graphs::Chain(10));
  GroundProgram gp = MustGround(p);
  StableSearch s1(gp);
  const StableSearchStats wfs = s1.Count().search;
  EXPECT_EQ(wfs.models, 1u);
  EXPECT_EQ(wfs.nodes, 1u);  // no branching needed

  StableSearchOptions naive_opts;
  naive_opts.wfs_propagation = false;
  StableSearch s2(gp, naive_opts);
  const StableSearchStats naive = s2.Count().search;
  EXPECT_EQ(naive.models, 1u);
  EXPECT_GT(naive.nodes, wfs.nodes);
}

// --- relationships the paper states (§2.4) ---

TEST(StableModels, EveryStableModelContainsWellFoundedModel) {
  for (std::uint64_t seed = 0; seed < 25; ++seed) {
    Program p = workload::RandomPropositional(
        /*num_atoms=*/9, /*num_rules=*/16, /*body_len=*/2,
        /*neg_prob_percent=*/50, seed);
    GroundProgram gp = MustGround(p);
    AfpResult wfs = AlternatingFixpoint(gp);
    StableSearch search(gp);
    for (const Bitset& m : search.Enumerate().models) {
      EXPECT_TRUE(wfs.model.true_atoms().IsSubsetOf(m)) << "seed " << seed;
      EXPECT_TRUE(wfs.model.false_atoms().IsDisjointWith(m))
          << "seed " << seed;
    }
  }
}

TEST(StableModels, TotalWellFoundedModelIsUniqueStableModel) {
  // Figure 4(a) and (c): WFS total => exactly that one stable model.
  for (auto graph : {graphs::Figure4a(), graphs::Figure4c()}) {
    Program p = workload::WinMove(graph);
    GroundProgram gp = MustGround(p);
    AfpResult wfs = AlternatingFixpoint(gp);
    ASSERT_TRUE(wfs.model.IsTotal());
    StableSearch search(gp);
    auto models = search.Enumerate().models;
    ASSERT_EQ(models.size(), 1u);
    EXPECT_EQ(models[0], wfs.model.true_atoms());
  }
}

TEST(StableModels, StableModelsAreFixpointsOfAp) {
  // §5: every stable model('s negative part) is a fixpoint of A_P.
  for (std::uint64_t seed = 0; seed < 15; ++seed) {
    Program p = workload::RandomPropositional(
        /*num_atoms=*/8, /*num_rules=*/12, /*body_len=*/2,
        /*neg_prob_percent=*/60, seed);
    GroundProgram gp = MustGround(p);
    HornSolver solver(gp.View());
    StableSearch search(gp);
    for (const Bitset& m : search.Enumerate().models) {
      Bitset neg = Bitset::ComplementOf(m);
      Bitset s1 = Bitset::ComplementOf(solver.EventualConsequences(neg));
      Bitset a_p = Bitset::ComplementOf(solver.EventualConsequences(s1));
      EXPECT_EQ(a_p, neg) << "seed " << seed;
    }
  }
}

TEST(StableModels, BruteForceGuardsUniverseSize) {
  Program p = workload::EvenNegativeCycles(20);
  GroundProgram gp = MustGround(p);
  auto r = EnumerateStableModelsBruteForce(gp, /*max_universe=*/24);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kResourceExhausted);
}

TEST(StableModels, MaxModelsStopsEarly) {
  Program p = workload::EvenNegativeCycles(6);
  GroundProgram gp = MustGround(p);
  StableSearchControl control;
  control.max_models = 3;
  StableSearch search(gp);
  EXPECT_EQ(search.Enumerate(control).models.size(), 3u);
}

}  // namespace
}  // namespace afp
