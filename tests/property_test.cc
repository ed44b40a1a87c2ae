// Parameterized property sweeps over random program families: the
// cross-engine equivalences and containments the paper proves, checked on
// hundreds of generated instances (TEST_P / INSTANTIATE_TEST_SUITE_P).

#include <gtest/gtest.h>

#include <algorithm>
#include <ostream>
#include <random>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "analysis/atom_graph.h"
#include "core/alternating.h"
#include "core/scc_engine.h"
#include "fitting/fitting.h"
#include "ground/grounder.h"
#include "reference/reference.h"
#include "search/stable_search.h"
#include "stable/gl_transform.h"
#include "wfs/wp_engine.h"
#include "workload/graphs.h"
#include "workload/programs.h"

namespace afp {
namespace {

struct FamilyParam {
  const char* name;
  int num_atoms;
  int num_rules;
  int body_len;
  int neg_prob;
  int num_seeds;
};

void PrintTo(const FamilyParam& p, std::ostream* os) { *os << p.name; }

class RandomProgramProperty : public ::testing::TestWithParam<FamilyParam> {
 protected:
  GroundProgram Ground(Program& p) {
    GroundOptions opts;
    opts.mode = GroundMode::kFull;
    auto g = Grounder::Ground(p, opts);
    EXPECT_TRUE(g.ok()) << g.status().ToString();
    return std::move(g).value();
  }

  Program Make(std::uint64_t seed) {
    const FamilyParam& f = GetParam();
    return workload::RandomPropositional(f.num_atoms, f.num_rules,
                                         f.body_len, f.neg_prob, seed);
  }
};

TEST_P(RandomProgramProperty, Theorem78FourEnginesAgree) {
  for (int seed = 0; seed < GetParam().num_seeds; ++seed) {
    Program p = Make(seed);
    GroundProgram gp = Ground(p);
    AfpResult afp = AlternatingFixpoint(gp);
    EXPECT_EQ(afp.model, WellFoundedViaWp(gp).model) << "seed " << seed;
    EXPECT_EQ(afp.model, WellFoundedScc(gp).model) << "seed " << seed;
    EXPECT_EQ(afp.model, reference::ScratchWellFoundedViaWp(gp).model)
        << "seed " << seed;
  }
}

// The delta-driven W_P iteration (witness-counter T_P + worklist unfounded
// sets) on random program families is pinned bit-identical — model and
// round count — to the from-scratch reference loop, and the SCC engine's
// kWp inner mode agrees as well.
TEST_P(RandomProgramProperty, WpGusModesAgree) {
  for (int seed = 0; seed < GetParam().num_seeds; ++seed) {
    Program p = Make(seed);
    GroundProgram gp = Ground(p);
    WpResult wp_delta = WellFoundedViaWp(gp);
    WpResult wp_scratch = reference::ScratchWellFoundedViaWp(gp);
    EXPECT_EQ(wp_delta.model, wp_scratch.model) << "seed " << seed;
    EXPECT_EQ(wp_delta.iterations, wp_scratch.iterations) << "seed " << seed;
    // No work comparison here: the two sides count different units (per
    // flipped-atom occurrence vs per rule per round), and on the shallow
    // iterations of these tiny families the delta side's incidence touches
    // can legitimately exceed the scratch side's rule count. The deep-
    // iteration regime where delta must win >= 3x is pinned in
    // wfs_test.cc (DeltaDoesLessWorkOnDeepIteration) and in
    // eval_context_test.cc (AblationCounters).

    SccOptions scc_wp;
    scc_wp.inner = SccInnerEngine::kWp;
    EXPECT_EQ(wp_scratch.model, WellFoundedScc(gp, scc_wp).model)
        << "seed " << seed;
  }
}

TEST_P(RandomProgramProperty, WellFoundedModelSatisfiesProgram) {
  for (int seed = 0; seed < GetParam().num_seeds; ++seed) {
    Program p = Make(seed);
    GroundProgram gp = Ground(p);
    AfpResult afp = AlternatingFixpoint(gp);
    EXPECT_TRUE(afp.model.IsConsistent()) << "seed " << seed;
    EXPECT_TRUE(Satisfies(gp, afp.model)) << "seed " << seed;
  }
}

TEST_P(RandomProgramProperty, FittingIsNoMoreDefinedThanWfs) {
  for (int seed = 0; seed < GetParam().num_seeds; ++seed) {
    Program p = Make(seed);
    GroundProgram gp = Ground(p);
    AfpResult afp = AlternatingFixpoint(gp);
    FittingResult fit = FittingFixpoint(gp);
    EXPECT_TRUE(fit.model.true_atoms().IsSubsetOf(afp.model.true_atoms()))
        << "seed " << seed;
    EXPECT_TRUE(fit.model.false_atoms().IsSubsetOf(afp.model.false_atoms()))
        << "seed " << seed;
  }
}

TEST_P(RandomProgramProperty, StableModelsExtendWfsAndAreStable) {
  for (int seed = 0; seed < GetParam().num_seeds; ++seed) {
    Program p = Make(seed);
    GroundProgram gp = Ground(p);
    if (gp.num_atoms() > 16) continue;  // keep enumeration cheap
    AfpResult wfs = AlternatingFixpoint(gp);
    HornSolver solver(gp.View());
    StableSearch search(gp);
    const std::vector<Bitset> models = search.Enumerate().models;
    for (const Bitset& m : models) {
      EXPECT_TRUE(wfs.model.true_atoms().IsSubsetOf(m)) << "seed " << seed;
      EXPECT_TRUE(wfs.model.false_atoms().IsDisjointWith(m))
          << "seed " << seed;
      EXPECT_TRUE(IsStableModel(solver, m)) << "seed " << seed;
      // Definition-level double check: materialize the reduct and take its
      // least model by naive iteration.
      auto reduct = GlReduct(gp.View(), m);
      Bitset lfp(gp.num_atoms());
      bool changed = true;
      while (changed) {
        changed = false;
        for (const auto& rr : reduct) {
          if (lfp.Test(rr.head)) continue;
          bool fire = true;
          for (AtomId a : rr.pos) {
            if (!lfp.Test(a)) {
              fire = false;
              break;
            }
          }
          if (fire) {
            lfp.Set(rr.head);
            changed = true;
          }
        }
      }
      EXPECT_EQ(lfp, m) << "seed " << seed;
    }
    // If the WFS model is total, it is the unique stable model.
    if (wfs.model.IsTotal()) {
      ASSERT_EQ(models.size(), 1u) << "seed " << seed;
      EXPECT_EQ(models[0], wfs.model.true_atoms()) << "seed " << seed;
    }
  }
}

TEST_P(RandomProgramProperty, SeedingWithWfsFalseSetIsIdempotent) {
  // Ã is the least fixpoint of A_P: seeding with any subset of Ã (here all
  // of it) must return exactly the same model.
  for (int seed = 0; seed < GetParam().num_seeds; ++seed) {
    Program p = Make(seed);
    GroundProgram gp = Ground(p);
    AfpResult plain = AlternatingFixpoint(gp);
    EvalContext ctx;
    HornSolver solver(gp.View(), &ctx);
    AfpResult seeded =
        AlternatingFixpointWithContext(ctx, solver, plain.model.false_atoms());
    EXPECT_EQ(plain.model, seeded.model) << "seed " << seed;
  }
}

// The counting, delta-driven alternating fixpoint against the reference
// loop that re-derives every S_P by naive T_P iteration: same model and
// same number of A_P rounds.
TEST_P(RandomProgramProperty, HornModesAgree) {
  for (int seed = 0; seed < GetParam().num_seeds; ++seed) {
    Program p = Make(seed);
    GroundProgram gp = Ground(p);
    AfpResult counting = AlternatingFixpoint(gp);
    AfpResult naive = reference::ScratchAlternatingFixpoint(gp);
    EXPECT_EQ(counting.model, naive.model) << "seed " << seed;
    EXPECT_EQ(counting.outer_iterations, naive.outer_iterations)
        << "seed " << seed;
  }
}

// --- the flat dependency analysis against its sorting references ---

/// Rule ids pushed one by one onto their head component's row: the
/// per-component vectors that RuleBuckets' counting sort replaced.
std::vector<std::vector<std::uint32_t>> PushBackBuckets(
    const RuleView& view, const AtomDependencyGraph& graph) {
  std::vector<std::vector<std::uint32_t>> rows(graph.num_components());
  for (std::uint32_t ri = 0; ri < view.rules.size(); ++ri) {
    rows[graph.component_of()[view.rules[ri].head]].push_back(ri);
  }
  return rows;
}

void ExpectBucketsMatchPushBack(const RuleView& view,
                                const AtomDependencyGraph& graph,
                                const std::string& where) {
  const RuleBuckets got(view, graph);
  const std::vector<std::vector<std::uint32_t>> want =
      PushBackBuckets(view, graph);
  ASSERT_EQ(got.num_rows(), want.size()) << where;
  for (std::uint32_t c = 0; c < want.size(); ++c) {
    EXPECT_EQ(std::vector<std::uint32_t>(got[c].begin(), got[c].end()),
              want[c])
        << where << " row " << c;
  }
}

/// The condensation by sort and unique, the algorithm the linear build
/// replaced: every cross-component arc flipped to dependency -> dependent,
/// sorted, deduplicated and laid out as CSR.
std::pair<std::vector<std::uint32_t>, std::vector<std::uint32_t>>
SortUniqueCondensation(const RuleView& view,
                       const AtomDependencyGraph& graph) {
  const std::vector<std::uint32_t>& comp = graph.component_of();
  std::vector<std::uint64_t> edges;
  for (const GroundRule& r : view.rules) {
    for (std::span<const AtomId> body : {view.pos(r), view.neg(r)}) {
      for (AtomId a : body) {
        if (comp[a] == comp[r.head]) continue;
        edges.push_back((std::uint64_t{comp[a]} << 32) | comp[r.head]);
      }
    }
  }
  std::sort(edges.begin(), edges.end());
  edges.erase(std::unique(edges.begin(), edges.end()), edges.end());
  std::vector<std::uint32_t> offsets(graph.num_components() + 1, 0);
  std::vector<std::uint32_t> successors;
  for (std::uint64_t e : edges) {
    ++offsets[(e >> 32) + 1];
    successors.push_back(static_cast<std::uint32_t>(e));
  }
  for (std::size_t i = 1; i < offsets.size(); ++i) {
    offsets[i] += offsets[i - 1];
  }
  return {offsets, successors};
}

/// The graph's condensation equals the sort-and-unique reference, and its
/// membership CSR lists every atom exactly once, under its own component.
void ExpectAnalysisMatchesReference(const RuleView& view,
                                    const AtomDependencyGraph& graph,
                                    const std::string& where) {
  const auto [offsets, successors] = SortUniqueCondensation(view, graph);
  EXPECT_EQ(graph.condensation_offsets(), offsets) << where;
  EXPECT_EQ(graph.condensation_successors(), successors) << where;
  std::vector<int> listed(view.num_atoms, 0);
  for (std::uint32_t c = 0; c < graph.num_components(); ++c) {
    for (AtomId a : graph.members(c)) {
      EXPECT_EQ(graph.component_of()[a], c) << where << " atom " << a;
      ++listed[a];
    }
  }
  EXPECT_EQ(std::count(listed.begin(), listed.end(), 1),
            static_cast<std::ptrdiff_t>(view.num_atoms))
      << where;
}

TEST_P(RandomProgramProperty, RuleBucketsMatchPushBackReference) {
  for (int seed = 0; seed < GetParam().num_seeds; ++seed) {
    Program p = Make(seed);
    GroundProgram gp = Ground(p);
    ExpectBucketsMatchPushBack(gp.View(), AtomDependencyGraph(gp.View()),
                               "seed " + std::to_string(seed));
  }
}

// Before and after a TryAppendDelta splice: the grown program adds new
// atoms whose rules read old atoms and each other (cycles through
// negation included), so every added head is new and the splice applies.
TEST_P(RandomProgramProperty, CondensationMatchesSortUniqueReference) {
  for (int seed = 0; seed < GetParam().num_seeds; ++seed) {
    const std::string where = "seed " + std::to_string(seed);
    Program p = Make(seed);
    GroundProgram gp = Ground(p);
    AtomDependencyGraph graph(gp.View());
    ExpectAnalysisMatchesReference(gp.View(), graph, where);

    const std::size_t old_num_atoms = gp.num_atoms();
    ASSERT_GT(old_num_atoms, 0u);
    std::vector<AtomId> fresh;
    for (int i = 0; i < 5; ++i) {
      fresh.push_back(gp.atoms().Intern(
          p.symbols().Intern("fresh" + std::to_string(i)), {}));
    }
    std::mt19937 rng(static_cast<std::uint32_t>(seed));
    std::vector<std::uint32_t> added;
    for (AtomId head : fresh) {
      for (int j = 0; j < 2; ++j) {
        const AtomId old_atom = static_cast<AtomId>(rng() % old_num_atoms);
        const AtomId new_atom = fresh[rng() % fresh.size()];
        const AtomId olds[] = {old_atom};
        const AtomId news[] = {new_atom};
        if (rng() % 2 == 0) {
          gp.AddRule(head, olds, news);
        } else {
          gp.AddRule(head, news, olds);
        }
        added.push_back(static_cast<std::uint32_t>(gp.num_rules() - 1));
      }
    }
    const std::size_t old_components = graph.num_components();
    ASSERT_TRUE(graph.TryAppendDelta(gp.View(), added, old_num_atoms).applied)
        << where;
    EXPECT_GT(graph.num_components(), old_components) << where;
    ExpectAnalysisMatchesReference(gp.View(), graph, where + " after delta");
    ExpectBucketsMatchPushBack(gp.View(), graph, where + " after delta");
  }
}

INSTANTIATE_TEST_SUITE_P(
    Families, RandomProgramProperty,
    ::testing::Values(
        FamilyParam{"sparse_light_negation", 12, 15, 2, 25, 20},
        FamilyParam{"sparse_heavy_negation", 12, 15, 2, 75, 20},
        FamilyParam{"dense_mixed", 14, 40, 3, 50, 15},
        FamilyParam{"unary_rules", 10, 20, 1, 50, 20},
        FamilyParam{"wide_bodies", 10, 16, 5, 40, 15},
        FamilyParam{"pure_negative", 8, 12, 2, 100, 20},
        FamilyParam{"pure_positive", 16, 30, 3, 0, 10}),
    [](const ::testing::TestParamInfo<FamilyParam>& info) {
      return info.param.name;
    });

// --- graph-family sweeps for the win-move workload ---

struct GraphParam {
  const char* name;
  int n;
  int m;
  int num_seeds;
};

void PrintTo(const GraphParam& p, std::ostream* os) { *os << p.name; }

class WinMoveProperty : public ::testing::TestWithParam<GraphParam> {};

TEST_P(WinMoveProperty, EnginesAgreeAndModelIsGameConsistent) {
  const GraphParam& g = GetParam();
  for (int seed = 0; seed < g.num_seeds; ++seed) {
    Program p = workload::WinMove(graphs::ErdosRenyi(g.n, g.m, seed));
    auto ground = Grounder::Ground(p);
    ASSERT_TRUE(ground.ok());
    GroundProgram gp = std::move(ground).value();
    AfpResult afp = AlternatingFixpoint(gp);
    EXPECT_EQ(afp.model, WellFoundedViaWp(gp).model) << "seed " << seed;
    EXPECT_EQ(afp.model, WellFoundedScc(gp).model) << "seed " << seed;

    // Game-theoretic sanity: a position is won iff some move reaches a
    // lost position; lost iff all moves reach won positions.
    for (AtomId a = 0; a < gp.num_atoms(); ++a) {
      std::string name = gp.AtomName(a);
      if (name.rfind("wins(", 0) != 0) continue;
      TruthValue v = afp.model.Value(a);
      if (v == TruthValue::kTrue) {
        // Some rule for this atom has a body true in the model.
        bool witnessed = false;
        for (std::size_t ri = 0; ri < gp.num_rules(); ++ri) {
          if (gp.rule(ri).head != a) continue;
          if (BodyValue(gp, gp.rule(ri), afp.model) == TruthValue::kTrue) {
            witnessed = true;
            break;
          }
        }
        EXPECT_TRUE(witnessed) << name << " seed " << seed;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Graphs, WinMoveProperty,
    ::testing::Values(GraphParam{"sparse", 30, 35, 8},
                      GraphParam{"medium", 30, 80, 8},
                      GraphParam{"dense", 25, 200, 6},
                      GraphParam{"very_sparse", 40, 20, 8}),
    [](const ::testing::TestParamInfo<GraphParam>& info) {
      return info.param.name;
    });

}  // namespace
}  // namespace afp
