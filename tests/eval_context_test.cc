// EvalContext / delta-driven S_P / delta-driven GUS coverage:
//  * reusing one context across many solves — and re-solving the same
//    program through it — yields bit-identical models (the pooled scratch
//    leaks no state between calls), over the examples/programs/ corpus and
//    random workload:: programs;
//  * the delta-driven enablement path equals the from-scratch path on every
//    engine (the ISSUE's differential pin), while doing measurably less
//    enablement work;
//  * the delta-driven unfounded-set path (GusMode) equals the from-scratch
//    path — bit-identical well-founded models AND iteration trajectories —
//    on the W_P engine and the SCC engine's kWp inner mode, and agrees with
//    the S_P-based engines and the stable-model search;
//  * SpEvaluator matches HornSolver::EventualConsequences, GusEvaluator
//    matches GreatestUnfoundedSet, and TpEvaluator matches
//    ImmediateConsequences call by call on arbitrary (non-monotone)
//    interpretation sequences.

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "core/alternating.h"
#include "core/eval_context.h"
#include "core/residual.h"
#include "core/scc_engine.h"
#include "ground/grounder.h"
#include "search/stable_search.h"
#include "stable/enumerate.h"
#include "wfs/unfounded.h"
#include "wfs/wp_engine.h"
#include "workload/graphs.h"
#include "workload/programs.h"

namespace afp {
namespace {

std::vector<std::string> CorpusTexts() {
  std::vector<std::string> texts;
  const std::filesystem::path dir(AFP_LP_CORPUS_DIR);
  std::vector<std::filesystem::path> files;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.path().extension() == ".lp") files.push_back(entry.path());
  }
  std::sort(files.begin(), files.end());
  for (const auto& f : files) {
    std::ifstream in(f);
    std::ostringstream ss;
    ss << in.rdbuf();
    texts.push_back(ss.str());
  }
  return texts;
}

std::vector<Program> WorkloadPrograms() {
  std::vector<Program> programs;
  for (std::uint64_t seed = 0; seed < 12; ++seed) {
    programs.push_back(workload::RandomPropositional(12, 18, 3, 60, seed));
    programs.push_back(workload::RandomDatalog(4, 6, 8, seed));
  }
  for (int n : {10, 25}) {
    programs.push_back(workload::WinMove(graphs::ErdosRenyi(n, 3 * n, 7)));
  }
  return programs;
}

// One shared context across the whole corpus, each program solved twice:
// the second pass must be bit-identical to the first (no scratch state can
// leak between solves), and both must match a fresh-context solve.
TEST(EvalContextReuse, CorpusTwiceThroughSharedContextIsBitIdentical) {
  EvalContext shared;
  int solved = 0;
  for (const std::string& text : CorpusTexts()) {
    auto parsed = ParseProgram(text);
    ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
    Program p = std::move(parsed).value();
    auto ground = Grounder::Ground(p);
    ASSERT_TRUE(ground.ok()) << ground.status().ToString();

    HornSolver solver(ground->View(), &shared);
    Bitset seed(ground->num_atoms());
    AfpResult first =
        AlternatingFixpointWithContext(shared, solver, seed, {});
    AfpResult second =
        AlternatingFixpointWithContext(shared, solver, seed, {});
    EXPECT_EQ(first.model, second.model);
    EXPECT_EQ(first.outer_iterations, second.outer_iterations);

    AfpResult fresh = AlternatingFixpoint(*ground);
    EXPECT_EQ(first.model, fresh.model);
    ++solved;
  }
  EXPECT_GT(solved, 5);  // the corpus must actually be found
}

TEST(EvalContextReuse, WorkloadProgramsTwiceThroughSharedContext) {
  EvalContext shared;
  for (Program& p : WorkloadPrograms()) {
    auto ground = Grounder::Ground(p);
    ASSERT_TRUE(ground.ok()) << ground.status().ToString();

    HornSolver solver(ground->View(), &shared);
    Bitset seed(ground->num_atoms());
    AfpResult first =
        AlternatingFixpointWithContext(shared, solver, seed, {});
    AfpResult second =
        AlternatingFixpointWithContext(shared, solver, seed, {});
    EXPECT_EQ(first.model, second.model) << p.ToString();

    // The other context-threaded engines through the same shared context.
    ResidualResult res1 = WellFoundedResidualWithContext(shared, *ground);
    ResidualResult res2 = WellFoundedResidualWithContext(shared, *ground);
    EXPECT_EQ(res1.model, res2.model);
    EXPECT_EQ(first.model, res1.model);

    SccWfsResult scc1 = WellFoundedSccWithContext(shared, *ground);
    SccWfsResult scc2 = WellFoundedSccWithContext(shared, *ground);
    EXPECT_EQ(scc1.model, scc2.model);
    EXPECT_EQ(first.model, scc1.model);

    WpResult wp1 = WellFoundedViaWpWithContext(shared, *ground);
    WpResult wp2 = WellFoundedViaWpWithContext(shared, *ground);
    EXPECT_EQ(wp1.model, wp2.model);
    EXPECT_EQ(first.model, wp1.model);
  }
}

// The differential pin: delta-driven S_P == from-scratch S_P on every
// engine that exposes the axis, over random programs with heavy negation.
TEST(DeltaScratchDifferential, AllEnginesAgreeAcrossSpModes) {
  EvalContext ctx;
  for (std::uint64_t seed = 0; seed < 40; ++seed) {
    Program p = workload::RandomPropositional(14, 30, 3, 70, seed);
    auto ground = Grounder::Ground(p);
    ASSERT_TRUE(ground.ok());

    AfpOptions delta_opts;
    delta_opts.sp_mode = SpMode::kDelta;
    AfpOptions scratch_opts;
    scratch_opts.sp_mode = SpMode::kScratch;
    AfpResult afp_delta = AlternatingFixpoint(*ground, delta_opts);
    AfpResult afp_scratch = AlternatingFixpoint(*ground, scratch_opts);
    EXPECT_EQ(afp_delta.model, afp_scratch.model) << "seed " << seed;
    // Same fixpoint trajectory, so the same number of S_P calls; the delta
    // path must never examine more rules than the scratch path.
    EXPECT_EQ(afp_delta.sp_calls, afp_scratch.sp_calls) << "seed " << seed;
    EXPECT_LE(afp_delta.eval.rules_rescanned,
              afp_scratch.eval.rules_rescanned)
        << "seed " << seed;

    ResidualOptions res_delta;
    res_delta.sp_mode = SpMode::kDelta;
    ResidualOptions res_scratch;
    res_scratch.sp_mode = SpMode::kScratch;
    ResidualResult r_delta =
        WellFoundedResidualWithContext(ctx, *ground, res_delta);
    ResidualResult r_scratch =
        WellFoundedResidualWithContext(ctx, *ground, res_scratch);
    EXPECT_EQ(r_delta.model, r_scratch.model) << "seed " << seed;
    EXPECT_EQ(afp_delta.model, r_delta.model) << "seed " << seed;

    SccOptions scc_delta;
    scc_delta.sp_mode = SpMode::kDelta;
    SccOptions scc_scratch;
    scc_scratch.sp_mode = SpMode::kScratch;
    SccWfsResult s_delta = WellFoundedSccWithContext(ctx, *ground, scc_delta);
    SccWfsResult s_scratch =
        WellFoundedSccWithContext(ctx, *ground, scc_scratch);
    EXPECT_EQ(s_delta.model, s_scratch.model) << "seed " << seed;
    EXPECT_EQ(afp_delta.model, s_delta.model) << "seed " << seed;

    // W_P has no delta axis but must agree with both.
    EXPECT_EQ(afp_delta.model, WellFoundedViaWpWithContext(ctx, *ground).model)
        << "seed " << seed;
  }
}

// Stable-model search across the axis: identical model sets and identical
// search trees.
TEST(DeltaScratchDifferential, StableSearchAgreesAcrossSpModes) {
  for (std::uint64_t seed = 0; seed < 20; ++seed) {
    Program p = workload::RandomPropositional(10, 14, 2, 80, seed);
    auto ground = Grounder::Ground(p);
    ASSERT_TRUE(ground.ok());

    StableSearchOptions delta_opts;
    delta_opts.sp_mode = SpMode::kDelta;
    StableSearchOptions scratch_opts;
    scratch_opts.sp_mode = SpMode::kScratch;
    StableSearch delta_search(*ground, delta_opts);
    StableSearch scratch_search(*ground, scratch_opts);
    StableResult delta = delta_search.Enumerate();
    StableResult scratch = scratch_search.Enumerate();
    EXPECT_EQ(delta.models, scratch.models) << "seed " << seed;
    EXPECT_EQ(delta.search.nodes, scratch.search.nodes);

    // And the brute-force enumerator (internally delta-driven) agrees.
    if (ground->num_atoms() <= 16) {
      auto brute = EnumerateStableModelsBruteForce(*ground);
      ASSERT_TRUE(brute.ok());
      ASSERT_EQ(brute->size(), delta.models.size()) << "seed " << seed;
    }
  }
}

// SpEvaluator against the reference solver, on an adversarial call
// sequence: random assumed-false sets (not monotone, large deltas both
// directions), interleaved across two evaluators sharing one context.
TEST(SpEvaluatorDifferential, MatchesReferenceOnRandomSequences) {
  EvalContext ctx;
  for (std::uint64_t seed = 50; seed < 58; ++seed) {
    Program p = workload::RandomPropositional(16, 28, 3, 60, seed);
    auto ground = Grounder::Ground(p);
    ASSERT_TRUE(ground.ok());
    const std::size_t n = ground->num_atoms();
    HornSolver solver(ground->View(), &ctx);
    SpEvaluator sp_a(solver, ctx, SpMode::kDelta);
    SpEvaluator sp_b(solver, ctx, SpMode::kDelta);

    std::uint64_t rng = seed * 6364136223846793005ULL + 1442695040888963407ULL;
    Bitset assumed(n);
    Bitset out;
    for (int step = 0; step < 30; ++step) {
      // Flip a pseudo-random handful of atoms.
      for (int f = 0; f < 3; ++f) {
        rng = rng * 6364136223846793005ULL + 1442695040888963407ULL;
        std::size_t a = (rng >> 33) % (n == 0 ? 1 : n);
        if (n == 0) break;
        if (assumed.Test(a)) {
          assumed.Reset(a);
        } else {
          assumed.Set(a);
        }
      }
      SpEvaluator& sp = (step % 2 == 0) ? sp_a : sp_b;
      sp.Eval(assumed, &out);
      EXPECT_EQ(out, solver.EventualConsequences(assumed))
          << "seed " << seed << " step " << step;
    }
  }
}

// The seeded and unseeded paths are one code path: a seed of the empty set
// (properly sized) must reproduce the unseeded result exactly, and seeding
// with the model's own false set is idempotent.
TEST(SeededPath, EmptySeedEqualsUnseeded) {
  for (std::uint64_t seed = 0; seed < 15; ++seed) {
    Program p = workload::RandomPropositional(12, 20, 2, 50, seed);
    auto ground = Grounder::Ground(p);
    ASSERT_TRUE(ground.ok());
    AfpResult plain = AlternatingFixpoint(*ground);
    AfpResult empty_seeded =
        AlternatingFixpointSeeded(*ground, Bitset(ground->num_atoms()));
    EXPECT_EQ(plain.model, empty_seeded.model) << "seed " << seed;
    EXPECT_EQ(plain.outer_iterations, empty_seeded.outer_iterations);
    AfpResult reseeded =
        AlternatingFixpointSeeded(*ground, plain.model.false_atoms());
    EXPECT_EQ(plain.model, reseeded.model) << "seed " << seed;
  }
}

// The GusMode differential pin: the delta-driven unfounded-set path equals
// the from-scratch path on every engine that exposes the axis — same
// models bit for bit, same W_P iteration trajectory — and both agree with
// the S_P-based engines, over random programs with heavy negation.
TEST(GusDeltaScratchDifferential, WpAndSccEnginesAgreeAcrossGusModes) {
  EvalContext ctx;
  for (std::uint64_t seed = 0; seed < 40; ++seed) {
    Program p = workload::RandomPropositional(14, 30, 3, 70, seed);
    auto ground = Grounder::Ground(p);
    ASSERT_TRUE(ground.ok());

    WpOptions delta_opts;
    delta_opts.gus_mode = GusMode::kDelta;
    WpOptions scratch_opts;
    scratch_opts.gus_mode = GusMode::kScratch;
    WpResult wp_delta = WellFoundedViaWpWithContext(ctx, *ground, delta_opts);
    WpResult wp_scratch =
        WellFoundedViaWpWithContext(ctx, *ground, scratch_opts);
    EXPECT_EQ(wp_delta.model, wp_scratch.model) << "seed " << seed;
    // Same fixpoint trajectory: the number of W_P rounds (and so U_P
    // solves) cannot depend on how the body checks are recomputed.
    EXPECT_EQ(wp_delta.iterations, wp_scratch.iterations) << "seed " << seed;
    EXPECT_EQ(wp_delta.eval.gus_calls, wp_scratch.eval.gus_calls)
        << "seed " << seed;
    // The delta path must never examine more rule bodies than scratch, on
    // either half of the round.
    EXPECT_LE(wp_delta.eval.gus_rules_rescanned,
              wp_scratch.eval.gus_rules_rescanned)
        << "seed " << seed;
    EXPECT_LE(wp_delta.eval.rules_rescanned, wp_scratch.eval.rules_rescanned)
        << "seed " << seed;

    // Both agree with the alternating fixpoint (Theorem 7.8).
    AfpResult afp = AlternatingFixpoint(*ground);
    EXPECT_EQ(afp.model, wp_delta.model) << "seed " << seed;

    // The SCC engine's kWp inner mode across the same axis.
    SccOptions scc_delta;
    scc_delta.inner = SccInnerEngine::kWp;
    scc_delta.gus_mode = GusMode::kDelta;
    SccOptions scc_scratch;
    scc_scratch.inner = SccInnerEngine::kWp;
    scc_scratch.gus_mode = GusMode::kScratch;
    SccWfsResult s_delta = WellFoundedSccWithContext(ctx, *ground, scc_delta);
    SccWfsResult s_scratch =
        WellFoundedSccWithContext(ctx, *ground, scc_scratch);
    EXPECT_EQ(s_delta.model, s_scratch.model) << "seed " << seed;
    EXPECT_EQ(afp.model, s_delta.model) << "seed " << seed;
    // No per-component work comparison: per-component W_P runs are the
    // shallow-iteration regime where the two modes' differing counter
    // units (per flipped-atom occurrence vs per rule per round) make the
    // inequality non-guaranteed; the deep-iteration claim lives in
    // wfs_test.cc and the CI bench gate.

    // And with the stable-model search: every stable model extends the
    // well-founded model the delta GUS computed.
    if (ground->num_atoms() <= 16) {
      StableSearch search(*ground);
      for (const Bitset& m : search.Enumerate().models) {
        EXPECT_TRUE(wp_delta.model.true_atoms().IsSubsetOf(m))
            << "seed " << seed;
        EXPECT_TRUE(wp_delta.model.false_atoms().IsDisjointWith(m))
            << "seed " << seed;
      }
    }
  }
}

// GusEvaluator against the scratch reference on an adversarial call
// sequence: atoms rotate undefined -> true -> false -> undefined, so the
// deltas are non-monotone in both polarities and every over-delete /
// re-derive path (rules losing witnesses, regaining them, support cycles
// collapsing and reforming) is exercised. Two evaluators interleave over
// one context to prove no state bleeds between them.
TEST(GusEvaluatorDifferential, MatchesScratchOnRandomSequences) {
  EvalContext ctx;
  for (std::uint64_t seed = 80; seed < 88; ++seed) {
    Program p = workload::RandomPropositional(16, 28, 3, 60, seed);
    auto ground = Grounder::Ground(p);
    ASSERT_TRUE(ground.ok());
    const std::size_t n = ground->num_atoms();
    if (n == 0) continue;
    HornSolver solver(ground->View(), &ctx);
    GusEvaluator gus_a(solver, ctx, GusMode::kDelta);
    GusEvaluator gus_b(solver, ctx, GusMode::kDelta);
    TpEvaluator tp(solver, ctx, GusMode::kDelta);

    std::uint64_t rng = seed * 6364136223846793005ULL + 1442695040888963407ULL;
    PartialModel I = PartialModel::AllUndefined(n);
    Bitset out;
    Bitset tp_out;
    for (int step = 0; step < 40; ++step) {
      for (int f = 0; f < 3; ++f) {
        rng = rng * 6364136223846793005ULL + 1442695040888963407ULL;
        std::size_t a = (rng >> 33) % n;
        if (I.true_atoms().Test(a)) {
          I.true_atoms().Reset(a);
          I.false_atoms().Set(a);
        } else if (I.false_atoms().Test(a)) {
          I.false_atoms().Reset(a);
        } else {
          I.true_atoms().Set(a);
        }
      }
      GusEvaluator& gus = (step % 2 == 0) ? gus_a : gus_b;
      gus.Eval(I, &out);
      EXPECT_EQ(out, GreatestUnfoundedSet(solver, I))
          << "seed " << seed << " step " << step;
      tp.Eval(I, &tp_out);
      EXPECT_EQ(tp_out, ImmediateConsequences(ground->View(), I))
          << "seed " << seed << " step " << step;
    }
  }
}

// The grounder seals the dedupe set; the program stays fully functional
// (solving, rendering) and rules can still be appended afterwards.
TEST(SealRules, GroundProgramWorksAfterSealing) {
  auto parsed = ParseProgram(
      "move(a,b). move(b,a). move(b,c). move(c,d).\n"
      "wins(X) :- move(X,Y), not wins(Y).\n");
  ASSERT_TRUE(parsed.ok());
  Program p = std::move(parsed).value();
  auto ground = Grounder::Ground(p);
  ASSERT_TRUE(ground.ok());
  const std::size_t rules_before = ground->num_rules();
  AfpResult before = AlternatingFixpoint(*ground);

  // Post-seal appends are accepted (without duplicate suppression).
  ASSERT_TRUE(ground->num_atoms() > 0);
  EXPECT_TRUE(ground->AddRule(0, {}, {}));
  EXPECT_TRUE(ground->AddRule(0, {}, {}));  // duplicate, no longer filtered
  EXPECT_EQ(ground->num_rules(), rules_before + 2);
  AfpResult after = AlternatingFixpoint(*ground);
  EXPECT_TRUE(before.model.true_atoms().IsSubsetOf(after.model.true_atoms()));
}

TEST(EvalContextRegistryUnit, SlotsAreIndependentAndStatsAggregate) {
  EvalContextRegistry registry;
  registry.EnsureSize(3);
  ASSERT_EQ(registry.size(), 3u);
  // Slots are distinct contexts; growing keeps existing slots (and their
  // references) intact.
  EvalContext* slot0 = &registry.ForWorker(0);
  registry.EnsureSize(5);
  EXPECT_EQ(registry.size(), 5u);
  EXPECT_EQ(slot0, &registry.ForWorker(0));

  Program p = workload::WinMove(graphs::Figure4b());
  auto ground = Grounder::Ground(p);
  ASSERT_TRUE(ground.ok());
  PartialModel m0, m1;
  {
    HornSolver s0(ground->View(), &registry.ForWorker(0));
    m0 = AlternatingFixpointWithContext(registry.ForWorker(0), s0, Bitset())
             .model;
    HornSolver s1(ground->View(), &registry.ForWorker(1));
    m1 = AlternatingFixpointWithContext(registry.ForWorker(1), s1, Bitset())
             .model;
  }
  EXPECT_EQ(m0, m1);
  const EvalStats agg = registry.AggregateStats();
  EXPECT_EQ(agg.sp_calls, registry.ForWorker(0).stats().sp_calls +
                              registry.ForWorker(1).stats().sp_calls);
  EXPECT_GT(agg.sp_calls, 0u);
  registry.ResetStats();
  EXPECT_EQ(registry.AggregateStats().sp_calls, 0u);
}

TEST(EvalContextRegistryUnit, SpEvaluatorRebindMatchesFreshEvaluator) {
  Program p1 = workload::WinMove(graphs::Figure4a());
  Program p2 = workload::WinMove(graphs::Figure4b());
  auto g1 = Grounder::Ground(p1);
  auto g2 = Grounder::Ground(p2);
  ASSERT_TRUE(g1.ok() && g2.ok());
  EvalContext ctx;
  HornSolver s1(g1->View(), &ctx);
  HornSolver s2(g2->View(), &ctx);
  SpEvaluator reused(s1, ctx);
  Bitset none1(g1->num_atoms());
  Bitset out;
  reused.Eval(none1, &out);
  none1.Set(0);
  reused.Eval(none1, &out);  // prime the delta machinery

  reused.Rebind(s2);
  Bitset none2(g2->num_atoms());
  Bitset reused_out, fresh_out;
  reused.Eval(none2, &reused_out);
  SpEvaluator fresh(s2, ctx);
  fresh.Eval(none2, &fresh_out);
  EXPECT_EQ(reused_out, fresh_out);
  EXPECT_EQ(reused_out, s2.EventualConsequences(none2));
}

}  // namespace
}  // namespace afp
