// EvalContext / delta-driven S_P / delta-driven GUS coverage:
//  * reusing one context across many solves — and re-solving the same
//    program through it — yields bit-identical models (the pooled scratch
//    leaks no state between calls), over the examples/programs/ corpus and
//    random workload:: programs;
//  * the delta-driven S_P evaluation equals the from-scratch reference
//    (tests/reference/) on every engine, while doing measurably less
//    enablement work;
//  * the delta-driven unfounded-set evaluation equals the from-scratch
//    reference — bit-identical well-founded models AND iteration
//    trajectories — on the W_P engine and the SCC engine's kWp inner mode,
//    and agrees with the S_P-based engines and the stable-model search;
//  * SpEvaluator, GusEvaluator and TpEvaluator match the reference S_P,
//    U_P and T_P call by call on arbitrary (non-monotone) interpretation
//    sequences;
//  * the rescan counters of the delta evaluators are pinned exactly on the
//    ablation workloads, and beat the reference's from-scratch counts;
//  * an unsolved query batch charges exactly one solve of its cone.

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "afp/solver.h"
#include "analysis/atom_graph.h"
#include "core/alternating.h"
#include "core/eval_context.h"
#include "core/interpretation.h"
#include "core/scc_engine.h"
#include "fol/general_program.h"
#include "fol/simplify.h"
#include "ground/grounder.h"
#include "ground/owned_rules.h"
#include "reference/reference.h"
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
    const RuleView view = ground->View();
    const AtomDependencyGraph graph(view);
    const RuleBuckets buckets(view, graph);
    SccWfsResult scc1 = WellFoundedSccOnGraph(shared, view, graph, buckets);
    SccWfsResult scc2 = WellFoundedSccOnGraph(shared, view, graph, buckets);
    EXPECT_EQ(scc1.model, scc2.model);
    EXPECT_EQ(first.model, scc1.model);

    WpResult wp1 = WellFoundedViaWpWithContext(shared, *ground);
    WpResult wp2 = WellFoundedViaWpWithContext(shared, *ground);
    EXPECT_EQ(wp1.model, wp2.model);
    EXPECT_EQ(first.model, wp1.model);
  }
}

// The differential pin: delta-driven S_P == the from-scratch reference on
// every engine, over random programs with heavy negation.
TEST(DeltaScratchDifferential, AllEnginesAgreeAcrossSpModes) {
  EvalContext ctx;
  for (std::uint64_t seed = 0; seed < 40; ++seed) {
    Program p = workload::RandomPropositional(14, 30, 3, 70, seed);
    auto ground = Grounder::Ground(p);
    ASSERT_TRUE(ground.ok());

    AfpResult afp_delta = AlternatingFixpoint(*ground);
    AfpResult afp_scratch = reference::ScratchAlternatingFixpoint(*ground);
    EXPECT_EQ(afp_delta.model, afp_scratch.model) << "seed " << seed;
    // Same fixpoint trajectory, so the same number of S_P calls; the delta
    // path must never examine more rules than the scratch path.
    EXPECT_EQ(afp_delta.outer_iterations, afp_scratch.outer_iterations)
        << "seed " << seed;
    EXPECT_EQ(afp_delta.sp_calls, afp_scratch.sp_calls) << "seed " << seed;
    EXPECT_LE(afp_delta.eval.rules_rescanned,
              afp_scratch.eval.rules_rescanned)
        << "seed " << seed;

    // The component-wise engine's per-component S_P evaluators.
    const RuleView view = ground->View();
    const AtomDependencyGraph graph(view);
    SccWfsResult scc = WellFoundedSccOnGraph(ctx, view, graph,
                                             RuleBuckets(view, graph));
    EXPECT_EQ(afp_scratch.model, scc.model) << "seed " << seed;

    // W_P has no S_P at all but must agree with both.
    EXPECT_EQ(afp_scratch.model,
              WellFoundedViaWpWithContext(ctx, *ground).model)
        << "seed " << seed;
  }
}

// The stable-model search propagates with the delta-driven evaluators at
// every node: its model set must equal the brute-force enumeration, and
// every emitted model must pass the stability check computed from scratch
// (M = S_P(H − M), Theorem 4.3's Gelfond–Lifschitz fixpoint), under both
// per-node propagations.
TEST(DeltaScratchDifferential, StableSearchAgreesAcrossSpModes) {
  for (std::uint64_t seed = 0; seed < 20; ++seed) {
    Program p = workload::RandomPropositional(10, 14, 2, 80, seed);
    auto ground = Grounder::Ground(p);
    ASSERT_TRUE(ground.ok());

    StableSearch wfs_search(*ground);
    StableSearchOptions positive;
    positive.wfs_propagation = false;
    StableSearch positive_search(*ground, positive);
    StableResult wfs = wfs_search.Enumerate();
    StableResult pos = positive_search.Enumerate();
    for (const StableResult* r : {&wfs, &pos}) {
      for (const Bitset& m : r->models) {
        EXPECT_EQ(reference::NaiveEventualConsequences(
                      ground->View(), Bitset::ComplementOf(m)),
                  m)
            << "seed " << seed;
      }
    }
    auto sorted = [](std::vector<Bitset> models) {
      std::sort(models.begin(), models.end(),
                [](const Bitset& a, const Bitset& b) {
                  for (std::size_t i = 0; i < a.universe_size(); ++i) {
                    if (a.Test(i) != b.Test(i)) return b.Test(i);
                  }
                  return false;
                });
      return models;
    };
    EXPECT_EQ(sorted(wfs.models), sorted(pos.models)) << "seed " << seed;

    if (ground->num_atoms() <= 16) {
      auto brute = EnumerateStableModelsBruteForce(*ground);
      ASSERT_TRUE(brute.ok());
      EXPECT_EQ(sorted(*brute), sorted(wfs.models)) << "seed " << seed;
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
    SpEvaluator sp_a(solver, ctx);
    SpEvaluator sp_b(solver, ctx);

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
      EXPECT_EQ(out, reference::NaiveEventualConsequences(ground->View(),
                                                          assumed))
          << "seed " << seed << " step " << step;
    }
  }
}

// The seeded and unseeded paths are one code path: a seed of the empty set
// (properly sized) or the unsized "no seed" bitset must reproduce the
// unseeded result exactly, and seeding with the model's own false set is
// idempotent.
TEST(SeededPath, EmptySeedEqualsUnseeded) {
  EvalContext ctx;
  for (std::uint64_t seed = 0; seed < 15; ++seed) {
    Program p = workload::RandomPropositional(12, 20, 2, 50, seed);
    auto ground = Grounder::Ground(p);
    ASSERT_TRUE(ground.ok());
    HornSolver solver(ground->View(), &ctx);
    AfpResult plain = AlternatingFixpoint(*ground);
    AfpResult empty_seeded = AlternatingFixpointWithContext(
        ctx, solver, Bitset(ground->num_atoms()));
    EXPECT_EQ(plain.model, empty_seeded.model) << "seed " << seed;
    EXPECT_EQ(plain.outer_iterations, empty_seeded.outer_iterations);
    AfpResult unsized = AlternatingFixpointWithContext(ctx, solver, Bitset());
    EXPECT_EQ(plain.model, unsized.model) << "seed " << seed;
    AfpResult reseeded = AlternatingFixpointWithContext(
        ctx, solver, plain.model.false_atoms());
    EXPECT_EQ(plain.model, reseeded.model) << "seed " << seed;
  }
}

// The U_P differential pin: the delta-driven W_P iteration equals the
// from-scratch reference on every engine that runs it — same models bit
// for bit, same W_P iteration trajectory — and both agree with the
// S_P-based engines, over random programs with heavy negation.
TEST(GusDeltaScratchDifferential, WpAndSccEnginesAgreeAcrossGusModes) {
  EvalContext ctx;
  for (std::uint64_t seed = 0; seed < 40; ++seed) {
    Program p = workload::RandomPropositional(14, 30, 3, 70, seed);
    auto ground = Grounder::Ground(p);
    ASSERT_TRUE(ground.ok());

    WpResult wp_delta = WellFoundedViaWpWithContext(ctx, *ground);
    WpResult wp_scratch = reference::ScratchWellFoundedViaWp(*ground);
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

    // The SCC engine's kWp inner mode: per-component Tp/Gus evaluators.
    SccOptions scc_wp;
    scc_wp.inner = SccInnerEngine::kWp;
    const RuleView view = ground->View();
    const AtomDependencyGraph graph(view);
    SccWfsResult s_delta = WellFoundedSccOnGraph(
        ctx, view, graph, RuleBuckets(view, graph), scc_wp);
    EXPECT_EQ(wp_scratch.model, s_delta.model) << "seed " << seed;

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
    GusEvaluator gus_a(solver, ctx);
    GusEvaluator gus_b(solver, ctx);
    TpEvaluator tp(solver, ctx);

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
      EXPECT_EQ(out, reference::GreatestUnfoundedSet(ground->View(), I))
          << "seed " << seed << " step " << step;
      tp.Eval(I, &tp_out);
      EXPECT_EQ(tp_out, reference::ImmediateConsequences(ground->View(), I))
          << "seed " << seed << " step " << step;
    }
  }
}

// A grounded program stays fully functional (solving, rendering) when
// rules are appended afterwards, duplicates included.
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

  // Appends are accepted without duplicate suppression.
  ASSERT_TRUE(ground->num_atoms() > 0);
  ground->AddRule(0, {}, {});
  ground->AddRule(0, {}, {});  // duplicate, not filtered
  EXPECT_EQ(ground->num_rules(), rules_before + 2);
  AfpResult after = AlternatingFixpoint(*ground);
  EXPECT_TRUE(before.model.true_atoms().IsSubsetOf(after.model.true_atoms()));
}

// An unsolved query batch on a session charges the S_P work of ONE
// component-wise solve of the upstream cone of the union of its atoms;
// answering each query on a fresh session charges one cone solve per
// query, which on this graph's overlapping cones is more. The reference
// cone solve runs on the rules of every atom the queried atoms reach (ids
// kept: every other atom has no rule, so the fast path decides it false
// without an S_P call and adds nothing to the local size).
TEST(RelevanceCounters, QueryBatchChargesOneSliceSolve) {
  const Program p = workload::WinMove(graphs::ErdosRenyi(400, 800, 5));
  auto session = Solver::FromProgram(p);
  ASSERT_TRUE(session.ok());
  const GroundProgram& gp = session->ground();
  std::vector<std::string> texts;
  std::vector<AtomId> reached;
  std::vector<bool> in_cone(gp.num_atoms(), false);
  for (int node = 0; node < 384; node += 6) {
    texts.push_back("wins(" + workload::NodeName(node) + ")");
    auto id = ResolveAtom(gp, texts.back());
    ASSERT_TRUE(id.ok());
    if (*id != kInvalidAtom && !in_cone[*id]) {
      in_cone[*id] = true;
      reached.push_back(*id);
    }
  }
  ASSERT_EQ(texts.size(), 64u);
  const std::vector<StatusOr<TruthValue>> batch = session->QueryBatch(texts);
  const SolverStats stats = session->Stats();

  const RuleView view = gp.View();
  std::vector<std::vector<std::uint32_t>> by_head(gp.num_atoms());
  for (std::uint32_t ri = 0; ri < gp.num_rules(); ++ri) {
    by_head[gp.rule(ri).head].push_back(ri);
  }
  auto reach = [&](AtomId q) {
    if (!in_cone[q]) {
      in_cone[q] = true;
      reached.push_back(q);
    }
  };
  for (std::size_t i = 0; i < reached.size(); ++i) {
    for (std::uint32_t ri : by_head[reached[i]]) {
      for (AtomId q : view.pos(gp.rule(ri))) reach(q);
      for (AtomId q : view.neg(gp.rule(ri))) reach(q);
    }
  }
  OwnedRules cone;
  cone.num_atoms = gp.num_atoms();
  for (std::uint32_t ri = 0; ri < gp.num_rules(); ++ri) {
    const GroundRule& r = gp.rule(ri);
    if (in_cone[r.head]) cone.Add(r.head, view.pos(r), view.neg(r));
  }
  const RuleView cone_view = cone.View();
  AtomDependencyGraph graph(cone_view);
  EvalContext run_ctx;
  SccWfsResult one_run = WellFoundedSccOnGraph(run_ctx, cone_view, graph,
                                               RuleBuckets(cone_view, graph));
  std::size_t cone_components = 0;
  for (std::uint32_t c = 0; c < graph.num_components(); ++c) {
    if (in_cone[graph.members(c)[0]]) ++cone_components;
  }
  ASSERT_GT(one_run.eval.sp_calls, 0u);
  EXPECT_EQ(stats.eval.sp_calls, one_run.eval.sp_calls);
  EXPECT_EQ(stats.cone_components, cone_components);
  EXPECT_EQ(stats.cone_local_size, one_run.total_local_size);
  for (std::size_t i = 0; i < texts.size(); ++i) {
    ASSERT_TRUE(batch[i].ok()) << texts[i];
    const AtomId id = *ResolveAtom(gp, texts[i]);
    if (id == kInvalidAtom) {
      EXPECT_EQ(*batch[i], TruthValue::kFalse) << texts[i];
      continue;
    }
    EXPECT_EQ(*batch[i], one_run.model.Value(id)) << texts[i];
  }

  std::size_t per_query_sp_calls = 0;
  for (const std::string& text : texts) {
    auto fresh = Solver::FromProgram(p);
    ASSERT_TRUE(fresh.ok());
    ASSERT_TRUE(fresh->Query(text).ok());
    per_query_sp_calls += fresh->Stats().eval.sp_calls;
  }
  EXPECT_GT(per_query_sp_calls, stats.eval.sp_calls);
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

// --- The rescan gate -------------------------------------------------------
//
// The delta evaluators exist to rescan fewer rule bodies than a
// from-scratch evaluation. The ablation workloads below are win-move on
// G(n, 4n) (seed 17) and the Example 8.2 well-founded-nodes program over a
// chain (one alternating round per rank: the many-small-deltas regime).
// Each row pins the delta side's work counters exactly, has the
// tests/reference/ loops recompute the scratch side (whose counts must
// match the recorded from-scratch figures exactly too), and requires the
// scratch/delta ratio of (rules_rescanned + gus_rules_rescanned) to exceed
// 1 everywhere and to reach 3 on the two flagship rows.

Program WfNodesProgram(int n) {
  GeneralProgram gp;
  Program& b = gp.base();
  for (auto [u, v] : graphs::Chain(n).edges) {
    b.AddFact("e", {workload::NodeName(u), workload::NodeName(v)});
  }
  TermId x = b.Var("X"), y = b.Var("Y");
  SymbolId ys = b.symbols().Intern("Y");
  gp.AddGeneralRule(
      b.MakeAtom("w", {x}),
      Formula::Not(Formula::Exists(
          {ys}, Formula::And({Formula::MakeAtom(b.MakeAtom("e", {y, x})),
                              Formula::Not(Formula::MakeAtom(
                                  b.MakeAtom("w", {y})))}))));
  auto normal = TransformToNormal(gp);
  EXPECT_TRUE(normal.ok());
  return std::move(normal).value();
}

struct RescanPin {
  /// "sp": AlternatingFixpoint; "gus": the W_P iteration, monolithic or
  /// (SccInnerWp) per component.
  const char* axis;
  const char* workload;
  int n;
  /// The delta side: sp_calls (sp) or gus_calls (gus), then the rescan
  /// and delta counters.
  std::size_t calls;
  std::size_t rules_rescanned;
  std::size_t gus_rules_rescanned;
  std::size_t delta_atoms;
  /// The from-scratch side's rescan counters.
  std::size_t scratch_rules_rescanned;
  std::size_t scratch_gus_rules_rescanned;
  bool flagship;
};

TEST(AblationCounters, DeltaRescansBeatScratchReference) {
  const RescanPin pins[] = {
      {"sp", "WinMove", 128, 6, 1061, 0, 8, 5120, 0, false},
      {"sp", "WinMove", 512, 6, 4168, 0, 17, 20480, 0, false},
      {"sp", "WinMove", 1024, 8, 8400, 0, 48, 57344, 0, false},
      {"sp", "WfNodes", 64, 128, 379, 0, 126, 32258, 0, false},
      {"sp", "WfNodes", 256, 512, 1531, 0, 510, 522242, 0, false},
      {"gus", "WinMove", 128, 7, 520, 216, 1070, 7168, 7168, false},
      {"gus", "WinMove", 512, 7, 2067, 452, 4220, 28672, 28672, false},
      {"gus", "WinMove", 1024, 9, 4139, 1017, 8438, 73728, 73728, true},
      {"gus", "WfNodes", 64, 129, 190, 126, 508, 32766, 32766, false},
      {"gus", "WfNodes", 256, 513, 766, 510, 2044, 524286, 524286, true},
      // No component-wise reference: the scratch side is the recorded
      // per-component rescan count of the retired from-scratch mode.
      {"gus", "SccInnerWp", 512, 6, 19, 445, 122, 12078, 12078, false},
  };
  for (const RescanPin& pin : pins) {
    SCOPED_TRACE(std::string(pin.axis) + " " + pin.workload + "/" +
                 std::to_string(pin.n));
    const std::string name = pin.workload;
    Program p = name == "WfNodes"
                    ? WfNodesProgram(pin.n)
                    : workload::WinMove(
                          graphs::ErdosRenyi(pin.n, 4 * pin.n, 17));
    auto ground = Grounder::Ground(p);
    ASSERT_TRUE(ground.ok()) << ground.status().ToString();

    EvalStats delta, scratch;
    if (std::string(pin.axis) == "sp") {
      AfpResult d = AlternatingFixpoint(*ground);
      AfpResult s = reference::ScratchAlternatingFixpoint(*ground);
      EXPECT_EQ(d.model, s.model);
      delta = d.eval;
      scratch = s.eval;
      EXPECT_EQ(delta.sp_calls, pin.calls);
      EXPECT_EQ(scratch.sp_calls, pin.calls);
    } else if (name == "SccInnerWp") {
      SccOptions options;
      options.inner = SccInnerEngine::kWp;
      SccWfsResult d = WellFoundedScc(*ground, options);
      EXPECT_EQ(d.model, AlternatingFixpoint(*ground).model);
      delta = d.eval;
      EXPECT_EQ(delta.gus_calls, pin.calls);
      scratch.rules_rescanned = pin.scratch_rules_rescanned;
      scratch.gus_rules_rescanned = pin.scratch_gus_rules_rescanned;
    } else {
      WpResult d = WellFoundedViaWp(*ground);
      WpResult s = reference::ScratchWellFoundedViaWp(*ground);
      EXPECT_EQ(d.model, s.model);
      EXPECT_EQ(d.iterations, s.iterations);
      delta = d.eval;
      scratch = s.eval;
      EXPECT_EQ(delta.gus_calls, pin.calls);
      EXPECT_EQ(scratch.gus_calls, pin.calls);
    }
    EXPECT_EQ(delta.rules_rescanned, pin.rules_rescanned);
    EXPECT_EQ(delta.gus_rules_rescanned, pin.gus_rules_rescanned);
    EXPECT_EQ(delta.delta_atoms, pin.delta_atoms);
    EXPECT_EQ(scratch.rules_rescanned, pin.scratch_rules_rescanned);
    EXPECT_EQ(scratch.gus_rules_rescanned, pin.scratch_gus_rules_rescanned);

    const double ratio =
        static_cast<double>(scratch.rules_rescanned +
                            scratch.gus_rules_rescanned) /
        static_cast<double>(delta.rules_rescanned +
                            delta.gus_rules_rescanned);
    EXPECT_GT(ratio, 1.0);
    if (pin.flagship) {
      EXPECT_GE(ratio, 3.0);
    }
  }
}

}  // namespace
}  // namespace afp
