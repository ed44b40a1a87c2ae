// Compiled component buckets (core/rule_kernel.h): the session's
// component-wise solve, which runs every general-path component on its
// bucket, must match the reference per-component loop of tests/reference/
// (a fresh local program lowered per component and solved from scratch)
// bit for bit — same models AND same per-component iteration trajectories
// — across the corpus, both inner engines and fact repairs; buckets must
// be reused across repairs; and every rule append must invalidate the
// affected buckets (the stale-bucket regressions).

#include "core/rule_kernel.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "afp/solver.h"
#include "analysis/atom_graph.h"
#include "core/scc_engine.h"
#include "ground/grounder.h"
#include "parser/parser.h"
#include "reference/reference.h"
#include "serving/serving_solver.h"
#include "workload/graphs.h"
#include "workload/programs.h"

#ifndef AFP_LP_CORPUS_DIR
#error "AFP_LP_CORPUS_DIR must point at the .lp corpus directory"
#endif

namespace afp {
namespace {

std::vector<std::string> CorpusTexts() {
  std::vector<std::string> texts;
  for (const auto& entry :
       std::filesystem::directory_iterator(AFP_LP_CORPUS_DIR)) {
    if (entry.path().extension() != ".lp") continue;
    std::ifstream in(entry.path());
    std::ostringstream ss;
    ss << in.rdbuf();
    texts.push_back(ss.str());
  }
  return texts;
}

Solver MustCreate(Program program, const SolverOptions& options) {
  auto s = Solver::FromProgram(std::move(program), options);
  EXPECT_TRUE(s.ok()) << s.status().ToString();
  return std::move(s).value();
}

/// Deterministic xorshift for the randomized mutation sequences.
struct Rng {
  std::uint64_t state;
  std::uint64_t Next() {
    state ^= state << 13;
    state ^= state >> 7;
    state ^= state << 17;
    return state;
  }
  std::uint64_t Below(std::uint64_t n) { return Next() % n; }
};

TEST(KernelDifferential, CorpusCompiledMatchesInterpretedBitForBit) {
  std::size_t engaged = 0;
  for (const std::string& text : CorpusTexts()) {
    for (SccInnerEngine inner :
         {SccInnerEngine::kAfp, SccInnerEngine::kWp}) {
      SolverOptions o;
      o.inner = inner;
      auto s = Solver::FromText(text, o);
      ASSERT_TRUE(s.ok());
      const reference::SccReference ref =
          reference::ScratchWellFoundedScc(s->ground(), inner);
      EXPECT_EQ(s->Solve(), ref.model)
          << "inner " << static_cast<int>(inner) << "\n" << text;
      EXPECT_EQ(s->component_iterations(), ref.component_iterations)
          << "inner " << static_cast<int>(inner) << "\n" << text;
      engaged += s->Stats().eval.bucket_solves;
    }
  }
  // The sweep must exercise real buckets, not just fast-path singletons.
  EXPECT_GT(engaged, 0u);
}

// The session against the reference loop under both inner engines, with
// the from-scratch W_P of tests/reference/ as a second model oracle.
TEST(KernelDifferential, ModeMatrixOnRandomFamilies) {
  for (std::uint64_t seed = 0; seed < 6; ++seed) {
    Program p = workload::RandomPropositional(24, 48, 3, 50, seed);
    GroundOptions gopts;
    gopts.mode = GroundMode::kFull;
    auto gp = Grounder::Ground(p, gopts);
    ASSERT_TRUE(gp.ok());
    const PartialModel scratch = reference::ScratchWellFoundedViaWp(*gp).model;
    for (SccInnerEngine inner : {SccInnerEngine::kAfp, SccInnerEngine::kWp}) {
      SolverOptions o;
      o.inner = inner;
      o.ground.mode = GroundMode::kFull;
      Solver s =
          MustCreate(workload::RandomPropositional(24, 48, 3, 50, seed), o);
      const reference::SccReference ref =
          reference::ScratchWellFoundedScc(s.ground(), inner);
      EXPECT_EQ(s.Solve(), ref.model)
          << "seed " << seed << " inner " << static_cast<int>(inner);
      EXPECT_EQ(s.component_iterations(), ref.component_iterations)
          << "seed " << seed << " inner " << static_cast<int>(inner);
      EXPECT_EQ(s.Solve(), scratch)
          << "seed " << seed << " inner " << static_cast<int>(inner);
    }
  }
}

TEST(KernelIncremental, RandomMutationFuzzMatchesInterpretedTwin) {
  for (std::uint64_t seed = 0; seed < 6; ++seed) {
    for (SccInnerEngine inner : {SccInnerEngine::kAfp, SccInnerEngine::kWp}) {
      Program ref_program = workload::RandomPropositional(18, 40, 3, 55, seed);
      GroundOptions gopts;
      gopts.mode = GroundMode::kFull;
      auto ref = Grounder::Ground(ref_program, gopts);
      ASSERT_TRUE(ref.ok());
      GroundProgram reference = std::move(ref).value();

      SolverOptions o;
      o.inner = inner;
      o.ground.mode = GroundMode::kFull;
      Solver session =
          MustCreate(workload::RandomPropositional(18, 40, 3, 55, seed), o);
      session.Solve();

      Rng rng{seed * 2654435761u + 29};
      const std::size_t n = reference.num_atoms();
      ASSERT_GT(n, 0u);
      for (int step = 0; step < 12; ++step) {
        const AtomId id = static_cast<AtomId>(rng.Below(n));
        const std::string atom = reference.AtomName(id);
        const bool present = reference.HasFact(id);
        auto up = present ? session.RetractFact(atom) : session.AssertFact(atom);
        ASSERT_TRUE(up.ok()) << "seed " << seed << " step " << step << " "
                             << atom;
        if (present) {
          ASSERT_TRUE(reference.RemoveFact(id).removed);
        } else {
          ASSERT_TRUE(reference.AddFact(id));
        }
        const reference::SccReference scratch =
            reference::ScratchWellFoundedScc(reference, inner);
        EXPECT_EQ(session.model(), scratch.model)
            << "seed " << seed << " step " << step << " " << atom;
        EXPECT_EQ(session.component_iterations(),
                  scratch.component_iterations)
            << "seed " << seed << " step " << step << " " << atom;
        ASSERT_TRUE(session.ValidateRuleBuckets())
            << "seed " << seed << " step " << step;
        if (HasFatalFailure()) return;
      }
    }
  }
}

TEST(KernelIncremental, ServingWriterFuzzWithCompilationOn) {
  // The flagship deployment shape: a serving session whose single writer
  // repairs through kept buckets. Drive randomized batches through the
  // serving queue and pin every published snapshot against the reference
  // loop over a twin program fed the same mutations.
  Program base = workload::WinMove(
      graphs::ClusteredScc(/*clusters=*/5, /*cluster_size=*/8,
                           /*intra_per_cluster=*/14, /*inter_edges=*/7,
                           /*seed=*/23));
  GroundOptions gopts;
  auto ref = Grounder::Ground(base, gopts);
  ASSERT_TRUE(ref.ok());
  std::vector<std::string> fact_names;
  for (AtomId a = 0; a < ref->num_atoms(); ++a) {
    if (ref->HasFact(a)) fact_names.push_back(ref->AtomName(a));
  }
  ASSERT_GE(fact_names.size(), 8u);

  ServingOptions manual;
  manual.background = false;
  // WinMove is built programmatically; the ground program's own text
  // rendering round-trips through the parser (pinned by the grounder
  // differential suite), so serve from that.
  auto srv = ServingSolver::FromText(ref->ToString(), SolverOptions{}, manual);
  ASSERT_TRUE(srv.ok()) << srv.status().ToString();
  auto twin_program = ParseProgram(ref->ToString());
  ASSERT_TRUE(twin_program.ok());
  auto twin = Grounder::Ground(*twin_program);
  ASSERT_TRUE(twin.ok()) << twin.status().ToString();
  GroundProgram& twin_ground = *twin;
  EXPECT_EQ((*srv)->snapshot()->model,
            reference::ScratchWellFoundedScc(twin_ground,
                                             SccInnerEngine::kAfp)
                .model);

  Rng rng{977};
  for (int step = 0; step < 25; ++step) {
    std::vector<std::string> asserts, retracts;
    const std::size_t k = 1 + rng.Below(3);
    for (std::size_t i = 0; i < k; ++i) {
      const std::string& atom = fact_names[rng.Below(fact_names.size())];
      if (rng.Below(2) == 0) {
        asserts.push_back(atom);
      } else {
        retracts.push_back(atom);
      }
    }
    ASSERT_TRUE((*srv)->RetractFacts(retracts).ok()) << "step " << step;
    ASSERT_TRUE((*srv)->AssertFacts(asserts).ok()) << "step " << step;
    while ((*srv)->Pump()) {
    }
    // Retracts first, then asserts: the writer's batch order.
    for (const std::string& atom : retracts) {
      twin_ground.RemoveFact(*ResolveAtom(twin_ground, atom));
    }
    for (const std::string& atom : asserts) {
      twin_ground.AddFact(*ResolveAtom(twin_ground, atom));
    }
    EXPECT_EQ((*srv)->snapshot()->model,
              reference::ScratchWellFoundedScc(twin_ground,
                                               SccInnerEngine::kAfp)
                  .model)
        << "step " << step;
    if (HasFatalFailure()) return;
  }
  // The writer's repairs ran on buckets at some point.
  EXPECT_GT((*srv)->solver().Stats().buckets, 0u);
}

TEST(KernelStaleness, AssertedFactIntoCompiledComponentIsNotServedStale) {
  // Solver::AssertFact of an IDB atom appends a rule to the component's
  // own rule set (a GroundProgram::AddRule under the hood). The
  // cache-aware path must drop that bucket and rebuild it — a stale bucket
  // would keep answering p/q undefined.
  constexpr const char* kText = "p :- not q. q :- not p. r :- p.";
  auto solver = Solver::FromText(kText);
  ASSERT_TRUE(solver.ok());
  solver->Solve();
  EXPECT_GE(solver->Stats().eval.bucket_solves, 1u);
  EXPECT_EQ(solver->Stats().eval.buckets_built, 1u);
  EXPECT_EQ(*solver->Query("p"), TruthValue::kUndefined);

  auto up = solver->AssertFact("p");
  ASSERT_TRUE(up.ok()) << up.status().ToString();
  EXPECT_EQ(up->eval.buckets_built, 1u);
  EXPECT_EQ(*solver->Query("p"), TruthValue::kTrue);
  EXPECT_EQ(*solver->Query("q"), TruthValue::kFalse);
  EXPECT_EQ(*solver->Query("r"), TruthValue::kTrue);

  auto down = solver->RetractFact("p");
  ASSERT_TRUE(down.ok()) << down.status().ToString();
  EXPECT_EQ(*solver->Query("p"), TruthValue::kUndefined);
  EXPECT_EQ(*solver->Query("q"), TruthValue::kUndefined);
  EXPECT_EQ(*solver->Query("r"), TruthValue::kUndefined);

  // Every mutation epoch was explained along the way: the repaired model
  // still matches the reference loop over the same ground program.
  EXPECT_EQ(solver->model(),
            reference::ScratchWellFoundedScc(solver->ground(),
                                             SccInnerEngine::kAfp)
                .model);
}

TEST(KernelStaleness, BareAddRuleDropsTheCacheThroughTheEpochCheck) {
  // The safety net below the Solver: a rule appended directly through
  // GroundProgram::AddRule (no cache-aware caller) bumps the mutation
  // epoch, and the next SyncEpoch drops every bucket rather than ever
  // evaluating the new rule against a stale one.
  auto parsed = ParseProgram("p :- not q. q :- not p. e.");
  ASSERT_TRUE(parsed.ok());
  Program program = std::move(parsed).value();
  auto ground = Grounder::Ground(program);
  ASSERT_TRUE(ground.ok());
  GroundProgram gp = std::move(ground).value();

  const RuleView view = gp.View();
  AtomDependencyGraph graph(view);
  RuleBuckets buckets(view, graph);
  BucketCache cache(gp.mutation_epoch());
  EvalContext ctx;
  SccOptions so;
  so.buckets = &cache;
  WellFoundedSccOnGraph(ctx, view, graph, buckets, so);
  const std::size_t built = cache.num_buckets();
  ASSERT_GT(built, 0u);
  EXPECT_GT(cache.bytes(), 0u);
  // A clean epoch is a no-op.
  EXPECT_FALSE(cache.SyncEpoch(gp.mutation_epoch()));
  EXPECT_EQ(cache.num_buckets(), built);

  // A rule append with no bucket surgery: unexplained epoch.
  const AtomId e = *ResolveAtom(gp, "e");
  const AtomId p = *ResolveAtom(gp, "p");
  const AtomId pos[] = {e};
  gp.AddRule(p, pos, {});
  EXPECT_TRUE(cache.SyncEpoch(gp.mutation_epoch()));
  EXPECT_EQ(cache.num_buckets(), 0u);
  for (std::uint32_t c = 0; c < graph.num_components(); ++c) {
    EXPECT_EQ(cache.Find(c), nullptr) << "component " << c;
  }
  // The drop is remembered: the same epoch does not re-trip.
  EXPECT_FALSE(cache.SyncEpoch(gp.mutation_epoch()));
}

TEST(KernelStaleness, SessionRoutedRuleEditsKeepUntouchedKernelsCompiled) {
  // The counterpart of the bare-AddRule drop above: a rule edit routed
  // through Solver::AddRule/RemoveRule explains its mutation epochs and
  // drops precisely the touched components' buckets, so every other
  // bucket survives the edit — no epoch-triggered cache drop, no rebuild
  // of untouched buckets.
  SolverOptions o;
  o.ground.simplify = false;
  auto solver = Solver::FromText(
      "f(a). w(X) :- f(X), not w2(X). w2(X) :- f(X), not w(X).\n"
      "g(b). y(X) :- g(X), not y2(X). y2(X) :- g(X), not y(X).",
      o);
  ASSERT_TRUE(solver.ok());
  solver->Solve();
  EXPECT_EQ(solver->Stats().eval.bucket_solves, 2u);
  EXPECT_EQ(solver->Stats().buckets, 2u);

  auto edit = solver->AddRule("w(X) :- f(X).");
  ASSERT_TRUE(edit.ok()) << edit.status().ToString();
  EXPECT_FALSE(edit->graph_rebuilt);
  EXPECT_EQ(edit->buckets_invalidated, 1u);  // the w-cycle only
  EXPECT_EQ(edit->eval.buckets_built, 1u);   // rebuilt by the repair

  // The y-cycle's bucket was neither dropped nor rebuilt: a fact repair
  // that re-solves it runs on the surviving bucket.
  auto up = solver->RetractFact("g(b)");
  ASSERT_TRUE(up.ok()) << up.status().ToString();
  EXPECT_EQ(up->eval.buckets_built, 0u);
  EXPECT_GE(up->eval.bucket_solves, 1u);
  EXPECT_EQ(*solver->Query("y(b)"), TruthValue::kFalse);
  EXPECT_EQ(*solver->Query("w(a)"), TruthValue::kTrue);
  auto down = solver->AssertFact("g(b)");
  ASSERT_TRUE(down.ok()) << down.status().ToString();
  EXPECT_EQ(down->eval.buckets_built, 0u);
  EXPECT_EQ(*solver->Query("y(b)"), TruthValue::kUndefined);

  // Differential close: a from-scratch session of the final text,
  // compared atom-by-name (the grown session's atom ids are ordered by
  // mutation history, not by the twin's grounding order).
  auto twin = Solver::FromText(
      "f(a). w(X) :- f(X), not w2(X). w2(X) :- f(X), not w(X).\n"
      "g(b). y(X) :- g(X), not y2(X). y2(X) :- g(X), not y(X).\n"
      "warm :- f(a). w(X) :- f(X).",
      o);
  ASSERT_TRUE(twin.ok());
  twin->Solve();
  for (AtomId a = 0; a < solver->ground().num_atoms(); ++a) {
    const std::string name = solver->ground().AtomName(a);
    EXPECT_EQ(*solver->Query(name), *twin->Query(name)) << name;
  }
}

TEST(KernelCacheShape, OnlyGeneralPathComponentsAreEligible) {
  // Figure 4(a) is acyclic: every component is a non-self-dependent
  // singleton decided by the fast path, so no bucket is ever built.
  auto acyclic = Solver::FromText(
      "move(a,b). move(b,c). wins(X) :- move(X,Y), not wins(Y).");
  ASSERT_TRUE(acyclic.ok());
  acyclic->Solve();
  EXPECT_EQ(acyclic->Stats().eval.bucket_solves, 0u);
  EXPECT_EQ(acyclic->Stats().buckets, 0u);
  EXPECT_EQ(acyclic->Stats().bucket_bytes, 0u);

  // A self-dependent singleton does reach the general path and gets one.
  auto self_dep = Solver::FromText("w :- not w.");
  ASSERT_TRUE(self_dep.ok());
  self_dep->Solve();
  EXPECT_EQ(self_dep->Stats().eval.bucket_solves, 1u);
  EXPECT_EQ(self_dep->Stats().buckets, 1u);
  EXPECT_GT(self_dep->Stats().bucket_bytes, 0u);
  EXPECT_EQ(*self_dep->Query("w"), TruthValue::kUndefined);
}

/// Checks the session's bucket receipt against a scan of its cache.
void ExpectReceiptMatchesCache(const Solver& s, const std::string& label) {
  std::size_t buckets = 0, bytes = 0;
  const AtomDependencyGraph* graph = s.DependencyGraph();
  const std::size_t nc = graph == nullptr ? 0 : graph->num_components();
  for (std::uint32_t c = 0; c < nc; ++c) {
    if (const CompiledBucket* b = s.Buckets().Find(c)) {
      ++buckets;
      bytes += b->bytes();
    }
  }
  EXPECT_EQ(s.Stats().buckets, buckets) << label;
  EXPECT_EQ(s.Stats().bucket_bytes, bytes) << label;
}

TEST(KernelCacheShape, ReceiptMatchesTheCacheAfterEveryCall) {
  // The receipt is current after every call that can build, grow or drop
  // a bucket: unsolved queries, solves, fact repairs and rule ops. Under
  // both inner engines, since their evaluators build different lazy
  // indexes of the bucket during a solve.
  for (SccInnerEngine inner : {SccInnerEngine::kAfp, SccInnerEngine::kWp}) {
    SolverOptions o;
    o.inner = inner;
    o.ground.simplify = false;
    auto s = Solver::FromText(
        "f(a). f(b). w(X) :- f(X), not w2(X). w2(X) :- f(X), not w(X).\n"
        "g(b). y(X) :- g(X), not y2(X). y2(X) :- g(X), not y(X).\n"
        "z :- w(a), not z2. z2 :- not z.",
        o);
    ASSERT_TRUE(s.ok()) << s.status().ToString();
    const std::string label = std::to_string(static_cast<int>(inner));
    ExpectReceiptMatchesCache(*s, label + " fresh");
    EXPECT_EQ(*s->Query("w(a)"), TruthValue::kUndefined);
    EXPECT_EQ(s->Stats().buckets, 1u);
    ExpectReceiptMatchesCache(*s, label + " unsolved query");
    s->Solve();
    EXPECT_EQ(s->Stats().buckets, 4u);
    ExpectReceiptMatchesCache(*s, label + " solve");
    ASSERT_TRUE(s->RetractFacts({"f(a)"}).ok());
    ExpectReceiptMatchesCache(*s, label + " retract");
    ASSERT_TRUE(s->AssertFacts({"f(a)"}).ok());
    ExpectReceiptMatchesCache(*s, label + " assert");
    ASSERT_TRUE(
        s->AddRule("v(X) :- g(X), not v2(X). v2(X) :- g(X), not v(X).").ok());
    ExpectReceiptMatchesCache(*s, label + " add rule");
    ASSERT_TRUE(s->RemoveRule("y(X) :- g(X), not y2(X).").ok());
    ExpectReceiptMatchesCache(*s, label + " remove rule");
    s->InvalidateModel();
    ASSERT_TRUE(s->RetractFacts({"g(b)"}).ok());
    ExpectReceiptMatchesCache(*s, label + " unsolved retract");
    // The rebuild above dropped every bucket; these cones build w(a)'s and
    // w(b)'s again, and the fact and the rule below each drop one.
    EXPECT_EQ(*s->Query("w(a)"), TruthValue::kUndefined);
    EXPECT_EQ(*s->Query("w(b)"), TruthValue::kUndefined);
    ExpectReceiptMatchesCache(*s, label + " unsolved queries");
    const std::size_t built = s->Stats().buckets;
    ASSERT_TRUE(s->AssertFacts({"w(a)"}).ok());
    EXPECT_EQ(s->Stats().buckets, built - 1) << label;
    ExpectReceiptMatchesCache(*s, label + " unsolved assert");
    const StatusOr<RuleUpdateStats> grown = s->AddRule("w(X) :- f(X).");
    ASSERT_TRUE(grown.ok()) << grown.status().ToString();
    EXPECT_GT(grown->buckets_invalidated, 0u) << label;
    ExpectReceiptMatchesCache(*s, label + " unsolved add rule");
    const std::vector<std::string> texts = {"v(b)", "z", "y2(b)"};
    for (const StatusOr<TruthValue>& v : s->QueryBatch(texts)) {
      ASSERT_TRUE(v.ok());
    }
    ExpectReceiptMatchesCache(*s, label + " unsolved batch");
    EXPECT_GT(s->Stats().bucket_bytes, 0u) << label;
  }
}

TEST(KernelCacheShape, RecompiledComponentHoldsItsFirstCompileBytes) {
  // Invalidation frees the dropped bucket's storage, so a component that
  // a long-lived session invalidates and rebuilds over and over holds the
  // bytes of one build, not of every build it ever had.
  auto parsed =
      ParseProgram("p :- not q. q :- not p. r :- p, not s. s :- not r.");
  ASSERT_TRUE(parsed.ok());
  Program program = std::move(parsed).value();
  auto ground = Grounder::Ground(program);
  ASSERT_TRUE(ground.ok());
  GroundProgram gp = std::move(ground).value();

  const RuleView view = gp.View();
  AtomDependencyGraph graph(view);
  RuleBuckets buckets(view, graph);
  BucketCache cache(gp.mutation_epoch());
  const std::uint32_t c = graph.component_of()[*ResolveAtom(gp, "p")];
  const std::uint32_t d = graph.component_of()[*ResolveAtom(gp, "r")];
  ASSERT_NE(c, d);
  cache.Get(c, view, graph, buckets);
  cache.Get(d, view, graph, buckets);
  const std::size_t bytes = cache.bytes();
  ASSERT_GT(bytes, 0u);
  for (int round = 0; round < 1000; ++round) {
    ASSERT_TRUE(cache.Invalidate(c));
    ASSERT_EQ(cache.Find(c), nullptr);
    cache.Get(c, view, graph, buckets);
  }
  EXPECT_EQ(cache.bytes(), bytes);
  EXPECT_EQ(cache.num_buckets(), 2u);
  EXPECT_FALSE(cache.Invalidate(static_cast<std::uint32_t>(
      graph.num_components())));  // past the end: nothing to drop
}

}  // namespace
}  // namespace afp
