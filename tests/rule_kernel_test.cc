// Compiled rule kernels (core/rule_kernel.h): compiled and interpreted
// evaluation must be bit-identical — same models AND same per-component
// iteration trajectories — across the corpus, inner engines and thread
// counts; heat staging must migrate re-solved components onto
// kernels without recompiling on reuse; and every rule append
// must invalidate the affected buckets (the stale-kernel regressions).

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
      SolverOptions off;
      off.inner = inner;
      off.compile = CompileMode::kOff;
      SolverOptions on = off;
      on.compile = CompileMode::kAlways;
      auto a = Solver::FromText(text, off);
      auto b = Solver::FromText(text, on);
      ASSERT_TRUE(a.ok() && b.ok());
      EXPECT_EQ(a->Solve(), b->Solve())
          << "inner " << static_cast<int>(inner) << "\n" << text;
      EXPECT_EQ(a->component_iterations(), b->component_iterations())
          << "inner " << static_cast<int>(inner) << "\n" << text;
      engaged += b->Stats().eval.kernel_components;
    }
  }
  // The sweep must exercise real kernels, not just ineligible singletons.
  EXPECT_GT(engaged, 0u);
}

// Compiled vs interpreted under both inner engines, with the from-scratch
// reference loop of tests/reference/ as the model oracle.
TEST(KernelDifferential, ModeMatrixOnRandomFamilies) {
  for (std::uint64_t seed = 0; seed < 6; ++seed) {
    Program p = workload::RandomPropositional(24, 48, 3, 50, seed);
    GroundOptions gopts;
    gopts.mode = GroundMode::kFull;
    auto gp = Grounder::Ground(p, gopts);
    ASSERT_TRUE(gp.ok());
    const PartialModel scratch = reference::ScratchWellFoundedViaWp(*gp).model;
    for (SccInnerEngine inner : {SccInnerEngine::kAfp, SccInnerEngine::kWp}) {
      SolverOptions off;
      off.inner = inner;
      off.ground.mode = GroundMode::kFull;
      off.compile = CompileMode::kOff;
      SolverOptions on = off;
      on.compile = CompileMode::kAlways;
      Solver a =
          MustCreate(workload::RandomPropositional(24, 48, 3, 50, seed), off);
      Solver b =
          MustCreate(workload::RandomPropositional(24, 48, 3, 50, seed), on);
      EXPECT_EQ(a.Solve(), b.Solve())
          << "seed " << seed << " inner " << static_cast<int>(inner);
      EXPECT_EQ(a.component_iterations(), b.component_iterations())
          << "seed " << seed << " inner " << static_cast<int>(inner);
      EXPECT_EQ(b.Solve(), scratch)
          << "seed " << seed << " inner " << static_cast<int>(inner);
    }
  }
}

TEST(KernelIncremental, RandomMutationFuzzMatchesInterpretedTwin) {
  for (std::uint64_t seed = 0; seed < 6; ++seed) {
    Program ref_program = workload::RandomPropositional(18, 40, 3, 55, seed);
    GroundOptions gopts;
    gopts.mode = GroundMode::kFull;
    auto ref = Grounder::Ground(ref_program, gopts);
    ASSERT_TRUE(ref.ok());
    GroundProgram reference = std::move(ref).value();

    SolverOptions off;
    off.ground.mode = GroundMode::kFull;
    off.compile = CompileMode::kOff;
    SolverOptions on = off;
    on.compile = CompileMode::kHot;
    on.compile_hot_threshold = 1;  // everything compiles at first heat
    Solver interpreted = MustCreate(
        workload::RandomPropositional(18, 40, 3, 55, seed), off);
    Solver compiled = MustCreate(
        workload::RandomPropositional(18, 40, 3, 55, seed), on);
    interpreted.Solve();
    compiled.Solve();
    ASSERT_EQ(interpreted.model(), compiled.model()) << "seed " << seed;

    Rng rng{seed * 2654435761u + 29};
    const std::size_t n = reference.num_atoms();
    ASSERT_GT(n, 0u);
    for (int step = 0; step < 12; ++step) {
      const AtomId id = static_cast<AtomId>(rng.Below(n));
      const std::string atom = reference.AtomName(id);
      const bool present = reference.HasFact(id);
      auto a = present ? interpreted.RetractFact(atom)
                       : interpreted.AssertFact(atom);
      auto b = present ? compiled.RetractFact(atom)
                       : compiled.AssertFact(atom);
      ASSERT_TRUE(a.ok() && b.ok())
          << "seed " << seed << " step " << step << " " << atom;
      if (present) {
        ASSERT_TRUE(reference.RemoveFact(id).removed);
      } else {
        ASSERT_TRUE(reference.AddFact(id));
      }
      SccWfsResult scratch = WellFoundedScc(reference);
      EXPECT_EQ(compiled.model(), interpreted.model())
          << "seed " << seed << " step " << step << " " << atom;
      EXPECT_EQ(compiled.model(), scratch.model)
          << "seed " << seed << " step " << step << " " << atom;
      EXPECT_EQ(compiled.component_iterations(), scratch.component_iterations)
          << "seed " << seed << " step " << step << " " << atom;
      ASSERT_TRUE(compiled.ValidateRuleBuckets())
          << "seed " << seed << " step " << step;
      if (HasFatalFailure()) return;
    }
  }
}

TEST(KernelIncremental, ServingWriterFuzzWithCompilationOn) {
  // The flagship deployment shape: a serving session whose single writer
  // repairs through compiled kernels. Drive randomized batches through
  // the serving queue and pin every published snapshot against an
  // interpreted twin session fed the same mutations.
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

  SolverOptions on;
  on.compile = CompileMode::kHot;
  on.compile_hot_threshold = 1;
  ServingOptions manual;
  manual.background = false;
  // WinMove is built programmatically; the ground program's own text
  // rendering round-trips through the parser (pinned by the grounder
  // differential suite), so serve from that.
  auto srv = ServingSolver::FromText(ref->ToString(), on, manual);
  ASSERT_TRUE(srv.ok()) << srv.status().ToString();

  SolverOptions off = on;
  off.compile = CompileMode::kOff;
  auto twin = Solver::FromText(ref->ToString(), off);
  ASSERT_TRUE(twin.ok()) << twin.status().ToString();
  twin->Solve();
  EXPECT_EQ((*srv)->snapshot()->model, twin->model());

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
    auto a = twin->RetractFacts(retracts);
    auto b = twin->AssertFacts(asserts);
    ASSERT_TRUE(a.ok() && b.ok()) << "step " << step;
    EXPECT_EQ((*srv)->snapshot()->model, twin->model()) << "step " << step;
    if (HasFatalFailure()) return;
  }
  // The writer actually ran on kernels at some point.
  EXPECT_GT((*srv)->solver().Stats().eval.kernel_components +
                (*srv)->solver().Stats().eval.kernel_compile_ns,
            0u);
}

TEST(KernelStaging, HotThresholdCompilesAfterHeatAndReusesAcrossRepairs) {
  // Figure 4(b): the {wins(a), wins(b)} 2-cycle is downstream of
  // move(c,d), so retracting that fact re-solves the cycle each time.
  constexpr const char* kText =
      "move(a,b). move(b,a). move(b,c). move(c,d).\n"
      "wins(X) :- move(X,Y), not wins(Y).\n";
  SolverOptions o;
  o.compile = CompileMode::kHot;
  o.compile_hot_threshold = 2;
  auto solver = Solver::FromText(kText, o);
  ASSERT_TRUE(solver.ok());

  // Cold start: the first solve runs fully interpreted (nothing is hot
  // yet) and its work charges the heat counters.
  solver->Solve();
  EXPECT_EQ(solver->Stats().eval.kernel_components, 0u);

  // First repair: the threshold crossing queued by the solve is drained
  // before the repair, which therefore already runs on the kernel.
  auto up = solver->RetractFact("move(c,d)");
  ASSERT_TRUE(up.ok());
  EXPECT_GE(up->eval.kernel_components, 1u) << "repair did not engage";

  // Second repair: the bucket is reused — kernels served again with no
  // recompilation (the compile-ns counter stays at zero).
  auto back = solver->AssertFact("move(c,d)");
  ASSERT_TRUE(back.ok());
  EXPECT_GE(back->eval.kernel_components, 1u);
  EXPECT_EQ(back->eval.kernel_compile_ns, 0u) << "reuse must not recompile";

  // And the staged session still matches an interpreted one bit for bit.
  SolverOptions off = o;
  off.compile = CompileMode::kOff;
  auto twin = Solver::FromText(kText, off);
  ASSERT_TRUE(twin.ok());
  twin->Solve();
  EXPECT_EQ(solver->model(), twin->model());
  EXPECT_EQ(solver->component_iterations(), twin->component_iterations());
}

TEST(KernelStaging, OneShotSolveStaysInterpretedUnderHot) {
  SolverOptions o;
  o.compile = CompileMode::kHot;  // default threshold: nothing heats up
  auto solver = Solver::FromText("p :- not q. q :- not p. r :- p.", o);
  ASSERT_TRUE(solver.ok());
  solver->Solve();
  EXPECT_EQ(solver->Stats().eval.kernel_components, 0u);
  EXPECT_EQ(solver->Stats().eval.kernel_compile_ns, 0u);
}

TEST(KernelStaleness, AssertedFactIntoCompiledComponentIsNotServedStale) {
  // Solver::AssertFact of an IDB atom appends a rule to the compiled
  // component's own bucket (a GroundProgram::AddRule under the hood). The
  // cache-aware path must invalidate and recompile that bucket — a stale
  // kernel would keep answering p/q undefined.
  constexpr const char* kText = "p :- not q. q :- not p. r :- p.";
  SolverOptions o;
  o.compile = CompileMode::kAlways;
  auto solver = Solver::FromText(kText, o);
  ASSERT_TRUE(solver.ok());
  solver->Solve();
  EXPECT_GE(solver->Stats().eval.kernel_components, 1u);
  EXPECT_GT(solver->Stats().eval.kernel_compile_ns, 0u);
  EXPECT_EQ(*solver->Query("p"), TruthValue::kUndefined);

  auto up = solver->AssertFact("p");
  ASSERT_TRUE(up.ok()) << up.status().ToString();
  EXPECT_EQ(*solver->Query("p"), TruthValue::kTrue);
  EXPECT_EQ(*solver->Query("q"), TruthValue::kFalse);
  EXPECT_EQ(*solver->Query("r"), TruthValue::kTrue);

  auto down = solver->RetractFact("p");
  ASSERT_TRUE(down.ok()) << down.status().ToString();
  EXPECT_EQ(*solver->Query("p"), TruthValue::kUndefined);
  EXPECT_EQ(*solver->Query("q"), TruthValue::kUndefined);
  EXPECT_EQ(*solver->Query("r"), TruthValue::kUndefined);

  // Every mutation epoch was explained along the way: the repaired model
  // still matches a from-scratch interpreted session of the same text.
  SolverOptions off = o;
  off.compile = CompileMode::kOff;
  auto twin = Solver::FromText(kText, off);
  ASSERT_TRUE(twin.ok());
  EXPECT_EQ(solver->model(), twin->Solve());
}

TEST(KernelStaleness, BareAddRuleDropsTheCacheThroughTheEpochCheck) {
  // The safety net below the Solver: a rule appended directly through
  // GroundProgram::AddRule (no cache-aware caller) bumps the mutation
  // epoch, and the next SyncEpoch drops every bucket rather than ever
  // evaluating the new rule against a stale kernel.
  auto parsed = ParseProgram("p :- not q. q :- not p. e.");
  ASSERT_TRUE(parsed.ok());
  Program program = std::move(parsed).value();
  auto ground = Grounder::Ground(program);
  ASSERT_TRUE(ground.ok());
  GroundProgram gp = std::move(ground).value();

  AtomDependencyGraph graph(gp.View());
  RuleBuckets buckets(gp.View(), graph);
  KernelCache cache(gp, graph, buckets, /*hot_threshold=*/1,
                    gp.mutation_epoch());
  ASSERT_GT(cache.CompileAllEligible(), 0u);
  const std::size_t compiled = cache.num_compiled();
  ASSERT_GT(compiled, 0u);
  EXPECT_GT(cache.kernel_bytes(), 0u);
  // A clean epoch is a no-op.
  EXPECT_FALSE(cache.SyncEpoch(gp.mutation_epoch()));
  EXPECT_EQ(cache.num_compiled(), compiled);

  // A rule append with no bucket surgery: unexplained epoch.
  const AtomId e = *ResolveAtom(gp, "e");
  const AtomId p = *ResolveAtom(gp, "p");
  const AtomId pos[] = {e};
  gp.AddRule(p, pos, {});
  EXPECT_TRUE(cache.SyncEpoch(gp.mutation_epoch()));
  EXPECT_EQ(cache.num_compiled(), 0u);
  for (std::uint32_t c = 0; c < graph.num_components(); ++c) {
    EXPECT_EQ(cache.Get(c), nullptr) << "component " << c;
  }
  // The drop is remembered: the same epoch does not re-trip.
  EXPECT_FALSE(cache.SyncEpoch(gp.mutation_epoch()));
}

TEST(KernelStaleness, SessionRoutedRuleEditsKeepUntouchedKernelsCompiled) {
  // The counterpart of the bare-AddRule drop above: a rule edit routed
  // through Solver::AddRule/RemoveRule explains its mutation epochs and
  // invalidates precisely the touched components, so every other compiled
  // kernel survives the edit — no epoch-triggered cache drop, no
  // recompilation of untouched buckets.
  SolverOptions o;
  o.compile = CompileMode::kAlways;
  o.ground.simplify = false;
  auto solver = Solver::FromText(
      "f(a). w(X) :- f(X), not w2(X). w2(X) :- f(X), not w(X).\n"
      "g(b). y(X) :- g(X), not y2(X). y2(X) :- g(X), not y(X).",
      o);
  ASSERT_TRUE(solver.ok());
  solver->Solve();
  EXPECT_EQ(solver->Stats().eval.kernel_components, 2u);

  auto edit = solver->AddRule("w(X) :- f(X).");
  ASSERT_TRUE(edit.ok()) << edit.status().ToString();
  EXPECT_FALSE(edit->graph_rebuilt);
  EXPECT_EQ(edit->kernels_invalidated, 1u);  // the w-cycle only
  EXPECT_EQ(edit->kernels_recompiled, 1u);

  // The y-cycle's kernel was neither dropped nor recompiled: a fact
  // repair that re-solves it runs on the surviving kernel with zero
  // compile time.
  auto up = solver->RetractFact("g(b)");
  ASSERT_TRUE(up.ok()) << up.status().ToString();
  EXPECT_EQ(up->eval.kernel_compile_ns, 0u);
  EXPECT_GE(up->eval.kernel_components, 1u);
  EXPECT_EQ(*solver->Query("y(b)"), TruthValue::kFalse);
  EXPECT_EQ(*solver->Query("w(a)"), TruthValue::kTrue);
  auto down = solver->AssertFact("g(b)");
  ASSERT_TRUE(down.ok()) << down.status().ToString();
  EXPECT_EQ(down->eval.kernel_compile_ns, 0u);
  EXPECT_EQ(*solver->Query("y(b)"), TruthValue::kUndefined);

  // Differential close: interpreted from-scratch twin of the final text,
  // compared atom-by-name (the grown session's atom ids are ordered by
  // mutation history, not by the twin's grounding order).
  SolverOptions off = o;
  off.compile = CompileMode::kOff;
  auto twin = Solver::FromText(
      "f(a). w(X) :- f(X), not w2(X). w2(X) :- f(X), not w(X).\n"
      "g(b). y(X) :- g(X), not y2(X). y2(X) :- g(X), not y(X).\n"
      "warm :- f(a). w(X) :- f(X).",
      off);
  ASSERT_TRUE(twin.ok());
  twin->Solve();
  for (AtomId a = 0; a < solver->ground().num_atoms(); ++a) {
    const std::string name = solver->ground().AtomName(a);
    EXPECT_EQ(*solver->Query(name), *twin->Query(name)) << name;
  }
}

TEST(KernelCacheShape, OnlyGeneralPathComponentsAreEligible) {
  // Figure 4(a) is acyclic: every component is a non-self-dependent
  // singleton decided by the fast path, so nothing is eligible and a
  // kAlways session still reports zero engagement.
  SolverOptions o;
  o.compile = CompileMode::kAlways;
  auto acyclic = Solver::FromText(
      "move(a,b). move(b,c). wins(X) :- move(X,Y), not wins(Y).", o);
  ASSERT_TRUE(acyclic.ok());
  acyclic->Solve();
  EXPECT_EQ(acyclic->Stats().eval.kernel_components, 0u);

  // A self-dependent singleton does reach the general path and compiles.
  auto self_dep = Solver::FromText("w :- not w.", o);
  ASSERT_TRUE(self_dep.ok());
  self_dep->Solve();
  EXPECT_EQ(self_dep->Stats().eval.kernel_components, 1u);
  EXPECT_EQ(*self_dep->Query("w"), TruthValue::kUndefined);
}

TEST(KernelCacheShape, RecompiledComponentHoldsItsFirstCompileBytes) {
  // Invalidation frees the dropped bucket's storage, so a component that
  // a long-lived session invalidates and recompiles over and over holds
  // the bytes of one compile, not of every compile it ever had.
  auto parsed =
      ParseProgram("p :- not q. q :- not p. r :- p, not s. s :- not r.");
  ASSERT_TRUE(parsed.ok());
  Program program = std::move(parsed).value();
  auto ground = Grounder::Ground(program);
  ASSERT_TRUE(ground.ok());
  GroundProgram gp = std::move(ground).value();

  AtomDependencyGraph graph(gp.View());
  RuleBuckets buckets(gp.View(), graph);
  KernelCache cache(gp, graph, buckets, /*hot_threshold=*/1,
                    gp.mutation_epoch());
  ASSERT_EQ(cache.CompileAllEligible(), 2u);
  const std::size_t bytes = cache.kernel_bytes();
  ASSERT_GT(bytes, 0u);
  const std::uint32_t c = graph.component_of()[*ResolveAtom(gp, "p")];
  ASSERT_NE(cache.Get(c), nullptr);
  for (int round = 0; round < 1000; ++round) {
    cache.InvalidateComponent(c);
    ASSERT_EQ(cache.Get(c), nullptr);
    ASSERT_EQ(cache.CompileInvalidated(), 1u);
  }
  EXPECT_EQ(cache.kernel_bytes(), bytes);
  EXPECT_EQ(cache.num_compiled(), 2u);

  // Under heat staging the precise-recompile queue is dropped at every
  // drain instead of growing by one entry per invalidation.
  cache.InvalidateComponent(c);
  EXPECT_EQ(cache.CompilePending(), 0u);
  EXPECT_EQ(cache.CompileInvalidated(), 0u);
  EXPECT_EQ(cache.Get(c), nullptr);
}

}  // namespace
}  // namespace afp
