// E8 — ablations of the design choices DESIGN.md calls out:
//   (1) trace recording cost (off by default);
//   (2) the borrowed-view unfounded-set evaluation (GusEvaluator's
//       EvalSupported vs Eval);
//   (3) component-wise vs monolithic evaluation on the same instances;
//   (4) incremental re-solve vs full re-solve after a single-fact EDB
//       update on a long-lived afp::Solver session (the incremental
//       axis of BENCH_ablation_axis.json, gated by
//       tools/check_ablation_axis.py);
//   (5) relevance-sliced point queries vs full solve + lookup.
// The delta-driven vs from-scratch operator axes (S_P enablement, T_P /
// U_P witnesses) are pinned by counters, not timed: see the
// AblationCounters test in tests/eval_context_test.cc.

#include <benchmark/benchmark.h>

#include <memory>

#include "afp/solver.h"
#include "core/alternating.h"
#include "core/relevance.h"
#include "core/scc_engine.h"
#include "wfs/unfounded.h"
#include "wfs/wp_engine.h"
#include "fol/general_program.h"
#include "fol/simplify.h"
#include "ground/grounder.h"
#include "workload/graphs.h"
#include "workload/programs.h"

namespace {

std::unique_ptr<afp::Program> g_program;
std::unique_ptr<afp::GroundProgram> g_ground;

const afp::GroundProgram& WinMoveInstance(int n) {
  static int current_n = -1;
  if (current_n != n) {
    g_ground.reset();
    g_program = std::make_unique<afp::Program>(
        afp::workload::WinMove(afp::graphs::ErdosRenyi(n, 4 * n, 17)));
    auto g = afp::Grounder::Ground(*g_program);
    g_ground = std::make_unique<afp::GroundProgram>(std::move(g).value());
    current_n = n;
  }
  return *g_ground;
}

std::unique_ptr<afp::Program> g_wf_program;
std::unique_ptr<afp::GroundProgram> g_wf_ground;

// Example 8.2 (well-founded nodes of a binary relation), via the paper's
// transformation to a normal program, over a chain: the chain gives the
// nodes well-founded ranks as deep as the graph, so the alternating
// fixpoint runs one round per rank — the many-small-deltas regime the
// delta-driven enablement recomputation targets.
afp::Program MakeWfNodesProgram(int n) {
  afp::GeneralProgram gp;
  afp::Program& b = gp.base();
  afp::Digraph g = afp::graphs::Chain(n);
  for (auto [u, v] : g.edges) {
    b.AddFact("e",
              {afp::workload::NodeName(u), afp::workload::NodeName(v)});
  }
  afp::TermId x = b.Var("X"), y = b.Var("Y");
  afp::SymbolId ys = b.symbols().Intern("Y");
  gp.AddGeneralRule(
      b.MakeAtom("w", {x}),
      afp::Formula::Not(afp::Formula::Exists(
          {ys},
          afp::Formula::And(
              {afp::Formula::MakeAtom(b.MakeAtom("e", {y, x})),
               afp::Formula::Not(
                   afp::Formula::MakeAtom(b.MakeAtom("w", {y})))}))));
  auto normal = afp::TransformToNormal(gp);
  return std::move(normal).value();
}

const afp::GroundProgram& WfNodesInstance(int n) {
  static int current_n = -1;
  if (current_n != n) {
    g_wf_ground.reset();
    g_wf_program = std::make_unique<afp::Program>(MakeWfNodesProgram(n));
    auto ground = afp::Grounder::Ground(*g_wf_program);
    g_wf_ground =
        std::make_unique<afp::GroundProgram>(std::move(ground).value());
    current_n = n;
  }
  return *g_wf_ground;
}

void BM_PlainAlternating(benchmark::State& state) {
  const auto& gp = WinMoveInstance(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(afp::AlternatingFixpoint(gp));
  }
}
BENCHMARK(BM_PlainAlternating)->Arg(512)->Arg(1024);

void BM_TraceRecordingOff(benchmark::State& state) {
  const auto& gp = WinMoveInstance(512);
  afp::AfpOptions opts;
  opts.record_trace = false;
  for (auto _ : state) {
    benchmark::DoNotOptimize(afp::AlternatingFixpoint(gp, opts));
  }
}
BENCHMARK(BM_TraceRecordingOff);

void BM_TraceRecordingOn(benchmark::State& state) {
  const auto& gp = WinMoveInstance(512);
  afp::AfpOptions opts;
  opts.record_trace = true;
  for (auto _ : state) {
    benchmark::DoNotOptimize(afp::AlternatingFixpoint(gp, opts));
  }
}
BENCHMARK(BM_TraceRecordingOn);

// The borrowed-view unfounded-set axis (GusEvaluator::EvalSupported vs
// Eval): a steady-state call on the Example 8.2 chain at n=1024, where
// Eval's only extra work over EvalSupported is materializing U_P —
// the O(n/64) copy+complement of the supported set per call.
void BM_GusEvalCopyChain(benchmark::State& state) {
  const auto& gp = WfNodesInstance(static_cast<int>(state.range(0)));
  afp::EvalContext ctx;
  afp::HornSolver solver(gp.View(), &ctx);
  afp::GusEvaluator gus(solver, ctx);
  afp::PartialModel I = afp::PartialModel::AllUndefined(gp.num_atoms());
  afp::Bitset out;
  gus.Eval(I, &out);  // prime
  for (auto _ : state) {
    gus.Eval(I, &out);
    benchmark::DoNotOptimize(out);
  }
}
BENCHMARK(BM_GusEvalCopyChain)->Arg(1024)->Arg(16384);

void BM_GusEvalBorrowedChain(benchmark::State& state) {
  const auto& gp = WfNodesInstance(static_cast<int>(state.range(0)));
  afp::EvalContext ctx;
  afp::HornSolver solver(gp.View(), &ctx);
  afp::GusEvaluator gus(solver, ctx);
  afp::PartialModel I = afp::PartialModel::AllUndefined(gp.num_atoms());
  (void)gus.EvalSupported(I);  // prime
  for (auto _ : state) {
    const afp::Bitset& x = gus.EvalSupported(I);
    benchmark::DoNotOptimize(&x);
  }
}
BENCHMARK(BM_GusEvalBorrowedChain)->Arg(1024)->Arg(16384);

// Component-wise engine on the same instances as the monolithic ones.
void BM_SccEngine(benchmark::State& state) {
  const auto& gp = WinMoveInstance(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(afp::WellFoundedScc(gp));
  }
}
BENCHMARK(BM_SccEngine)->Arg(512)->Arg(1024);

// The incremental-update axis: a long-lived Solver session absorbing a
// single-fact EDB update (retract + re-assert round trip on the first EDB
// fact) vs a full re-solve of the identically mutated program. The full
// baseline is GENEROUS: it reuses a warm context and the cached
// dependency graph (facts change no arcs), so the measured gap is pure
// fixpoint work — the condensation-downstream closure plus the change
// frontier dying out vs every component from scratch. Distilled into the
// "incremental" axis of BENCH_ablation_axis.json; check_ablation_axis.py
// gates ratio > 1 everywhere and >= 5x on WinMove/4096.
afp::Program MakeIncrementalWinMove(int n) {
  return afp::workload::WinMove(afp::graphs::ErdosRenyi(n, 4 * n, 17));
}

afp::Program MakeIncrementalClustered(int n) {
  const int clusters = n / 64;
  return afp::workload::WinMove(afp::graphs::ClusteredScc(
      clusters, /*cluster_size=*/64, /*intra_per_cluster=*/128,
      /*inter_edges=*/clusters, /*seed=*/17));
}

/// The deterministic update victim: among the first 256 EDB facts, the one
/// with the smallest condensation-downstream closure. A single-fact update
/// whose dependents sit in the periphery is the regime the incremental
/// path targets (an update feeding the giant SCC must legitimately re-run
/// that component's fixpoint — about half a full solve on the ER
/// win-move graph; the components_resolved counter in the JSON row keeps
/// the receipt honest either way).
afp::AtomId SmallClosureFactAtom(const afp::GroundProgram& gp) {
  afp::AtomDependencyGraph graph(gp.View());
  const auto& comp_of = graph.component_of();
  const auto& off = graph.condensation_offsets();
  const auto& succ = graph.condensation_successors();
  std::vector<std::uint32_t> stamp(graph.num_components(), UINT32_MAX);
  std::vector<std::uint32_t> stack;
  afp::AtomId best = afp::kInvalidAtom;
  std::size_t best_size = static_cast<std::size_t>(-1);
  std::uint32_t candidate = 0;
  for (afp::AtomId a = 0; a < gp.num_atoms() && candidate < 256; ++a) {
    if (!gp.HasFact(a)) continue;
    ++candidate;
    stack.assign(1, comp_of[a]);
    stamp[comp_of[a]] = candidate;
    std::size_t size = 0;
    while (!stack.empty() && size < best_size) {
      const std::uint32_t c = stack.back();
      stack.pop_back();
      ++size;
      for (std::uint32_t k = off[c]; k < off[c + 1]; ++k) {
        if (stamp[succ[k]] != candidate) {
          stamp[succ[k]] = candidate;
          stack.push_back(succ[k]);
        }
      }
    }
    if (stack.empty() && size < best_size) {
      best_size = size;
      best = a;
    }
  }
  return best;
}

void RunIncrementalUpdate(benchmark::State& state, afp::Program program) {
  auto solver = afp::Solver::FromProgram(std::move(program));
  if (!solver.ok()) {
    state.SkipWithError("solver construction failed");
    return;
  }
  solver->Solve();
  const afp::AtomId victim = SmallClosureFactAtom(solver->ground());
  if (victim == afp::kInvalidAtom) {
    state.SkipWithError("workload has no EDB fact to mutate");
    return;
  }
  const std::string atom = solver->ground().AtomName(victim);
  std::size_t resolved = 0, downstream = 0;
  for (auto _ : state) {
    auto out = solver->RetractFact(atom);
    auto back = solver->AssertFact(atom);
    if (!out.ok() || !back.ok()) {
      state.SkipWithError("fact mutation failed");
      return;
    }
    benchmark::DoNotOptimize(solver->model());
    resolved = out->components_resolved + back->components_resolved;
    downstream = out->components_downstream + back->components_downstream;
  }
  state.counters["components"] =
      static_cast<double>(solver->Stats().num_components);
  state.counters["components_resolved"] = static_cast<double>(resolved);
  state.counters["components_downstream"] = static_cast<double>(downstream);
}

void RunFullUpdate(benchmark::State& state, afp::Program program) {
  auto ground = afp::Grounder::Ground(program);
  if (!ground.ok()) {
    state.SkipWithError("grounding failed");
    return;
  }
  afp::GroundProgram gp = std::move(ground).value();
  const afp::AtomId victim = SmallClosureFactAtom(gp);
  if (victim == afp::kInvalidAtom) {
    state.SkipWithError("workload has no EDB fact to mutate");
    return;
  }
  // The graph survives fact mutations; only the rule buckets (and the
  // view's spans) must be refreshed per solve.
  afp::AtomDependencyGraph graph(gp.View());
  afp::EvalContext ctx;
  afp::SccOptions opts;
  std::size_t components = 0;
  for (auto _ : state) {
    gp.RemoveFact(victim);
    {
      const afp::RuleView view = gp.View();
      const afp::RuleBuckets buckets(view, graph);
      auto r = afp::WellFoundedSccOnGraph(ctx, view, graph, buckets, opts);
      benchmark::DoNotOptimize(r);
      components = r.num_components;
    }
    gp.AddFact(victim);
    {
      const afp::RuleView view = gp.View();
      const afp::RuleBuckets buckets(view, graph);
      auto r = afp::WellFoundedSccOnGraph(ctx, view, graph, buckets, opts);
      benchmark::DoNotOptimize(r);
    }
  }
  state.counters["components"] = static_cast<double>(components);
}

void BM_IncrementalWinMove(benchmark::State& state) {
  RunIncrementalUpdate(state,
                       MakeIncrementalWinMove(static_cast<int>(state.range(0))));
}
BENCHMARK(BM_IncrementalWinMove)->Arg(1024)->Arg(4096);

void BM_FullUpdateWinMove(benchmark::State& state) {
  RunFullUpdate(state,
                MakeIncrementalWinMove(static_cast<int>(state.range(0))));
}
BENCHMARK(BM_FullUpdateWinMove)->Arg(1024)->Arg(4096);

void BM_IncrementalClusteredWinMove(benchmark::State& state) {
  RunIncrementalUpdate(
      state, MakeIncrementalClustered(static_cast<int>(state.range(0))));
}
BENCHMARK(BM_IncrementalClusteredWinMove)->Arg(4096);

void BM_FullUpdateClusteredWinMove(benchmark::State& state) {
  RunFullUpdate(state,
                MakeIncrementalClustered(static_cast<int>(state.range(0))));
}
BENCHMARK(BM_FullUpdateClusteredWinMove)->Arg(4096);

// Point-query ablation: full solve + lookup vs relevance-sliced solve.
void BM_PointQueryFullSolve(benchmark::State& state) {
  const auto& gp = WinMoveInstance(1024);
  for (auto _ : state) {
    afp::AfpResult r = afp::AlternatingFixpoint(gp);
    benchmark::DoNotOptimize(afp::QueryAtom(gp, r.model, "wins(a)"));
  }
}
BENCHMARK(BM_PointQueryFullSolve);

void BM_PointQueryRelevanceSliced(benchmark::State& state) {
  const auto& gp = WinMoveInstance(1024);
  for (auto _ : state) {
    benchmark::DoNotOptimize(afp::QueryWithRelevance(gp, "wins(a)"));
  }
}
BENCHMARK(BM_PointQueryRelevanceSliced);

}  // namespace

BENCHMARK_MAIN();
