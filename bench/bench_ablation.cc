// E8 — ablations of the design choices DESIGN.md calls out:
//   (1) trace recording cost (off by default);
//   (2) the borrowed-view unfounded-set evaluation (GusEvaluator's
//       EvalSupported vs Eval);
//   (3) component-wise vs monolithic evaluation on the same instances;
//   (4) incremental re-solve vs full re-solve after a single-fact EDB
//       update on a long-lived afp::Solver session (the incremental
//       axis of BENCH_ablation_axis.json, gated by
//       tools/check_ablation_axis.py);
//   (5) compiled rule kernels vs the interpreted per-component lowering
//       (the compile axis of the same report);
//   (6) relevance-sliced point queries vs full solve + lookup.
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

// (7) the compiled-kernel axis: component-wise evaluation with the rule
// buckets lowered once into packed CSR kernels (SolverOptions::compile =
// kAlways) vs the fully interpreted per-solve lowering (kOff). Two
// regimes: the serving-repair shape (a long-lived session absorbing a
// fact round trip whose downstream closure re-solves the multi-member
// clusters — the staging pipeline's target) and the repeated-full-solve
// shape. The Example 8.2 chain rides along as the zero-engagement
// receipt: all its components are fast-path singletons, so the compiled
// row must report kernel_components == 0 and the checker pins that
// (kernels must never tax workloads they cannot serve). Distilled into
// the "compile" axis of BENCH_ablation_axis.json;
// tools/check_ablation_axis.py gates ratio > 1 on engaged rows and
// >= 1.5x on the WinMove/4096 repair flagship.

/// The kernel-axis flagship workload: win-move over a chain of n/64
/// cycle clusters wired so one fact toggle re-solves every multi-member
/// component in ~2 alternation rounds each. Each cluster is a 64-node
/// directed cycle (one SCC, so one multi-member component) in which
/// EVERY node also moves into the previous cluster's "feeder" — a
/// singleton that moves into the cluster head, i.e. loses exactly when
/// that cluster is determined. Cluster 0's exits aim at a gate node
/// whose only move (the flagship toggle fact) reaches a terminal sink.
/// Gate fact absent: the gate loses, so every cluster-0 node wins via
/// its exit, the feeder loses, and all-win determinedness sweeps down
/// the whole chain. Gate fact present: the gate wins, the exit rules
/// die, and each cluster degrades to a pure even cycle — the classic
/// well-founded draw — so undefinedness sweeps instead. Either
/// direction converges in a couple of S_P rounds per cluster (every
/// node is decided by its own exit edge; nothing inducts around the
/// cycle), which makes the per-component cost lowering-dominated: the
/// regime compiled kernels target. One toggle re-solves all n/64
/// clusters, amortizing the repair's fixed bookkeeping (closure walk,
/// bucket patch, publish) across n/64 kernel-served solves. The random
/// ClusteredScc of the incremental axis is the opposite regime — its
/// change frontier dies after ~4 components — and iteration-heavy SCCs
/// belong to the delta evaluators, not to kernels.
afp::Program MakeKernelChainWinMove(int n) {
  const int kCluster = 64;
  const int clusters = n / kCluster;
  afp::Digraph g;
  const int sink = clusters * kCluster;  // no moves: always loses
  const int gate = sink + 1;             // wins iff the toggle fact is in
  auto id = [&](int c, int j) { return c * kCluster + j; };
  auto feeder = [&](int c) { return gate + 1 + c; };
  g.n = gate + 1 + clusters;
  // First edge == first EDB fact the victim probe scans: the toggle.
  g.edges.push_back({gate, sink});
  for (int c = 0; c < clusters; ++c) {
    const int exit_target = c == 0 ? gate : feeder(c - 1);
    for (int j = 0; j < kCluster; ++j) {
      g.edges.push_back({id(c, j), id(c, (j + kCluster - 1) % kCluster)});
      // Chords fatten the bucket (more rules to lower per solve)
      // without changing the outcome: the exit edge still decides every
      // node, so convergence stays at a couple of rounds.
      g.edges.push_back({id(c, j), id(c, (j + kCluster - 3) % kCluster)});
      g.edges.push_back({id(c, j), id(c, (j + kCluster - 7) % kCluster)});
      g.edges.push_back({id(c, j), exit_target});
    }
    g.edges.push_back({feeder(c), id(c, 0)});
  }
  return afp::workload::WinMove(g);
}

/// The update victim for the kernel axis, chosen empirically: probe the
/// first 64 EDB facts with one untimed retract+assert round trip each
/// and keep the one whose repair re-solves the most components. A
/// structural pick (largest condensation-downstream closure) over-
/// estimates: incremental repair prunes downstream components whose
/// input did not actually change, so the largest closure can still be a
/// four-component repair. The probe runs identically under both modes,
/// so the interpreted and compiled rows mutate the same atom.
std::string ProbeKernelVictim(afp::Solver& solver) {
  const afp::GroundProgram& gp = solver.ground();
  std::string best;
  std::size_t best_resolved = 0;
  std::uint32_t candidate = 0;
  for (afp::AtomId a = 0; a < gp.num_atoms() && candidate < 64; ++a) {
    if (!gp.HasFact(a)) continue;
    ++candidate;
    const std::string atom = gp.AtomName(a);
    auto out = solver.RetractFact(atom);
    auto back = solver.AssertFact(atom);
    if (!out.ok() || !back.ok()) continue;
    const std::size_t resolved =
        out->components_resolved + back->components_resolved;
    if (best.empty() || resolved > best_resolved) {
      best_resolved = resolved;
      best = atom;
    }
  }
  return best;
}

void RunKernelRepair(benchmark::State& state, afp::Program program,
                     afp::CompileMode mode) {
  afp::SolverOptions opts;
  opts.compile = mode;
  auto solver = afp::Solver::FromProgram(std::move(program), opts);
  if (!solver.ok()) {
    state.SkipWithError("solver construction failed");
    return;
  }
  solver->Solve();  // compiles every eligible bucket under kAlways
  const std::uint64_t compile_ns =
      solver->Stats().eval.kernel_compile_ns;
  const std::string atom = ProbeKernelVictim(*solver);
  if (atom.empty()) {
    state.SkipWithError("workload has no EDB fact to mutate");
    return;
  }
  std::size_t kernel_components = 0, kernel_rounds = 0, resolved = 0;
  for (auto _ : state) {
    auto out = solver->RetractFact(atom);
    auto back = solver->AssertFact(atom);
    if (!out.ok() || !back.ok()) {
      state.SkipWithError("fact mutation failed");
      return;
    }
    benchmark::DoNotOptimize(solver->model());
    kernel_components =
        out->eval.kernel_components + back->eval.kernel_components;
    kernel_rounds = out->eval.kernel_rounds + back->eval.kernel_rounds;
    resolved = out->components_resolved + back->components_resolved;
  }
  state.counters["kernel_components"] =
      static_cast<double>(kernel_components);
  state.counters["kernel_rounds"] = static_cast<double>(kernel_rounds);
  state.counters["kernel_compile_ns"] = static_cast<double>(compile_ns);
  state.counters["components_resolved"] = static_cast<double>(resolved);
}

void RunKernelFullSolve(benchmark::State& state, afp::Program program,
                        afp::CompileMode mode) {
  afp::SolverOptions opts;
  opts.compile = mode;
  auto solver = afp::Solver::FromProgram(std::move(program), opts);
  if (!solver.ok()) {
    state.SkipWithError("solver construction failed");
    return;
  }
  solver->Solve();  // warm pools + compile outside the timed loop
  const std::uint64_t compile_ns =
      solver->Stats().eval.kernel_compile_ns;
  std::size_t kernel_components = 0;
  for (auto _ : state) {
    solver->InvalidateModel();
    benchmark::DoNotOptimize(solver->Solve());
    kernel_components = solver->Stats().eval.kernel_components;
  }
  state.counters["kernel_components"] =
      static_cast<double>(kernel_components);
  state.counters["kernel_compile_ns"] = static_cast<double>(compile_ns);
}

void BM_KernelInterpretedWinMove(benchmark::State& state) {
  RunKernelRepair(state,
                  MakeKernelChainWinMove(static_cast<int>(state.range(0))),
                  afp::CompileMode::kOff);
}
BENCHMARK(BM_KernelInterpretedWinMove)->Arg(4096);

void BM_KernelCompiledWinMove(benchmark::State& state) {
  RunKernelRepair(state,
                  MakeKernelChainWinMove(static_cast<int>(state.range(0))),
                  afp::CompileMode::kAlways);
}
BENCHMARK(BM_KernelCompiledWinMove)->Arg(4096);

void BM_KernelInterpretedWinMoveFull(benchmark::State& state) {
  RunKernelFullSolve(
      state, MakeKernelChainWinMove(static_cast<int>(state.range(0))),
      afp::CompileMode::kOff);
}
BENCHMARK(BM_KernelInterpretedWinMoveFull)->Arg(1024);

void BM_KernelCompiledWinMoveFull(benchmark::State& state) {
  RunKernelFullSolve(
      state, MakeKernelChainWinMove(static_cast<int>(state.range(0))),
      afp::CompileMode::kAlways);
}
BENCHMARK(BM_KernelCompiledWinMoveFull)->Arg(1024);

void BM_KernelInterpretedWfNodes(benchmark::State& state) {
  RunKernelFullSolve(state,
                     MakeWfNodesProgram(static_cast<int>(state.range(0))),
                     afp::CompileMode::kOff);
}
BENCHMARK(BM_KernelInterpretedWfNodes)->Arg(256);

void BM_KernelCompiledWfNodes(benchmark::State& state) {
  RunKernelFullSolve(state,
                     MakeWfNodesProgram(static_cast<int>(state.range(0))),
                     afp::CompileMode::kAlways);
}
BENCHMARK(BM_KernelCompiledWfNodes)->Arg(256);

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
