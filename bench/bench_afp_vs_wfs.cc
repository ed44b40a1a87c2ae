// E7 — Theorem 7.8 in practice: the alternating fixpoint (§5), the original
// W_P/unfounded-set iteration (§6), and the component-wise engine all
// compute the same well-founded model; this bench compares their cost with
// google-benchmark across workload shapes.

#include <benchmark/benchmark.h>

#include <memory>

#include "core/alternating.h"
#include "core/scc_engine.h"
#include "ground/grounder.h"
#include "wfs/wp_engine.h"
#include "workload/graphs.h"
#include "workload/programs.h"

namespace {

struct Instance {
  std::unique_ptr<afp::Program> program;
  std::unique_ptr<afp::GroundProgram> ground;
};

Instance MakeWinMove(int n, int m, std::uint64_t seed) {
  Instance inst;
  inst.program = std::make_unique<afp::Program>(
      afp::workload::WinMove(afp::graphs::ErdosRenyi(n, m, seed)));
  auto g = afp::Grounder::Ground(*inst.program);
  inst.ground = std::make_unique<afp::GroundProgram>(std::move(g).value());
  return inst;
}

Instance MakeChain(int n) {
  Instance inst;
  inst.program = std::make_unique<afp::Program>(
      afp::workload::WinMove(afp::graphs::Chain(n)));
  auto g = afp::Grounder::Ground(*inst.program);
  inst.ground = std::make_unique<afp::GroundProgram>(std::move(g).value());
  return inst;
}

Instance MakeRandomProp(int atoms, int rules, std::uint64_t seed) {
  Instance inst;
  inst.program = std::make_unique<afp::Program>(
      afp::workload::RandomPropositional(atoms, rules, 3, 50, seed));
  auto g = afp::Grounder::Ground(*inst.program);
  inst.ground = std::make_unique<afp::GroundProgram>(std::move(g).value());
  return inst;
}

void BM_AfpWinMove(benchmark::State& state) {
  Instance inst = MakeWinMove(state.range(0), 4 * state.range(0), 11);
  for (auto _ : state) {
    benchmark::DoNotOptimize(afp::AlternatingFixpoint(*inst.ground));
  }
  state.SetLabel("atoms=" + std::to_string(inst.ground->num_atoms()));
}
BENCHMARK(BM_AfpWinMove)->Arg(128)->Arg(512)->Arg(2048);

void BM_WpWinMove(benchmark::State& state) {
  Instance inst = MakeWinMove(state.range(0), 4 * state.range(0), 11);
  for (auto _ : state) {
    benchmark::DoNotOptimize(afp::WellFoundedViaWp(*inst.ground));
  }
}
BENCHMARK(BM_WpWinMove)->Arg(128)->Arg(512)->Arg(2048);

void BM_SccWinMove(benchmark::State& state) {
  Instance inst = MakeWinMove(state.range(0), 4 * state.range(0), 11);
  for (auto _ : state) {
    benchmark::DoNotOptimize(afp::WellFoundedScc(*inst.ground));
  }
}
BENCHMARK(BM_SccWinMove)->Arg(128)->Arg(512)->Arg(2048);

// Chains force Θ(n) alternating rounds: the worst case for both monolithic
// engines, where component-wise evaluation shines.
void BM_AfpChain(benchmark::State& state) {
  Instance inst = MakeChain(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(afp::AlternatingFixpoint(*inst.ground));
  }
}
BENCHMARK(BM_AfpChain)->Arg(128)->Arg(512)->Arg(2048);

void BM_WpChain(benchmark::State& state) {
  Instance inst = MakeChain(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(afp::WellFoundedViaWp(*inst.ground));
  }
}
BENCHMARK(BM_WpChain)->Arg(128)->Arg(512)->Arg(2048);

void BM_SccChain(benchmark::State& state) {
  Instance inst = MakeChain(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(afp::WellFoundedScc(*inst.ground));
  }
}
BENCHMARK(BM_SccChain)->Arg(128)->Arg(512)->Arg(2048);

void BM_AfpRandomProp(benchmark::State& state) {
  Instance inst = MakeRandomProp(state.range(0), 2 * state.range(0), 3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(afp::AlternatingFixpoint(*inst.ground));
  }
}
BENCHMARK(BM_AfpRandomProp)->Arg(1000)->Arg(10000)->Arg(100000);

void BM_WpRandomProp(benchmark::State& state) {
  Instance inst = MakeRandomProp(state.range(0), 2 * state.range(0), 3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(afp::WellFoundedViaWp(*inst.ground));
  }
}
BENCHMARK(BM_WpRandomProp)->Arg(1000)->Arg(10000)->Arg(100000);

}  // namespace

BENCHMARK_MAIN();
