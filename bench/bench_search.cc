// Stable-model search bench: wall time of the depth-first search
// (src/search/) per workload, one row each. This is the bench behind the
// `search` axis of BENCH_ablation_axis.json: tools/run_benches.sh stores
// the report as BENCH_search.json and copies the rows into the axis, and
// tools/check_ablation_axis.py checks every row's counters and hash
// against pinned values.
//
// Like bench_scale this binary is self-timed and prints a native JSON
// report on stdout. Each workload runs in a forked child so allocator
// state never leaks between timings; within the child the same engine is
// run 9 times and the median run is reported (enumeration is
// deterministic, so every run does identical work; the median keeps one
// slow or cold run from moving the figure).
//
// Every row carries the model and node counts, implied_atoms (the tree's
// decisions), components_resolved (the per-node repair work),
// bucket_solves and sp_calls (the general-path component solves and the
// S_P evaluations of the timed enumeration), leaf_rules_checked (the rule
// bodies the leaves' stability checks read) and an FNV-1a hash of the full
// emission sequence (model set AND order), so a changed tree or
// enumeration shows up before any wall time is compared, and a change in
// how much evaluation work it takes shows up apart from its speed.
//
// Workloads: EvenCycleClusters(k, chain_len) — k independent even negative
// cycles (2^k stable models, a full depth-k branch tree), each next to a
// negation chain of chain_len atoms that hangs off its own fact. No branch
// touches a chain, so the incremental propagation re-solves one cycle
// component per node however long the chains are; a propagation that
// re-derived the whole program at every node would pay for every chain.

#include <unistd.h>

#include <sys/types.h>
#include <sys/wait.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "ground/grounder.h"
#include "search/stable_search.h"
#include "workload/programs.h"

namespace {

using Clock = std::chrono::steady_clock;

struct Config {
  const char* workload;
  int clusters;
  int chain_len;
};

// The flagship row is EvenCycleClusters/12x24: 4096 stable models over a
// 4096-leaf branch tree in a ~300-atom program. The second row trades
// tree width for chain length.
constexpr Config kConfigs[] = {
    {"EvenCycleClusters/12x24", 12, 24},
    {"EvenCycleClusters/9x48", 9, 48},
};

double Ms(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration_cast<std::chrono::duration<double, std::milli>>(
             b - a)
      .count();
}

/// FNV-1a over the emission sequence: model index boundaries and the set
/// bits of each model, in order. Identical across runs iff the
/// enumeration (set and order) is identical.
std::uint64_t HashModels(const std::vector<afp::Bitset>& models) {
  std::uint64_t h = 1469598103934665603ull;
  auto mix = [&h](std::uint64_t v) {
    h ^= v;
    h *= 1099511628211ull;
  };
  for (const afp::Bitset& m : models) {
    mix(0xFFFFFFFFFFFFFFFFull);  // model boundary
    m.ForEach([&](std::size_t a) { mix(a); });
  }
  return h;
}

/// Runs one workload and returns its JSON row. Called in a forked child;
/// must not touch the parent's report state.
std::string RunConfig(const Config& cfg) {
  afp::Program program =
      afp::workload::EvenCycleClusters(cfg.clusters, cfg.chain_len);
  afp::GroundOptions gopts;
  gopts.mode = afp::GroundMode::kFull;
  auto ground = afp::Grounder::Ground(program, gopts);
  if (!ground.ok()) {
    std::fprintf(stderr, "bench_search: %s: %s\n", cfg.workload,
                 ground.status().ToString().c_str());
    return {};
  }
  afp::GroundProgram gp = std::move(ground).value();

  afp::StableSearch engine(gp);

  // Nine runs on the same engine; report the median (the enumeration is
  // deterministic, so every run does identical work).
  constexpr int kRuns = 9;
  std::vector<double> run_ms;
  afp::StableResult result;
  for (int run = 0; run < kRuns; ++run) {
    const auto t0 = Clock::now();
    result = engine.Enumerate();
    run_ms.push_back(Ms(t0, Clock::now()));
  }
  std::nth_element(run_ms.begin(), run_ms.begin() + kRuns / 2, run_ms.end());
  const double wall_ms = run_ms[kRuns / 2];

  const afp::StableSearchStats& s = result.search;
  char buf[640];
  std::snprintf(
      buf, sizeof(buf),
      "{\"workload\": \"%s\", \"wall_ms\": %.2f, \"models\": %llu, "
      "\"nodes\": %llu, \"implied_atoms\": %llu, "
      "\"components_resolved\": %llu, \"bucket_solves\": %llu, "
      "\"sp_calls\": %llu, \"leaf_rules_checked\": %llu, "
      "\"model_hash\": \"%016llx\"}",
      cfg.workload, wall_ms, static_cast<unsigned long long>(s.models),
      static_cast<unsigned long long>(s.nodes),
      static_cast<unsigned long long>(s.implied_atoms),
      static_cast<unsigned long long>(s.components_resolved),
      static_cast<unsigned long long>(result.eval.bucket_solves),
      static_cast<unsigned long long>(result.eval.sp_calls),
      static_cast<unsigned long long>(s.leaf_rules_checked),
      static_cast<unsigned long long>(HashModels(result.models)));
  return buf;
}

/// Forks a child to run one config; the child writes its row to a pipe and
/// exits without running atexit handlers. Returns the row, or "" on any
/// child failure (reported on stderr by the child).
std::string RunConfigForked(const Config& cfg) {
  int fds[2];
  if (pipe(fds) != 0) {
    std::perror("bench_search: pipe");
    return {};
  }
  const pid_t pid = fork();
  if (pid < 0) {
    std::perror("bench_search: fork");
    close(fds[0]);
    close(fds[1]);
    return {};
  }
  if (pid == 0) {
    close(fds[0]);
    const std::string row = RunConfig(cfg);
    std::size_t off = 0;
    while (off < row.size()) {
      const ssize_t n = write(fds[1], row.data() + off, row.size() - off);
      if (n <= 0) break;
      off += static_cast<std::size_t>(n);
    }
    close(fds[1]);
    _exit(row.empty() ? 1 : 0);
  }
  close(fds[1]);
  std::string row;
  char buf[4096];
  for (;;) {
    const ssize_t n = read(fds[0], buf, sizeof(buf));
    if (n <= 0) break;
    row.append(buf, static_cast<std::size_t>(n));
  }
  close(fds[0]);
  int status = 0;
  waitpid(pid, &status, 0);
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) return {};
  return row;
}

}  // namespace

int main() {
  std::vector<std::string> rows;
  for (const Config& cfg : kConfigs) {
    std::string row = RunConfigForked(cfg);
    if (row.empty()) {
      std::fprintf(stderr, "bench_search: workload %s failed\n",
                   cfg.workload);
      return 1;
    }
    rows.push_back(std::move(row));
  }

  std::printf("{\n");
  std::printf("  \"bench\": \"bench_search\",\n");
  std::printf("  \"hardware_concurrency\": %u,\n",
              std::thread::hardware_concurrency());
  std::printf("  \"rows\": [\n");
  for (std::size_t i = 0; i < rows.size(); ++i) {
    std::printf("    %s%s\n", rows[i].c_str(),
                i + 1 < rows.size() ? "," : "");
  }
  std::printf("  ]\n");
  std::printf("}\n");
  return 0;
}
