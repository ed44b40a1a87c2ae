// Scale bench: grounding + solving wall time and peak memory of the
// interning pipeline at 64k-1M ground rules. tools/run_benches.sh stores
// the report as BENCH_scale.json.
//
// Like bench_serving this binary is self-timed and prints a native JSON
// report on stdout (no Google Benchmark). Each workload runs in a forked
// child that reports one JSON row through a pipe: peak RSS is
// process-monotone, so measuring one workload after another in the same
// process would only ever report the max of the two.
//
// Workloads: win-move over Erdos-Renyi digraphs (the unstratified
// flagship; grounding is interning-dominated) and transitive-closure
// complement (stratified; the n^2 ntc stratum pushes the rule count to the
// million rung, and a supercritical edge set makes the recursive join
// the cost). The true/undefined atom counts are recorded per row as the
// receipt of what was solved.
//
// After the solve, each row times the session's first repair: retracting
// the ground program's first EDB fact through UpdateFactsById. It is what
// a session's first update pays. The component-wise solve already built
// the dependency graph and the rule buckets (solve_ms includes them), so
// the repair builds only the condensation it walks, then repairs the
// model downstream of the fact. `steady_repair_us` is the median of the 21
// single-fact toggles of that fact (assert, retract, ...) that follow: what
// a warm session pays per update. `bucket_bytes` is what the session keeps
// of its general-path components' compiled buckets after the solve.

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

#include "afp/solver.h"
#include "workload/graphs.h"
#include "workload/programs.h"

namespace {

using Clock = std::chrono::steady_clock;

struct Config {
  const char* workload;
  // Program factory, deterministic (seeded generators only).
  afp::Program (*make)();
};

afp::Program WinMove64k() {
  // ~8k nodes, 4 edges/node: ~33k wins instances + 33k move facts.
  return afp::workload::WinMove(afp::graphs::ErdosRenyi(8192, 32768, 17));
}

afp::Program WinMoveFlagship() {
  // The flagship: ~16k nodes, 6 edges/node. Grounding interns ~100k
  // wins/move atoms and emits ~200k ground rules.
  return afp::workload::WinMove(afp::graphs::ErdosRenyi(16384, 98304, 17));
}

afp::Program TcComplement262k() {
  // ntc stratum alone is n^2 = 262k instances. The edge set is subcritical
  // (avg degree 1/4), so the recursive tc closure stays tiny and the
  // interning of the ntc stratum dominates.
  return afp::workload::TransitiveClosureComplement(
      afp::graphs::ErdosRenyi(512, 128, 29));
}

afp::Program TcComplement1M() {
  // The million-rule rung: n^2 = 1M ntc instances plus a small tc closure.
  return afp::workload::TransitiveClosureComplement(
      afp::graphs::ErdosRenyi(1024, 256, 29));
}

afp::Program TcComplementEr512Deg2() {
  // The supercritical rung: at avg degree 2 the tc closure reaches most
  // node pairs, so the recursive join (e(X,Z), tc(Z,Y)) emits ~340k of the
  // 602k rules. It measures the join itself: the tc literal probes the
  // posting list of its bound first argument.
  return afp::workload::TransitiveClosureComplement(
      afp::graphs::ErdosRenyi(512, 1024, 29));
}

constexpr Config kConfigs[] = {
    {"winmove_er_64k", &WinMove64k},
    {"winmove_er_flagship", &WinMoveFlagship},
    {"tc_complement_262k", &TcComplement262k},
    {"tc_complement_1m", &TcComplement1M},
    {"tc_complement_er512_deg2", &TcComplementEr512Deg2},
};

double Ms(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration_cast<std::chrono::duration<double, std::milli>>(
             b - a)
      .count();
}

/// Runs one workload and returns its JSON row. Called in a forked child;
/// must not touch the parent's report state.
std::string RunConfig(const Config& cfg) {
  afp::Program program = cfg.make();

  const auto t0 = Clock::now();
  auto solver = afp::Solver::FromProgram(std::move(program));
  const auto t1 = Clock::now();
  if (!solver.ok()) {
    std::fprintf(stderr, "bench_scale: %s: %s\n", cfg.workload,
                 std::string(solver.status().message()).c_str());
    return {};
  }
  const afp::PartialModel& model = solver->Solve();
  const auto t2 = Clock::now();

  // The receipts of the solve, read before the repair below changes the
  // model and raises the peak RSS.
  const afp::GroundStats g = solver->Stats().ground;
  const std::size_t true_atoms = model.num_true();
  const std::size_t undef_atoms = g.atoms - true_atoms - model.num_false();
  const std::size_t bucket_bytes = solver->Stats().bucket_bytes;

  double first_repair_ms = 0;
  double steady_repair_us = 0;
  const afp::GroundProgram& gp = solver->ground();
  for (std::size_t ri = 0; ri < gp.num_rules(); ++ri) {
    const afp::GroundRule& r = gp.rule(ri);
    if (r.pos_len != 0 || r.neg_len != 0) continue;
    const afp::AtomId fact[] = {r.head};
    const auto t3 = Clock::now();
    solver->UpdateFactsById({}, fact);
    first_repair_ms = Ms(t3, Clock::now());
    constexpr int kToggles = 21;
    std::vector<double> toggle_us;
    for (int i = 0; i < kToggles; ++i) {
      const auto t4 = Clock::now();
      if (i % 2 == 0) {
        solver->UpdateFactsById(fact, {});
      } else {
        solver->UpdateFactsById({}, fact);
      }
      toggle_us.push_back(1000.0 * Ms(t4, Clock::now()));
    }
    std::nth_element(toggle_us.begin(), toggle_us.begin() + kToggles / 2,
                     toggle_us.end());
    steady_repair_us = toggle_us[kToggles / 2];
    break;
  }

  char buf[1024];
  std::snprintf(
      buf, sizeof(buf),
      "{\"workload\": \"%s\", \"atoms\": %llu, "
      "\"ground_rules\": %llu, \"ground_ms\": %.2f, \"solve_ms\": %.2f, "
      "\"total_ms\": %.2f, \"first_repair_ms\": %.2f, "
      "\"steady_repair_us\": %.1f, \"bucket_bytes\": %llu, "
      "\"intern_probes\": %llu, "
      "\"intern_collisions\": %llu, \"intern_allocs\": %llu, "
      "\"join_candidates\": %llu, \"instance_probes\": %llu, "
      "\"arena_bytes\": %llu, \"index_bytes\": %llu, "
      "\"peak_rss_bytes\": %llu, \"true_atoms\": %llu, "
      "\"undef_atoms\": %llu}",
      cfg.workload, static_cast<unsigned long long>(g.atoms),
      static_cast<unsigned long long>(g.rules), Ms(t0, t1), Ms(t1, t2),
      Ms(t0, t2), first_repair_ms, steady_repair_us,
      static_cast<unsigned long long>(bucket_bytes),
      static_cast<unsigned long long>(g.intern_probes),
      static_cast<unsigned long long>(g.intern_collisions),
      static_cast<unsigned long long>(g.intern_allocs),
      static_cast<unsigned long long>(g.join_candidates),
      static_cast<unsigned long long>(g.instance_probes),
      static_cast<unsigned long long>(g.arena_bytes),
      static_cast<unsigned long long>(g.index_bytes),
      static_cast<unsigned long long>(g.peak_rss_bytes),
      static_cast<unsigned long long>(true_atoms),
      static_cast<unsigned long long>(undef_atoms));
  return buf;
}

/// Forks a child to run one config; the child writes its row to a pipe and
/// exits without running atexit handlers. Returns the row, or "" on any
/// child failure (reported on stderr by the child).
std::string RunConfigForked(const Config& cfg) {
  int fds[2];
  if (pipe(fds) != 0) {
    std::perror("bench_scale: pipe");
    return {};
  }
  const pid_t pid = fork();
  if (pid < 0) {
    std::perror("bench_scale: fork");
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
      std::fprintf(stderr, "bench_scale: workload %s failed\n", cfg.workload);
      return 1;
    }
    rows.push_back(std::move(row));
  }

  std::printf("{\n");
  std::printf("  \"bench\": \"bench_scale\",\n");
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
