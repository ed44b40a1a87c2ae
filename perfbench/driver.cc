// afp_perfbench: drives one workload of the afp solver for a fixed time and
// prints one JSON result line (README.md in this directory has the metric
// definitions).
//
//   afp_perfbench --workload oneshot|search --seed N --seconds S --trace 0|1
//
// Every input is generated here from --seed; the solver sees only program
// text, fact updates and queries, through its public session API
// (afp::Solver). Every answer a workload checks is computed a second time
// by an oracle in this file that shares no code with the solver:
// reachability by graph search, the win-move game by retrograde analysis,
// and the stable models of the search program by enumerating its choice
// assignments.
//
// --trace 0 reports the end-to-end metrics. --trace 1 builds sessions
// through separate parse / ground / solve calls and reports per-layer
// figures, timed around each call this file makes into a layer.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iterator>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "afp/solver.h"
#include "ast/program.h"
#include "core/interpretation.h"

namespace {

using Clock = std::chrono::steady_clock;
using afp::TruthValue;

double MsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

double MsSince(Clock::time_point a) { return MsBetween(a, Clock::now()); }

/// splitmix64: small, fast, and identical on every platform, so a seed
/// names the same inputs everywhere.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t Next() {
    std::uint64_t z = (state_ += 0x9E3779B97F4A7C15ull);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
  }
  /// Uniform in [0, n), n > 0.
  std::size_t Below(std::size_t n) {
    return static_cast<std::size_t>(Next() % n);
  }
  template <typename T>
  void Shuffle(std::vector<T>& v) {
    for (std::size_t i = v.size(); i > 1; --i) std::swap(v[i - 1], v[Below(i)]);
  }

 private:
  std::uint64_t state_;
};

/// Per-layer samples; filled only by traced runs.
struct Layers {
  std::vector<double> parse_ms;
  std::vector<double> ground_ms;
  std::vector<double> solve_ms;
  std::vector<double> update_ms;
  std::vector<double> query_us;
  std::vector<double> ground_rules;
  std::vector<double> atoms;
};

/// One timed operation.
struct Sample {
  /// Completion time, in seconds after the measured phase began.
  double at_s;
  double ms;
};

/// What one workload run measured.
struct Outcome {
  /// Measured requests and session bring-ups.
  std::uint64_t attempted = 0;
  /// Calls that returned an error status.
  std::uint64_t failed = 0;
  /// Answers that disagree with the oracle.
  std::uint64_t wrong = 0;
  std::vector<Sample> requests;
  /// One sample per session bring-up, taken during the measured phase.
  std::vector<Sample> setups;
  /// One run of the Calibration after every request.
  std::vector<Sample> calibrations;
  Layers layers;
};

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t mid = v.size() / 2;
  return v.size() % 2 == 1 ? v[mid] : (v[mid - 1] + v[mid]) / 2;
}

/// A fixed computation the driver runs on the measuring thread after every
/// request: it allocates and frees 8000 small strings, four times. It
/// shares no code with the solver, so no change to the solver changes its
/// cost, but it slows with the solver when other tenants load the machine:
/// on a shared 4-vCPU Xeon host, stretches of seconds to minutes slow the
/// solver by up to 1.8x. Of the loops tried (dependent multiplies,
/// independent arithmetic, pointer chasing, hashing, atomic increments, a
/// private free list, this one), allocation through the system allocator
/// follows that slowdown most closely: scaling by it cut the spread of the
/// per-second medians to between a third and a half.
class Calibration {
 public:
  double RunMs() {
    const auto t0 = Clock::now();
    for (int round = 0; round < 4; ++round) {
      strings_.clear();
      for (int i = 0; i < 8000; ++i) {
        strings_.push_back(
            std::make_unique<std::string>(static_cast<std::size_t>(40 + i % 7), 'x'));
      }
    }
    return MsSince(t0);
  }

 private:
  std::vector<std::unique_ptr<std::string>> strings_;
};

/// The Calibration's time on that host when nothing else loads it. End-to-end
/// figures are scaled to this speed, so they read as that host's
/// unloaded times.
constexpr double kCalibrationMs = 1.8;

/// The measured phase is cut into windows of kWindowSeconds. Every sample
/// is scaled by kCalibrationMs over the median Calibration time of its
/// window, which cancels most of a slowdown the neighbours impose on both
/// alike. The windows are then ranked by the median scaled latency of the
/// requests that completed in them, and both end-to-end figures are
/// medians over the scaled samples of the fastest kQuietShare of the
/// windows, the stretches the neighbours disturbed least. A regression
/// that slows every request still shows in full. Tail quantiles are left
/// out: they follow the neighbours more than the solver.
constexpr double kWindowSeconds = 1.0;
constexpr double kQuietShare = 0.25;

struct Summary {
  double request_ms = 0;
  double setup_ms = 0;
};

Summary Summarize(const Outcome& out, double seconds) {
  const std::size_t windows = std::max<std::size_t>(
      1, static_cast<std::size_t>(seconds / kWindowSeconds));
  auto window_of = [&](const Sample& s) {
    const double w = s.at_s / seconds * static_cast<double>(windows);
    return std::min(windows - 1, static_cast<std::size_t>(std::max(0.0, w)));
  };
  std::vector<std::vector<double>> requests(windows), setups(windows),
      calibrations(windows);
  for (const Sample& s : out.requests) requests[window_of(s)].push_back(s.ms);
  for (const Sample& s : out.setups) setups[window_of(s)].push_back(s.ms);
  for (const Sample& s : out.calibrations) calibrations[window_of(s)].push_back(s.ms);

  std::vector<std::pair<double, std::size_t>> ranked;
  for (std::size_t w = 0; w < windows; ++w) {
    if (requests[w].empty() || calibrations[w].empty()) continue;
    const double scale = kCalibrationMs / Median(calibrations[w]);
    for (double& ms : requests[w]) ms *= scale;
    for (double& ms : setups[w]) ms *= scale;
    ranked.push_back({Median(requests[w]), w});
  }
  std::sort(ranked.begin(), ranked.end());
  const std::size_t keep = static_cast<std::size_t>(
      std::ceil(static_cast<double>(ranked.size()) * kQuietShare));
  std::vector<double> request_ms, setup_ms;
  for (std::size_t i = 0; i < ranked.size(); ++i) {
    const std::size_t w = ranked[i].second;
    if (i < keep) {
      request_ms.insert(request_ms.end(), requests[w].begin(), requests[w].end());
    }
    // A run too short to complete a bring-up in the kept windows takes the
    // next fastest window that has one.
    if (i < keep || setup_ms.empty()) {
      setup_ms.insert(setup_ms.end(), setups[w].begin(), setups[w].end());
    }
  }
  return {Median(request_ms), Median(setup_ms)};
}

// --- Sessions and timed calls ---------------------------------------------

/// Brings up a solved session for `text`. A traced run parses, grounds and
/// solves in separate calls so each layer gets its own span; an untraced
/// run takes the one-call path a user would.
afp::StatusOr<afp::Solver> BuildSession(const std::string& text,
                                        Layers* layers) {
  if (layers == nullptr) {
    afp::StatusOr<afp::Solver> solver = afp::Solver::FromText(text);
    if (solver.ok()) solver->Solve();
    return solver;
  }
  const auto t0 = Clock::now();
  afp::StatusOr<afp::Program> program = afp::ParseProgram(text);
  const auto t1 = Clock::now();
  if (!program.ok()) return program.status();
  afp::StatusOr<afp::Solver> solver =
      afp::Solver::FromProgram(std::move(program).value());
  const auto t2 = Clock::now();
  if (!solver.ok()) return solver;
  solver->Solve();
  const auto t3 = Clock::now();
  layers->parse_ms.push_back(MsBetween(t0, t1));
  layers->ground_ms.push_back(MsBetween(t1, t2));
  layers->solve_ms.push_back(MsBetween(t2, t3));
  layers->ground_rules.push_back(static_cast<double>(solver->Stats().num_rules));
  layers->atoms.push_back(static_cast<double>(solver->Stats().num_atoms));
  return solver;
}

std::vector<afp::StatusOr<TruthValue>> Ask(
    afp::Solver& solver, const std::vector<std::string>& atoms,
    Layers* layers) {
  const auto t0 = Clock::now();
  std::vector<afp::StatusOr<TruthValue>> values = solver.QueryBatch(atoms);
  if (layers != nullptr) {
    layers->query_us.push_back(MsSince(t0) * 1e3 /
                               static_cast<double>(atoms.size()));
  }
  return values;
}

/// One fact update on a session; the repaired model is current on return.
afp::Status Update(afp::Solver& solver, const std::vector<std::string>& asserts,
                   const std::vector<std::string>& retracts, Layers* layers) {
  const auto t0 = Clock::now();
  afp::StatusOr<afp::UpdateStats> st = solver.UpdateFacts(asserts, retracts);
  if (layers != nullptr) layers->update_ms.push_back(MsSince(t0));
  return st.ok() ? afp::Status::Ok() : st.status();
}

/// Tallies answers against expected values into `out`.
void Check(const std::vector<afp::StatusOr<TruthValue>>& got,
           const std::vector<TruthValue>& want, Outcome& out) {
  if (got.size() != want.size()) {
    ++out.wrong;
    return;
  }
  for (std::size_t i = 0; i < got.size(); ++i) {
    if (!got[i].ok()) {
      ++out.failed;
    } else if (*got[i] != want[i]) {
      ++out.wrong;
    }
  }
}

// --- Graphs and their oracles ---------------------------------------------

struct Edge {
  int from;
  int to;
};

std::string Node(int i) { return "v" + std::to_string(i); }

/// Out-degrees of the generated graphs, assigned to nodes in shuffled
/// order: every graph of a workload has the same number of edges and the
/// same share of sinks, so the cost of one graph varies little from the
/// next.
constexpr int kOutDegrees[] = {0, 1, 2, 3, 4, 5, 6};

/// A random digraph over `n` nodes with out-degrees from kOutDegrees;
/// targets are distinct and never the source itself.
std::vector<Edge> RandomEdges(int n, Rng& rng) {
  std::vector<int> degree;
  for (int i = 0; i < n; ++i) {
    degree.push_back(kOutDegrees[static_cast<std::size_t>(i) % std::size(kOutDegrees)]);
  }
  rng.Shuffle(degree);
  std::vector<Edge> edges;
  std::vector<char> taken(static_cast<std::size_t>(n), 0);
  for (int u = 0; u < n; ++u) {
    std::vector<int> targets;
    while (static_cast<int>(targets.size()) < degree[static_cast<std::size_t>(u)]) {
      const int v = static_cast<int>(rng.Below(static_cast<std::size_t>(n)));
      if (v == u || taken[static_cast<std::size_t>(v)]) continue;
      taken[static_cast<std::size_t>(v)] = 1;
      targets.push_back(v);
    }
    for (int v : targets) {
      taken[static_cast<std::size_t>(v)] = 0;
      edges.push_back({u, v});
    }
  }
  return edges;
}

/// The well-founded model of `wins(X) :- e(X,Y), not wins(Y)` over the
/// edges with present[i] set, by retrograde analysis of the game: a node
/// with no move loses, a node with a move to a lost node wins, a node whose
/// every move reaches a won node loses, and every other node is a draw
/// (undefined).
std::vector<TruthValue> GameValues(int n, const std::vector<Edge>& edges,
                                   const std::vector<char>& present) {
  std::vector<std::vector<int>> preds(static_cast<std::size_t>(n));
  std::vector<int> open(static_cast<std::size_t>(n), 0);
  for (std::size_t i = 0; i < edges.size(); ++i) {
    if (!present[i]) continue;
    ++open[static_cast<std::size_t>(edges[i].from)];
    preds[static_cast<std::size_t>(edges[i].to)].push_back(edges[i].from);
  }
  std::vector<TruthValue> value(static_cast<std::size_t>(n),
                                TruthValue::kUndefined);
  std::vector<int> queue;
  for (int u = 0; u < n; ++u) {
    if (open[static_cast<std::size_t>(u)] == 0) {
      value[static_cast<std::size_t>(u)] = TruthValue::kFalse;
      queue.push_back(u);
    }
  }
  for (std::size_t head = 0; head < queue.size(); ++head) {
    const int v = queue[head];
    const bool v_loses = value[static_cast<std::size_t>(v)] == TruthValue::kFalse;
    for (int u : preds[static_cast<std::size_t>(v)]) {
      TruthValue& vu = value[static_cast<std::size_t>(u)];
      if (vu != TruthValue::kUndefined) continue;
      if (v_loses) {
        vu = TruthValue::kTrue;
        queue.push_back(u);
      } else if (--open[static_cast<std::size_t>(u)] == 0) {
        vu = TruthValue::kFalse;
        queue.push_back(u);
      }
    }
  }
  return value;
}

/// reach[x * n + y] == 1 iff y is reachable from x in one or more steps.
std::vector<char> Reachability(int n, const std::vector<Edge>& edges,
                               const std::vector<char>& present) {
  std::vector<std::vector<int>> succ(static_cast<std::size_t>(n));
  for (std::size_t i = 0; i < edges.size(); ++i) {
    if (present[i]) succ[static_cast<std::size_t>(edges[i].from)].push_back(edges[i].to);
  }
  std::vector<char> reach(static_cast<std::size_t>(n) * n, 0);
  std::vector<int> stack;
  for (int x = 0; x < n; ++x) {
    char* row = &reach[static_cast<std::size_t>(x) * n];
    stack.assign(succ[static_cast<std::size_t>(x)].begin(),
                 succ[static_cast<std::size_t>(x)].end());
    for (int y : stack) row[y] = 1;
    while (!stack.empty()) {
      const int y = stack.back();
      stack.pop_back();
      for (int z : succ[static_cast<std::size_t>(y)]) {
        if (!row[z]) {
          row[z] = 1;
          stack.push_back(z);
        }
      }
    }
  }
  return reach;
}

// --- oneshot: text in, answers out, one fresh session per request ---------
//
// Program: transitive closure, its complement and the win-move game over one
// random digraph of kOneshotNodes nodes. The closure join and the n^2
// complement stratum make grounding the dominant layer. A request does what
// one CLI run with --retract and --query does: build and solve a session
// from text, answer a query batch, retract one edge, and answer the batch
// again. The bring-up part of every request is also a set-up sample.

constexpr int kOneshotNodes = 72;
constexpr int kOneshotQueries = 32;
constexpr int kOneshotPrograms = 128;

struct OneshotCase {
  std::string text;
  std::string retract;
  std::vector<std::string> queries;
  std::vector<TruthValue> before, after;
  /// True and undefined atom counts after the retraction.
  std::size_t num_true = 0, num_undef = 0;
};

OneshotCase MakeOneshotCase(Rng& rng) {
  const int n = kOneshotNodes;
  const std::vector<Edge> edges = RandomEdges(n, rng);
  OneshotCase c;
  for (const Edge& e : edges) {
    c.text += "e(" + Node(e.from) + "," + Node(e.to) + ").\n";
  }
  for (int i = 0; i < n; ++i) c.text += "node(" + Node(i) + ").\n";
  c.text +=
      "tc(X,Y) :- e(X,Y).\n"
      "tc(X,Y) :- e(X,Z), tc(Z,Y).\n"
      "ntc(X,Y) :- node(X), node(Y), not tc(X,Y).\n"
      "wins(X) :- e(X,Y), not wins(Y).\n";
  const std::size_t cut_index = rng.Below(edges.size());
  const Edge cut = edges[cut_index];
  c.retract = "e(" + Node(cut.from) + "," + Node(cut.to) + ")";

  // Queries: pairs anchored at the cut edge's source (whose reachability
  // the retraction can change) plus random pairs and players.
  struct Query {
    int kind;  // 0 tc, 1 ntc, 2 wins
    int x, y;
  };
  std::vector<Query> qs;
  auto node = [&] { return static_cast<int>(rng.Below(static_cast<std::size_t>(n))); };
  for (int i = 0; i < kOneshotQueries; ++i) {
    const int kind = i % 4 == 3 ? 2 : i % 2;
    const int x = i < 8 ? cut.from : node();
    qs.push_back({kind, x, node()});
  }
  for (const Query& q : qs) {
    const char* pred = q.kind == 0 ? "tc(" : q.kind == 1 ? "ntc(" : "wins(";
    c.queries.push_back(std::string(pred) + Node(q.x) +
                        (q.kind == 2 ? "" : "," + Node(q.y)) + ")");
  }

  std::vector<char> present(edges.size(), 1);
  auto solve = [&](std::vector<TruthValue>& answers) {
    const std::vector<char> reach = Reachability(n, edges, present);
    const std::vector<TruthValue> game = GameValues(n, edges, present);
    for (const Query& q : qs) {
      const bool tc = reach[static_cast<std::size_t>(q.x) * n + q.y] != 0;
      switch (q.kind) {
        case 0: answers.push_back(tc ? TruthValue::kTrue : TruthValue::kFalse); break;
        case 1: answers.push_back(tc ? TruthValue::kFalse : TruthValue::kTrue); break;
        default: answers.push_back(game[static_cast<std::size_t>(q.x)]);
      }
    }
    // True atoms: the e and node facts, exactly one of tc(x,y) / ntc(x,y)
    // for every pair, and the won positions. Undefined: the drawn ones.
    c.num_true = static_cast<std::size_t>(
                   std::count(present.begin(), present.end(), 1)) +
               n + static_cast<std::size_t>(n) * n +
               static_cast<std::size_t>(
                   std::count(game.begin(), game.end(), TruthValue::kTrue));
    c.num_undef = static_cast<std::size_t>(
        std::count(game.begin(), game.end(), TruthValue::kUndefined));
  };
  solve(c.before);
  present[cut_index] = 0;
  solve(c.after);
  return c;
}

void CheckCounts(afp::Solver& solver, std::size_t num_true,
                 std::size_t num_undef, Outcome& out) {
  const afp::PartialModel& m = solver.model();
  const std::size_t universe = m.true_atoms().universe_size();
  if (m.num_true() != num_true ||
      universe - m.num_true() - m.num_false() != num_undef) {
    ++out.wrong;
  }
}

bool RunOneshot(std::uint64_t seed, double seconds, bool trace, Outcome& out) {
  Rng rng(seed ^ 0x6f6e6573686f74ull);
  std::vector<OneshotCase> cases;
  for (int i = 0; i < kOneshotPrograms; ++i) cases.push_back(MakeOneshotCase(rng));
  Layers* layers = trace ? &out.layers : nullptr;
  Calibration calibration;

  const auto start = Clock::now();
  for (std::size_t i = 0; MsSince(start) < seconds * 1e3; ++i) {
    const OneshotCase& c = cases[i % cases.size()];
    ++out.attempted;
    const auto t0 = Clock::now();
    afp::StatusOr<afp::Solver> s = BuildSession(c.text, layers);
    if (!s.ok()) {
      ++out.failed;
      continue;
    }
    const auto built = Clock::now();
    const auto before = Ask(*s, c.queries, layers);
    const afp::Status st = Update(*s, {}, {c.retract}, layers);
    const auto after = Ask(*s, c.queries, layers);
    const auto t1 = Clock::now();
    const double at_s = MsBetween(start, t1) / 1e3;
    out.requests.push_back({at_s, MsBetween(t0, t1)});
    out.setups.push_back({at_s, MsBetween(t0, built)});
    out.calibrations.push_back({at_s, calibration.RunMs()});
    if (!st.ok()) ++out.failed;
    Check(before, c.before, out);
    Check(after, c.after, out);
    CheckCounts(*s, c.num_true, c.num_undef, out);
  }
  return true;
}

// --- search: all stable models after each update ---------------------------
//
// Program: kClusters even negative cycles a_i / b_i (one free choice each),
// each with a negation chain c_i_0 .. c_i_{kChain-1} that every node of the
// branch tree re-derives; kPairs constraints x_j :- a_p, b_q, not x_j that
// rule out a_p together with b_q; and two constraints y_0 / y_1, switched by
// the ends of two chains s0 / s1, that rule out a_g0 and a_g1: y_0 is live
// while s0's end is true, y_1 while s1's end is false. A request toggles
// both chain heads together, so exactly one of y_0 / y_1 is live and the
// model set alternates between two different sets of
// 2^kClusters (3/4)^kPairs / 2 models. It enumerates every stable model of
// the repaired session and asks the well-founded value of the switched
// atoms. Every kSearchSetupEvery-th request is followed by one bring-up of
// a fresh session from text through its first enumeration: a set-up
// sample. The seed relabels the clusters; the shape of the program, and
// with it the branch tree, is the same for every seed.

constexpr int kClusters = 10;
constexpr int kChain = 10;
constexpr int kPairs = 3;
constexpr int kSearchSetupEvery = 4;

struct SearchProgram {
  std::string text;
  std::vector<int> pair_p, pair_q;  // x_j rules out a_{pair_p[j]} with b_{pair_q[j]}
  int guarded[2] = {0, 0};          // y_k rules out a_{guarded[k]}
  int chain[2] = {0, 0};            // s0, s1
};

std::string ChainAtom(int cluster, int j) {
  return "c_" + std::to_string(cluster) + "_" + std::to_string(j);
}

SearchProgram MakeSearchProgram(Rng& rng) {
  static_assert(2 * kPairs + 4 <= kClusters, "not enough clusters");
  SearchProgram p;
  std::vector<int> label(kClusters);
  for (int i = 0; i < kClusters; ++i) label[static_cast<std::size_t>(i)] = i;
  rng.Shuffle(label);
  auto role = [&](int i) { return label[static_cast<std::size_t>(i)]; };
  for (int j = 0; j < kPairs; ++j) {
    p.pair_p.push_back(role(2 * j));
    p.pair_q.push_back(role(2 * j + 1));
  }
  for (int k = 0; k < 2; ++k) {
    p.guarded[k] = role(2 * kPairs + k);
    p.chain[k] = role(2 * kPairs + 2 + k);
  }
  for (int i : label) {
    const std::string s = std::to_string(i);
    p.text += "a_" + s + " :- not b_" + s + ".\n";
    p.text += "b_" + s + " :- not a_" + s + ".\n";
    p.text += ChainAtom(i, 0) + ".\n";
    for (int j = 1; j < kChain; ++j) {
      p.text += ChainAtom(i, j) + " :- not " + ChainAtom(i, j - 1) + ".\n";
    }
  }
  for (int j = 0; j < kPairs; ++j) {
    const std::string x = "x_" + std::to_string(j);
    p.text += x + " :- a_" + std::to_string(p.pair_p[static_cast<std::size_t>(j)]) +
              ", b_" + std::to_string(p.pair_q[static_cast<std::size_t>(j)]) +
              ", not " + x + ".\n";
  }
  p.text += "y_0 :- a_" + std::to_string(p.guarded[0]) + ", " +
            ChainAtom(p.chain[0], kChain - 1) + ", not y_0.\n";
  p.text += "y_1 :- a_" + std::to_string(p.guarded[1]) + ", not " +
            ChainAtom(p.chain[1], kChain - 1) + ", not y_1.\n";
  return p;
}

/// The stable models as bit masks of their true a_i, ascending: every
/// choice assignment no constraint rules out, when the chain ends are
/// `chain_end`.
std::vector<std::uint32_t> ExpectedModels(const SearchProgram& p,
                                          bool chain_end) {
  std::vector<std::uint32_t> models;
  for (std::uint32_t m = 0; m < (1u << kClusters); ++m) {
    auto a = [m](int i) { return ((m >> i) & 1u) != 0; };
    bool ok = !a(p.guarded[chain_end ? 0 : 1]);
    for (int j = 0; j < kPairs && ok; ++j) {
      ok = !(a(p.pair_p[static_cast<std::size_t>(j)]) &&
             !a(p.pair_q[static_cast<std::size_t>(j)]));
    }
    if (ok) models.push_back(m);
  }
  return models;
}

/// A chain from a present head alternates true, false, ...; from a
/// retracted one, false, true, ...
bool ChainEnd(bool heads_present) {
  return heads_present == ((kChain - 1) % 2 == 0);
}

/// Atom ids the search workload reads models with.
struct SearchAtoms {
  std::vector<afp::AtomId> a, b, constraints;
  afp::AtomId ends[2] = {afp::kInvalidAtom, afp::kInvalidAtom};
};

bool ResolveSearchAtoms(const afp::Solver& s, const SearchProgram& p,
                        SearchAtoms& ids) {
  bool missing = false;
  auto resolve = [&](const std::string& atom) {
    afp::StatusOr<afp::AtomId> id = afp::ResolveAtom(s.ground(), atom);
    missing |= !id.ok() || *id == afp::kInvalidAtom;
    return id.ok() ? *id : afp::kInvalidAtom;
  };
  for (int i = 0; i < kClusters; ++i) {
    ids.a.push_back(resolve("a_" + std::to_string(i)));
    ids.b.push_back(resolve("b_" + std::to_string(i)));
  }
  for (int j = 0; j < kPairs; ++j) ids.constraints.push_back(resolve("x_" + std::to_string(j)));
  ids.constraints.push_back(resolve("y_0"));
  ids.constraints.push_back(resolve("y_1"));
  for (int k = 0; k < 2; ++k) ids.ends[k] = resolve(ChainAtom(p.chain[k], kChain - 1));
  return !missing;
}

/// Tallies into `out` every way `models` differs from `expected` with the
/// chain ends at `chain_end`.
void CheckModels(const std::vector<afp::Bitset>& models, const SearchAtoms& ids,
                 bool chain_end, const std::vector<std::uint32_t>& expected,
                 Outcome& out) {
  std::vector<std::uint32_t> got;
  for (const afp::Bitset& m : models) {
    std::uint32_t mask = 0;
    for (int i = 0; i < kClusters; ++i) {
      const bool a = m.Test(ids.a[static_cast<std::size_t>(i)]);
      if (m.Test(ids.b[static_cast<std::size_t>(i)]) == a) ++out.wrong;
      mask |= static_cast<std::uint32_t>(a) << i;
    }
    for (afp::AtomId c : ids.constraints) {
      if (m.Test(c)) ++out.wrong;
    }
    for (afp::AtomId e : ids.ends) {
      if (m.Test(e) != chain_end) ++out.wrong;
    }
    got.push_back(mask);
  }
  std::sort(got.begin(), got.end());
  if (got != expected) ++out.wrong;
}

bool RunSearch(std::uint64_t seed, double seconds, bool trace, Outcome& out) {
  Rng rng(seed ^ 0x736561726368ull);
  const SearchProgram p = MakeSearchProgram(rng);
  Layers* layers = trace ? &out.layers : nullptr;
  const std::vector<std::uint32_t> expected[2] = {ExpectedModels(p, false),
                                                  ExpectedModels(p, true)};

  // A bring-up runs from program text to the first full enumeration, with
  // both chain heads present.
  auto bring_up = [&]() -> std::optional<afp::Solver> {
    afp::StatusOr<afp::Solver> built = BuildSession(p.text, layers);
    if (!built.ok()) {
      std::fprintf(stderr, "search set-up: %s\n",
                   built.status().ToString().c_str());
      return std::nullopt;
    }
    const afp::StableResult first = built->StableModels();
    SearchAtoms ids;
    if (!ResolveSearchAtoms(*built, p, ids)) {
      std::fprintf(stderr, "search set-up: an atom is missing from the base\n");
      return std::nullopt;
    }
    const bool end = ChainEnd(true);
    CheckModels(first.models, ids, end, expected[end], out);
    return std::move(built).value();
  };

  std::optional<afp::Solver> s = bring_up();
  if (!s) return false;
  SearchAtoms ids;
  ResolveSearchAtoms(*s, p, ids);
  const std::vector<std::string> heads = {ChainAtom(p.chain[0], 0),
                                          ChainAtom(p.chain[1], 0)};
  const std::vector<std::string> queries = {
      ChainAtom(p.chain[0], kChain - 1), ChainAtom(p.chain[1], kChain - 1),
      "y_0", "y_1"};
  bool heads_present = true;
  Calibration calibration;
  const auto start = Clock::now();
  for (std::uint64_t i = 1; MsSince(start) < seconds * 1e3; ++i) {
    ++out.attempted;
    const auto t0 = Clock::now();
    const afp::Status st = heads_present ? Update(*s, {}, heads, layers)
                                         : Update(*s, heads, {}, layers);
    heads_present = !heads_present;
    const afp::StableResult result = s->StableModels();
    const auto answers = Ask(*s, queries, layers);
    const auto t1 = Clock::now();
    const double at_s = MsBetween(start, t1) / 1e3;
    out.requests.push_back({at_s, MsBetween(t0, t1)});
    out.calibrations.push_back({at_s, calibration.RunMs()});
    if (!st.ok()) {
      ++out.failed;
    } else {
      const bool end = ChainEnd(heads_present);
      const TruthValue end_value = end ? TruthValue::kTrue : TruthValue::kFalse;
      Check(answers,
            {end_value, end_value, end ? TruthValue::kUndefined : TruthValue::kFalse,
             end ? TruthValue::kFalse : TruthValue::kUndefined},
            out);
      CheckModels(result.models, ids, end, expected[end], out);
    }

    if (i % kSearchSetupEvery == 0) {
      ++out.attempted;
      const auto b0 = Clock::now();
      if (!bring_up()) {
        ++out.failed;
        continue;
      }
      const auto b1 = Clock::now();
      out.setups.push_back({MsBetween(start, b1) / 1e3, MsBetween(b0, b1)});
    }
  }
  return true;
}

// --- Command line and report ----------------------------------------------

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0;
  int trace = -1;
};

bool ParseArgs(int argc, char** argv, Args& args) {
  bool have_seed = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value, &end, 10);
      have_seed = end != value && *end == '\0' && value[0] != '-';
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value, &end);
      if (end == value || *end != '\0' || !(args.seconds > 0) ||
          args.seconds > 3600) {
        return false;
      }
    } else if (flag == "--trace") {
      if (std::strcmp(value, "0") == 0) args.trace = 0;
      else if (std::strcmp(value, "1") == 0) args.trace = 1;
      else return false;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && have_seed && args.seconds > 0 && args.trace >= 0 &&
         !args.workload.empty();
}

void PrintMetric(bool& first, const char* name, double value, const char* unit) {
  std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", first ? "" : ", ",
              name, value, unit);
  first = false;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: afp_perfbench --workload oneshot|search "
                 "--seed N --seconds S --trace 0|1\n");
    return 2;
  }
  Outcome out;
  bool ok = false;
  const bool trace = args.trace == 1;
  if (args.workload == "oneshot") {
    ok = RunOneshot(args.seed, args.seconds, trace, out);
  } else if (args.workload == "search") {
    ok = RunSearch(args.seed, args.seconds, trace, out);
  } else {
    std::fprintf(stderr, "unknown workload: %s\n", args.workload.c_str());
    return 2;
  }
  if (!ok) return 1;
  if (out.requests.empty() || out.setups.empty()) {
    std::fprintf(stderr, "no request or bring-up completed\n");
    return 1;
  }

  std::fprintf(stderr, "%s: %llu attempted, %llu failed, %llu wrong\n",
               args.workload.c_str(),
               static_cast<unsigned long long>(out.attempted),
               static_cast<unsigned long long>(out.failed),
               static_cast<unsigned long long>(out.wrong));
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
              out.wrong == 0 ? "true" : "false",
              static_cast<unsigned long long>(out.attempted),
              static_cast<unsigned long long>(out.failed));
  bool first = true;
  if (!trace) {
    const Summary sum = Summarize(out, args.seconds);
    PrintMetric(first, "op_p50_ms", sum.request_ms, "ms");
    PrintMetric(first, "setup_s", sum.setup_ms / 1e3, "s");
  } else {
    const Layers& l = out.layers;
    PrintMetric(first, "parse_ms", Median(l.parse_ms), "ms");
    PrintMetric(first, "ground_ms", Median(l.ground_ms), "ms");
    PrintMetric(first, "solve_ms", Median(l.solve_ms), "ms");
    PrintMetric(first, "update_ms", Median(l.update_ms), "ms");
    PrintMetric(first, "query_us", Median(l.query_us), "us");
    PrintMetric(first, "ground_rules", Median(l.ground_rules), "count");
    PrintMetric(first, "atoms", Median(l.atoms), "count");
  }
  std::printf("}}\n");
  return 0;
}
