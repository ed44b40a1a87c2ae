// E6 — §2.4's complexity contrast: the well-founded model is polynomial
// (Van Gelder–Ross–Schlipf), while stable-model existence is NP-complete
// (Elkan; Marek–Truszczyński) and the backtracking fixpoint construction
// "may be unpleasant". Workload: k independent even negative cycles, which
// have 2^k stable models and an all-undefined well-founded model.

#include <chrono>
#include <functional>
#include <iostream>
#include <string>

#include "core/alternating.h"
#include "ground/grounder.h"
#include "search/stable_search.h"
#include "util/table_printer.h"
#include "workload/graphs.h"
#include "workload/programs.h"

namespace {

using Clock = std::chrono::steady_clock;

double MsOf(const std::function<void()>& fn) {
  auto t0 = Clock::now();
  fn();
  return std::chrono::duration<double, std::milli>(Clock::now() - t0)
      .count();
}

}  // namespace

int main() {
  std::cout << "== WFS in P vs stable-model enumeration (2^k models) ==\n"
            << "workload: a_i :- not b_i.  b_i :- not a_i.  (i = 1..k)\n\n";

  afp::TablePrinter table({"k", "stable models", "WFS ms", "enumerate ms",
                           "search nodes", "count-only(1) ms"});
  for (int k : {2, 4, 6, 8, 10, 12, 14}) {
    afp::Program p = afp::workload::EvenNegativeCycles(k);
    auto ground = afp::Grounder::Ground(p);
    if (!ground.ok()) {
      std::cerr << ground.status().ToString() << "\n";
      return 1;
    }

    double wfs_ms = MsOf([&] { afp::AlternatingFixpoint(*ground); });

    afp::StableSearch search(*ground);
    afp::StableSearchStats all;
    double enum_ms = MsOf([&] { all = search.Count().search; });

    afp::StableSearchControl first_only;
    first_only.max_models = 1;
    afp::StableSearch first(*ground);
    double first_ms = MsOf([&] { first.Count(first_only); });

    table.AddRow({std::to_string(k), std::to_string(all.models),
                  std::to_string(wfs_ms), std::to_string(enum_ms),
                  std::to_string(all.nodes), std::to_string(first_ms)});
  }
  table.Print(std::cout);
  std::cout << "\nexpected shape: 'stable models' and 'search nodes' double "
               "with k (exponential);\nthe WFS column grows linearly in "
               "program size. This is the paper's point that the\n"
               "well-founded model trades multiplicity for tractability.\n";

  // Saccà–Zaniolo-flavor ablation: positive-closure-only propagation vs
  // full WFS propagation at every node, on win-move chains where WFS
  // propagation needs no branching at all.
  std::cout << "\n== pruning power of WFS propagation in the backtracking "
               "fixpoint ==\n";
  afp::TablePrinter prune({"chain n", "nodes (WFS prop)",
                           "nodes (positive-closure prop)"});
  for (int n : {6, 8, 10, 12, 14}) {
    afp::Program p = afp::workload::WinMove(afp::graphs::Chain(n));
    auto ground = afp::Grounder::Ground(p);
    if (!ground.ok()) return 1;
    afp::StableSearch wfs_search(*ground);
    afp::StableSearchOptions naive_opts;
    naive_opts.wfs_propagation = false;
    afp::StableSearch naive_search(*ground, naive_opts);
    prune.AddRow({std::to_string(n),
                  std::to_string(wfs_search.Count().search.nodes),
                  std::to_string(naive_search.Count().search.nodes)});
  }
  prune.Print(std::cout);
  std::cout << "\nexpected shape: WFS propagation decides chains without "
               "branching (1 node);\nthe weaker propagation branches "
               "exponentially often — the 'unpleasant' running\ntime of the "
               "raw backtracking fixpoint (§2.4).\n";
  return 0;
}
