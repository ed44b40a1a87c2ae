// E9 — grounder ablation: smart (derivability-driven) vs full active-domain
// instantiation.

#include <chrono>
#include <functional>
#include <iostream>
#include <string>

#include "ground/grounder.h"
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
  std::cout << "== grounding: smart vs full instantiation ==\n"
            << "workload: win-move on sparse G(n, 2n)\n\n";
  afp::TablePrinter table({"n", "smart rules", "smart ms", "full rules",
                           "full ms"});
  for (int n : {16, 32, 64}) {
    std::size_t smart_rules = 0, full_rules = 0;
    double smart_ms = 0, full_ms = 0;
    {
      afp::Program p =
          afp::workload::WinMove(afp::graphs::ErdosRenyi(n, 2 * n, 23));
      smart_ms = MsOf([&] {
        auto g = afp::Grounder::Ground(p);
        smart_rules = g.ok() ? g->num_rules() : 0;
      });
    }
    {
      afp::Program p =
          afp::workload::WinMove(afp::graphs::ErdosRenyi(n, 2 * n, 23));
      afp::GroundOptions opts;
      opts.mode = afp::GroundMode::kFull;
      full_ms = MsOf([&] {
        auto g = afp::Grounder::Ground(p, opts);
        full_rules = g.ok() ? g->num_rules() : 0;
      });
    }
    table.AddRow({std::to_string(n), std::to_string(smart_rules),
                  std::to_string(smart_ms), std::to_string(full_rules),
                  std::to_string(full_ms)});
  }
  table.Print(std::cout);
  std::cout << "\nexpected shape: full instantiation materializes O(n^2) "
               "move atoms and O(n^2)\nrule instances; smart grounding "
               "stays proportional to the edges actually present.\n";
  return 0;
}
