// E5 — §5's complexity claim: "for finite H, the least fixpoint of A_P is
// computable in time polynomial in the size of H (program fixed)". We scale
// win-move on random graphs, time the alternating fixpoint, and fit the
// growth exponent between successive sizes. The fitted exponents should
// stay small-constant (the worst case is quadratic in ground-program size).

#include <algorithm>
#include <chrono>
#include <cmath>
#include <functional>
#include <iostream>
#include <string>

#include "core/alternating.h"
#include "ground/grounder.h"
#include "util/table_printer.h"
#include "workload/graphs.h"
#include "workload/programs.h"

namespace {

using Clock = std::chrono::steady_clock;

double TimeMs(const std::function<void()>& fn, int reps = 3) {
  double best = 1e100;
  for (int i = 0; i < reps; ++i) {
    auto t0 = Clock::now();
    fn();
    best = std::min(
        best,
        std::chrono::duration<double, std::milli>(Clock::now() - t0)
            .count());
  }
  return best;
}

}  // namespace

int main() {
  std::cout << "== §5: A_P least fixpoint is polynomial in |H| ==\n"
            << "workload: wins(X) :- move(X,Y), not wins(Y) on G(n, 4n)\n\n";

  afp::TablePrinter table({"n", "|H| atoms", "ground size", "A_P rounds",
                           "AFP ms", "AFP exp"});
  double prev_afp = 0;
  std::size_t prev_h = 0;
  for (int n : {64, 128, 256, 512, 1024, 2048}) {
    afp::Program p =
        afp::workload::WinMove(afp::graphs::ErdosRenyi(n, 4 * n, 11));
    auto ground = afp::Grounder::Ground(p);
    if (!ground.ok()) {
      std::cerr << ground.status().ToString() << "\n";
      return 1;
    }
    afp::AfpResult last;
    double afp_ms = TimeMs([&] { last = afp::AlternatingFixpoint(*ground); });

    std::string afp_exp = "-";
    std::size_t h = ground->num_atoms();
    if (prev_h != 0) {
      double ratio = std::log(static_cast<double>(h) / prev_h);
      afp_exp = std::to_string(std::log(afp_ms / prev_afp) / ratio);
    }
    table.AddRow({std::to_string(n), std::to_string(h),
                  std::to_string(ground->TotalSize()),
                  std::to_string(last.outer_iterations),
                  std::to_string(afp_ms), afp_exp});
    prev_afp = afp_ms;
    prev_h = h;
  }
  table.Print(std::cout);
  std::cout << "\nexpected shape: fitted exponents bounded by a small "
               "constant (poly(|H|)).\n";

  // Deep-alternation worst case: the chain takes Θ(n) A_P rounds of Θ(n)
  // work each — the quadratic upper bound the paper's polynomial claim
  // allows.
  std::cout << "\n== deep alternation (chain graphs) ==\n";
  afp::TablePrinter chain_table({"n", "A_P rounds", "AFP ms"});
  for (int n : {256, 512, 1024, 2048}) {
    afp::Program p = afp::workload::WinMove(afp::graphs::Chain(n));
    auto ground = afp::Grounder::Ground(p);
    if (!ground.ok()) return 1;
    afp::AfpResult last;
    double afp_ms = TimeMs([&] { last = afp::AlternatingFixpoint(*ground); });
    chain_table.AddRow({std::to_string(n),
                        std::to_string(last.outer_iterations),
                        std::to_string(afp_ms)});
  }
  chain_table.Print(std::cout);
  return 0;
}
