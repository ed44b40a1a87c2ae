// Win-move game solver (paper, Example 5.2). The well-founded semantics
// gives the game-theoretic value of every position of the "move" game:
// true = won, false = lost, undefined = drawn (neither player can force a
// win; the paper's partial models are exactly the drawn positions).
//
// Usage: win_move [n m seed]   — random Erdős–Rényi game graph
//        win_move --paper      — the three Figure 4 graphs

#include <cstdlib>
#include <iostream>
#include <string>
#include <vector>

#include "afp/afp.h"
#include "workload/graphs.h"
#include "workload/programs.h"

namespace {

void Solve(const char* title, const afp::Digraph& graph) {
  afp::Program program = afp::workload::WinMove(graph);
  auto solver = afp::Solver::FromProgram(std::move(program));
  if (!solver.ok()) {
    std::cerr << "error: " << solver.status().ToString() << "\n";
    std::exit(1);
  }
  solver->Solve();

  std::cout << "=== " << title << " (" << graph.n << " nodes, "
            << graph.edges.size() << " edges) ===\n";
  // One relevance-capable batch instead of n point lookups.
  std::vector<std::string> atoms;
  for (int i = 0; i < graph.n; ++i) {
    atoms.push_back("wins(" + afp::workload::NodeName(i) + ")");
  }
  std::size_t won = 0, lost = 0, drawn = 0;
  for (auto& v : solver->QueryBatch(atoms)) {
    if (!v.ok()) continue;
    switch (*v) {
      case afp::TruthValue::kTrue:
        ++won;
        break;
      case afp::TruthValue::kFalse:
        ++lost;
        break;
      case afp::TruthValue::kUndefined:
        ++drawn;
        break;
    }
  }
  std::cout << "won: " << won << "  lost: " << lost << "  drawn: " << drawn
            << "  (components: " << solver->Stats().num_components << ")\n";
  if (graph.n <= 12) std::cout << solver->ModelText() << "\n";
}

}  // namespace

int main(int argc, char** argv) {
  if (argc > 1 && std::string(argv[1]) == "--paper") {
    Solve("Figure 4(a): acyclic, total model", afp::graphs::Figure4a());
    Solve("Figure 4(b): cyclic, partial model (draws)",
          afp::graphs::Figure4b());
    Solve("Figure 4(c): cyclic, total model", afp::graphs::Figure4c());
    return 0;
  }
  int n = argc > 1 ? std::atoi(argv[1]) : 200;
  int m = argc > 2 ? std::atoi(argv[2]) : 400;
  std::uint64_t seed = argc > 3 ? std::strtoull(argv[3], nullptr, 10) : 1;
  Solve("random game graph", afp::graphs::ErdosRenyi(n, m, seed));
  return 0;
}
