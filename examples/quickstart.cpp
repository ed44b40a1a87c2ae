// Quickstart: open an afp::Solver session over a normal logic program,
// compute its well-founded model, query it — then update the program in
// place and watch the incremental re-solve repair the model.
//
// Usage: quickstart [file.lp]     (reads a built-in program if no file)

#include <fstream>
#include <iostream>
#include <sstream>
#include <string>

#include "afp/afp.h"

namespace {

constexpr char kDefaultProgram[] = R"(
  % The win-move game (paper, Example 5.2): a position is won if some move
  % leads to a position the opponent cannot win.
  move(a,b). move(b,a). move(b,c).
  wins(X) :- move(X,Y), not wins(Y).
)";

}  // namespace

int main(int argc, char** argv) {
  std::string text = kDefaultProgram;
  if (argc > 1) {
    std::ifstream in(argv[1]);
    if (!in) {
      std::cerr << "cannot open " << argv[1] << "\n";
      return 1;
    }
    std::ostringstream ss;
    ss << in.rdbuf();
    text = ss.str();
  }

  // One session: parse + ground at construction, solve on demand.
  auto solver = afp::Solver::FromText(text);
  if (!solver.ok()) {
    std::cerr << "error: " << solver.status().ToString() << "\n";
    return 1;
  }
  solver->Solve();

  std::cout << "ground atoms:  " << solver->ground().num_atoms() << "\n"
            << "ground rules:  " << solver->ground().num_rules() << "\n"
            << "components:    " << solver->Stats().num_components << "\n\n"
            << "well-founded partial model (IDB):\n"
            << solver->ModelText() << "\n";

  // Point queries answer straight off the cached model.
  for (const char* atom : {"wins(a)", "wins(b)", "wins(c)"}) {
    auto v = solver->Query(atom);
    if (v.ok()) {
      std::cout << atom << " = " << afp::TruthValueName(*v) << "\n";
    }
  }

  // The session is updatable: retract a move and the solver repairs the
  // model incrementally — only components downstream of the touched fact
  // are candidates for re-solving.
  auto update = solver->RetractFact("move(b,c)");
  if (update.ok()) {
    std::cout << "\nafter retract move(b,c) (re-solved "
              << update->components_resolved << " of "
              << (update->components_resolved + update->components_skipped +
                  update->components_reused)
              << " components):\n";
    for (const char* atom : {"wins(a)", "wins(b)", "wins(c)"}) {
      auto v = solver->Query(atom);
      if (v.ok()) {
        std::cout << atom << " = " << afp::TruthValueName(*v) << "\n";
      }
    }
  }
  return 0;
}
