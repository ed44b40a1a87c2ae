// Abstract argumentation under the grounded semantics.
//
// Dung's grounded extension of an argumentation framework is exactly the
// well-founded model of the standard encoding
//
//   defeated(X)   :- att(Y,X), accepted(Y).
//   not_defended(X) :- att(Y,X), not defeated(Y).
//   accepted(X)   :- arg(X), not not_defended(X).
//
// accepted = IN of the grounded labelling, defeated-true = OUT, and the
// UNDEFINED arguments are the ones grounded semantics leaves open (e.g.
// mutual attacks) — a direct application of the paper's partial models.

#include <iostream>
#include <string>
#include <vector>

#include "afp/afp.h"

namespace {

struct Framework {
  std::vector<std::string> args;
  std::vector<std::pair<std::string, std::string>> attacks;
};

void Analyze(const char* title, const Framework& fw) {
  afp::Program p;
  for (const auto& a : fw.args) p.AddFact("arg", {a});
  for (const auto& [from, to] : fw.attacks) p.AddFact("att", {from, to});
  afp::TermId x = p.Var("X"), y = p.Var("Y");
  p.AddRule(p.MakeAtom("defeated", {x}),
            {afp::Program::Pos(p.MakeAtom("att", {y, x})),
             afp::Program::Pos(p.MakeAtom("accepted", {y}))});
  p.AddRule(p.MakeAtom("not_defended", {x}),
            {afp::Program::Pos(p.MakeAtom("att", {y, x})),
             afp::Program::Neg(p.MakeAtom("defeated", {y}))});
  p.AddRule(p.MakeAtom("accepted", {x}),
            {afp::Program::Pos(p.MakeAtom("arg", {x})),
             afp::Program::Neg(p.MakeAtom("not_defended", {x}))});

  auto solver = afp::Solver::FromProgram(std::move(p));
  if (!solver.ok()) {
    std::cerr << solver.status().ToString() << "\n";
    return;
  }
  std::cout << "=== " << title << " ===\n";
  afp::TablePrinter table({"argument", "grounded status"});
  // Deliberately no Solve(): a point query on an unsolved session solves
  // only the queried atom's upstream cone — the components the argument
  // depends on — on the session's own dependency analysis.
  for (const auto& a : fw.args) {
    auto accepted = solver->Query("accepted(" + a + ")");
    auto defeated = solver->Query("defeated(" + a + ")");
    std::string status = "undecided";
    if (accepted.ok() && *accepted == afp::TruthValue::kTrue) {
      status = "IN (accepted)";
    } else if (defeated.ok() && *defeated == afp::TruthValue::kTrue) {
      status = "OUT (defeated)";
    }
    table.AddRow({a, status});
  }
  table.Print(std::cout);
  std::cout << "\n";
}

}  // namespace

int main() {
  // 1. A reinstatement chain: a attacks b, b attacks c. Grounded: a IN,
  //    b OUT, c IN (a defends c).
  Analyze("reinstatement chain a->b->c",
          {{"a", "b", "c"}, {{"a", "b"}, {"b", "c"}}});

  // 2. Mutual attack: a <-> b. Grounded semantics stays agnostic: both
  //    undecided (the well-founded 'undefined'), like the drawn positions
  //    of the win-move game.
  Analyze("mutual attack a<->b", {{"a", "b"}, {{"a", "b"}, {"b", "a"}}});

  // 3. A mixed framework: the mutual pair a/b both attack c, c attacks d,
  //    and e (unattacked) attacks a.
  Analyze("mixed framework",
          {{"a", "b", "c", "d", "e"},
           {{"a", "b"},
            {"b", "a"},
            {"a", "c"},
            {"b", "c"},
            {"c", "d"},
            {"e", "a"}}});
  std::cout
      << "(argument e is unattacked, so it is IN; it defeats a, which\n"
         " reinstates b; c loses both attackers' protection... each value\n"
         " is read off the well-founded model computed by the alternating\n"
         " fixpoint.)\n";
  return 0;
}
