// Justification tests: non-circular proofs for true atoms, witnesses of
// unusability (Definition 6.1) for false atoms, and constraint syntax.

#include "core/explain.h"

#include <gtest/gtest.h>

#include "core/alternating.h"
#include "ground/grounder.h"
#include "search/stable_search.h"
#include "workload/graphs.h"
#include "workload/programs.h"

namespace afp {
namespace {

struct Solved {
  Program program;
  GroundProgram ground;
  PartialModel model;
};

Solved* Solve(const char* text, GroundMode mode = GroundMode::kSmart) {
  auto parsed = ParseProgram(text);
  EXPECT_TRUE(parsed.ok()) << parsed.status().ToString();
  auto* s = new Solved{std::move(parsed).value(), GroundProgram(nullptr),
                       PartialModel()};
  GroundOptions opts;
  opts.mode = mode;
  auto ground = Grounder::Ground(s->program, opts);
  EXPECT_TRUE(ground.ok()) << ground.status().ToString();
  s->ground = std::move(ground).value();
  s->model = AlternatingFixpoint(s->ground).model;
  return s;
}

TEST(Explain, TrueAtomGetsNonCircularProof) {
  std::unique_ptr<Solved> s(Solve(R"(
    move(a,b). move(b,a). move(b,c).
    wins(X) :- move(X,Y), not wins(Y).
  )"));
  auto j = Explain(s->ground, s->model, "wins(b)");
  ASSERT_TRUE(j.ok()) << j.status().ToString();
  EXPECT_EQ(j->value, TruthValue::kTrue);
  ASSERT_EQ(j->notes.size(), 1u);
  // Both rules for wins(b) are legitimate proofs here (wins(a) and wins(c)
  // are both lost); the justification must cite one of them, with the
  // negative premise reported false.
  bool via_a = j->notes[0].rule_text.find("wins(a)") != std::string::npos;
  bool via_c = j->notes[0].rule_text.find("wins(c)") != std::string::npos;
  EXPECT_TRUE(via_a || via_c) << j->notes[0].rule_text;
  EXPECT_NE(j->notes[0].note.find("is false"), std::string::npos);
}

TEST(Explain, FactExplainsItself) {
  std::unique_ptr<Solved> s(Solve("e(1,2). p :- e(1,2)."));
  auto j = Explain(s->ground, s->model, "e(1,2)");
  ASSERT_TRUE(j.ok());
  EXPECT_EQ(j->value, TruthValue::kTrue);
  ASSERT_EQ(j->notes.size(), 1u);
  EXPECT_NE(j->notes[0].note.find("fact"), std::string::npos);
}

TEST(Explain, FalseAtomListsWitnesses) {
  std::unique_ptr<Solved> s(Solve(R"(
    p :- q, not r.
    r.
    q.
  )", GroundMode::kFull));
  auto j = Explain(s->ground, s->model, "p");
  ASSERT_TRUE(j.ok());
  EXPECT_EQ(j->value, TruthValue::kFalse);
  ASSERT_EQ(j->notes.size(), 1u);
  EXPECT_NE(j->notes[0].note.find("not r"), std::string::npos)
      << j->notes[0].note;
}

TEST(Explain, UnfoundedLoopWitness) {
  // p and q support each other positively: both unfounded; the witness for
  // each rule is the positive literal in the same unfounded set.
  std::unique_ptr<Solved> s(Solve("p :- q. q :- p.", GroundMode::kFull));
  auto j = Explain(s->ground, s->model, "p");
  ASSERT_TRUE(j.ok());
  EXPECT_EQ(j->value, TruthValue::kFalse);
  ASSERT_EQ(j->notes.size(), 1u);
  EXPECT_NE(j->notes[0].note.find("unfounded"), std::string::npos);
}

TEST(Explain, UndefinedAtomShowsUndefinedBodies) {
  std::unique_ptr<Solved> s(Solve("p :- not q. q :- not p."));
  auto j = Explain(s->ground, s->model, "p");
  ASSERT_TRUE(j.ok());
  EXPECT_EQ(j->value, TruthValue::kUndefined);
  ASSERT_EQ(j->notes.size(), 1u);
  EXPECT_NE(j->notes[0].note.find("undef"), std::string::npos);
}

TEST(Explain, UnmaterializedAtom) {
  std::unique_ptr<Solved> s(Solve("p."));
  auto j = Explain(s->ground, s->model, "ghost(x)");
  ASSERT_TRUE(j.ok());
  EXPECT_EQ(j->value, TruthValue::kFalse);
  EXPECT_TRUE(j->notes.empty());
  EXPECT_NE(j->ToString().find("no rule instance"), std::string::npos);
}

TEST(Explain, TreeRendersChain) {
  std::unique_ptr<Solved> s(Solve(R"(
    base.
    mid :- base.
    top :- mid, not blocker.
  )", GroundMode::kFull));
  auto tree = ExplainTree(s->ground, s->model, "top");
  ASSERT_TRUE(tree.ok()) << tree.status().ToString();
  // The proof tree mentions the whole chain.
  EXPECT_NE(tree->find("top is true"), std::string::npos);
  EXPECT_NE(tree->find("mid is true"), std::string::npos);
  EXPECT_NE(tree->find("base is true"), std::string::npos);
  EXPECT_NE(tree->find("blocker is false"), std::string::npos);
}

TEST(Explain, EveryDecidedAtomIsExplainable) {
  for (std::uint64_t seed = 0; seed < 10; ++seed) {
    Program p = workload::RandomPropositional(15, 30, 2, 40, seed);
    GroundOptions opts;
    opts.mode = GroundMode::kFull;
    auto ground = Grounder::Ground(p, opts);
    ASSERT_TRUE(ground.ok());
    GroundProgram gp = std::move(ground).value();
    PartialModel model = AlternatingFixpoint(gp).model;
    for (AtomId a = 0; a < gp.num_atoms(); ++a) {
      auto j = Explain(gp, model, gp.AtomName(a));
      ASSERT_TRUE(j.ok()) << gp.AtomName(a) << " seed " << seed << ": "
                          << j.status().ToString();
      EXPECT_EQ(j->value, model.Value(a));
    }
  }
}

// --- integrity constraints (":- body.") ---

TEST(Constraints, EliminateStableModels) {
  // Two choices, one forbidden combination.
  auto parsed = ParseProgram(R"(
    a :- not b.  b :- not a.
    c :- not d.  d :- not c.
    :- a, c.
  )");
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  Program p = std::move(parsed).value();
  auto ground = Grounder::Ground(p);
  ASSERT_TRUE(ground.ok());
  StableSearch search(*ground);
  // 4 combinations minus {a,c}.
  EXPECT_EQ(search.Count().search.models, 3u);
}

TEST(Constraints, UnviolatedConstraintIsHarmless) {
  auto parsed = ParseProgram("p. :- q.");
  ASSERT_TRUE(parsed.ok());
  Program p = std::move(parsed).value();
  auto ground = Grounder::Ground(p);
  ASSERT_TRUE(ground.ok());
  StableSearch search(*ground);
  ASSERT_EQ(search.Enumerate().models.size(), 1u);
  AfpResult wfs = AlternatingFixpoint(*ground);
  EXPECT_EQ(*QueryAtom(*ground, wfs.model, "p"), TruthValue::kTrue);
}

TEST(Constraints, DefinitelyViolatedKillsAllModels) {
  auto parsed = ParseProgram("p. :- p.");
  ASSERT_TRUE(parsed.ok());
  Program p = std::move(parsed).value();
  auto ground = Grounder::Ground(p);
  ASSERT_TRUE(ground.ok());
  StableSearch search(*ground);
  EXPECT_EQ(search.Count().search.models, 0u);
}

TEST(Constraints, VariablesAllowedWhenSafe) {
  auto parsed = ParseProgram(R"(
    e(a,b). e(b,a).
    col(X,r) :- e(X,Y), not col(X,g).
    col(X,g) :- e(X,Y), not col(X,r).
    :- e(X,Y), col(X,C), col(Y,C).
  )");
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
}

TEST(Constraints, UnsafeConstraintRejected) {
  auto parsed = ParseProgram(":- not q(X).");
  EXPECT_FALSE(parsed.ok());
}

}  // namespace
}  // namespace afp
