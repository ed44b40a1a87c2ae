// Horn solver (S_P, Definition 4.2) tests: agreement of the counting
// propagation with the naive T_P iteration of tests/reference/, treatment
// of negative literals as EDB-like facts, closure behavior.

#include "core/horn_solver.h"

#include <gtest/gtest.h>

#include "core/interpretation.h"
#include "ground/grounder.h"
#include "reference/reference.h"
#include "workload/programs.h"

namespace afp {
namespace {

GroundProgram MustGround(Program& p, bool simplify = false) {
  GroundOptions opts;
  opts.mode = GroundMode::kFull;
  opts.simplify = simplify;
  auto g = Grounder::Ground(p, opts);
  EXPECT_TRUE(g.ok()) << g.status().ToString();
  return std::move(g).value();
}

Bitset NamedSet(const GroundProgram& gp,
                const std::vector<std::string>& names) {
  Bitset out(gp.num_atoms());
  for (AtomId a = 0; a < gp.num_atoms(); ++a) {
    for (const auto& n : names) {
      if (gp.AtomName(a) == n) out.Set(a);
    }
  }
  return out;
}

TEST(HornSolver, FactsAlwaysDerived) {
  auto parsed = ParseProgram("a. b :- a. c :- b, not d.");
  ASSERT_TRUE(parsed.ok());
  Program p = std::move(parsed).value();
  GroundProgram gp = MustGround(p);
  HornSolver solver(gp.View());

  Bitset none(gp.num_atoms());
  Bitset derived = solver.EventualConsequences(none);
  EXPECT_EQ(AtomSetToString(gp, derived, true), "{a, b}");  // c blocked on ¬d

  Bitset all_false(gp.num_atoms());
  all_false.SetAll();
  derived = solver.EventualConsequences(all_false);
  EXPECT_EQ(AtomSetToString(gp, derived, true), "{a, b, c}");
}

TEST(HornSolver, NegativeLiteralsActLikeEdb) {
  // S_P treats Ĩ as extra EDB facts (Fig. 3): with ¬q assumed, p follows.
  auto parsed = ParseProgram("p :- not q. q :- not p.");
  ASSERT_TRUE(parsed.ok());
  Program p = std::move(parsed).value();
  GroundProgram gp = MustGround(p);
  HornSolver solver(gp.View());

  Bitset assume_q_false = NamedSet(gp, {"q"});
  Bitset derived = solver.EventualConsequences(assume_q_false);
  EXPECT_EQ(AtomSetToString(gp, derived, true), "{p}");
}

TEST(HornSolver, PositiveChainClosure) {
  // p0 <- p1 <- ... <- p9, p9 a fact: everything derived, one pass.
  Program p;
  p.AddFact("p9", {});
  for (int i = 0; i < 9; ++i) {
    p.AddRule(p.MakeAtom(std::string("p").append(std::to_string(i))),
              {Program::Pos(p.MakeAtom(
                  std::string("p").append(std::to_string(i + 1))))});
  }
  GroundProgram gp = MustGround(p);
  HornSolver solver(gp.View());
  Bitset derived = solver.EventualConsequences(Bitset(gp.num_atoms()));
  EXPECT_EQ(derived.Count(), 10u);
}

TEST(HornSolver, PositiveCycleNotSelfSupporting) {
  // p :- q. q :- p. Nothing derivable: least fixpoint, not arbitrary model.
  auto parsed = ParseProgram("p :- q. q :- p.");
  ASSERT_TRUE(parsed.ok());
  Program p = std::move(parsed).value();
  GroundProgram gp = MustGround(p);
  HornSolver solver(gp.View());
  Bitset all_false(gp.num_atoms());
  all_false.SetAll();
  EXPECT_TRUE(solver.EventualConsequences(all_false).None());
}

TEST(HornSolver, DuplicateBodyLiteralsCountedCorrectly) {
  auto parsed = ParseProgram("q. p :- q, q, q.");
  ASSERT_TRUE(parsed.ok());
  Program p = std::move(parsed).value();
  GroundProgram gp = MustGround(p);
  HornSolver solver(gp.View());
  Bitset derived = solver.EventualConsequences(Bitset(gp.num_atoms()));
  EXPECT_EQ(derived.Count(), 2u);
}

TEST(HornSolver, CountingEqualsNaiveOnRandomPrograms) {
  for (std::uint64_t seed = 0; seed < 20; ++seed) {
    Program p = workload::RandomPropositional(
        /*num_atoms=*/30, /*num_rules=*/60, /*body_len=*/3,
        /*neg_prob_percent=*/40, seed);
    GroundProgram gp = MustGround(p);
    HornSolver solver(gp.View());
    // Try several assumed-false sets derived from the seed.
    for (int trial = 0; trial < 4; ++trial) {
      Bitset af(gp.num_atoms());
      for (std::size_t a = 0; a < gp.num_atoms(); ++a) {
        if (((a + seed) * 2654435761u >> trial) & 1) af.Set(a);
      }
      EXPECT_EQ(solver.EventualConsequences(af),
                reference::NaiveEventualConsequences(gp.View(), af))
          << "seed " << seed << " trial " << trial;
    }
  }
}

TEST(HornSolver, MonotoneInAssumedFalseSet) {
  // S_P is monotonic (paper §4): more negative assumptions derive more.
  Program p = workload::Example51();
  GroundProgram gp = MustGround(p);
  HornSolver solver(gp.View());
  Bitset smaller(gp.num_atoms());
  Bitset prev = solver.EventualConsequences(smaller);
  for (std::size_t a = 0; a < gp.num_atoms(); ++a) {
    smaller.Set(a);
    Bitset next = solver.EventualConsequences(smaller);
    EXPECT_TRUE(prev.IsSubsetOf(next));
    prev = std::move(next);
  }
}

TEST(HornSolver, ReuseAcrossManyCalls) {
  // The solver's indexes are built once; repeated calls stay consistent.
  Program p = workload::EvenNegativeCycles(5);
  GroundProgram gp = MustGround(p);
  HornSolver solver(gp.View());
  Bitset none(gp.num_atoms());
  Bitset first = solver.EventualConsequences(none);
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(solver.EventualConsequences(none), first);
  }
}

}  // namespace
}  // namespace afp
