// Tests for the alternating fixpoint engine (paper §5): the Table I trace,
// the Example 5.2 win-move runs, seeded fixpoints, and basic invariants
// (monotonicity of A_P, antimonotonicity of S̃_P).

#include "core/alternating.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/horn_solver.h"
#include "core/interpretation.h"
#include "ground/grounder.h"
#include "reference/reference.h"
#include "workload/graphs.h"
#include "workload/programs.h"

namespace afp {
namespace {

/// Grounds with full instantiation and no simplification, so traces mention
/// every atom the paper mentions.
GroundProgram GroundFull(Program& p) {
  GroundOptions opts;
  opts.mode = GroundMode::kFull;
  auto ground = Grounder::Ground(p, opts);
  EXPECT_TRUE(ground.ok()) << ground.status().ToString();
  return std::move(ground).value();
}

GroundProgram GroundSmartNoSimplify(Program& p) {
  GroundOptions opts;
  opts.simplify = false;
  auto ground = Grounder::Ground(p, opts);
  EXPECT_TRUE(ground.ok()) << ground.status().ToString();
  return std::move(ground).value();
}

std::string Row(const GroundProgram& gp, const Bitset& set) {
  return AtomSetToString(gp, set, /*include_edb=*/false);
}

TEST(AlternatingFixpoint, TableIExample51Trace) {
  Program p = workload::Example51();
  GroundProgram gp = GroundFull(p);
  ASSERT_EQ(gp.num_atoms(), 9u);  // H = p{a..i}

  AfpOptions opts;
  opts.record_trace = true;
  AfpResult r = AlternatingFixpoint(gp, opts);

  // Table I, rows k = 0..4.
  ASSERT_EQ(r.trace.size(), 5u);
  EXPECT_EQ(Row(gp, r.trace[0].neg_set), "{}");
  EXPECT_EQ(Row(gp, r.trace[0].sp_result), "{p(c)}");
  EXPECT_EQ(Row(gp, r.trace[1].neg_set),
            "{p(a), p(b), p(d), p(e), p(f), p(g), p(h), p(i)}");
  EXPECT_EQ(Row(gp, r.trace[1].sp_result), "{p(a), p(b), p(c), p(i)}");
  EXPECT_EQ(Row(gp, r.trace[2].neg_set),
            "{p(d), p(e), p(f), p(g), p(h)}");
  EXPECT_EQ(Row(gp, r.trace[2].sp_result), "{p(c), p(i)}");
  EXPECT_EQ(Row(gp, r.trace[3].neg_set),
            "{p(a), p(b), p(d), p(e), p(f), p(g), p(h)}");
  EXPECT_EQ(Row(gp, r.trace[3].sp_result), "{p(a), p(b), p(c), p(i)}");
  // Row 4 repeats row 2: the least fixpoint of A_P.
  EXPECT_EQ(Row(gp, r.trace[4].neg_set), Row(gp, r.trace[2].neg_set));
  EXPECT_EQ(Row(gp, r.trace[4].sp_result), Row(gp, r.trace[2].sp_result));

  // The AFP partial model: {p(c), p(i), ¬p(d..h)}; p(a), p(b) undefined.
  EXPECT_EQ(Row(gp, r.model.true_atoms()), "{p(c), p(i)}");
  EXPECT_EQ(Row(gp, r.model.false_atoms()),
            "{p(d), p(e), p(f), p(g), p(h)}");
  EXPECT_EQ(r.model.num_undefined(), 2u);
  EXPECT_FALSE(r.model.IsTotal());
  EXPECT_TRUE(r.model.IsConsistent());
}

TEST(AlternatingFixpoint, Example52Figure4aAcyclicTotal) {
  Program p = workload::WinMove(graphs::Figure4a());
  GroundProgram gp = GroundSmartNoSimplify(p);

  AfpOptions opts;
  opts.record_trace = true;
  AfpResult r = AlternatingFixpoint(gp, opts);

  // S_P(∅) = ∅, so Ĩ_1 is "everything" (all wins atoms).
  EXPECT_EQ(Row(gp, r.trace[0].sp_result), "{}");
  // A_P(∅) = ¬·w{c,d,f,h,i}: the nodes with no out-arc.
  EXPECT_EQ(Row(gp, r.trace[2].neg_set),
            "{wins(c), wins(d), wins(f), wins(h), wins(i)}");
  // S_P(Ĩ_2) = w{b,e,g}.
  EXPECT_EQ(Row(gp, r.trace[2].sp_result),
            "{wins(b), wins(e), wins(g)}");

  // Total model: winners {b,e,g}; losers {a,c,d,f,h,i}.
  EXPECT_EQ(Row(gp, r.model.true_atoms()), "{wins(b), wins(e), wins(g)}");
  EXPECT_EQ(Row(gp, r.model.false_atoms()),
            "{wins(a), wins(c), wins(d), wins(f), wins(h), wins(i)}");
}

TEST(AlternatingFixpoint, Example52Figure4bCyclicPartial) {
  Program p = workload::WinMove(graphs::Figure4b());
  GroundProgram gp = GroundSmartNoSimplify(p);
  AfpResult r = AlternatingFixpoint(gp);

  // AFP model is {w(c), ¬w(d)}; a and b (the 2-cycle) stay undefined.
  EXPECT_EQ(Row(gp, r.model.true_atoms()), "{wins(c)}");
  EXPECT_EQ(Row(gp, r.model.false_atoms()), "{wins(d)}");
  EXPECT_FALSE(r.model.IsTotal());
}

TEST(AlternatingFixpoint, Example52Figure4cCyclicTotal) {
  Program p = workload::WinMove(graphs::Figure4c());
  GroundProgram gp = GroundSmartNoSimplify(p);
  AfpResult r = AlternatingFixpoint(gp);

  // {w(b), ¬w(a), ¬w(c)} is the AFP total model despite the cycle.
  EXPECT_EQ(Row(gp, r.model.true_atoms()), "{wins(b)}");
  EXPECT_EQ(Row(gp, r.model.false_atoms()), "{wins(a), wins(c)}");
}

TEST(AlternatingFixpoint, ModelSatisfiesProgram) {
  // Definition 3.5: the AFP model is a partial model of P.
  for (const char* text : {
           "p :- not q. q :- not p.",
           "p :- not p.",
           "a :- not b. b :- not c. c :- not a.",
           "x. y :- x, not z. z :- y.",
       }) {
    auto parsed = ParseProgram(text);
    ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
    Program p = std::move(parsed).value();
    GroundProgram gp = GroundFull(p);
    AfpResult r = AlternatingFixpoint(gp);
    EXPECT_TRUE(Satisfies(gp, r.model)) << text;
  }
}

TEST(AlternatingFixpoint, OddLoopLeavesAtomUndefined) {
  // p :- not p: p is undefined in the well-founded model.
  auto parsed = ParseProgram("p :- not p.");
  ASSERT_TRUE(parsed.ok());
  Program p = std::move(parsed).value();
  GroundProgram gp = GroundFull(p);
  AfpResult r = AlternatingFixpoint(gp);
  EXPECT_EQ(r.model.num_undefined(), 1u);
  EXPECT_EQ(r.model.num_true(), 0u);
  EXPECT_EQ(r.model.num_false(), 0u);
}

// The delta-driven counting evaluation against the reference loop, which
// re-derives every S_P by naive T_P iteration: same model, same rounds,
// same Table-I trace row by row.
TEST(AlternatingFixpoint, NaiveAndCountingHornAgree) {
  Program p = workload::Example51();
  GroundProgram gp = GroundFull(p);
  AfpOptions traced;
  traced.record_trace = true;
  AfpResult counting = AlternatingFixpoint(gp, traced);
  AfpResult naive = reference::ScratchAlternatingFixpoint(gp, traced);
  EXPECT_EQ(counting.model, naive.model);
  EXPECT_EQ(counting.outer_iterations, naive.outer_iterations);
  ASSERT_EQ(counting.trace.size(), naive.trace.size());
  for (std::size_t k = 0; k < counting.trace.size(); ++k) {
    EXPECT_EQ(counting.trace[k].neg_set, naive.trace[k].neg_set) << k;
    EXPECT_EQ(counting.trace[k].sp_result, naive.trace[k].sp_result) << k;
  }
}

TEST(AlternatingFixpoint, SeededFixpointRespectsSeed) {
  // Seeding ¬b in "p :- not q" style choices forces the other branch.
  auto parsed = ParseProgram("a :- not b. b :- not a.");
  ASSERT_TRUE(parsed.ok());
  Program p = std::move(parsed).value();
  GroundProgram gp = GroundFull(p);

  // Unseeded: both undefined.
  AfpResult plain = AlternatingFixpoint(gp);
  EXPECT_EQ(plain.model.num_undefined(), 2u);

  // Seed "b is false": a becomes true.
  auto b = QueryAtom(gp, plain.model, "b");
  ASSERT_TRUE(b.ok());
  Bitset seed(gp.num_atoms());
  for (AtomId i = 0; i < gp.num_atoms(); ++i) {
    if (gp.AtomName(i) == "b") seed.Set(i);
  }
  EvalContext ctx;
  HornSolver solver(gp.View(), &ctx);
  AfpResult seeded = AlternatingFixpointWithContext(ctx, solver, seed);
  EXPECT_EQ(seeded.model.num_true(), 1u);
  EXPECT_EQ(seeded.model.num_false(), 1u);
  auto a_val = QueryAtom(gp, seeded.model, "a");
  ASSERT_TRUE(a_val.ok());
  EXPECT_EQ(*a_val, TruthValue::kTrue);
}

TEST(AlternatingFixpoint, StabilityTransformationIsAntimonotonic) {
  // S̃_P: Ĩ ⊆ J̃ implies S̃_P(J̃) ⊆ S̃_P(Ĩ) (paper §4). Check on a sweep of
  // nested negative sets of Example 5.1.
  Program p = workload::Example51();
  GroundProgram gp = GroundFull(p);
  HornSolver solver(gp.View());
  const std::size_t n = gp.num_atoms();

  Bitset smaller(n);
  for (std::size_t grow = 0; grow < n; ++grow) {
    Bitset larger = smaller;
    larger.Set(grow);
    Bitset s_small =
        Bitset::ComplementOf(solver.EventualConsequences(smaller));
    Bitset s_large =
        Bitset::ComplementOf(solver.EventualConsequences(larger));
    EXPECT_TRUE(s_large.IsSubsetOf(s_small)) << "at atom " << grow;
    smaller = larger;
  }
}

TEST(AlternatingFixpoint, AlternatingTransformationIsMonotonic) {
  Program p = workload::Example51();
  GroundProgram gp = GroundFull(p);
  HornSolver solver(gp.View());
  const std::size_t n = gp.num_atoms();

  auto a_p = [&](const Bitset& neg) {
    Bitset s1 = Bitset::ComplementOf(solver.EventualConsequences(neg));
    return Bitset::ComplementOf(solver.EventualConsequences(s1));
  };

  Bitset smaller(n);
  for (std::size_t grow = 0; grow < n; ++grow) {
    Bitset larger = smaller;
    larger.Set(grow);
    EXPECT_TRUE(a_p(smaller).IsSubsetOf(a_p(larger))) << "at atom " << grow;
    smaller = larger;
  }
}

TEST(AlternatingFixpoint, Lemma89PositiveSequenceCharacterization) {
  // Lemma 8.9: iterating I_{n+1} = S_P(S̃_P(Ī_n)) on positive sets from
  // I_0 = S_P(∅̃) converges to the positive part of the AFP model. This is
  // the characterization behind the FP-expressibility proof (§8.4).
  for (std::uint64_t seed = 0; seed < 20; ++seed) {
    Program p = workload::RandomPropositional(18, 32, 3, 50, seed);
    GroundProgram gp = GroundFull(p);
    HornSolver solver(gp.View());

    Bitset current = solver.EventualConsequences(Bitset(gp.num_atoms()));
    while (true) {
      // S̃_P(Ī): the conjugate of the positive overestimate one step out.
      Bitset over = solver.EventualConsequences(
          Bitset::ComplementOf(current));
      Bitset next = solver.EventualConsequences(Bitset::ComplementOf(over));
      if (next == current) break;
      current = std::move(next);
    }
    AfpResult afp = AlternatingFixpoint(gp);
    EXPECT_EQ(current, afp.model.true_atoms()) << "seed " << seed;
  }
}

TEST(AlternatingFixpoint, EmptyProgram) {
  auto parsed = ParseProgram("");
  ASSERT_TRUE(parsed.ok());
  Program p = std::move(parsed).value();
  GroundProgram gp = GroundFull(p);
  AfpResult r = AlternatingFixpoint(gp);
  EXPECT_EQ(r.model.num_true(), 0u);
  EXPECT_TRUE(r.model.IsTotal());
}

TEST(AlternatingFixpoint, FactsOnlyProgram) {
  auto parsed = ParseProgram("e(1,2). e(2,3).");
  ASSERT_TRUE(parsed.ok());
  Program p = std::move(parsed).value();
  GroundProgram gp = GroundFull(p);
  AfpResult r = AlternatingFixpoint(gp);
  EXPECT_EQ(r.model.num_true(), 2u);
  EXPECT_TRUE(r.model.IsTotal());
}

}  // namespace
}  // namespace afp
