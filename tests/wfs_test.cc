// Well-founded semantics via unfounded sets (§6): Example 6.1, the W_P
// iteration, and Theorem 7.8 (equivalence with the alternating fixpoint).

#include "wfs/wp_engine.h"

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "core/alternating.h"
#include "core/horn_solver.h"
#include "ground/grounder.h"
#include "reference/reference.h"
#include "wfs/unfounded.h"
#include "workload/graphs.h"
#include "workload/programs.h"

namespace afp {
namespace {

GroundProgram MustGround(Program& p) {
  GroundOptions opts;
  opts.mode = GroundMode::kFull;
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

/// U_P(I) through the library's evaluator (one priming Eval on a fresh
/// GusEvaluator); the tests compare it with the reference definition.
Bitset LibraryGus(const GroundProgram& gp, const PartialModel& I) {
  EvalContext ctx;
  HornSolver solver(gp.View(), &ctx);
  GusEvaluator gus(solver, ctx);
  Bitset out;
  gus.Eval(I, &out);
  return out;
}

TEST(UnfoundedSets, Example61) {
  // With I = {p(c), ¬p(g), ¬p(h)}: U1 = {p(d),p(e),p(f)} is unfounded
  // (the third rule for p(d) and the second rule for p(f) have a literal
  // false in I; the rest have a positive literal in U1), while
  // U2 = {p(a),p(b)} is not unfounded.
  Program p = workload::Example51();
  GroundProgram gp = MustGround(p);

  PartialModel I(NamedSet(gp, {"p(c)"}), NamedSet(gp, {"p(g)", "p(h)"}));
  Bitset u1 = NamedSet(gp, {"p(d)", "p(e)", "p(f)"});
  EXPECT_TRUE(reference::IsUnfoundedSet(gp.View(), I, u1));
  Bitset u2 = NamedSet(gp, {"p(a)", "p(b)"});
  EXPECT_FALSE(reference::IsUnfoundedSet(gp.View(), I, u2));

  // The greatest unfounded set contains U1 (and is itself unfounded).
  Bitset greatest = LibraryGus(gp, I);
  EXPECT_EQ(greatest, reference::GreatestUnfoundedSet(gp.View(), I));
  EXPECT_TRUE(u1.IsSubsetOf(greatest));
  EXPECT_TRUE(reference::IsUnfoundedSet(gp.View(), I, greatest));
}

TEST(UnfoundedSets, AtomsWithoutRulesAreUnfounded) {
  auto parsed = ParseProgram("p :- not q.");
  ASSERT_TRUE(parsed.ok());
  Program p = std::move(parsed).value();
  GroundOptions opts;
  opts.simplify = false;
  auto ground = Grounder::Ground(p, opts);
  ASSERT_TRUE(ground.ok());
  GroundProgram gp = std::move(ground).value();

  PartialModel empty = PartialModel::AllUndefined(gp.num_atoms());
  Bitset u = LibraryGus(gp, empty);
  EXPECT_EQ(u, reference::GreatestUnfoundedSet(gp.View(), empty));
  // q (no rules) is vacuously unfounded; p has a usable rule.
  EXPECT_EQ(AtomSetToString(gp, u, true), "{q}");
}

TEST(UnfoundedSets, GreatestIsMaximalAmongChecked) {
  // Every subset of the greatest unfounded set need not be unfounded, but
  // the greatest one must contain every unfounded set. Spot-check against
  // all singletons.
  Program p = workload::Example51();
  GroundProgram gp = MustGround(p);
  PartialModel empty = PartialModel::AllUndefined(gp.num_atoms());
  Bitset greatest = LibraryGus(gp, empty);
  for (AtomId a = 0; a < gp.num_atoms(); ++a) {
    Bitset single(gp.num_atoms());
    single.Set(a);
    if (reference::IsUnfoundedSet(gp.View(), empty, single)) {
      EXPECT_TRUE(greatest.Test(a)) << gp.AtomName(a);
    }
  }
}

TEST(WpEngine, ImmediateConsequencesSingleStep) {
  auto parsed = ParseProgram("a. b :- a. c :- b.");
  ASSERT_TRUE(parsed.ok());
  Program p = std::move(parsed).value();
  GroundProgram gp = MustGround(p);
  // T_P is one step: from ∅ it derives only the fact.
  PartialModel empty = PartialModel::AllUndefined(gp.num_atoms());
  EvalContext ctx;
  HornSolver solver(gp.View(), &ctx);
  TpEvaluator tp(solver, ctx);
  Bitset t1;
  tp.Eval(empty, &t1);
  EXPECT_EQ(t1.Count(), 1u);
  EXPECT_EQ(t1, reference::ImmediateConsequences(gp.View(), empty));
}

TEST(WpEngine, Example51WellFoundedModel) {
  Program p = workload::Example51();
  GroundProgram gp = MustGround(p);
  WpResult r = WellFoundedViaWp(gp);
  EXPECT_EQ(AtomSetToString(gp, r.model.true_atoms(), true),
            "{p(c), p(i)}");
  EXPECT_EQ(AtomSetToString(gp, r.model.false_atoms(), true),
            "{p(d), p(e), p(f), p(g), p(h)}");
}

TEST(WpEngine, Theorem78EquivalenceOnPaperExamples) {
  // AFP model == WF model on all the paper's worked examples.
  std::vector<Program> programs;
  programs.push_back(workload::Example51());
  programs.push_back(workload::Example31());
  programs.push_back(workload::WinMove(graphs::Figure4a()));
  programs.push_back(workload::WinMove(graphs::Figure4b()));
  programs.push_back(workload::WinMove(graphs::Figure4c()));
  programs.push_back(workload::TransitiveClosureComplement(
      graphs::Cycle(3)));
  for (Program& p : programs) {
    GroundProgram gp = MustGround(p);
    AfpResult afp = AlternatingFixpoint(gp);
    WpResult wp = WellFoundedViaWp(gp);
    EXPECT_EQ(afp.model, wp.model);
  }
}

TEST(WpEngine, Theorem78EquivalenceOnRandomPrograms) {
  for (std::uint64_t seed = 0; seed < 40; ++seed) {
    Program p = workload::RandomPropositional(
        /*num_atoms=*/25, /*num_rules=*/50, /*body_len=*/3,
        /*neg_prob_percent=*/50, seed);
    GroundProgram gp = MustGround(p);
    AfpResult afp = AlternatingFixpoint(gp);
    WpResult wp = WellFoundedViaWp(gp);
    EXPECT_EQ(afp.model, wp.model) << "seed " << seed;
  }
}

TEST(WpEngine, Example31MinimumPartialModel) {
  // p :- q. p :- r. q :- not r. r :- not q.
  // The well-founded (minimum) partial model is everything-undefined; but
  // {¬p} is NOT a partial model extendable to a total one (Theorem 3.3's
  // point): p is true in all total models.
  Program p = workload::Example31();
  GroundProgram gp = MustGround(p);
  WpResult r = WellFoundedViaWp(gp);
  EXPECT_EQ(r.model.num_undefined(), 3u);

  // I1 = {¬p} does not satisfy the program (rule p :- q has undefined body
  // but false head).
  PartialModel i1(Bitset(gp.num_atoms()), NamedSet(gp, {"p"}));
  EXPECT_FALSE(Satisfies(gp, i1));
  // The all-undefined model does satisfy it (condition 3 of Def. 3.5).
  EXPECT_TRUE(Satisfies(gp, PartialModel::AllUndefined(gp.num_atoms())));
}

TEST(Theorem33, PartialModelsExtendToTotalModels) {
  // Part (A): every partial model extends to a total one. The well-founded
  // model is a partial model; extend it on the paper's examples and random
  // programs.
  std::vector<Program> programs;
  programs.push_back(workload::Example51());
  programs.push_back(workload::Example31());
  programs.push_back(workload::WinMove(graphs::Figure4b()));
  for (std::uint64_t seed = 0; seed < 20; ++seed) {
    programs.push_back(workload::RandomPropositional(14, 26, 2, 50, seed));
  }
  for (Program& p : programs) {
    GroundProgram gp = MustGround(p);
    AfpResult wfs = AlternatingFixpoint(gp);
    auto total = ExtendToTotalModel(gp, wfs.model);
    ASSERT_TRUE(total.ok()) << total.status().ToString();
    EXPECT_TRUE(total->IsTotal());
    EXPECT_TRUE(Satisfies(gp, *total));
    // The extension preserves all decided atoms.
    EXPECT_TRUE(wfs.model.true_atoms().IsSubsetOf(total->true_atoms()));
    EXPECT_EQ(wfs.model.false_atoms(), total->false_atoms());
  }
}

TEST(Theorem33, RejectsNonModels) {
  // {¬p} from Example 3.1 is not a partial model; extension must refuse.
  Program p = workload::Example31();
  GroundProgram gp = MustGround(p);
  PartialModel not_a_model(Bitset(gp.num_atoms()), NamedSet(gp, {"p"}));
  auto r = ExtendToTotalModel(gp, not_a_model);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kFailedPrecondition);
}

TEST(WpEngine, IterationCountBounded) {
  // W_P adds information every round: iterations <= atoms + 2.
  Program p = workload::WinMove(graphs::Chain(12));
  GroundProgram gp = MustGround(p);
  WpResult r = WellFoundedViaWp(gp);
  EXPECT_LE(r.iterations, gp.num_atoms() + 2);
}

TEST(GusEvaluatorUnit, Example61DeltaSequenceMatchesScratch) {
  // Walk the Example 6.1 interpretation in from the empty one literal at a
  // time: the delta evaluator must reproduce the reference U_P at every
  // prefix, including the first (free) all-undefined priming call.
  Program p = workload::Example51();
  GroundProgram gp = MustGround(p);
  EvalContext ctx;
  HornSolver solver(gp.View(), &ctx);
  GusEvaluator gus(solver, ctx);

  PartialModel I = PartialModel::AllUndefined(gp.num_atoms());
  Bitset out;
  gus.Eval(I, &out);
  EXPECT_EQ(out, reference::GreatestUnfoundedSet(gp.View(), I));

  std::vector<std::pair<std::string, bool>> steps = {
      {"p(c)", true}, {"p(g)", false}, {"p(h)", false}};
  for (const auto& [name, truth] : steps) {
    for (AtomId a = 0; a < gp.num_atoms(); ++a) {
      if (gp.AtomName(a) != name) continue;
      (truth ? I.true_atoms() : I.false_atoms()).Set(a);
    }
    gus.Eval(I, &out);
    EXPECT_EQ(out, reference::GreatestUnfoundedSet(gp.View(), I))
        << "after " << name;
    EXPECT_TRUE(reference::IsUnfoundedSet(gp.View(), I, out))
        << "after " << name;
  }
  // At the full Example 6.1 interpretation, U1 is contained in the result.
  EXPECT_TRUE(
      NamedSet(gp, {"p(d)", "p(e)", "p(f)"}).IsSubsetOf(out));
}

TEST(GusEvaluatorUnit, BorrowedViewMatchesEvalInBothModes) {
  // EvalSupported returns the maintained X = H − U_P(I) without the
  // per-call copy+complement; its complement must equal Eval's output
  // and the reference U_P at every step of a non-monotone walk.
  Program p = workload::Example51();
  GroundProgram gp = MustGround(p);
  EvalContext ctx;
  HornSolver solver(gp.View(), &ctx);
  GusEvaluator gus(solver, ctx);
  GusEvaluator copying(solver, ctx);
  PartialModel I = PartialModel::AllUndefined(gp.num_atoms());
  std::vector<std::pair<std::string, bool>> steps = {
      {"p(c)", true}, {"p(g)", false}, {"p(h)", false}, {"p(c)", true}};
  Bitset expected, out;
  for (const auto& [name, truth] : steps) {
    const Bitset& x = gus.EvalSupported(I);
    EXPECT_EQ(x, reference::ExternallySupportedSet(gp.View(), I))
        << "step " << name;
    expected = reference::GreatestUnfoundedSet(gp.View(), I);
    EXPECT_TRUE(x.IsComplementOf(expected)) << "step " << name;
    EXPECT_EQ(Bitset::ComplementOf(x), expected) << "step " << name;
    copying.Eval(I, &out);
    EXPECT_EQ(out, expected) << "step " << name;
    for (AtomId a = 0; a < gp.num_atoms(); ++a) {
      if (gp.AtomName(a) != name) continue;
      (truth ? I.true_atoms() : I.false_atoms()).Set(a);
    }
  }
}

TEST(GusEvaluatorUnit, RebindReusesOneEvaluatorAcrossSolvers) {
  // The ComponentSolver pattern: one evaluator, many programs. After a
  // Rebind the next Eval must re-prime against the new solver and match a
  // fresh evaluator bit for bit.
  Program p1 = workload::WinMove(graphs::Figure4b());
  Program p2 = workload::Example51();
  GroundProgram gp1 = MustGround(p1);
  GroundProgram gp2 = MustGround(p2);
  EvalContext ctx;
  HornSolver s1(gp1.View(), &ctx);
  HornSolver s2(gp2.View(), &ctx);
  GusEvaluator reused(s1, ctx);

  PartialModel i1 = PartialModel::AllUndefined(gp1.num_atoms());
  Bitset out;
  reused.Eval(i1, &out);
  // Force the delta machinery (head index and all) into action first.
  i1.true_atoms().Set(0);
  reused.Eval(i1, &out);

  reused.Rebind(s2);
  PartialModel i2 = PartialModel::AllUndefined(gp2.num_atoms());
  Bitset reused_out, fresh_out;
  reused.Eval(i2, &reused_out);
  GusEvaluator fresh(s2, ctx);
  fresh.Eval(i2, &fresh_out);
  EXPECT_EQ(reused_out, fresh_out);
  EXPECT_EQ(reused_out, reference::GreatestUnfoundedSet(gp2.View(), i2));

  i2.false_atoms().Set(1);
  reused.Eval(i2, &reused_out);
  fresh.Eval(i2, &fresh_out);
  EXPECT_EQ(reused_out, fresh_out);
  EXPECT_EQ(reused_out, reference::GreatestUnfoundedSet(gp2.View(), i2));
}

TEST(WpEngine, DeltaDoesLessWorkOnDeepIteration) {
  // The Example 8.2-style regime: a chain forces one W_P round per rank,
  // the many-rounds case the witness counters target. The delta path's
  // total body examinations must come in well under the from-scratch
  // reference's (>= 3x here; eval_context_test.cc pins the ablation
  // workloads exactly).
  Program p = workload::WinMove(graphs::Chain(40));
  GroundProgram gp = MustGround(p);
  WpResult d = WellFoundedViaWp(gp);
  WpResult s = reference::ScratchWellFoundedViaWp(gp);
  ASSERT_EQ(d.model, s.model);
  ASSERT_EQ(d.iterations, s.iterations);
  const std::size_t d_total = d.eval.rules_rescanned + d.eval.gus_rules_rescanned;
  const std::size_t s_total = s.eval.rules_rescanned + s.eval.gus_rules_rescanned;
  EXPECT_GE(s_total, 3 * d_total)
      << "delta " << d_total << " vs scratch " << s_total;
  EXPECT_EQ(d.eval.gus_calls, d.iterations);
}

}  // namespace
}  // namespace afp
