// Rule-level incremental view maintenance (Solver::AddRule / RemoveRule):
// the differential-fuzz harness that pins the delta-grounding contract.
//
// Two cross-checks run after every mutation step:
//
//   Check A — from-scratch solve of the SAME ground program: the
//     incrementally maintained model and per-component trajectories must
//     be bit-identical to a fresh component-wise solve over a fresh
//     dependency analysis of the session's (spliced) ground program.
//
//   Check B — from-scratch session over the accumulated SOURCE text
//     (live rules + current facts): verdicts must agree atom-by-NAME.
//     The incremental universe is a superset (removal leaves dead atoms
//     behind, like RetractFacts); every incremental-only atom must be
//     false, which the closed-world Query of the fresh session enforces.
//
//   Check C — the reference per-component loop of tests/reference/ over
//     the session's ground program (a fresh local program lowered per
//     component and solved from scratch): same model and trajectories.
//
// The fuzz interleaves AddRule / RemoveRule / AssertFacts / RetractFacts
// under every axis the session exposes: inner Sp vs Gus, and a session
// seeded with the monolithic fixpoint's model.
// Fact ops stay on initially-derived atoms (the deferred-extension
// contract is tested separately and in isolation below).

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "afp/solver.h"
#include "analysis/atom_graph.h"
#include "core/alternating.h"
#include "core/eval_context.h"
#include "core/scc_engine.h"
#include "reference/reference.h"
#include "workload/graphs.h"
#include "workload/programs.h"

namespace afp {
namespace {

SolverOptions MutableOptions(SccInnerEngine inner) {
  SolverOptions o;
  o.inner = inner;
  o.ground.simplify = false;  // rule ops require unsimplified grounding
  return o;
}

Solver MustSolver(const std::string& text, const SolverOptions& options) {
  auto s = Solver::FromText(text, options);
  EXPECT_TRUE(s.ok()) << s.status().ToString();
  return std::move(s).value();
}

/// Check A: fresh component-wise solve of the session's own ground
/// program; model and per-atom trajectory must match bit-identically.
void ExpectFreshSccAgrees(Solver& solver, const SolverOptions& options,
                          const std::string& where) {
  const PartialModel& inc = solver.Solve();
  EvalContext ctx;
  const RuleView view = solver.ground().View();
  AtomDependencyGraph fresh_graph(view);
  const RuleBuckets fresh_buckets(view, fresh_graph);
  SccOptions so;
  so.inner = options.inner;
  SccWfsResult fresh =
      WellFoundedSccOnGraph(ctx, view, fresh_graph, fresh_buckets, so);
  ASSERT_EQ(fresh.model.true_atoms(), inc.true_atoms()) << where;
  ASSERT_EQ(fresh.model.false_atoms(), inc.false_atoms()) << where;
  // A session seeded through AdoptModel has no trajectory to maintain.
  const std::vector<std::uint32_t>& inc_iters = solver.component_iterations();
  if (inc_iters.empty()) return;
  ASSERT_NE(solver.DependencyGraph(), nullptr);
  const auto& inc_comp = solver.DependencyGraph()->component_of();
  const auto& fresh_comp = fresh_graph.component_of();
  for (AtomId a = 0; a < view.num_atoms; ++a) {
    ASSERT_EQ(fresh.component_iterations[fresh_comp[a]],
              inc_iters[inc_comp[a]])
        << where << ": trajectory mismatch at atom "
        << solver.ground().AtomName(a);
  }
}

/// Check C: the reference per-component loop over the session's ground
/// program; model and per-atom trajectory must match bit-identically.
void ExpectReferenceSccAgrees(Solver& solver, const SolverOptions& options,
                              const std::string& where) {
  const PartialModel& inc = solver.Solve();
  const reference::SccReference ref =
      reference::ScratchWellFoundedScc(solver.ground(), options.inner);
  ASSERT_EQ(ref.model, inc) << where;
  const std::vector<std::uint32_t>& inc_iters = solver.component_iterations();
  if (inc_iters.empty()) return;
  const AtomDependencyGraph ref_graph(solver.ground().View());
  const auto& inc_comp = solver.DependencyGraph()->component_of();
  for (AtomId a = 0; a < solver.ground().num_atoms(); ++a) {
    ASSERT_EQ(ref.component_iterations[ref_graph.component_of()[a]],
              inc_iters[inc_comp[a]])
        << where << ": reference trajectory mismatch at atom "
        << solver.ground().AtomName(a);
  }
}

/// Check B: fresh session over the accumulated source text; verdicts
/// agree by atom name in both directions.
void ExpectFreshTextAgrees(Solver& solver, const std::string& text,
                           const SolverOptions& options,
                           const std::string& where) {
  Solver fresh = MustSolver(text, options);
  fresh.Solve();
  solver.Solve();
  for (AtomId a = 0; a < solver.ground().num_atoms(); ++a) {
    const std::string name = solver.ground().AtomName(a);
    auto iv = solver.Query(name);
    auto fv = fresh.Query(name);
    ASSERT_TRUE(iv.ok() && fv.ok()) << where << ": " << name;
    ASSERT_EQ(*iv, *fv) << where << ": verdict mismatch at " << name;
  }
  for (AtomId a = 0; a < fresh.ground().num_atoms(); ++a) {
    const std::string name = fresh.ground().AtomName(a);
    auto iv = solver.Query(name);
    auto fv = fresh.Query(name);
    ASSERT_TRUE(iv.ok() && fv.ok()) << where << ": " << name;
    ASSERT_EQ(*iv, *fv) << where << ": verdict mismatch at " << name;
  }
}

struct FuzzState {
  std::uint64_t rng;
  std::uint32_t Next() {
    rng = rng * 6364136223846793005ULL + 1442695040888963407ULL;
    return static_cast<std::uint32_t>(rng >> 33);
  }
};

/// Interleaved AddRule/RemoveRule/AssertFacts/RetractFacts, cross-checked
/// after every step. With `adopt_afp_model` the session starts from the
/// monolithic AlternatingFixpoint's model instead of its own Solve.
void RunMutationFuzz(const SolverOptions& options, std::uint64_t seed,
                     int steps, bool adopt_afp_model = false) {
  // Base: an unstratified win-move-like core over a small cyclic graph,
  // with f/1 as an assertable side relation. All fact-op atoms (e/2, f/1)
  // are initially derived, so fact ops never defer grounding extension.
  const std::string base_rules = "p(X) :- e(X,Y), not p(Y).\n";
  const std::vector<std::string> base_facts = {
      "e(a,b).", "e(b,c).", "e(c,a).", "e(c,d).", "e(d,e5).",
      "f(a).",   "f(d).",   "f(e5)."};
  // Candidate IDB rules; several introduce new predicates (universe
  // growth), one introduces compound terms, several chain on each other
  // (cascaded delta grounding), and q/s share an instance shape with
  // themselves when duplicated. The last three make the join create
  // lists mid-session: posting lists on e's first argument (bound by f)
  // and on its second (the constant c), and a match inside w's compound.
  const std::vector<std::string> pool = {
      "q(X) :- e(X,Y), p(Y).",
      "s(X) :- f(X).",
      "r(X) :- q(X), not s(X).",
      "t(X) :- e(Y,X), f(Y).",
      "u(X) :- p(X), not q(X).",
      "v(X) :- t(X), s(X).",
      "w(g(X)) :- f(X).",
      "q(X) :- t(X), f(X).",
      "x(Y) :- f(X), e(X,Y).",
      "y(X) :- e(X,c), not f(X).",
      "z(X) :- w(g(X)), e(X,Y), not p(Y).",
  };

  std::string base_text = base_rules;
  for (const std::string& f : base_facts) base_text += f + "\n";
  Solver solver = MustSolver(base_text, options);
  if (adopt_afp_model) {
    ASSERT_TRUE(
        solver.AdoptModel(AlternatingFixpoint(solver.ground()).model).ok());
    ASSERT_TRUE(solver.component_iterations().empty());
  } else {
    solver.Solve();
  }

  FuzzState rng{seed};
  std::vector<std::string> live;           // added pool rules, in order
  std::vector<bool> fact_present(base_facts.size(), true);

  auto accumulated_text = [&] {
    std::string text = base_rules;
    for (const std::string& r : live) text += r + "\n";
    for (std::size_t i = 0; i < base_facts.size(); ++i) {
      if (fact_present[i]) text += base_facts[i] + "\n";
    }
    return text;
  };

  for (int step = 0; step < steps; ++step) {
    const std::string where =
        "seed=" + std::to_string(seed) + " step=" + std::to_string(step);
    switch (rng.Next() % 4) {
      case 0: {  // AddRule
        const std::string& rule = pool[rng.Next() % pool.size()];
        auto r = solver.AddRule(rule);
        ASSERT_TRUE(r.ok()) << where << ": " << r.status().ToString();
        live.push_back(rule);
        break;
      }
      case 1: {  // RemoveRule (of a live added rule, if any)
        if (live.empty()) continue;
        const std::size_t i = rng.Next() % live.size();
        auto r = solver.RemoveRule(live[i]);
        ASSERT_TRUE(r.ok()) << where << ": " << r.status().ToString();
        live.erase(live.begin() + i);
        break;
      }
      case 2: {  // AssertFacts
        const std::size_t i = rng.Next() % base_facts.size();
        std::string atom = base_facts[i].substr(0, base_facts[i].size() - 1);
        auto r = solver.AssertFacts({atom});
        ASSERT_TRUE(r.ok()) << where << ": " << r.status().ToString();
        fact_present[i] = true;
        break;
      }
      default: {  // RetractFacts
        const std::size_t i = rng.Next() % base_facts.size();
        std::string atom = base_facts[i].substr(0, base_facts[i].size() - 1);
        auto r = solver.RetractFacts({atom});
        ASSERT_TRUE(r.ok()) << where << ": " << r.status().ToString();
        fact_present[i] = false;
        break;
      }
    }
    ASSERT_TRUE(solver.ValidateRuleBuckets()) << where;
    ExpectFreshSccAgrees(solver, options, where);
    ExpectReferenceSccAgrees(solver, options, where);
    ExpectFreshTextAgrees(solver, accumulated_text(), options, where);
  }
}

// --- The fuzz matrix: inner x seed ----------------------------------------
//
// The Interpreted/Compiled pairs ran the two sides of the retired compile
// axis; every general-path component now runs on its bucket, so each pair
// is the one configuration on two seeds.

TEST(RuleMutationTest, FuzzSccSpInterpreted) {
  RunMutationFuzz(MutableOptions(SccInnerEngine::kAfp), 1,
                  28);
}

TEST(RuleMutationTest, FuzzSccSpCompiled) {
  RunMutationFuzz(MutableOptions(SccInnerEngine::kAfp), 2,
                  28);
}

TEST(RuleMutationTest, FuzzSccGusInterpreted) {
  RunMutationFuzz(MutableOptions(SccInnerEngine::kWp), 3,
                  28);
}

TEST(RuleMutationTest, FuzzSccGusCompiled) {
  RunMutationFuzz(MutableOptions(SccInnerEngine::kWp), 4,
                  28);
}

TEST(RuleMutationTest, FuzzMonolithicEngineSession) {
  // A session seeded with the monolithic alternating fixpoint's model
  // (AdoptModel, so no trajectory to maintain) still repairs rule edits
  // component-wise.
  RunMutationFuzz(MutableOptions(SccInnerEngine::kAfp), 5,
                  18, /*adopt_afp_model=*/true);
}

// --- Targeted unit tests ----------------------------------------------

TEST(RuleMutationTest, AddRuleDerivesAndGrowsUniverse) {
  SolverOptions o = MutableOptions(SccInnerEngine::kAfp);
  Solver s = MustSolver("e(a,b). e(b,c). p(X) :- e(X,Y).", o);
  s.Solve();
  const std::size_t atoms0 = s.ground().num_atoms();
  auto r = s.AddRule("q(X) :- p(X), not e(X,X).");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_GT(s.ground().num_atoms(), atoms0);
  EXPECT_GT(r->ground_rules_added, 0u);
  EXPECT_TRUE(r->model_changed);
  EXPECT_EQ(*s.Query("q(a)"), TruthValue::kTrue);
  EXPECT_EQ(*s.Query("q(b)"), TruthValue::kTrue);
  ExpectFreshSccAgrees(s, o, "AddRuleDerivesAndGrowsUniverse");
}

TEST(RuleMutationTest, AddedRulesJoinThroughListsBuiltMidSession) {
  // The initial grounding builds only the candidate lists its rules read
  // (here e's predicate list). Added rules need new ones — a posting list
  // on e's first argument (bound by f), one on its second (the constant
  // c), f's predicate list — which must be back-filled from every atom
  // derived so far, facts included.
  const std::string base = "p(X) :- e(X,Y), not p(Y).\n"
                           "e(a,b). e(b,c). e(c,a). f(a). f(c).\n";
  const SolverOptions o =
      MutableOptions(SccInnerEngine::kAfp);
  Solver s = MustSolver(base, o);
  s.Solve();
  const std::string added[] = {"x(Y) :- f(X), e(X,Y).", "y(X) :- e(X,c).",
                               "z(X) :- f(X), not y(X)."};
  std::string text = base;
  for (const std::string& rule : added) {
    ASSERT_TRUE(s.AddRule(rule).ok()) << rule;
    text += rule + "\n";
  }
  EXPECT_EQ(*s.Query("x(b)"), TruthValue::kTrue);
  EXPECT_EQ(*s.Query("x(a)"), TruthValue::kTrue);
  EXPECT_EQ(*s.Query("x(c)"), TruthValue::kFalse);
  EXPECT_EQ(*s.Query("y(b)"), TruthValue::kTrue);
  EXPECT_EQ(*s.Query("z(a)"), TruthValue::kTrue);
  ExpectFreshTextAgrees(s, text, o, "after the rule ops");
}

TEST(RuleMutationTest, RemoveRuleLeavesDeadAtomsFalse) {
  SolverOptions o = MutableOptions(SccInnerEngine::kAfp);
  Solver s = MustSolver("e(a,b). p(X) :- e(X,Y).", o);
  s.Solve();
  ASSERT_TRUE(s.AddRule("q(X) :- p(X).").ok());
  EXPECT_EQ(*s.Query("q(a)"), TruthValue::kTrue);
  auto r = s.RemoveRule("q(X) :- p(X).");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  // The atom stays in the universe, now underivable — false, like a
  // retracted fact's atom.
  EXPECT_EQ(*s.Query("q(a)"), TruthValue::kFalse);
  ExpectFreshSccAgrees(s, o, "RemoveRuleLeavesDeadAtomsFalse");
}

TEST(RuleMutationTest, SharedInstancesSurviveSingleRemoval) {
  SolverOptions o = MutableOptions(SccInnerEngine::kAfp);
  Solver s = MustSolver("f(a). p(X) :- f(X).", o);
  s.Solve();
  // Two structurally distinct source rules emitting the same instance
  // shape is impossible for distinct bodies; duplicate the SAME rule to
  // exercise provenance counts instead.
  ASSERT_TRUE(s.AddRule("q(X) :- f(X).").ok());
  ASSERT_TRUE(s.AddRule("q(X) :- f(X).").ok());
  EXPECT_EQ(*s.Query("q(a)"), TruthValue::kTrue);
  ASSERT_TRUE(s.RemoveRule("q(X) :- f(X).").ok());
  EXPECT_EQ(*s.Query("q(a)"), TruthValue::kTrue);  // one copy still live
  ASSERT_TRUE(s.RemoveRule("q(X) :- f(X).").ok());
  EXPECT_EQ(*s.Query("q(a)"), TruthValue::kFalse);
  auto gone = s.RemoveRule("q(X) :- f(X).");
  EXPECT_FALSE(gone.ok());
  ExpectFreshSccAgrees(s, o, "SharedInstancesSurviveSingleRemoval");
}

TEST(RuleMutationTest, DeferredExtensionFoldsAssertsAtNextRuleOp) {
  SolverOptions o = MutableOptions(SccInnerEngine::kAfp);
  // q/1 atoms exist in the universe (negative bodies) but are initially
  // underivable.
  Solver s = MustSolver("f(a). f(b). p(X) :- f(X), not q(X).", o);
  s.Solve();
  EXPECT_EQ(*s.Query("p(a)"), TruthValue::kTrue);
  // Assert on an underivable atom: the model repairs immediately...
  ASSERT_TRUE(s.AssertFacts({"q(a)"}).ok());
  EXPECT_EQ(*s.Query("p(a)"), TruthValue::kFalse);
  // ...and the grounding extension is deferred to the next rule op,
  // which must see q(a) as derivable and instantiate through it.
  auto r = s.AddRule("r(X) :- q(X).");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(*s.Query("r(a)"), TruthValue::kTrue);
  // q(b) was never asserted: no r(b) instance may exist.
  EXPECT_EQ(*s.Query("r(b)"), TruthValue::kFalse);
  ExpectFreshSccAgrees(s, o, "DeferredExtension");
  ExpectFreshTextAgrees(
      s, "f(a). f(b). q(a). p(X) :- f(X), not q(X). r(X) :- q(X).", o,
      "DeferredExtension");
}

TEST(RuleMutationTest, RejectsFactsAndUnknownRules) {
  SolverOptions o = MutableOptions(SccInnerEngine::kAfp);
  Solver s = MustSolver("f(a). p(X) :- f(X).", o);
  s.Solve();
  EXPECT_EQ(s.AddRule("g(b).").status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(s.RemoveRule("z(X) :- f(X).").status().code(),
            StatusCode::kNotFound);
  // Base-program rules are removable too (up to variable renaming).
  auto r = s.RemoveRule("p(Y) :- f(Y).");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(*s.Query("p(a)"), TruthValue::kFalse);
}

TEST(RuleMutationTest, RuleOpsRequireSmartSemiNaiveGrounding) {
  // Full grounding emits instances without the exactly-once provenance
  // rule ops rely on (only the semi-naive kSmart join keeps it); the
  // session refuses before touching anything.
  const std::string text = "f(a). f(b). p(X) :- f(X), not q(X).";
  SolverOptions o = MutableOptions(SccInnerEngine::kAfp);
  o.ground.mode = GroundMode::kFull;
  Solver s = MustSolver(text, o);
  s.Solve();
  const std::string before = s.ground().ToString();
  const std::size_t atoms = s.ground().num_atoms();
  const std::size_t rules = s.program().rules().size();
  EXPECT_EQ(s.AddRule("q(X) :- f(X).").status().code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(s.RemoveRule("p(X) :- f(X), not q(X).").status().code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(s.ground().ToString(), before);
  EXPECT_EQ(s.ground().num_atoms(), atoms);
  EXPECT_EQ(s.program().rules().size(), rules);
  EXPECT_EQ(*s.Query("p(a)"), TruthValue::kTrue);
}

TEST(RuleMutationTest, RuleOpsSurviveSessionMove) {
  // The grounder holds no reference into the session, so rule ops keep
  // working after the session object moves (it used to crash here).
  SolverOptions o = MutableOptions(SccInnerEngine::kAfp);
  const std::string base = "e(a,b). e(b,c). e(c,a). p(X) :- e(X,Y), not p(Y).";
  Solver first = MustSolver(base, o);
  first.Solve();
  ASSERT_TRUE(first.AddRule("q(X) :- e(X,Y), p(Y).").ok());
  std::vector<Solver> sessions;
  sessions.push_back(std::move(first));
  Solver& s = sessions.back();
  auto r = s.AddRule("r(X) :- q(X), not p(X).");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_TRUE(s.RemoveRule("q(X) :- e(X,Y), p(Y).").ok());
  ASSERT_TRUE(s.AddRule("q(X) :- e(Y,X), p(Y).").ok());
  ASSERT_TRUE(s.ValidateRuleBuckets());
  ExpectFreshSccAgrees(s, o, "RuleOpsSurviveSessionMove");
  ExpectFreshTextAgrees(s,
                        base + " r(X) :- q(X), not p(X)."
                               " q(X) :- e(Y,X), p(Y).",
                        o, "RuleOpsSurviveSessionMove");
}

TEST(RuleMutationTest, SimplifiedSessionsRefuseRuleOps) {
  SolverOptions o;  // default: simplify = true
  Solver s = MustSolver("f(a). p(X) :- f(X).", o);
  s.Solve();
  EXPECT_EQ(s.AddRule("q(X) :- f(X).").status().code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(s.RemoveRule("p(X) :- f(X).").status().code(),
            StatusCode::kFailedPrecondition);
}

// --- The O(touched) delta receipt (WinMove / 4096) ---------------------

TEST(RuleMutationTest, PeripheryEditReceiptIsOTouchedOnWinMove4096) {
  Digraph g = graphs::RandomFunctional(4096, 7);
  SolverOptions o = MutableOptions(SccInnerEngine::kAfp);
  auto sv = Solver::FromProgram(workload::WinMove(g), o);
  ASSERT_TRUE(sv.ok()) << sv.status().ToString();
  Solver s = std::move(sv).value();
  s.Solve();
  const std::size_t program_rules = s.ground().num_rules();
  ASSERT_GT(program_rules, 4000u);

  // The periphery edit — the session's FIRST rule op: instance provenance
  // exists from construction, so there is no O(program) warm-up to pay.
  // One new head, one instance, one new component.
  auto r = s.AddRule("probe :- wins(b).");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->rules_reground, 1u);
  EXPECT_EQ(r->ground_rules_added, 1u);
  EXPECT_EQ(r->atoms_added, 1u);
  EXPECT_EQ(r->components_added, 1u);
  EXPECT_FALSE(r->graph_rebuilt);
  // O(touched), not O(program): the delta receipt stays constant-sized
  // against a 4096-node program.
  EXPECT_LE(r->buckets_invalidated, 2u);
  EXPECT_LE(r->components_downstream, 4u);
  // No bucket rebuilt: the probe's singleton component has no
  // self-dependent rule, so it takes the fast path.
  EXPECT_EQ(r->eval.buckets_built, 0u);

  // Removal receipt: same locality on the way out.
  auto rr = s.RemoveRule("probe :- wins(b).");
  ASSERT_TRUE(rr.ok()) << rr.status().ToString();
  EXPECT_EQ(rr->rules_reground, 1u);
  EXPECT_EQ(rr->ground_rules_removed, 1u);
  EXPECT_FALSE(rr->graph_rebuilt);
  EXPECT_LE(rr->buckets_invalidated, 1u);
  EXPECT_EQ(rr->eval.buckets_built, 0u);

  ASSERT_TRUE(s.ValidateRuleBuckets());
  ExpectFreshSccAgrees(s, o, "PeripheryEditReceipt");
}

// --- Bucket staleness: rule edits never solve on a stale CompiledBucket -

TEST(RuleMutationTest, RuleEditRecompilesExactlyTheTouchedKernels) {
  SolverOptions o = MutableOptions(SccInnerEngine::kAfp);
  // Two independent 2-cycles: both components get buckets (multi-member).
  Solver s = MustSolver(
      "f(a). w(X) :- f(X), not w2(X). w2(X) :- f(X), not w(X).\n"
      "g(b). y(X) :- g(X), not y2(X). y2(X) :- g(X), not y(X).",
      o);
  s.Solve();

  // Touch only the w-cycle: its bucket is rebuilt, the y-cycle's isn't.
  // The instance w(a) :- f(a) appends an old-head dependency on a
  // lower-id component — append-feasible, no rebuild.
  auto r = s.AddRule("w(X) :- f(X).");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_FALSE(r->graph_rebuilt);
  EXPECT_EQ(r->buckets_invalidated, 1u);
  EXPECT_EQ(r->eval.buckets_built, 1u);
  // The rebuilt bucket must hold the NEW rule set: w(a) is now
  // unconditionally derivable, which flips w2(a) to false...
  EXPECT_EQ(*s.Query("w(a)"), TruthValue::kTrue);
  EXPECT_EQ(*s.Query("w2(a)"), TruthValue::kFalse);
  // ...while the untouched y-cycle keeps its undefined verdicts.
  EXPECT_EQ(*s.Query("y(b)"), TruthValue::kUndefined);
  EXPECT_EQ(*s.Query("y2(b)"), TruthValue::kUndefined);
  ExpectFreshSccAgrees(s, o, "RuleEditRecompiles");

  // Round trip: the removal is fast-path too (the dropped f -> w edge is
  // cross-component), invalidates exactly the w-cycle again, and the
  // rebuilt bucket restores the undefined 2-cycle verdicts.
  auto rr = s.RemoveRule("w(X) :- f(X).");
  ASSERT_TRUE(rr.ok()) << rr.status().ToString();
  ASSERT_FALSE(rr->graph_rebuilt);
  EXPECT_EQ(rr->buckets_invalidated, 1u);
  EXPECT_EQ(rr->eval.buckets_built, 1u);
  EXPECT_EQ(*s.Query("w(a)"), TruthValue::kUndefined);
  EXPECT_EQ(*s.Query("w2(a)"), TruthValue::kUndefined);
  ExpectFreshSccAgrees(s, o, "RuleEditRecompiles/after-remove");
}

TEST(RuleMutationTest, IntraComponentRemovalRebuildsAnalysis) {
  SolverOptions o = MutableOptions(SccInnerEngine::kAfp);
  Solver s = MustSolver("f(a). w(X) :- f(X), not v(X).", o);
  s.Solve();
  // Close a 2-cycle, then cut it: the removed edge is intra-component,
  // which the fast path must refuse (the component would split).
  ASSERT_TRUE(s.AddRule("v(X) :- f(X), not w(X).").ok());
  auto r = s.RemoveRule("v(X) :- f(X), not w(X).");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_TRUE(r->graph_rebuilt);
  EXPECT_EQ(*s.Query("w(a)"), TruthValue::kTrue);
  EXPECT_EQ(*s.Query("v(a)"), TruthValue::kFalse);
  ASSERT_TRUE(s.ValidateRuleBuckets());
  ExpectFreshSccAgrees(s, o, "IntraComponentRemoval");
}

}  // namespace
}  // namespace afp
