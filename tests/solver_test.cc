// The afp::Solver facade: differential equivalence of its one
// component-wise solve path with the direct engine calls, and the
// incremental AssertFacts/RetractFacts contract — the repaired model and
// per-component iteration trajectory must be bit-identical to a
// from-scratch solve of the mutated ground program, over randomized
// mutation sequences including retract-then-reassert round-trips.

#include "afp/solver.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "core/alternating.h"
#include "core/scc_engine.h"
#include "ground/grounder.h"
#include "parser/parser.h"
#include "reference/reference.h"
#include "search/stable_search.h"
#include "wfs/wp_engine.h"
#include "workload/graphs.h"
#include "workload/programs.h"

#ifndef AFP_LP_CORPUS_DIR
#error "AFP_LP_CORPUS_DIR must point at the .lp corpus directory"
#endif

namespace afp {
namespace {

std::vector<std::string> CorpusTexts() {
  std::vector<std::string> texts;
  for (const auto& entry :
       std::filesystem::directory_iterator(AFP_LP_CORPUS_DIR)) {
    if (entry.path().extension() != ".lp") continue;
    std::ifstream in(entry.path());
    std::ostringstream ss;
    ss << in.rdbuf();
    texts.push_back(ss.str());
  }
  return texts;
}

GroundProgram MustGround(Program& p, GroundMode mode = GroundMode::kSmart) {
  GroundOptions opts;
  opts.mode = mode;
  auto g = Grounder::Ground(p, opts);
  EXPECT_TRUE(g.ok()) << g.status().ToString();
  return std::move(g).value();
}

Solver MustCreate(Program program, const SolverOptions& options = {}) {
  auto s = Solver::FromProgram(std::move(program), options);
  EXPECT_TRUE(s.ok()) << s.status().ToString();
  return std::move(s).value();
}

/// Deterministic xorshift for the randomized mutation sequences.
struct Rng {
  std::uint64_t state;
  std::uint64_t Next() {
    state ^= state << 13;
    state ^= state >> 7;
    state ^= state << 17;
    return state;
  }
  std::uint64_t Below(std::uint64_t n) { return Next() % n; }
};

/// Checks the session's model against all three well-founded engines
/// called directly on the same ground program and against the
/// from-scratch reference loops of tests/reference/, and its per-component
/// trajectory against the direct component-wise solve and the reference
/// per-component loop.
void ExpectMatchesDirectEngines(Solver& solver, const std::string& label) {
  const GroundProgram& gp = solver.ground();
  SccOptions s;
  s.inner = solver.options().inner;
  const SccWfsResult scc = WellFoundedScc(gp, s);
  const PartialModel& m = solver.Solve();
  EXPECT_EQ(m, AlternatingFixpoint(gp).model) << label;
  EXPECT_EQ(m, WellFoundedViaWp(gp).model) << label;
  EXPECT_EQ(m, scc.model) << label;
  EXPECT_EQ(m, reference::ScratchAlternatingFixpoint(gp).model) << label;
  EXPECT_EQ(solver.component_iterations(), scc.component_iterations)
      << label;
  const reference::SccReference ref =
      reference::ScratchWellFoundedScc(gp, solver.options().inner);
  EXPECT_EQ(m, ref.model) << label;
  EXPECT_EQ(solver.component_iterations(), ref.component_iterations)
      << label;
  EXPECT_EQ(solver.Stats().num_components, scc.num_components) << label;
  EXPECT_EQ(solver.Stats().full_solves, 1u) << label;
}

TEST(Solver, MatchesDirectEnginesOnCorpus) {
  for (const std::string& text : CorpusTexts()) {
    auto solver = Solver::FromText(text);
    ASSERT_TRUE(solver.ok()) << solver.status().ToString();
    ExpectMatchesDirectEngines(*solver, text.substr(0, 60));
  }
}

TEST(Solver, MatchesDirectEnginesAcrossModesOnRandomFamilies) {
  for (std::uint64_t seed = 0; seed < 12; ++seed) {
    for (SccInnerEngine inner : {SccInnerEngine::kAfp, SccInnerEngine::kWp}) {
      SolverOptions o;
      o.inner = inner;
      o.ground.mode = GroundMode::kFull;
      Solver solver =
          MustCreate(workload::RandomPropositional(24, 48, 3, 50, seed), o);
      ExpectMatchesDirectEngines(
          solver, "seed " + std::to_string(seed) + " inner " +
                      std::to_string(static_cast<int>(inner)));
    }
  }
}

/// `a0. a_i :- not a_{i-1}.` for i < n: each alternation of the monolithic
/// fixpoint settles one more link, the component-wise solve one link per
/// component.
std::string ChainAtom(int i) {
  std::string atom = "a";
  atom += std::to_string(i);
  return atom;
}

std::string NegationChain(int n) {
  std::string text = "a0.\n";
  for (int i = 1; i < n; ++i) {
    text += ChainAtom(i) + " :- not " + ChainAtom(i - 1) + ".\n";
  }
  return text;
}

/// The EDB facts of `gp` (rules with an empty body), in rule order.
std::vector<std::string> FactNames(const GroundProgram& gp) {
  std::vector<std::string> facts;
  for (std::size_t ri = 0; ri < gp.num_rules(); ++ri) {
    const GroundRule& r = gp.rule(ri);
    if (r.pos_len == 0 && r.neg_len == 0) facts.push_back(gp.AtomName(r.head));
  }
  return facts;
}

TEST(Solver, NegationChainSolvesOneComponentPerAtom) {
  // The counters are the receipt that the solve is linear: one singleton
  // component per atom, and local subprograms that sum to the program.
  constexpr int kRules = 100000;
  auto solver = Solver::FromText(NegationChain(kRules));
  ASSERT_TRUE(solver.ok()) << solver.status().ToString();
  const PartialModel& m = solver->Solve();
  const SolverStats& st = solver->Stats();
  ASSERT_EQ(st.num_atoms, static_cast<std::size_t>(kRules));
  EXPECT_EQ(st.num_components, st.num_atoms);
  EXPECT_LE(st.total_local_size, st.ground_size);
  // The alternating model: a_i is true for even i and false for odd i.
  for (AtomId a = 0; a < solver->ground().num_atoms(); ++a) {
    const int i = std::stoi(solver->ground().AtomName(a).substr(1));
    ASSERT_EQ(m.Value(a), i % 2 == 0 ? TruthValue::kTrue : TruthValue::kFalse)
        << ChainAtom(i);
  }
}

TEST(Solver, FactRepairTouchesNoAtomSizedScratch) {
  // A repair pays for what it re-solves, not for the program: toggling an
  // isolated fact re-solves one singleton component, and the session's
  // scratch high-water mark stays far below one byte per atom.
  constexpr int kRules = 20000;
  const std::string text = NegationChain(kRules) + "z.\nzz :- z.\n";
  auto solved = Solver::FromText(text);
  auto adopted = Solver::FromText(text);
  ASSERT_TRUE(solved.ok() && adopted.ok());
  // The adopted session never solves, so its context's scratch history is
  // the repair's alone.
  ASSERT_TRUE(adopted->AdoptModel(solved->Solve()).ok());
  auto up = adopted->RetractFact("z");
  ASSERT_TRUE(up.ok()) << up.status().ToString();
  EXPECT_EQ(up->components_resolved, 2u);
  EXPECT_LT(up->eval.peak_scratch_bytes,
            adopted->ground().num_atoms() / 8);
  auto back = adopted->AssertFact("z");
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_LT(back->eval.peak_scratch_bytes,
            adopted->ground().num_atoms() / 8);
  EXPECT_EQ(adopted->model(), solved->model());
}

TEST(Solver, UnsolvedQueriesOnNegationChainAgreeWithSolve) {
  constexpr int kRules = 100000;
  const std::string text = NegationChain(kRules);
  auto unsolved = Solver::FromText(text);
  auto solved = Solver::FromText(text);
  ASSERT_TRUE(unsolved.ok() && solved.ok());
  solved->Solve();
  std::vector<std::string> atoms;
  for (int i = kRules - 1; i >= 0; i -= 997) {
    atoms.push_back(ChainAtom(i));
  }
  const std::vector<StatusOr<TruthValue>> batch = unsolved->QueryBatch(atoms);
  ASSERT_EQ(batch.size(), atoms.size());
  for (std::size_t i = 0; i < atoms.size(); ++i) {
    const StatusOr<TruthValue> want = solved->Query(atoms[i]);
    ASSERT_TRUE(want.ok() && batch[i].ok()) << atoms[i];
    EXPECT_EQ(*batch[i], *want) << atoms[i];
  }
  const StatusOr<TruthValue> last = unsolved->Query(atoms.front());
  ASSERT_TRUE(last.ok());
  EXPECT_EQ(*last, *solved->Query(atoms.front()));
  EXPECT_FALSE(unsolved->solved()) << "unsolved queries must not solve";
  // The receipt of a linear cone solve: the cone of the last atom is the
  // whole chain, and every link is a singleton component decided without
  // a single S_P evaluation.
  const SolverStats& cone = unsolved->Stats();
  EXPECT_EQ(cone.cone_components,
            unsolved->DependencyGraph()->num_components());
  EXPECT_EQ(cone.cone_local_size, unsolved->ground().TotalSize());
  EXPECT_EQ(cone.eval.sp_calls, 0u);
}

TEST(Solver, UnsolvedQueryCostsItsCone) {
  // An EDB fact's cone is its own singleton component, whatever the
  // program around it: two win-move programs 16x apart give the same
  // receipt, from the call that builds the analysis on, and no call takes
  // atom-sized scratch from the session's context.
  std::vector<SolverStats> receipts;
  for (int n : {4096, 65536}) {
    Solver s = MustCreate(
        workload::WinMove(graphs::ErdosRenyi(n, 3 * n, 17)));
    const std::string fact = FactNames(s.ground()).at(0);
    for (int call = 0; call < 3; ++call) {
      EXPECT_EQ(*s.Query(fact), TruthValue::kTrue) << fact;
      const SolverStats& st = s.Stats();
      EXPECT_EQ(st.cone_components, 1u) << n << " call " << call;
      EXPECT_EQ(st.cone_local_size, 1u) << n << " call " << call;
      EXPECT_EQ(st.eval.bucket_solves, 0u) << n << " call " << call;
      EXPECT_LT(st.eval.peak_scratch_bytes, s.ground().num_atoms() / 8)
          << n << " call " << call;
    }
    EXPECT_FALSE(s.solved());
    receipts.push_back(s.Stats());
  }
  EXPECT_GT(receipts[1].ground_size, 15 * receipts[0].ground_size);
  EXPECT_EQ(receipts[1].eval.sp_calls, receipts[0].eval.sp_calls);
  EXPECT_EQ(receipts[1].eval.peak_scratch_bytes,
            receipts[0].eval.peak_scratch_bytes);
}

/// Queries every atom of `s`'s ground program on the unsolved session —
/// one at a time, so each cone solve runs over bits left by the others,
/// and then as one batch — and checks each answer against a fresh solve of
/// the program as it stands.
void ExpectConeAnswersMatchFreshSolve(Solver& s, const std::string& label) {
  ASSERT_FALSE(s.solved()) << label;
  const PartialModel fresh = AlternatingFixpoint(s.ground()).model;
  std::vector<std::string> atoms;
  for (AtomId a = 0; a < s.ground().num_atoms(); ++a) {
    atoms.push_back(s.ground().AtomName(a));
  }
  for (AtomId a = static_cast<AtomId>(atoms.size()); a-- > 0;) {
    const StatusOr<TruthValue> one = s.Query(atoms[a]);
    ASSERT_TRUE(one.ok()) << label << " " << atoms[a];
    EXPECT_EQ(*one, fresh.Value(a)) << label << " " << atoms[a];
  }
  const std::vector<StatusOr<TruthValue>> batch = s.QueryBatch(atoms);
  for (AtomId a = 0; a < atoms.size(); ++a) {
    ASSERT_TRUE(batch[a].ok()) << label << " " << atoms[a];
    EXPECT_EQ(*batch[a], fresh.Value(a)) << label << " " << atoms[a];
  }
  EXPECT_FALSE(s.solved()) << label;
}

TEST(Solver, UnsolvedQueriesFollowFactAndRuleOps) {
  // Fact repairs and rule ops patch the analysis and the bucket cache of
  // an unsolved session; its cone solves read both, so every answer
  // between the ops must be the mutated program's. The even/odd pair and
  // the lost rule append new components, the two-cycle rule appends rules
  // to existing ones (dropping the buckets the earlier cones built), and
  // removing either of the last two drops only cross-component edges: all
  // of these patch the analysis in place. The reversed win rule merges
  // existing components, and removing it splits them again (the analysis
  // is rebuilt).
  constexpr const char* kEvenOdd =
      "even(X) :- move(X,Y), not odd(Y). odd(X) :- move(X,Y), not even(Y).";
  constexpr const char* kLost = "lost(X) :- move(X,Y), not wins(X).";
  constexpr const char* kTwoCycle = "wins(X) :- move(X,Y), move(Y,X).";
  std::size_t buckets_dropped_in_place = 0;
  constexpr const char* kReversed = "wins(X) :- move(Y,X), not wins(Y).";
  for (SccInnerEngine inner : {SccInnerEngine::kAfp, SccInnerEngine::kWp}) {
    for (std::uint64_t seed = 0; seed < 3; ++seed) {
      SolverOptions o;
      o.inner = inner;
      o.ground.simplify = false;
      Solver s =
          MustCreate(workload::WinMove(graphs::ErdosRenyi(20, 50, seed)), o);
      const std::string label = "inner " +
                                std::to_string(static_cast<int>(inner)) +
                                " seed " + std::to_string(seed);
      const std::vector<std::string> facts = FactNames(s.ground());
      ASSERT_GE(facts.size(), 3u);
      ExpectConeAnswersMatchFreshSolve(s, label + " initial");
      ASSERT_TRUE(s.RetractFacts({facts[0], facts[1]}).ok());
      ExpectConeAnswersMatchFreshSolve(s, label + " retract");
      const StatusOr<RuleUpdateStats> appended = s.AddRule(kEvenOdd);
      ASSERT_TRUE(appended.ok()) << appended.status().ToString();
      EXPECT_FALSE(appended->graph_rebuilt) << label;
      ExpectConeAnswersMatchFreshSolve(s, label + " add even/odd");
      ASSERT_TRUE(s.AssertFacts({facts[0]}).ok());
      ExpectConeAnswersMatchFreshSolve(s, label + " assert");
      const StatusOr<RuleUpdateStats> lost = s.AddRule(kLost);
      ASSERT_TRUE(lost.ok()) << lost.status().ToString();
      EXPECT_FALSE(lost->graph_rebuilt) << label;
      ExpectConeAnswersMatchFreshSolve(s, label + " add lost");
      const StatusOr<RuleUpdateStats> unlost = s.RemoveRule(kLost);
      ASSERT_TRUE(unlost.ok()) << unlost.status().ToString();
      EXPECT_FALSE(unlost->graph_rebuilt) << label;
      ExpectConeAnswersMatchFreshSolve(s, label + " remove lost");
      const StatusOr<RuleUpdateStats> cycle = s.AddRule(kTwoCycle);
      ASSERT_TRUE(cycle.ok()) << cycle.status().ToString();
      EXPECT_FALSE(cycle->graph_rebuilt) << label;
      buckets_dropped_in_place += cycle->buckets_invalidated;
      ExpectConeAnswersMatchFreshSolve(s, label + " add two-cycle");
      const StatusOr<RuleUpdateStats> uncycle = s.RemoveRule(kTwoCycle);
      ASSERT_TRUE(uncycle.ok()) << uncycle.status().ToString();
      EXPECT_FALSE(uncycle->graph_rebuilt) << label;
      buckets_dropped_in_place += uncycle->buckets_invalidated;
      ExpectConeAnswersMatchFreshSolve(s, label + " remove two-cycle");
      const StatusOr<RuleUpdateStats> added = s.AddRule(kReversed);
      ASSERT_TRUE(added.ok()) << added.status().ToString();
      EXPECT_TRUE(added->graph_rebuilt) << label;
      ExpectConeAnswersMatchFreshSolve(s, label + " add reversed");
      ASSERT_TRUE(s.RetractFacts({facts[2]}).ok());
      ExpectConeAnswersMatchFreshSolve(s, label + " retract again");
      const StatusOr<RuleUpdateStats> unreversed = s.RemoveRule(kReversed);
      ASSERT_TRUE(unreversed.ok()) << unreversed.status().ToString();
      EXPECT_TRUE(unreversed->graph_rebuilt) << label;
      ExpectConeAnswersMatchFreshSolve(s, label + " remove reversed");
      ASSERT_TRUE(s.RemoveRule(
          "odd(X) :- move(X,Y), not even(Y).").ok());
      ExpectConeAnswersMatchFreshSolve(s, label + " remove odd");
    }
  }
  EXPECT_GT(buckets_dropped_in_place, 0u);
}

TEST(Solver, SolveBuildsTheAnalysisTheFirstRepairReuses) {
  auto solver = Solver::FromText("e. f. p :- e, not q. q :- f, not p.");
  ASSERT_TRUE(solver.ok()) << solver.status().ToString();
  ASSERT_EQ(solver->DependencyGraph(), nullptr);
  solver->Solve();
  const AtomDependencyGraph* graph = solver->DependencyGraph();
  ASSERT_NE(graph, nullptr);
  const StatusOr<UpdateStats> up = solver->RetractFacts({"f"});
  ASSERT_TRUE(up.ok()) << up.status().ToString();
  EXPECT_EQ(up->facts_changed, 1u);
  EXPECT_EQ(solver->DependencyGraph(), graph) << "the repair rebuilt it";
  EXPECT_EQ(*solver->Query("p"), TruthValue::kTrue);
}

TEST(Solver, QueryBeforeSolveUsesRelevanceAndAgreesWithModel) {
  // The unsolved cone runs the session's per-component engine: both.
  SolverOptions wp;
  wp.inner = SccInnerEngine::kWp;
  for (const SolverOptions& o : {SolverOptions{}, wp}) {
    for (const std::string& text : CorpusTexts()) {
      auto unsolved = Solver::FromText(text, o);
      auto solved = Solver::FromText(text);
      ASSERT_TRUE(unsolved.ok() && solved.ok());
      solved->Solve();
      ASSERT_FALSE(unsolved->solved());
      std::vector<std::string> atoms;
      for (AtomId a = 0; a < solved->ground().num_atoms(); ++a) {
        atoms.push_back(solved->ground().AtomName(a));
      }
      // Single queries (each its own cone) and a batch, against the model.
      auto batch = unsolved->QueryBatch(atoms);
      ASSERT_EQ(batch.size(), atoms.size());
      for (std::size_t i = 0; i < atoms.size(); ++i) {
        auto direct = solved->Query(atoms[i]);
        ASSERT_TRUE(direct.ok()) << atoms[i];
        auto coned = unsolved->Query(atoms[i]);
        ASSERT_TRUE(coned.ok()) << atoms[i];
        EXPECT_EQ(*coned, *direct) << atoms[i];
        ASSERT_TRUE(batch[i].ok()) << atoms[i];
        EXPECT_EQ(*batch[i], *direct) << atoms[i];
      }
      EXPECT_FALSE(unsolved->solved()) << "unsolved queries must not solve";
    }
  }
}

TEST(Solver, StableModelsMatchDirectSearch) {
  for (const std::string& text : CorpusTexts()) {
    auto parsed = ParseProgram(text);
    ASSERT_TRUE(parsed.ok());
    Program p = std::move(parsed).value();
    GroundProgram gp = MustGround(p);
    StableSearch direct(gp);
    auto solver = Solver::FromText(text);
    ASSERT_TRUE(solver.ok());
    StableResult r = solver->StableModels();
    EXPECT_EQ(r.models, direct.Enumerate().models);
    EXPECT_GT(r.search.nodes, 0u);
  }
}

TEST(Solver, SingletonFastPathDecidesTrivialComponents) {
  // Facts, a stratified chain over them, and an isolated undefined pair:
  // every component except {p,q} is a non-self-referential singleton, so
  // the fast path decides it in one "iteration".
  SolverOptions o;
  o.ground.mode = GroundMode::kFull;
  auto solver = Solver::FromText(R"(
    a. b.
    c :- a, not d.
    e :- c, b.
    p :- not q. q :- not p.
    r :- p.
  )", o);
  ASSERT_TRUE(solver.ok()) << solver.status().ToString();
  const PartialModel& m = solver->Solve();
  for (const char* atom : {"a", "b", "c", "e"}) {
    auto v = solver->Query(atom);
    ASSERT_TRUE(v.ok());
    EXPECT_EQ(*v, TruthValue::kTrue) << atom;
  }
  EXPECT_EQ(*solver->Query("d"), TruthValue::kFalse);
  for (const char* atom : {"p", "q", "r"}) {
    EXPECT_EQ(*solver->Query(atom), TruthValue::kUndefined) << atom;
  }
  // Trajectories: singletons decided by the fast path report exactly 1.
  const auto& iters = solver->component_iterations();
  ASSERT_EQ(iters.size(), solver->Stats().num_components);
  std::size_t ones = 0;
  for (std::uint32_t it : iters) ones += it == 1;
  EXPECT_GE(ones, solver->Stats().num_components - 1);
  (void)m;
}

/// Toggles `atom` (retract when present, assert when absent) on both the
/// session and the reference ground program, then checks the session's
/// repaired model — and, when tracking, trajectory — against a
/// from-scratch solve of the reference.
void ToggleAndCompare(Solver& solver, GroundProgram& reference,
                      const SccOptions& ref_opts, AtomId id,
                      const std::string& label) {
  const std::string atom = reference.AtomName(id);
  const bool present = reference.HasFact(id);
  StatusOr<UpdateStats> up =
      present ? solver.RetractFact(atom) : solver.AssertFact(atom);
  ASSERT_TRUE(up.ok()) << label << " " << atom << ": "
                       << up.status().ToString();
  EXPECT_EQ(up->facts_changed, 1u) << label << " " << atom;
  if (present) {
    ASSERT_TRUE(reference.RemoveFact(id).removed);
  } else {
    ASSERT_TRUE(reference.AddFact(id));
  }
  SccWfsResult scratch = WellFoundedScc(reference, ref_opts);
  EXPECT_EQ(solver.model(), scratch.model) << label << " toggling " << atom;
  if (!solver.component_iterations().empty()) {
    EXPECT_EQ(solver.component_iterations(), scratch.component_iterations)
        << label << " toggling " << atom;
  }
  // Receipt arithmetic: the downstream closure splits into re-solved and
  // skipped; everything else was reused.
  EXPECT_EQ(up->components_resolved + up->components_skipped,
            up->components_downstream)
      << label;
  EXPECT_EQ(up->components_downstream + up->components_reused,
            scratch.num_components)
      << label;
}

TEST(SolverIncremental, RandomMutationSequencesMatchFromScratch) {
  for (std::uint64_t seed = 0; seed < 10; ++seed) {
    Program p = workload::RandomPropositional(20, 40, 3, 50, seed);
    GroundProgram reference = MustGround(p, GroundMode::kFull);
    SolverOptions o;
    o.ground.mode = GroundMode::kFull;
    Solver solver = MustCreate(
        workload::RandomPropositional(20, 40, 3, 50, seed), o);
    solver.Solve();
    ASSERT_EQ(solver.model(), WellFoundedScc(reference).model)
        << "seed " << seed;

    Rng rng{seed * 2654435761u + 17};
    const std::size_t n = reference.num_atoms();
    ASSERT_GT(n, 0u);
    for (int step = 0; step < 12; ++step) {
      const AtomId id = static_cast<AtomId>(rng.Below(n));
      ToggleAndCompare(solver, reference, SccOptions{}, id,
                       "seed " + std::to_string(seed) + " step " +
                           std::to_string(step));
      if (HasFatalFailure()) return;
    }
  }
}

TEST(SolverIncremental, WinMoveMutationsMatchFromScratchBothInnerEngines) {
  for (SccInnerEngine inner : {SccInnerEngine::kAfp, SccInnerEngine::kWp}) {
    Program p = workload::WinMove(graphs::ErdosRenyi(40, 90, 5));
    GroundProgram reference = MustGround(p);
    SolverOptions o;
    o.inner = inner;
    Solver solver =
        MustCreate(workload::WinMove(graphs::ErdosRenyi(40, 90, 5)), o);
    solver.Solve();

    SccOptions ref_opts;
    ref_opts.inner = inner;
    // Toggle every 5th move fact (the EDB), then some wins atoms (IDB
    // atoms can be asserted as facts too — "position 7 is winning now").
    std::vector<AtomId> facts;
    for (AtomId a = 0; a < reference.num_atoms(); ++a) {
      if (reference.HasFact(a)) facts.push_back(a);
    }
    ASSERT_FALSE(facts.empty());
    for (std::size_t i = 0; i < facts.size(); i += 5) {
      ToggleAndCompare(solver, reference, ref_opts, facts[i],
                       "inner " + std::to_string(static_cast<int>(inner)));
      if (HasFatalFailure()) return;
    }
    for (AtomId a = 0; a < reference.num_atoms(); ++a) {
      if (!reference.HasFact(a)) {
        ToggleAndCompare(solver, reference, ref_opts, a, "idb-assert");
        break;
      }
    }
  }
}

TEST(SolverIncremental, RetractThenReassertRoundTripsBitIdentical) {
  Program p = workload::WinMove(graphs::Figure4b());
  Solver solver = MustCreate(workload::WinMove(graphs::Figure4b()));
  const PartialModel original = solver.Solve();
  const std::vector<std::uint32_t> original_iters =
      solver.component_iterations();

  GroundProgram reference = MustGround(p);
  std::vector<std::string> fact_names;
  for (AtomId a = 0; a < reference.num_atoms(); ++a) {
    if (reference.HasFact(a)) fact_names.push_back(reference.AtomName(a));
  }
  ASSERT_GE(fact_names.size(), 3u);

  for (const std::string& atom : fact_names) {
    auto out = solver.RetractFact(atom);
    ASSERT_TRUE(out.ok()) << out.status().ToString();
    EXPECT_EQ(out->facts_changed, 1u);
    auto back = solver.AssertFact(atom);
    ASSERT_TRUE(back.ok()) << back.status().ToString();
    EXPECT_EQ(back->facts_changed, 1u);
    EXPECT_EQ(solver.model(), original) << "round-trip of " << atom;
    EXPECT_EQ(solver.component_iterations(), original_iters)
        << "round-trip of " << atom;
  }

  // A whole batch retracted and re-asserted in one call each.
  auto out = solver.RetractFacts(fact_names);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->facts_changed, fact_names.size());
  auto back = solver.AssertFacts(fact_names);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->facts_changed, fact_names.size());
  EXPECT_EQ(solver.model(), original);
  EXPECT_EQ(solver.component_iterations(), original_iters);
  EXPECT_GE(solver.Stats().incremental_updates, 2u);
  EXPECT_EQ(solver.Stats().full_solves, 1u)
      << "updates must repair, not re-solve";
}

TEST(SolverIncremental, MonolithicEnginesRepairTheirModelsToo) {
  // A session seeded with a monolithic engine's model (AdoptModel) has no
  // per-component trajectory, and its repairs still run component-wise:
  // the repaired model must match a from-scratch solve of the mutated
  // program.
  for (const bool via_wp : {false, true}) {
    Program p = workload::WinMove(graphs::ErdosRenyi(30, 70, 3));
    GroundProgram reference = MustGround(p);
    Solver solver =
        MustCreate(workload::WinMove(graphs::ErdosRenyi(30, 70, 3)));
    const GroundProgram& gp = solver.ground();
    ASSERT_TRUE(solver
                    .AdoptModel(via_wp ? WellFoundedViaWp(gp).model
                                       : AlternatingFixpoint(gp).model)
                    .ok());
    ASSERT_TRUE(solver.component_iterations().empty());
    std::vector<AtomId> facts;
    for (AtomId a = 0; a < reference.num_atoms(); ++a) {
      if (reference.HasFact(a)) facts.push_back(a);
    }
    for (std::size_t i = 0; i < facts.size(); i += 7) {
      ToggleAndCompare(solver, reference, SccOptions{}, facts[i],
                       via_wp ? "wp" : "afp");
      if (HasFatalFailure()) return;
    }
    EXPECT_EQ(solver.Stats().full_solves, 0u);
  }
}

TEST(SolverIncremental, NoOpMutationsTriggerNoResolve) {
  auto solver = Solver::FromText("e. p :- e, not q.");
  ASSERT_TRUE(solver.ok());
  solver->Solve();
  const std::size_t rules = solver->ground().num_rules();

  // Retracting an absent fact and asserting a present one are no-ops.
  auto up = solver->RetractFact("p");
  ASSERT_TRUE(up.ok());
  EXPECT_EQ(up->facts_changed, 0u);
  EXPECT_EQ(up->components_resolved, 0u);
  up = solver->AssertFact("e");
  ASSERT_TRUE(up.ok());
  EXPECT_EQ(up->facts_changed, 0u);
  EXPECT_EQ(solver->ground().num_rules(), rules);
  EXPECT_EQ(solver->Stats().incremental_updates, 0u);
}

TEST(SolverIncremental, UnknownAtomFailsAtomically) {
  auto solver = Solver::FromText("e. p :- e, not q.");
  ASSERT_TRUE(solver.ok());
  const PartialModel before = solver->Solve();
  const std::size_t rules = solver->ground().num_rules();

  auto up = solver->AssertFacts({"q", "nowhere(to,be,seen)"});
  EXPECT_FALSE(up.ok());
  EXPECT_EQ(up.status().code(), StatusCode::kNotFound);
  EXPECT_EQ(solver->ground().num_rules(), rules)
      << "a failed batch must not partially apply";
  EXPECT_EQ(solver->model(), before);

  EXPECT_FALSE(solver->AssertFact("not an atom").ok());
}

TEST(SolverIncremental, MutationBeforeFirstSolveFoldsIntoIt) {
  Program p = workload::WinMove(graphs::Figure4a());
  GroundProgram reference = MustGround(p);
  std::vector<std::string> fact_names;
  for (AtomId a = 0; a < reference.num_atoms(); ++a) {
    if (reference.HasFact(a)) fact_names.push_back(reference.AtomName(a));
  }
  ASSERT_FALSE(fact_names.empty());

  Solver solver = MustCreate(workload::WinMove(graphs::Figure4a()));
  auto up = solver.RetractFact(fact_names[0]);  // before any Solve()
  ASSERT_TRUE(up.ok());
  EXPECT_EQ(up->facts_changed, 1u);
  EXPECT_EQ(up->components_resolved, 0u) << "no model to repair yet";

  auto id = ResolveAtom(reference, fact_names[0]);
  ASSERT_TRUE(id.ok());
  ASSERT_TRUE(reference.RemoveFact(*id).removed);
  EXPECT_EQ(solver.Solve(), WellFoundedScc(reference).model);
  EXPECT_EQ(solver.Stats().full_solves, 1u);
}

TEST(SolverIncremental, SameBucketSwapRemoveTakesRotatePath) {
  // Retracting "a." here swap-moves the LAST rule ("b :- a.") into the
  // erased slot — and both rules live in the SAME component bucket (the
  // {a,b} positive cycle), so the patch must rotate the moved id down
  // within one vector rather than erase from one bucket and insert into
  // another. This is the std::rotate arm of UpdateFactsById.
  constexpr const char* kText = "a. a :- b. b :- a. c :- not a.";
  auto ref_program = ParseProgram(kText);
  auto solver_program = ParseProgram(kText);
  ASSERT_TRUE(ref_program.ok() && solver_program.ok());
  GroundProgram reference = MustGround(*ref_program, GroundMode::kFull);
  SolverOptions o;
  o.ground.mode = GroundMode::kFull;
  Solver solver = MustCreate(std::move(solver_program).value(), o);
  solver.Solve();
  ASSERT_TRUE(solver.ValidateRuleBuckets());
  for (int round = 0; round < 3; ++round) {
    auto out = solver.RetractFact("a");
    ASSERT_TRUE(out.ok()) << out.status().ToString();
    EXPECT_TRUE(solver.ValidateRuleBuckets()) << "round " << round;
    ASSERT_TRUE(reference.RemoveFact(*ResolveAtom(reference, "a")).removed);
    EXPECT_EQ(solver.model(), WellFoundedScc(reference).model)
        << "round " << round;
    auto back = solver.AssertFact("a");
    ASSERT_TRUE(back.ok()) << back.status().ToString();
    EXPECT_TRUE(solver.ValidateRuleBuckets()) << "round " << round;
    ASSERT_TRUE(reference.AddFact(*ResolveAtom(reference, "a")));
    EXPECT_EQ(solver.model(), WellFoundedScc(reference).model)
        << "round " << round;
  }
}

TEST(SolverIncremental, InterleavedBatchesKeepBucketsAndMatchFromScratch) {
  // Fuzz the bucket surgery: random coalesced batches (UpdateFacts with
  // both lists populated) against a freshly rebuilt RuleBuckets
  // after every step, plus the usual from-scratch model differential.
  for (std::uint64_t seed = 0; seed < 6; ++seed) {
    Program p = workload::RandomPropositional(16, 40, 3, 60, seed);
    GroundProgram reference = MustGround(p, GroundMode::kFull);
    SolverOptions o;
    o.ground.mode = GroundMode::kFull;
    Solver solver =
        MustCreate(workload::RandomPropositional(16, 40, 3, 60, seed), o);
    solver.Solve();
    Rng rng{seed * 2654435761u + 101};
    const std::size_t n = reference.num_atoms();
    ASSERT_GT(n, 0u);
    for (int step = 0; step < 15; ++step) {
      std::vector<AtomId> picked;
      const std::size_t k = 1 + rng.Below(4);
      while (picked.size() < k) {
        const AtomId id = static_cast<AtomId>(rng.Below(n));
        if (std::find(picked.begin(), picked.end(), id) == picked.end()) {
          picked.push_back(id);
        }
      }
      std::vector<std::string> asserts, retracts;
      for (AtomId id : picked) {
        if (reference.HasFact(id)) {
          retracts.push_back(reference.AtomName(id));
          ASSERT_TRUE(reference.RemoveFact(id).removed);
        } else {
          asserts.push_back(reference.AtomName(id));
          ASSERT_TRUE(reference.AddFact(id));
        }
      }
      auto up = solver.UpdateFacts(asserts, retracts);
      ASSERT_TRUE(up.ok()) << "seed " << seed << " step " << step << ": "
                           << up.status().ToString();
      EXPECT_EQ(up->facts_changed, picked.size())
          << "seed " << seed << " step " << step;
      ASSERT_TRUE(solver.ValidateRuleBuckets())
          << "seed " << seed << " step " << step;
      SccWfsResult fresh = WellFoundedScc(reference);
      EXPECT_EQ(solver.model(), fresh.model)
          << "seed " << seed << " step " << step;
      EXPECT_EQ(solver.component_iterations(), fresh.component_iterations)
          << "seed " << seed << " step " << step;
      if (HasFatalFailure()) return;
    }
  }
}

TEST(SolverIncremental, UpdateFactsCoalescesRetractThenAssert) {
  auto solver = Solver::FromText("p :- e, not q. q :- f. e. f.");
  ASSERT_TRUE(solver.ok()) << solver.status().ToString();
  solver->Solve();
  EXPECT_EQ(*solver->Query("p"), TruthValue::kFalse);
  // One batch, one repair: retract f, assert nothing new for e.
  auto up = solver->UpdateFacts(/*asserts=*/{}, /*retracts=*/{"f"});
  ASSERT_TRUE(up.ok());
  EXPECT_EQ(up->facts_changed, 1u);
  EXPECT_EQ(*solver->Query("p"), TruthValue::kTrue);
  EXPECT_EQ(*solver->Query("q"), TruthValue::kFalse);
  // An atom in both lists ends up asserted (retracts apply first).
  up = solver->UpdateFacts(/*asserts=*/{"f"}, /*retracts=*/{"f"});
  ASSERT_TRUE(up.ok());
  EXPECT_EQ(*solver->Query("q"), TruthValue::kTrue);
  EXPECT_TRUE(solver->ValidateRuleBuckets());
}

TEST(Solver, AdoptModelValidatesAndRestoresQueryPath) {
  auto a = Solver::FromText("p :- not q. q :- e. e.");
  auto b = Solver::FromText("p :- not q. q :- e. e.");
  ASSERT_TRUE(a.ok() && b.ok());
  PartialModel snap = a->SnapshotModel();
  ASSERT_TRUE(b->AdoptModel(snap).ok());
  EXPECT_TRUE(b->solved());
  EXPECT_EQ(b->model(), a->model());
  EXPECT_EQ(*b->Query("q"), TruthValue::kTrue);
  // Adopted sessions keep repairing incrementally.
  ASSERT_TRUE(b->RetractFact("e").ok());
  EXPECT_EQ(*b->Query("p"), TruthValue::kTrue);
  // Universe mismatch and non-models are rejected.
  auto c = Solver::FromText("x :- not y. y.");
  ASSERT_TRUE(c.ok());
  EXPECT_FALSE(c->AdoptModel(snap).ok());
  PartialModel junk = PartialModel::AllUndefined(a->ground().num_atoms());
  junk.true_atoms().Set(0);
  junk.false_atoms().Set(0);
  EXPECT_FALSE(a->AdoptModel(junk).ok());
}

}  // namespace
}  // namespace afp
