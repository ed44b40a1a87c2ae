// Atom-level dependency analysis and the component-wise well-founded
// engine: local stratification, bottom-up component evaluation, and
// equivalence with the monolithic alternating fixpoint.

#include "core/scc_engine.h"

#include <algorithm>
#include <cstdint>
#include <limits>

#include <gtest/gtest.h>

#include "analysis/atom_graph.h"
#include "core/alternating.h"
#include "core/component_solver.h"
#include "ground/grounder.h"
#include "ground/owned_rules.h"
#include "workload/graphs.h"
#include "workload/programs.h"

namespace afp {
namespace {

GroundProgram MustGround(Program& p, GroundMode mode = GroundMode::kSmart) {
  GroundOptions opts;
  opts.mode = mode;
  auto g = Grounder::Ground(p, opts);
  EXPECT_TRUE(g.ok()) << g.status().ToString();
  return std::move(g).value();
}

TEST(AtomGraph, ComponentsOfPositiveCycle) {
  auto parsed = ParseProgram("p :- q. q :- p. r :- p.");
  ASSERT_TRUE(parsed.ok());
  Program p = std::move(parsed).value();
  GroundProgram gp = MustGround(p, GroundMode::kFull);
  AtomDependencyGraph g(gp.View());
  // {p,q} one component, {r} its own; callees get smaller ids.
  EXPECT_EQ(g.num_components(), 2u);
  AtomId pa = *ResolveAtom(gp, "p");
  AtomId qa = *ResolveAtom(gp, "q");
  AtomId ra = *ResolveAtom(gp, "r");
  EXPECT_EQ(g.component_of()[pa], g.component_of()[qa]);
  EXPECT_LT(g.component_of()[pa], g.component_of()[ra]);
  EXPECT_TRUE(g.IsLocallyStratified());
}

TEST(AtomGraph, NegativeSelfLoopNotLocallyStratified) {
  auto parsed = ParseProgram("p :- not p.");
  ASSERT_TRUE(parsed.ok());
  Program p = std::move(parsed).value();
  GroundProgram gp = MustGround(p, GroundMode::kFull);
  AtomDependencyGraph g(gp.View());
  EXPECT_FALSE(g.IsLocallyStratified());
}

TEST(AtomGraph, WinMoveOnAcyclicGraphIsLocallyStratified) {
  // The predicate-level program is unstratified, but the GROUND program on
  // an acyclic move graph is locally stratified — exactly Przymusinski's
  // point about local stratification being finer (§2.3).
  Program p = workload::WinMove(graphs::Figure4a());
  GroundProgram gp = MustGround(p);
  AtomDependencyGraph g(gp.View());
  EXPECT_TRUE(g.IsLocallyStratified());

  Program p2 = workload::WinMove(graphs::Figure4b());  // cyclic moves
  GroundProgram gp2 = MustGround(p2);
  AtomDependencyGraph g2(gp2.View());
  EXPECT_FALSE(g2.IsLocallyStratified());
}

TEST(AtomGraph, DeepChainDoesNotOverflow) {
  // The iterative Tarjan must survive a 60k-deep positive chain.
  Program p;
  p.AddFact("p0", {});
  for (int i = 1; i < 60000; ++i) {
    p.AddRule(p.MakeAtom(std::string("p").append(std::to_string(i))),
              {Program::Pos(p.MakeAtom(
                  std::string("p").append(std::to_string(i - 1))))});
  }
  GroundProgram gp = MustGround(p);
  AtomDependencyGraph g(gp.View());
  EXPECT_EQ(g.num_components(), 60000u);
}

TEST(SccEngine, MatchesAfpOnPaperExamples) {
  std::vector<Program> programs;
  programs.push_back(workload::Example51());
  programs.push_back(workload::Example31());
  programs.push_back(workload::WinMove(graphs::Figure4a()));
  programs.push_back(workload::WinMove(graphs::Figure4b()));
  programs.push_back(workload::WinMove(graphs::Figure4c()));
  programs.push_back(workload::TransitiveClosureComplement(
      graphs::Cycle(4)));
  // Edge cases: the empty program (zero components, empty model) and the
  // single-atom odd loop.
  programs.emplace_back();
  auto odd_loop = ParseProgram("p :- not p.");
  ASSERT_TRUE(odd_loop.ok());
  programs.push_back(std::move(odd_loop).value());
  for (Program& p : programs) {
    GroundProgram gp = MustGround(p, GroundMode::kFull);
    SccWfsResult scc = WellFoundedScc(gp);
    AfpResult afp = AlternatingFixpoint(gp);
    EXPECT_EQ(scc.model, afp.model);
    if (gp.num_atoms() == 0) {
      EXPECT_EQ(scc.num_components, 0u);
      EXPECT_TRUE(scc.model.true_atoms().None());
      EXPECT_TRUE(scc.model.false_atoms().None());
    }
  }
}

TEST(SccEngine, MatchesAfpOnRandomPrograms) {
  for (std::uint64_t seed = 0; seed < 40; ++seed) {
    Program p = workload::RandomPropositional(
        /*num_atoms=*/25, /*num_rules=*/50, /*body_len=*/3,
        /*neg_prob_percent=*/50, seed);
    GroundProgram gp = MustGround(p, GroundMode::kFull);
    EXPECT_EQ(WellFoundedScc(gp).model, AlternatingFixpoint(gp).model)
        << "seed " << seed;
  }
}

TEST(SccEngine, MatchesAfpOnGraphWorkloads) {
  for (std::uint64_t seed = 0; seed < 6; ++seed) {
    Program p = workload::WinMove(graphs::ErdosRenyi(50, 120, seed));
    GroundProgram gp = MustGround(p);
    EXPECT_EQ(WellFoundedScc(gp).model, AlternatingFixpoint(gp).model)
        << "seed " << seed;
  }
}

TEST(SccEngine, LocallyStratifiedGivesTotalModel) {
  // Ground-locally-stratified programs have a total well-founded model
  // (their perfect model) — Przymusinski via §2.4.
  for (std::uint64_t seed = 0; seed < 10; ++seed) {
    Program p = workload::WinMove(
        graphs::ErdosRenyi(20, 25, seed));  // may or may not be acyclic
    GroundProgram gp = MustGround(p);
    SccWfsResult r = WellFoundedScc(gp);
    if (r.locally_stratified) {
      EXPECT_TRUE(r.model.IsTotal()) << "seed " << seed;
    }
  }
  // And a guaranteed-acyclic instance:
  Program p = workload::WinMove(graphs::Chain(15));
  GroundProgram gp = MustGround(p);
  SccWfsResult r = WellFoundedScc(gp);
  EXPECT_TRUE(r.locally_stratified);
  EXPECT_TRUE(r.model.IsTotal());
}

TEST(SccEngine, LocalWorkIsBoundedByProgramSize) {
  // Component-wise evaluation touches each rule a constant number of
  // times: total local size stays within a small factor of program size,
  // even when the plain engine alternates Θ(n) rounds.
  Program p = workload::WinMove(graphs::Chain(100));
  GroundProgram gp = MustGround(p);
  SccWfsResult r = WellFoundedScc(gp);
  EXPECT_LE(r.total_local_size, 4 * gp.TotalSize() + 16);
  AfpResult afp = AlternatingFixpoint(gp);
  EXPECT_EQ(r.model, afp.model);
  EXPECT_GT(afp.outer_iterations, 40u);  // the monolithic engine alternates
}

TEST(SccEngine, UndefinedExternalsCapDependentAtoms) {
  // b depends positively on the undefined pair {p,q}; c depends negatively.
  // Both must come out undefined, not true/false.
  auto parsed = ParseProgram(R"(
    p :- not q. q :- not p.
    b :- p.
    c :- not p.
    d :- b, not c.
  )");
  ASSERT_TRUE(parsed.ok());
  Program p = std::move(parsed).value();
  GroundProgram gp = MustGround(p, GroundMode::kFull);
  SccWfsResult r = WellFoundedScc(gp);
  for (const char* atom : {"p", "q", "b", "c", "d"}) {
    auto id = ResolveAtom(gp, atom);
    ASSERT_TRUE(id.ok());
    EXPECT_EQ(r.model.Value(*id), TruthValue::kUndefined) << atom;
  }
  EXPECT_EQ(r.model, AlternatingFixpoint(gp).model);
}

TEST(AtomGraph, CondensationEdgesAndInDegrees) {
  // p <- q (cross-component), {p,q2,q3} chain: condensation edges point
  // dependency -> dependent.
  auto parsed = ParseProgram("q. p :- q. r :- p, q.");
  ASSERT_TRUE(parsed.ok());
  Program p = std::move(parsed).value();
  GroundProgram gp = MustGround(p, GroundMode::kFull);
  AtomDependencyGraph g(gp.View());
  ASSERT_EQ(g.num_components(), 3u);
  const auto& off = g.condensation_offsets();
  const auto& succ = g.condensation_successors();
  ASSERT_EQ(off.size(), g.num_components() + 1);
  AtomId qa = *ResolveAtom(gp, "q");
  AtomId pa = *ResolveAtom(gp, "p");
  AtomId ra = *ResolveAtom(gp, "r");
  std::uint32_t cq = g.component_of()[qa];
  std::uint32_t cp = g.component_of()[pa];
  std::uint32_t cr = g.component_of()[ra];
  // q feeds p and r; p feeds r. Every edge goes id-upward.
  std::size_t total_edges = 0;
  for (std::uint32_t c = 0; c < g.num_components(); ++c) {
    for (std::uint32_t k = off[c]; k < off[c + 1]; ++k) {
      EXPECT_GT(succ[k], c);
      ++total_edges;
    }
  }
  EXPECT_EQ(total_edges, 3u);
  EXPECT_EQ(std::vector<std::uint32_t>(succ.begin() + off[cq],
                                       succ.begin() + off[cq + 1]),
            (std::vector<std::uint32_t>{cp, cr}));
  EXPECT_EQ(std::vector<std::uint32_t>(succ.begin() + off[cp],
                                       succ.begin() + off[cp + 1]),
            (std::vector<std::uint32_t>{cr}));
  EXPECT_EQ(off[cr + 1], off[cr]);
}

/// A program whose component of `p` holds four rules, next to singleton
/// components holding one rule each.
constexpr char kFourRulesForP[] =
    "q1. q2. q3. q4. p :- q1. p :- q2. p :- q3. p :- q4. r :- p.";

std::vector<std::uint32_t> RowOf(const RuleBuckets& b, std::uint32_t c) {
  return {b[c].begin(), b[c].end()};
}

TEST(RuleBuckets, AppendPastCapacityMovesOnlyThatRow) {
  auto parsed = ParseProgram(kFourRulesForP);
  ASSERT_TRUE(parsed.ok());
  Program p = std::move(parsed).value();
  GroundProgram gp = MustGround(p, GroundMode::kFull);
  AtomDependencyGraph graph(gp.View());
  RuleBuckets buckets(gp.View(), graph);
  const RuleBuckets before = buckets;
  const std::uint32_t cp = graph.component_of()[*ResolveAtom(gp, "p")];
  std::vector<std::uint32_t> want = RowOf(buckets, cp);
  ASSERT_EQ(want.size(), 4u);
  // A fresh build packs every row exactly, so the first Append outgrows
  // the slot; the next three fill the doubled one, the fifth moves again.
  for (std::uint32_t id = 100; id < 105; ++id) {
    buckets.Append(cp, id);
    want.push_back(id);
    EXPECT_EQ(RowOf(buckets, cp), want);
    for (std::uint32_t c = 0; c < buckets.num_rows(); ++c) {
      if (c == cp) continue;
      EXPECT_EQ(RowOf(buckets, c), RowOf(before, c)) << "row " << c;
      // The moved row now sits behind every other row in the pool.
      if (!buckets[c].empty()) {
        EXPECT_GT(buckets[cp].data(), buckets[c].data()) << "row " << c;
      }
    }
  }
  // An empty row (a component appended by Resize) grows from nothing.
  buckets.Resize(buckets.num_rows() + 1);
  const auto last = static_cast<std::uint32_t>(buckets.num_rows() - 1);
  EXPECT_TRUE(buckets[last].empty());
  buckets.Append(last, 7);
  buckets.Append(last, 9);
  EXPECT_EQ(RowOf(buckets, last), (std::vector<std::uint32_t>{7, 9}));
  EXPECT_EQ(RowOf(buckets, cp), want);
}

TEST(RuleBuckets, EraseAndRenumberKeepRowsSorted) {
  auto parsed = ParseProgram(kFourRulesForP);
  ASSERT_TRUE(parsed.ok());
  Program p = std::move(parsed).value();
  GroundProgram gp = MustGround(p, GroundMode::kFull);
  AtomDependencyGraph graph(gp.View());
  RuleBuckets buckets(gp.View(), graph);
  const std::uint32_t cp = graph.component_of()[*ResolveAtom(gp, "p")];
  const std::vector<std::uint32_t> row = RowOf(buckets, cp);
  ASSERT_EQ(row.size(), 4u);
  ASSERT_TRUE(std::is_sorted(row.begin(), row.end()));
  const std::uint32_t a = row[0], b = row[1], c = row[2], d = row[3];
  for (std::uint32_t id : {100u, 101u, 102u}) buckets.Append(cp, id);
  // Each swap-erase step: erase an id, then move the row's largest id
  // down into the freed one — into the middle, to the front, and (no
  // slide at all) into the slot it already holds.
  buckets.Erase(cp, b);
  EXPECT_EQ(RowOf(buckets, cp),
            (std::vector<std::uint32_t>{a, c, d, 100, 101, 102}));
  buckets.Renumber(cp, 102, b);
  EXPECT_EQ(RowOf(buckets, cp),
            (std::vector<std::uint32_t>{a, b, c, d, 100, 101}));
  buckets.Erase(cp, a);
  buckets.Renumber(cp, 101, a);
  EXPECT_EQ(RowOf(buckets, cp),
            (std::vector<std::uint32_t>{a, b, c, d, 100}));
  buckets.Renumber(cp, 100, d + 1);
  EXPECT_EQ(RowOf(buckets, cp),
            (std::vector<std::uint32_t>{a, b, c, d, d + 1}));
  buckets.Erase(cp, d + 1);
  EXPECT_EQ(RowOf(buckets, cp), row);
}

TEST(RuleBuckets, EqualityComparesRowsNotPoolLayout) {
  auto parsed = ParseProgram(kFourRulesForP);
  ASSERT_TRUE(parsed.ok());
  Program p = std::move(parsed).value();
  GroundProgram gp = MustGround(p, GroundMode::kFull);
  AtomDependencyGraph graph(gp.View());
  const RuleBuckets packed(gp.View(), graph);
  RuleBuckets moved = packed;
  const std::uint32_t cp = graph.component_of()[*ResolveAtom(gp, "p")];
  const std::uint32_t cq = graph.component_of()[*ResolveAtom(gp, "q1")];
  // Moves row cp to the pool's end, then restores its contents.
  moved.Append(cp, 100);
  moved.Erase(cp, 100);
  EXPECT_NE(moved[cp].data() - moved[cq].data(),
            packed[cp].data() - packed[cq].data());
  EXPECT_EQ(moved, packed);
  moved.Erase(cp, moved[cp][0]);
  EXPECT_NE(moved, packed);
  RuleBuckets longer = packed;
  longer.Resize(packed.num_rows() + 1);
  EXPECT_NE(longer, packed);
}

/// One session-style repair: a fresh assumption-free ComponentSolver over
/// `gp`'s current view drives SccResolveDownstream on `model`.
SccUpdateStats Repair(EvalContext& ctx, const GroundProgram& gp,
                      const AtomDependencyGraph& graph,
                      const RuleBuckets& buckets, const SccOptions& opts,
                      std::span<const AtomId> touched, PartialModel* model,
                      std::vector<std::uint32_t>* iters,
                      SccUpdateScratch& scratch) {
  const RuleView view = gp.View();
  ComponentSolver solver(ctx, opts, view, graph, buckets);
  GlobalModel gm{&model->true_atoms(), &model->false_atoms()};
  return SccResolveDownstream(solver, touched, gm, iters, scratch);
}

/// Toggles an EDB fact and patches the buckets the way
/// Solver::UpdateFactsById does, so the direct SccResolveDownstream tests
/// below can mutate the program.
void ToggleFactAndPatchBuckets(GroundProgram& gp,
                               const AtomDependencyGraph& graph,
                               RuleBuckets& buckets, AtomId id) {
  const auto& comp_of = graph.component_of();
  if (!gp.HasFact(id)) {
    ASSERT_TRUE(gp.AddFact(id));
    buckets.Append(comp_of[id], static_cast<std::uint32_t>(gp.num_rules() - 1));
    return;
  }
  GroundProgram::FactRemoval rem = gp.RemoveFact(id);
  ASSERT_TRUE(rem.removed);
  buckets.Erase(comp_of[id], rem.erased_rule);
  if (rem.moved_rule != rem.erased_rule) {
    buckets.Renumber(comp_of[gp.rule(rem.erased_rule).head], rem.moved_rule,
                     rem.erased_rule);
  }
}

/// One scratch object shared across a long toggle sequence must leave the
/// repaired model — and trajectory — bit-identical to (a) the same repair
/// with a fresh scratch per call and (b) a from-scratch solve. This pins
/// the epoch stamps of SccResolveDownstream's per-update bookkeeping.
TEST(SccEngine, UpdateScratchSharedAcrossUpdatesBitIdentical) {
  struct Rng {
    std::uint64_t state;
    std::uint64_t Next() {
      state ^= state << 13;
      state ^= state >> 7;
      state ^= state << 17;
      return state;
    }
    std::size_t Below(std::size_t n) { return Next() % n; }
  };
  for (std::uint64_t sequence : {1, 3}) {
    Program p = workload::RandomPropositional(30, 60, 3, 50, 7);
    GroundProgram gp = MustGround(p, GroundMode::kFull);
    AtomDependencyGraph graph(gp.View());
    RuleBuckets buckets(gp.View(), graph);
    EvalContext ctx;
    SccOptions opts;
    SccWfsResult base =
        WellFoundedSccOnGraph(ctx, gp.View(), graph, buckets, opts);
    PartialModel with_scratch = base.model;
    PartialModel fresh_scratch = base.model;
    std::vector<std::uint32_t> iters_shared = base.component_iterations;
    std::vector<std::uint32_t> iters_fresh = base.component_iterations;
    SccUpdateScratch scratch;
    Rng rng{0x9e3779b97f4a7c15ull + sequence};
    for (int step = 0; step < 24; ++step) {
      const AtomId id = static_cast<AtomId>(rng.Below(gp.num_atoms()));
      ToggleFactAndPatchBuckets(gp, graph, buckets, id);
      if (HasFatalFailure()) return;
      const AtomId touched[] = {id};
      Repair(ctx, gp, graph, buckets, opts, touched, &with_scratch,
             &iters_shared, scratch);
      SccUpdateScratch per_call;
      Repair(ctx, gp, graph, buckets, opts, touched, &fresh_scratch,
             &iters_fresh, per_call);
      EXPECT_EQ(with_scratch, fresh_scratch)
          << "sequence " << sequence << " step " << step;
      EXPECT_EQ(iters_shared, iters_fresh)
          << "sequence " << sequence << " step " << step;
      SccWfsResult fresh =
          WellFoundedSccOnGraph(ctx, gp.View(), graph, buckets, opts);
      EXPECT_EQ(with_scratch, fresh.model)
          << "sequence " << sequence << " step " << step;
      EXPECT_EQ(iters_shared, fresh.component_iterations)
          << "sequence " << sequence << " step " << step;
      if (HasFatalFailure()) return;
    }
  }
}

/// The stamps are 32-bit, and the stable search repairs at every node, so
/// the epoch wraps on long-lived sessions. A scratch started just below
/// the wrap must repair across it exactly like from-scratch solves.
/// Without the reset at the wrap, the update at epoch 0 would read every
/// never-stamped component as already in its closure and repair nothing.
TEST(SccEngine, UpdateScratchEpochWrapMatchesFullSolves) {
  Program p = workload::RandomPropositional(30, 60, 3, 50, 7);
  GroundProgram gp = MustGround(p, GroundMode::kFull);
  AtomDependencyGraph graph(gp.View());
  RuleBuckets buckets(gp.View(), graph);
  EvalContext ctx;
  SccOptions opts;
  SccWfsResult base =
      WellFoundedSccOnGraph(ctx, gp.View(), graph, buckets, opts);
  PartialModel model = base.model;
  std::vector<std::uint32_t> iters = base.component_iterations;

  // Asserting a fact on an atom that is not true changes the model, and
  // retracting it again changes it back. Successors have larger component
  // ids, so `first` (in the lowest component) is downstream of nothing
  // `last` (in the highest) touches: the first update after the wrap
  // starts from a component no earlier update stamped.
  const auto& comp_of = graph.component_of();
  AtomId first = kInvalidAtom, last = kInvalidAtom;
  for (AtomId a = 0; a < gp.num_atoms(); ++a) {
    if (gp.HasFact(a) || model.Value(a) == TruthValue::kTrue) continue;
    if (first == kInvalidAtom || comp_of[a] < comp_of[first]) first = a;
    if (last == kInvalidAtom || comp_of[a] > comp_of[last]) last = a;
  }
  ASSERT_NE(first, kInvalidAtom);
  ASSERT_LT(comp_of[first], comp_of[last]);
  const AtomId toggles[] = {last, last, last, first, first, last, first};

  // Updates run at epochs max - 2, max - 1 and max, then 1, 2, ...
  SccUpdateScratch scratch(std::numeric_limits<std::uint32_t>::max() - 3);
  for (std::size_t step = 0; step < std::size(toggles); ++step) {
    ToggleFactAndPatchBuckets(gp, graph, buckets, toggles[step]);
    if (HasFatalFailure()) return;
    const AtomId touched[] = {toggles[step]};
    const SccUpdateStats st = Repair(ctx, gp, graph, buckets, opts, touched,
                                     &model, &iters, scratch);
    EXPECT_TRUE(st.model_changed)
        << "step " << step << ": the toggle should change the model";
    SccWfsResult fresh =
        WellFoundedSccOnGraph(ctx, gp.View(), graph, buckets, opts);
    ASSERT_EQ(model, fresh.model)
        << "step " << step << ": a stale stamp skipped a component";
    ASSERT_EQ(iters, fresh.component_iterations) << "step " << step;
  }
}

/// The stable search's assumption masks against the definition they
/// implement: solving every component of the BASE condensation under an
/// assumption pair must give exactly the alternating fixpoint of the
/// conditioned program, which the test builds itself (assumed-true atoms
/// become facts, rules whose head is assumed false are deleted). The
/// pairs are random and consistent, and include atoms inside multi-atom
/// components, where the assumption cuts a cycle the condensation still
/// treats as one component.
TEST(SccEngine, AssumptionMasksMatchConditionedProgram) {
  std::size_t multi_atom_assumptions = 0;
  for (std::uint64_t seed = 0; seed < 16; ++seed) {
    Program p = workload::RandomPropositional(14, 30, 2, 50, seed);
    GroundProgram gp = MustGround(p, GroundMode::kFull);
    const RuleView view = gp.View();
    const std::size_t n = gp.num_atoms();
    AtomDependencyGraph graph(view);
    const RuleBuckets buckets(view, graph);
    EvalContext ctx;
    std::uint64_t rng = 0x9e3779b97f4a7c15ull ^ (seed * 0x100000001b3ull);
    auto next = [&rng] {
      rng ^= rng << 13;
      rng ^= rng >> 7;
      rng ^= rng << 17;
      return rng;
    };
    for (int trial = 0; trial < 12; ++trial) {
      Bitset assumed_true(n);
      Bitset assumed_false(n);
      for (std::size_t a = 0; a < n; ++a) {
        const std::uint64_t r = next() % 6;  // 1/6 true, 1/6 false
        if (r == 0) assumed_true.Set(a);
        if (r == 1) assumed_false.Set(a);
        if (r <= 1 &&
            graph.members(graph.component_of()[a]).size() > 1) {
          ++multi_atom_assumptions;
        }
      }

      Bitset got_true(n);
      Bitset got_false(n);
      GlobalModel gm{&got_true, &got_false};
      {
        ComponentSolver solver(ctx, SccOptions{}, view, graph, buckets,
                               AssumptionPair{&assumed_true, &assumed_false});
        for (std::uint32_t c = 0; c < graph.num_components(); ++c) {
          solver.Solve(c, gm);
        }
      }

      OwnedRules conditioned;
      conditioned.num_atoms = n;
      for (const GroundRule& r : view.rules) {
        if (assumed_false.Test(r.head)) continue;
        conditioned.Add(r.head, view.pos(r), view.neg(r));
      }
      assumed_true.ForEach([&](std::size_t a) {
        conditioned.Add(static_cast<AtomId>(a), {}, {});
      });
      HornSolver oracle_solver(conditioned.View());
      const AfpResult oracle =
          AlternatingFixpointWithContext(ctx, oracle_solver, Bitset());
      EXPECT_EQ(got_true, oracle.model.true_atoms())
          << "seed " << seed << " trial " << trial;
      EXPECT_EQ(got_false, oracle.model.false_atoms())
          << "seed " << seed << " trial " << trial;
    }
  }
  EXPECT_GT(multi_atom_assumptions, 0u) << "no assumption hit a cycle";
}

/// The search's incremental step: repairing downstream of one new
/// assumption (writes logged on a trail) equals solving the conditioned
/// program from scratch, and undoing the trail restores the model before
/// the step bit for bit.
TEST(SccEngine, AssumptionRepairMatchesFullSolveAndUndoRestores) {
  for (std::uint64_t seed = 0; seed < 12; ++seed) {
    Program p = workload::RandomPropositional(14, 30, 2, 50, seed);
    GroundProgram gp = MustGround(p, GroundMode::kFull);
    const RuleView view = gp.View();
    const std::size_t n = gp.num_atoms();
    AtomDependencyGraph graph(view);
    const RuleBuckets buckets(view, graph);
    EvalContext ctx;
    Bitset assumed_true(n);
    Bitset assumed_false(n);
    const AssumptionPair pair{&assumed_true, &assumed_false};
    ComponentSolver incremental(ctx, SccOptions{}, view, graph, buckets, pair);
    SccUpdateScratch scratch;
    std::vector<TrailEntry> trail;
    Bitset model_true(n);
    Bitset model_false(n);
    GlobalModel gm{&model_true, &model_false, &trail};
    for (std::uint32_t c = 0; c < graph.num_components(); ++c) {
      incremental.Solve(c, gm);
    }
    trail.clear();
    // Assume every atom in turn (alternating polarity), keeping each
    // assumption, as a depth-first path would.
    for (AtomId a = 0; a < n; ++a) {
      if (model_true.Test(a) || model_false.Test(a)) continue;
      const Bitset before_true = model_true;
      const Bitset before_false = model_false;
      const std::size_t mark = trail.size();
      (a % 2 == 0 ? assumed_false : assumed_true).Set(a);
      const AtomId touched[] = {a};
      SccResolveDownstream(incremental, touched, gm, nullptr, scratch);

      Bitset full_true(n);
      Bitset full_false(n);
      GlobalModel full{&full_true, &full_false};
      ComponentSolver fresh(ctx, SccOptions{}, view, graph, buckets, pair);
      for (std::uint32_t c = 0; c < graph.num_components(); ++c) {
        fresh.Solve(c, full);
      }
      EXPECT_EQ(model_true, full_true) << "seed " << seed << " atom " << a;
      EXPECT_EQ(model_false, full_false) << "seed " << seed << " atom " << a;

      // Roll back, check, then replay to continue down the path.
      gm.UndoTo(mark);
      EXPECT_EQ(model_true, before_true) << "seed " << seed << " atom " << a;
      EXPECT_EQ(model_false, before_false)
          << "seed " << seed << " atom " << a;
      SccResolveDownstream(incremental, touched, gm, nullptr, scratch);
    }
  }
}

}  // namespace
}  // namespace afp
