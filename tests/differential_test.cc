// Differential tests: independent implementations and modes must agree.
//  * smart vs full grounding give the same well-founded verdicts on the
//    atoms the smart grounder materializes, and everything it drops is
//    false under full grounding;
//  * ground-program text round-trips through the parser with the same
//    well-founded model;
//  * the three well-founded engines and the from-scratch reference loop
//    (tests/reference/) agree on non-ground Datalog workloads.

#include <gtest/gtest.h>

#include <string>

#include "core/alternating.h"
#include "core/scc_engine.h"
#include "ground/grounder.h"
#include "reference/reference.h"
#include "wfs/wp_engine.h"
#include "workload/graphs.h"
#include "workload/programs.h"

namespace afp {
namespace {

TEST(GrounderDifferential, SmartAndFullAgreeOnWellFoundedVerdicts) {
  int nontrivial = 0;
  for (std::uint64_t seed = 0; seed < 60; ++seed) {
    Program p1 = workload::RandomDatalog(4, 6, 8, seed);
    ASSERT_TRUE(p1.Validate().ok())
        << "generator produced an invalid program, seed " << seed << "\n"
        << p1.ToString();
    Program p2 = workload::RandomDatalog(4, 6, 8, seed);

    auto smart = Grounder::Ground(p1);
    ASSERT_TRUE(smart.ok()) << smart.status().ToString();
    GroundOptions full_opts;
    full_opts.mode = GroundMode::kFull;
    auto full = Grounder::Ground(p2, full_opts);
    ASSERT_TRUE(full.ok()) << full.status().ToString();

    PartialModel smart_model = AlternatingFixpoint(*smart).model;
    PartialModel full_model = AlternatingFixpoint(*full).model;
    if (smart_model.num_true() > 0) ++nontrivial;

    // Every atom of the full base: its verdict must match the smart
    // pipeline's answer (QueryAtom = closed world for dropped atoms).
    for (AtomId a = 0; a < full->num_atoms(); ++a) {
      std::string name = full->AtomName(a);
      auto smart_value = QueryAtom(*smart, smart_model, name);
      ASSERT_TRUE(smart_value.ok()) << name;
      EXPECT_EQ(*smart_value, full_model.Value(a))
          << name << " seed " << seed << "\nprogram:\n"
          << p1.ToString();
    }
    // And conversely the smart base is a subset of the full base.
    for (AtomId a = 0; a < smart->num_atoms(); ++a) {
      auto full_value = QueryAtom(*full, full_model, smart->AtomName(a));
      ASSERT_TRUE(full_value.ok());
      EXPECT_EQ(smart_model.Value(a), *full_value)
          << smart->AtomName(a) << " seed " << seed;
    }
  }
  // The sweep must exercise real derivations, not just empty programs.
  EXPECT_GT(nontrivial, 20);
}

TEST(GrounderDifferential, GroundTextRoundTripsThroughParser) {
  for (std::uint64_t seed = 0; seed < 25; ++seed) {
    Program p = workload::RandomDatalog(4, 6, 8, seed);
    auto ground = Grounder::Ground(p);
    ASSERT_TRUE(ground.ok());
    PartialModel original = AlternatingFixpoint(*ground).model;

    // The ground program's text is itself a valid program.
    auto reparsed = ParseProgram(ground->ToString());
    ASSERT_TRUE(reparsed.ok()) << reparsed.status().ToString() << "\n"
                               << ground->ToString();
    auto reground = Grounder::Ground(*reparsed);
    ASSERT_TRUE(reground.ok());
    PartialModel roundtrip = AlternatingFixpoint(*reground).model;

    EXPECT_EQ(original.num_true(), roundtrip.num_true()) << "seed " << seed;
    EXPECT_EQ(original.num_false(), roundtrip.num_false())
        << "seed " << seed;
    for (AtomId a = 0; a < ground->num_atoms(); ++a) {
      auto v = QueryAtom(*reground, roundtrip, ground->AtomName(a));
      ASSERT_TRUE(v.ok());
      EXPECT_EQ(original.Value(a), *v)
          << ground->AtomName(a) << " seed " << seed;
    }
  }
}

// The paper's win–move program (Example 5.2) over the Figure 4(a) move
// graph, written as program text and driven end-to-end through
// parser -> grounder -> alternating engine. Asserts the Table I-style
// trace rows of Example 5.2(a) and that the textual pipeline agrees with
// the programmatically built workload::WinMove on every atom.
TEST(WinMoveDifferential, ParserPipelineReproducesExample52Trace) {
  // Figure 4(a): sinks {c,d,f,h,i}; b, e, g move to sinks; a moves to
  // b, e, g. Keep the edge list in sync with graphs::Figure4a().
  const std::string text =
      "move(a,b). move(a,e). move(a,g).\n"
      "move(b,c). move(b,d).\n"
      "move(e,f).\n"
      "move(g,h). move(g,i).\n"
      "wins(X) :- move(X,Y), not wins(Y).\n";
  auto parsed = ParseProgram(text);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  Program p = std::move(parsed).value();

  GroundOptions gopts;
  gopts.simplify = false;  // keep every wins atom visible in the trace
  auto ground = Grounder::Ground(p, gopts);
  ASSERT_TRUE(ground.ok()) << ground.status().ToString();

  AfpOptions opts;
  opts.record_trace = true;
  AfpResult r = AlternatingFixpoint(*ground, opts);

  auto row = [&](const Bitset& set) {
    return AtomSetToString(*ground, set, /*include_edb=*/false);
  };
  ASSERT_GE(r.trace.size(), 3u);
  // Ĩ_0 = ∅ and S_P(∅) = ∅: nothing wins without a negative assumption.
  EXPECT_EQ(row(r.trace[0].neg_set), "{}");
  EXPECT_EQ(row(r.trace[0].sp_result), "{}");
  // A_P(∅) = ¬·w{c,d,f,h,i} (the sinks); S_P of that makes b, e, g win.
  EXPECT_EQ(row(r.trace[2].neg_set),
            "{wins(c), wins(d), wins(f), wins(h), wins(i)}");
  EXPECT_EQ(row(r.trace[2].sp_result), "{wins(b), wins(e), wins(g)}");

  // The AFP model is total: winners {b,e,g}, losers {a,c,d,f,h,i}.
  EXPECT_EQ(row(r.model.true_atoms()), "{wins(b), wins(e), wins(g)}");
  EXPECT_EQ(row(r.model.false_atoms()),
            "{wins(a), wins(c), wins(d), wins(f), wins(h), wins(i)}");
  EXPECT_TRUE(r.model.IsTotal());

  // Differential: the programmatic workload builder must agree with the
  // parsed text on every atom of its grounded base.
  Program built = workload::WinMove(graphs::Figure4a());
  auto built_ground = Grounder::Ground(built, gopts);
  ASSERT_TRUE(built_ground.ok()) << built_ground.status().ToString();
  PartialModel built_model = AlternatingFixpoint(*built_ground).model;
  EXPECT_EQ(built_ground->num_atoms(), ground->num_atoms());
  for (AtomId a = 0; a < built_ground->num_atoms(); ++a) {
    auto v = QueryAtom(*ground, r.model, built_ground->AtomName(a));
    ASSERT_TRUE(v.ok()) << built_ground->AtomName(a);
    EXPECT_EQ(*v, built_model.Value(a)) << built_ground->AtomName(a);
  }
}

// The cyclic Figure 4(b) graph through the same textual pipeline: the
// parser-built program must reproduce the partial (non-total) AFP model
// {w(c), ¬w(d)} with the 2-cycle {a,b} undefined.
TEST(WinMoveDifferential, ParserPipelineReproducesFigure4bPartialModel) {
  const std::string text =
      "move(a,b). move(b,a). move(b,c). move(c,d).\n"
      "wins(X) :- move(X,Y), not wins(Y).\n";
  auto parsed = ParseProgram(text);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  Program p = std::move(parsed).value();
  GroundOptions gopts;
  gopts.simplify = false;
  auto ground = Grounder::Ground(p, gopts);
  ASSERT_TRUE(ground.ok());
  AfpResult r = AlternatingFixpoint(*ground);

  auto row = [&](const Bitset& set) {
    return AtomSetToString(*ground, set, /*include_edb=*/false);
  };
  EXPECT_EQ(row(r.model.true_atoms()), "{wins(c)}");
  EXPECT_EQ(row(r.model.false_atoms()), "{wins(d)}");
  EXPECT_FALSE(r.model.IsTotal());

  Program built = workload::WinMove(graphs::Figure4b());
  auto built_ground = Grounder::Ground(built, gopts);
  ASSERT_TRUE(built_ground.ok());
  PartialModel built_model = AlternatingFixpoint(*built_ground).model;
  for (AtomId a = 0; a < built_ground->num_atoms(); ++a) {
    auto v = QueryAtom(*ground, r.model, built_ground->AtomName(a));
    ASSERT_TRUE(v.ok());
    EXPECT_EQ(*v, built_model.Value(a)) << built_ground->AtomName(a);
  }
}

TEST(EngineDifferential, FourEnginesAgreeOnDatalogWorkloads) {
  for (std::uint64_t seed = 100; seed < 140; ++seed) {
    Program p = workload::RandomDatalog(5, 8, 10, seed);
    auto ground = Grounder::Ground(p);
    ASSERT_TRUE(ground.ok());
    AfpResult afp = AlternatingFixpoint(*ground);
    EXPECT_EQ(afp.model, WellFoundedViaWp(*ground).model) << "seed " << seed;
    EXPECT_EQ(afp.model, WellFoundedScc(*ground).model) << "seed " << seed;
    EXPECT_EQ(afp.model, reference::ScratchAlternatingFixpoint(*ground).model)
        << "seed " << seed;
    EXPECT_TRUE(Satisfies(*ground, afp.model)) << "seed " << seed;
  }
}

}  // namespace
}  // namespace afp
