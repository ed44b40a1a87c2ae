// Grounder tests: smart vs full instantiation, simplification of
// never-derivable negative literals, function-symbol guards, dedup.

#include "ground/grounder.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "afp/solver.h"
#include "core/interpretation.h"
#include "workload/graphs.h"
#include "workload/programs.h"

namespace afp {
namespace {

GroundProgram MustGround(Program& p, GroundOptions opts = {}) {
  auto g = Grounder::Ground(p, opts);
  EXPECT_TRUE(g.ok()) << g.status().ToString();
  return std::move(g).value();
}

TEST(Grounder, PropositionalProgramGroundsToItself) {
  auto parsed = ParseProgram("p :- q, not r. q. r :- not p.");
  ASSERT_TRUE(parsed.ok());
  Program p = std::move(parsed).value();
  GroundProgram gp = MustGround(p);
  EXPECT_EQ(gp.num_atoms(), 3u);
  EXPECT_EQ(gp.num_rules(), 3u);
}

TEST(Grounder, InstantiatesOnlyDerivableJoins) {
  // Smart grounding instantiates wins(x) only for x with an out-edge; the
  // rule for node c (no move) never materializes.
  Program p = workload::WinMove(graphs::Figure4c());  // a<->b, b->c
  GroundProgram gp = MustGround(p);
  // Rules: 3 move facts + 3 wins rules (one per edge).
  EXPECT_EQ(gp.num_rules(), 6u);
}

TEST(Grounder, SimplifyDropsUnderivableNegatives) {
  // q can never be derived, so "not q" is certainly true and disappears;
  // the atom q is dropped from the base.
  auto parsed = ParseProgram("p :- not q.");
  ASSERT_TRUE(parsed.ok());
  Program p = std::move(parsed).value();

  GroundOptions simplify;
  simplify.simplify = true;
  GroundProgram gp1 = MustGround(p, simplify);
  EXPECT_EQ(gp1.num_atoms(), 1u);  // only p
  EXPECT_EQ(gp1.rule(0).neg_len, 0u);

  GroundOptions keep;
  keep.simplify = false;
  GroundProgram gp2 = MustGround(p, keep);
  EXPECT_EQ(gp2.num_atoms(), 2u);  // p and q
  EXPECT_EQ(gp2.rule(0).neg_len, 1u);
}

TEST(Grounder, FullModeEnumeratesActiveDomain) {
  // wins(X) :- move(X,Y), not wins(Y) over 2 constants: full instantiation
  // gives 4 rule instances (plus the move fact).
  auto parsed = ParseProgram("move(a,b). wins(X) :- move(X,Y), not wins(Y).");
  ASSERT_TRUE(parsed.ok());
  Program p = std::move(parsed).value();
  GroundOptions opts;
  opts.mode = GroundMode::kFull;
  GroundProgram gp = MustGround(p, opts);
  EXPECT_EQ(gp.num_rules(), 1u + 4u);
}

TEST(Grounder, RecursiveJoinChainGrounding) {
  // Transitive closure over a chain: tc has n*(n+1)/2 ... pairs (i,j), i<j.
  Program p = workload::TransitiveClosureComplement(graphs::Chain(5));
  GroundProgram gp = MustGround(p);
  // tc(i,j) derivable for all 0 <= i < j < 5: 10 atoms.
  int tc_count = 0;
  for (AtomId a = 0; a < gp.num_atoms(); ++a) {
    if (gp.AtomName(a).rfind("tc(", 0) == 0) ++tc_count;
  }
  EXPECT_EQ(tc_count, 10);
}

TEST(Grounder, DuplicateRuleInstancesAreDeduped) {
  // Both body orders produce the same ground instance set.
  auto parsed = ParseProgram("e(a,b). p(X) :- e(X,Y), e(X,Y).");
  ASSERT_TRUE(parsed.ok());
  Program p = std::move(parsed).value();
  GroundProgram gp = MustGround(p);
  EXPECT_EQ(gp.num_rules(), 2u);  // the fact + one p rule
}

TEST(Grounder, AssemblyCollisionsAndRebuiltAtomIndex) {
  // Simplification can make rules equal: erasing a certainly-true `not q`
  // turns an instance into a fact, or into another instance of its head.
  // Each such pair must come out once; without simplification (and under
  // kFull, which never simplifies) the rules stay distinct. Repeated facts
  // come out once in every mode.
  GroundOptions unsimplified;
  unsimplified.simplify = false;
  GroundOptions full;
  full.mode = GroundMode::kFull;
  struct Case {
    const char* text;
    const char* simplified;  // default GroundOptions
    const char* kept;        // simplify = false, and kFull
  };
  const Case kCases[] = {
      {"p. p :- not q.", "p.\n", "p.\np :- not q.\n"},
      {"a. p :- a, not q. p :- a, not r.", "a.\np :- a.\n",
       "a.\np :- a, not q.\np :- a, not r.\n"},
      {"a. p :- a. p :- a, not q.", "a.\np :- a.\n",
       "a.\np :- a.\np :- a, not q.\n"},
      {"a. b. p :- a, b, not q. p :- b, a.", "a.\nb.\np :- a, b.\n",
       "a.\nb.\np :- a, b, not q.\np :- b, a.\n"},
      {"p. p.", "p.\n", "p.\n"},
  };
  for (const Case& c : kCases) {
    SCOPED_TRACE(c.text);
    auto parsed = ParseProgram(c.text);
    ASSERT_TRUE(parsed.ok());
    Program p = std::move(parsed).value();
    EXPECT_EQ(MustGround(p).ToString(), c.simplified);
    EXPECT_EQ(MustGround(p, unsimplified).ToString(), c.kept);
    EXPECT_EQ(MustGround(p, full).ToString(), c.kept);
  }

  // The program's atom index is the grounder's, rebuilt for the kept
  // atoms: it finds each kept atom under its new id, and no dropped one.
  Program tc =
      workload::TransitiveClosureComplement(graphs::ErdosRenyi(24, 48, 3));
  const GroundProgram gp = MustGround(tc);
  const GroundProgram all = MustGround(tc, unsimplified);
  ASSERT_LT(gp.num_atoms(), all.num_atoms());
  const AtomTable& atoms = gp.atoms();
  for (AtomId a = 0; a < gp.num_atoms(); ++a) {
    ASSERT_EQ(atoms.Find(atoms.predicate(a), atoms.args(a)), a);
  }
  std::size_t dropped_tc = 0;
  for (AtomId a = 0; a < all.num_atoms(); ++a) {
    const AtomId found =
        atoms.Find(all.atoms().predicate(a), all.atoms().args(a));
    if (found == kInvalidAtom) {
      dropped_tc += all.AtomName(a).rfind("tc(", 0) == 0;
    } else {
      EXPECT_EQ(gp.AtomName(found), all.AtomName(a));
    }
  }
  EXPECT_GT(dropped_tc, 0u);
}

TEST(Grounder, FunctionSymbolsWithFiniteClosureTerminate) {
  // s(X) recursion bounded by the base predicate: finite.
  auto parsed = ParseProgram(R"(
    n(z).
    n(s(X)) :- n(X), bound(X).
    bound(z).
  )");
  ASSERT_TRUE(parsed.ok());
  Program p = std::move(parsed).value();
  GroundProgram gp = MustGround(p);
  // n(z), n(s(z)), bound(z) derivable.
  EXPECT_GE(gp.num_atoms(), 3u);
}

TEST(Grounder, InfiniteHerbrandUniverseTripsGuard) {
  auto parsed = ParseProgram("n(z). n(s(X)) :- n(X).");
  ASSERT_TRUE(parsed.ok());
  Program p = std::move(parsed).value();
  GroundOptions opts;
  opts.max_atoms = 1000;
  auto g = Grounder::Ground(p, opts);
  ASSERT_FALSE(g.ok());
  EXPECT_EQ(g.status().code(), StatusCode::kResourceExhausted);
}

TEST(Grounder, RuleWithOnlyNegativeBody) {
  auto parsed = ParseProgram("p :- not q. q.");
  ASSERT_TRUE(parsed.ok());
  Program p = std::move(parsed).value();
  GroundProgram gp = MustGround(p);
  EXPECT_EQ(gp.num_rules(), 2u);
  EXPECT_EQ(gp.num_atoms(), 2u);
}

TEST(Grounder, GroundRuleRendering) {
  auto parsed = ParseProgram("move(a,b). wins(X) :- move(X,Y), not wins(Y).");
  ASSERT_TRUE(parsed.ok());
  Program p = std::move(parsed).value();
  GroundOptions opts;
  opts.simplify = false;
  GroundProgram gp = MustGround(p, opts);
  std::string all = gp.ToString();
  EXPECT_NE(all.find("move(a,b)."), std::string::npos);
  EXPECT_NE(all.find("wins(a) :- move(a,b), not wins(b)."),
            std::string::npos);
}

TEST(Grounder, RejectsInvalidProgram) {
  Program p;
  p.AddRule(p.MakeAtom("p", {p.Var("X")}), {});  // unsafe
  auto g = Grounder::Ground(p);
  EXPECT_FALSE(g.ok());
}

TEST(Grounder, TotalSizeAccounting) {
  auto parsed = ParseProgram("p :- q, not r. q.");
  ASSERT_TRUE(parsed.ok());
  Program p = std::move(parsed).value();
  GroundOptions opts;
  opts.simplify = false;
  GroundProgram gp = MustGround(p, opts);
  // 2 rules + body atoms (q, r) = 4.
  EXPECT_EQ(gp.TotalSize(), 4u);
}

// --- Golden ground-program fingerprints ---------------------------------
//
// Atom ids, rule order and rule bodies are part of the grounder's contract:
// stable-model emission order and the search's branch tree follow atom ids.
// Each fingerprint hashes the atom names in id order followed by every rule
// rendered in order, so any move of an id, a rule or a body literal changes
// it. The expected values were recorded from the two-join grounder this
// one replaced; the generator inputs depend on libstdc++'s
// <random> distributions.

std::uint64_t Fnv1a(std::uint64_t h, const std::string& s) {
  for (unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

std::uint64_t Fingerprint(const GroundProgram& gp) {
  std::uint64_t h = 14695981039346656037ull;
  for (AtomId a = 0; a < gp.num_atoms(); ++a) {
    h = Fnv1a(h, gp.AtomName(a) + "\n");
  }
  return Fnv1a(h, gp.ToString());
}

std::string ReadFile(const std::filesystem::path& path) {
  std::ifstream in(path);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

/// Every fingerprinted input: the .lp corpus (by file name) plus one
/// instance of each generator family the benches ground.
std::vector<std::pair<std::string, Program>> GoldenInputs() {
  std::vector<std::pair<std::string, Program>> out;
  std::vector<std::filesystem::path> files;
  for (const auto& entry :
       std::filesystem::directory_iterator(AFP_LP_CORPUS_DIR)) {
    if (entry.path().extension() == ".lp") files.push_back(entry.path());
  }
  std::sort(files.begin(), files.end());
  for (const auto& path : files) {
    auto parsed = ParseProgram(ReadFile(path));
    EXPECT_TRUE(parsed.ok()) << path << ": " << parsed.status().ToString();
    if (parsed.ok()) {
      out.emplace_back(path.filename().string(), std::move(parsed).value());
    }
  }
  out.emplace_back("WinMove(ErdosRenyi(64,256,7))",
                   workload::WinMove(graphs::ErdosRenyi(64, 256, 7)));
  out.emplace_back("TransitiveClosureComplement(ErdosRenyi(24,48,3))",
                   workload::TransitiveClosureComplement(
                       graphs::ErdosRenyi(24, 48, 3)));
  out.emplace_back("EvenCycleClusters(4,6)",
                   workload::EvenCycleClusters(4, 6));
  out.emplace_back("RandomPropositional(40,120,3,40,5)",
                   workload::RandomPropositional(40, 120, 3, 40, 5));
  return out;
}

struct Golden {
  const char* input;
  std::uint64_t simplified;    // default GroundOptions
  std::uint64_t unsimplified;  // simplify = false (rule-op sessions)
  std::uint64_t full;          // GroundMode::kFull
};

constexpr Golden kGolden[] = {
    {"double_negation.lp",
     0x4b23c4ab1afc3306ull, 0x4b23c4ab1afc3306ull,
     0x4b23c4ab1afc3306ull},
    {"even_cycle.lp",
     0x3d456cafea20ffb0ull, 0x3d456cafea20ffb0ull,
     0x3d456cafea20ffb0ull},
    {"example31.lp",
     0x538dd5cecd35886bull, 0x538dd5cecd35886bull,
     0xd8be8daa5f9bf26bull},
    {"example51.lp",
     0x2cd1fc27e7f03657ull, 0x5faa6d4f91a7f6ull,
     0x3002a62a1321df92ull},
    {"facts_only.lp",
     0xa22b54847c3d534bull, 0xa22b54847c3d534bull,
     0xa22b54847c3d534bull},
    {"growth_function_terms.lp",
     0x3a1fc724bd66ab28ull, 0x3a1fc724bd66ab28ull,
     0x3a1fc724bd66ab28ull},
    {"growth_new_constants.lp",
     0x1c7ce7c1d2b7804aull, 0x1c7ce7c1d2b7804aull,
     0x99237009dd012ecull},
    {"growth_win_move_frontier.lp",
     0xeaabeb1361cc38c0ull, 0x9c10e68e8d63a92bull,
     0xc5d963688fd7ed77ull},
    {"odd_loop.lp",
     0x6aaf59ec5d89117bull, 0x6aaf59ec5d89117bull,
     0x6aaf59ec5d89117bull},
    {"tc_ntc.lp",
     0x5f149e40918c1c40ull, 0x34601ad2ad35ee2ull,
     0x4c91a3da279ef32dull},
    {"win_move_fig4a.lp",
     0x803c092d27a1e65full, 0x5830ffbb88eda932ull,
     0x10fe317c488184b2ull},
    {"win_move_fig4b.lp",
     0x3e3cfcdd941f5c72ull, 0xa1962727002b4605ull,
     0x29ab8c3b43c854bull},
    {"win_move_fig4c.lp",
     0x8469ec8d1a20452cull, 0x6f86b0b9931902dull,
     0x7841a50264e6e19cull},
    {"WinMove(ErdosRenyi(64,256,7))",
     0xc0b2d123136aa3eaull, 0xc1581c839baaf9fbull,
     0xa75ca46d7c453691ull},
    {"TransitiveClosureComplement(ErdosRenyi(24,48,3))",
     0xfbaeeabe24ca2ce2ull, 0xabcf2a97abb792dbull,
     0xd36cc2bade86ef46ull},
    {"EvenCycleClusters(4,6)",
     0x1180d4f1d683f3e5ull, 0x1180d4f1d683f3e5ull,
     0x1180d4f1d683f3e5ull},
    {"RandomPropositional(40,120,3,40,5)",
     0xb17eef25220fed9cull, 0x2819bec78be7d230ull,
     0x63520c1524886ffcull},
};

TEST(Grounder, GoldenFingerprintsPinGroundingOutput) {
  GroundOptions options[3];
  options[1].simplify = false;
  options[2].mode = GroundMode::kFull;
  // got[k][i]: input i grounded under options[k], each from a fresh parse.
  std::vector<std::uint64_t> got[3];
  std::vector<std::string> names;
  for (int k = 0; k < 3; ++k) {
    for (auto& [name, program] : GoldenInputs()) {
      if (k == 0) names.push_back(name);
      got[k].push_back(Fingerprint(MustGround(program, options[k])));
    }
  }
  EXPECT_EQ(names.size(), std::size(kGolden));
  for (std::size_t i = 0; i < names.size(); ++i) {
    const Golden want =
        i < std::size(kGolden) ? kGolden[i] : Golden{"", 0, 0, 0};
    EXPECT_EQ(names[i], want.input);
    EXPECT_TRUE(got[0][i] == want.simplified &&
                got[1][i] == want.unsimplified && got[2][i] == want.full)
        << std::hex << "got {\"" << names[i] << "\", 0x" << got[0][i]
        << "ull, 0x" << got[1][i] << "ull, 0x" << got[2][i] << "ull},";
  }
}

TEST(Grounder, SessionGroundingMatchesBatchFingerprint) {
  // A rule-op session keeps its grounder alive after construction; the
  // program it starts from must still be the batch grounder's output.
  SolverOptions o;
  o.ground.simplify = false;
  auto inputs = GoldenInputs();
  ASSERT_EQ(inputs.size(), std::size(kGolden));
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    SCOPED_TRACE(inputs[i].first);
    auto s = Solver::FromProgram(std::move(inputs[i].second), o);
    ASSERT_TRUE(s.ok()) << s.status().ToString();
    EXPECT_EQ(Fingerprint(s->ground()), kGolden[i].unsimplified);
  }
}

TEST(Grounder, SteadyStateLookupsDoNotAllocate) {
  // Regression guard for the AtomTable::Find fast path: Find used to build
  // a Key{pred, std::vector<TermId>} per call — one heap allocation per
  // negative-literal probe, and later bumped the index's probe counters
  // from a const method, a data race between concurrent readers (the
  // relevance query batch's workers). Lookups on a populated table must
  // leave every index counter unchanged: no allocation (grow_allocs), no
  // capacity change, and no probe/collision accounting (those count
  // interning only).
  Program p = workload::WinMove(graphs::ErdosRenyi(128, 512, 11));
  GroundProgram gp = MustGround(p);
  const AtomTable& atoms = gp.atoms();
  ASSERT_GT(atoms.size(), 0u);

  const FlatIndexStats before = atoms.index_stats();
  for (AtomId a = 0; a < gp.num_atoms(); ++a) {
    ASSERT_EQ(atoms.Find(atoms.predicate(a), atoms.args(a)), a);
  }
  const FlatIndexStats after = atoms.index_stats();
  EXPECT_EQ(after.probes, before.probes)
      << "a const Find must not write the probe counters";
  EXPECT_EQ(after.collisions, before.collisions)
      << "a const Find must not write the collision counters";
  EXPECT_EQ(after.grow_allocs, before.grow_allocs)
      << "a steady-state Find must never allocate";
  EXPECT_EQ(after.capacity_bytes, before.capacity_bytes);
}

TEST(Grounder, GroundStatsReceiptIsFilled) {
  Program p = workload::WinMove(graphs::ErdosRenyi(64, 256, 7));
  GroundProgram gp = MustGround(p);
  const GroundStats& g = gp.grounding_stats();
  EXPECT_EQ(g.atoms, gp.num_atoms());
  EXPECT_EQ(g.rules, gp.num_rules());
  EXPECT_GT(g.intern_probes, 0u);
  EXPECT_GT(g.arena_bytes, 0u);
}

TEST(Grounder, RepeatedVariablesMatchConsistently) {
  // A variable repeated within one literal binds at its first occurrence
  // and must agree at the later ones, at top level and inside a compound.
  const char* kPrograms[][2] = {
      {"e(a,a). e(a,b). p(X) :- e(X,X).", "p(a)"},
      {"r(f(a,a)). r(f(a,b)). q(X) :- r(f(X,X)).", "q(a)"},
  };
  for (const auto& [text, derived] : kPrograms) {
    SCOPED_TRACE(text);
    auto parsed = ParseProgram(text);
    ASSERT_TRUE(parsed.ok());
    Program p = std::move(parsed).value();
    GroundProgram gp = MustGround(p);
    // The two facts plus the one instance whose literal matched.
    ASSERT_EQ(gp.num_rules(), 3u);
    EXPECT_EQ(gp.AtomName(gp.rule(2).head), derived);
  }
}

/// Grounds `p` and returns the receipt, which Ground fills on failure too.
GroundStats GroundReceipt(Program& p, const GroundOptions& opts,
                          StatusCode want) {
  GroundStats receipt;
  auto g = Grounder::Ground(p, opts, nullptr, &receipt);
  EXPECT_EQ(g.status().code(), want) << g.status().ToString();
  return receipt;
}

TEST(Grounder, JoinCandidatesAreLinearInOutput) {
  // The join tests candidates only from the lists a literal can match: a
  // posting list when an argument is bound on arrival, and a delta
  // literal's walk starts at the previous round. So the candidates tested
  // stay within a small multiple of what grounding emits. A scan of the
  // whole predicate tests 50-300 candidates per instance on the first
  // input and grows quadratically on the other two.
  GroundOptions defaults;
  Program tc = workload::TransitiveClosureComplement(
      graphs::ErdosRenyi(72, 216, 5));
  const GroundStats tc_receipt = GroundReceipt(tc, defaults, StatusCode::kOk);

  // One new atom per round, without end: the run stops at max_atoms.
  auto infinite = ParseProgram("p(a). p(f(X)) :- p(X).");
  ASSERT_TRUE(infinite.ok());
  GroundOptions capped;
  capped.max_atoms = 20000;
  const GroundStats infinite_receipt = GroundReceipt(
      infinite.value(), capped, StatusCode::kResourceExhausted);
  EXPECT_GE(infinite_receipt.atoms, capped.max_atoms);

  // A 5000-round chain whose every round probes s by its bound first
  // argument.
  std::string text = "p(a,n0).\n";
  for (int i = 0; i < 5000; ++i) {
    text += "s(n" + std::to_string(i) + ",n" + std::to_string(i + 1) + ").\n";
  }
  text += "p(f(X),M) :- p(X,N), s(N,M).\n";
  auto chain = ParseProgram(text);
  ASSERT_TRUE(chain.ok());
  const GroundStats chain_receipt =
      GroundReceipt(chain.value(), defaults, StatusCode::kOk);
  EXPECT_EQ(chain_receipt.rules, 5001u + 5000u);  // facts + instances

  for (const GroundStats* g : {&tc_receipt, &infinite_receipt,
                               &chain_receipt}) {
    EXPECT_GT(g->join_candidates, 0u);
    EXPECT_LE(g->join_candidates, 2 * (g->rules + g->atoms))
        << "rules " << g->rules << ", atoms " << g->atoms;
  }
}

TEST(Grounder, PostSealAddRuleMaintainsFactIndex) {
  // Regression: AddRule is public, and calling it on a grounded program
  // with an empty body is an EDB fact append by another name. The lazily
  // built fact index used to be maintained only by AddFact, so this
  // sequence made HasFact report a fact the rule vector plainly contained.
  auto parsed = ParseProgram("p :- q. q.");
  ASSERT_TRUE(parsed.ok());
  Program p = std::move(parsed).value();
  GroundProgram gp = MustGround(p);
  const AtomId q = *ResolveAtom(gp, "q");
  const AtomId pa = *ResolveAtom(gp, "p");
  ASSERT_TRUE(gp.HasFact(q));    // builds the index
  ASSERT_FALSE(gp.HasFact(pa));  // p is derived, not a fact — yet
  gp.AddRule(pa, {}, {});
  EXPECT_TRUE(gp.HasFact(pa)) << "AddRule left fact_index_ stale";
  // The appended fact is fully wired in: RemoveFact finds and erases it.
  GroundProgram::FactRemoval rem = gp.RemoveFact(pa);
  EXPECT_TRUE(rem.removed);
  EXPECT_FALSE(gp.HasFact(pa));
  // Non-fact rules leave the index alone.
  gp.AddRule(pa, std::vector<AtomId>{q}, {});
  EXPECT_FALSE(gp.HasFact(pa));
}

}  // namespace
}  // namespace afp
