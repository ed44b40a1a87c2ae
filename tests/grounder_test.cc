// Grounder tests: smart vs full instantiation, simplification of
// never-derivable negative literals, function-symbol guards, dedup.

#include "ground/grounder.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <memory>
#include <random>
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

TEST(Grounder, ReceiptCoversTheSameTablesOnSuccessAndFailure) {
  // A run stopped at max_atoms did a prefix of the complete run's work on
  // the same scratch tables, so its receipt can read no bigger. The atom
  // table is in neither receipt: a completed run hands it on to the
  // program, counters included.
  Program tc = workload::TransitiveClosureComplement(
      graphs::ErdosRenyi(72, 216, 5));
  const GroundStats whole = GroundReceipt(tc, GroundOptions{}, StatusCode::kOk);
  GroundOptions capped;
  capped.max_atoms = 2000;
  const GroundStats partial =
      GroundReceipt(tc, capped, StatusCode::kResourceExhausted);
  EXPECT_GT(whole.atoms, capped.max_atoms);
  EXPECT_GT(partial.index_bytes, 0u);
  EXPECT_LE(partial.index_bytes, whole.index_bytes);
  EXPECT_LE(partial.intern_probes, whole.intern_probes);
  EXPECT_LE(partial.intern_allocs, whole.intern_allocs);
  EXPECT_LE(partial.join_candidates, whole.join_candidates);
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

// --- Emit-once grounding ---------------------------------------------------
//
// A one-shot kSmart grounding looks an emitted instance up in the instance
// dedupe only if its rule can emit one instance twice: through two
// bindings (a slot that only occurs in literals whose predicate repeats
// within their sign) or through another rule with the same head predicate
// and body predicates. Every other instance is appended unprobed.

/// Grounds `text` with `opts` into `*gp` and returns the receipt.
GroundStats GroundText(const std::string& text, const GroundOptions& opts,
                       Program& program, GroundProgram* gp,
                       std::unique_ptr<Grounder>* keep = nullptr) {
  auto parsed = ParseProgram(text);
  EXPECT_TRUE(parsed.ok()) << parsed.status().ToString();
  program = std::move(parsed).value();
  GroundStats receipt;
  auto g = Grounder::Ground(program, opts, keep, &receipt);
  EXPECT_TRUE(g.ok()) << g.status().ToString();
  if (g.ok()) *gp = std::move(g).value();
  return receipt;
}

/// Rules of `gp` with a body, as (head, sorted pos, sorted neg) strings.
std::vector<std::string> CanonicalRules(const GroundProgram& gp) {
  std::vector<std::string> out;
  for (std::size_t i = 0; i < gp.num_rules(); ++i) {
    const GroundRule& r = gp.rule(i);
    if (r.pos_len + r.neg_len == 0) continue;
    std::vector<AtomId> pos(gp.pos(r).begin(), gp.pos(r).end());
    std::vector<AtomId> neg(gp.neg(r).begin(), gp.neg(r).end());
    std::sort(pos.begin(), pos.end());
    std::sort(neg.begin(), neg.end());
    std::string key = std::to_string(r.head) + ":";
    for (AtomId a : pos) key += std::to_string(a) + ",";
    key += ";";
    for (AtomId a : neg) key += std::to_string(a) + ",";
    out.push_back(key);
  }
  return out;
}

TEST(Grounder, InstanceDedupeRunsOnlyWhereBindingsCanCollide) {
  Program program;
  GroundProgram gp(&program);

  // Two rules with one signature emit every instance twice. Were they
  // marked emit-once, p(a) :- q(a) would come out twice per fact.
  GroundStats g = GroundText("q(a). q(b). q(c). p(X) :- q(X). p(Y) :- q(Y).",
                             {}, program, &gp);
  EXPECT_EQ(gp.num_rules(), 3u + 3u)
      << "an alpha-renamed duplicate rule emitted its instances again";
  EXPECT_EQ(g.instance_probes, 6u)
      << "rules sharing a signature must look up every instance";

  // X and Y occur only in literals of the repeated predicate q, so the
  // bindings (a,b) and (b,a) emit one body multiset. Skipping the dedupe
  // would give 4 instances.
  g = GroundText("q(a). q(b). r :- q(X), q(Y).", {}, program, &gp);
  EXPECT_EQ(gp.num_rules(), 2u + 3u)
      << "bindings that permute a repeated predicate's atoms are one rule";
  EXPECT_EQ(g.instance_probes, 4u)
      << "a slot outside the head and unique literals needs the dedupe";

  // The head binds every slot, so distinct bindings give distinct heads:
  // 4 instances, none looked up. A lookup here means the analysis missed
  // that the head alone keys the instance.
  g = GroundText("q(a). q(b). s(X,Y) :- q(X), q(Y), not t(X,Y).", {},
                 program, &gp);
  EXPECT_EQ(gp.num_rules(), 2u + 4u);
  EXPECT_EQ(g.instance_probes, 0u)
      << "a rule whose head binds every slot was looked up";
}

TEST(Grounder, InstanceProbesReceipt) {
  // The TC-complement and win-move rules are all emit-once, so a
  // one-shot grounding of either looks up nothing, simplified or not. A
  // kept grounder looks up every instance: rule ops find the instances a
  // retraction drops by content, so a kept grounder that skipped one
  // could not retract it.
  GroundOptions unsimplified;
  unsimplified.simplify = false;
  for (const GroundOptions& opts : {GroundOptions{}, unsimplified}) {
    Program tc = workload::TransitiveClosureComplement(
        graphs::ErdosRenyi(24, 48, 3));
    Program wm = workload::WinMove(graphs::ErdosRenyi(64, 256, 7));
    for (Program* p : {&tc, &wm}) {
      GroundStats receipt;
      auto g = Grounder::Ground(*p, opts, nullptr, &receipt);
      ASSERT_TRUE(g.ok()) << g.status().ToString();
      EXPECT_EQ(receipt.instance_probes, 0u)
          << "an emit-once rule was looked up (simplify=" << opts.simplify
          << ")";
    }
  }
  Program tc =
      workload::TransitiveClosureComplement(graphs::ErdosRenyi(24, 48, 3));
  GroundStats receipt;
  std::unique_ptr<Grounder> keep;
  auto g = Grounder::Ground(tc, unsimplified, &keep, &receipt);
  ASSERT_TRUE(g.ok()) << g.status().ToString();
  ASSERT_NE(keep, nullptr);
  std::size_t instances = 0;
  for (std::size_t i = 0; i < g->num_rules(); ++i) {
    instances += g->rule(i).pos_len + g->rule(i).neg_len > 0;
  }
  EXPECT_GT(instances, 0u);
  EXPECT_EQ(receipt.instance_probes, instances)
      << "a kept grounder must look up every instance it emits";
}

/// A random function-free program over constants c0..c2: EDB facts on
/// e/2 and f/1, and rules with heads p/1 or q/2 whose bodies draw
/// predicates from e, f, p and q, repeating the previous literal's
/// predicate half the time. About half the rules are followed by an
/// alpha-renamed copy (variables permuted, body reversed).
std::string RandomRepeatingProgram(std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  auto below = [&](std::size_t n) { return static_cast<std::size_t>(rng() % n); };
  struct Pred {
    const char* name;
    std::size_t arity;
  };
  const Pred kPreds[] = {{"e", 2}, {"f", 1}, {"p", 1}, {"q", 2}};
  auto constant_name = [](std::size_t c) {
    return std::string("c").append(std::to_string(c));
  };
  std::string text;
  for (int i = 0; i < 5; ++i) {
    text.append("e(").append(constant_name(below(3))).append(",");
    text.append(constant_name(below(3))).append(").\n");
  }
  for (int i = 0; i < 2; ++i) {
    text.append("f(").append(constant_name(below(3))).append(").\n");
  }

  // A literal argument is a variable index 0..3, or -1 - c for constant c.
  struct Lit {
    std::size_t pred;
    bool positive;
    std::vector<int> args;
  };
  auto render = [&](const Lit& l, const char* const* names) {
    std::string out = l.positive ? "" : "not ";
    out += kPreds[l.pred].name;
    out += "(";
    for (std::size_t i = 0; i < l.args.size(); ++i) {
      if (i > 0) out += ",";
      out += l.args[i] >= 0 ? std::string(names[l.args[i]])
                            : constant_name(
                                  static_cast<std::size_t>(-1 - l.args[i]));
    }
    return out + ")";
  };
  const char* const kNames[] = {"X", "Y", "Z", "W"};
  const char* const kRenamed[] = {"B", "D", "A", "C"};

  const std::size_t num_rules = 2 + below(4);
  for (std::size_t r = 0; r < num_rules; ++r) {
    std::vector<Lit> body;
    std::vector<int> bound;  // variables the positive literals bind
    const std::size_t num_pos = 1 + below(3);
    for (std::size_t i = 0; i < num_pos; ++i) {
      Lit l{i > 0 && below(2) == 0 ? body.back().pred : below(4), true, {}};
      for (std::size_t k = 0; k < kPreds[l.pred].arity; ++k) {
        const int v = below(6) == 0 ? -1 - static_cast<int>(below(3))
                                    : static_cast<int>(below(4));
        l.args.push_back(v);
        if (v >= 0) bound.push_back(v);
      }
      body.push_back(l);
    }
    auto bound_term = [&] {
      return bound.empty() || below(6) == 0
                 ? -1 - static_cast<int>(below(3))
                 : bound[below(bound.size())];
    };
    if (below(2) == 0) {
      Lit l{below(4), false, {}};
      for (std::size_t k = 0; k < kPreds[l.pred].arity; ++k) {
        l.args.push_back(bound_term());
      }
      body.push_back(l);
    }
    Lit head{2 + below(2), true, {}};
    for (std::size_t k = 0; k < kPreds[head.pred].arity; ++k) {
      head.args.push_back(bound_term());
    }
    const int copies = below(2) == 0 ? 2 : 1;
    for (int copy = 0; copy < copies; ++copy) {
      const char* const* names = copy == 0 ? kNames : kRenamed;
      text += render(head, names) + " :- ";
      for (std::size_t i = 0; i < body.size(); ++i) {
        const Lit& l = copy == 0 ? body[i] : body[body.size() - 1 - i];
        text += (i > 0 ? ", " : "") + render(l, names);
      }
      text += ".\n";
    }
  }
  return text;
}

TEST(Grounder, EmitOnceGroundingMatchesKeptGrounder) {
  // Differential: the one-shot grounding skips the instance dedupe for
  // the rules it marks emit-once, the kept grounder looks up everything.
  // Unsimplified, they must produce the same program (atom ids, rule
  // order, bodies). A rule wrongly marked emit-once emits a duplicate
  // rule: the fingerprints differ, and the simplified one-shot grounding
  // holds two rules with one head and body multisets.
  GroundOptions unsimplified;
  unsimplified.simplify = false;
  std::size_t programs_skipping = 0;
  std::size_t programs_probing = 0;
  for (std::uint64_t seed = 0; seed < 400; ++seed) {
    const std::string text = RandomRepeatingProgram(seed);
    SCOPED_TRACE("seed " + std::to_string(seed) + ":\n" + text);
    Program one_shot_src, kept_src, simplified_src;
    GroundProgram one_shot(&one_shot_src), kept(&kept_src),
        simplified(&simplified_src);
    std::unique_ptr<Grounder> keep;
    const GroundStats one_shot_receipt =
        GroundText(text, unsimplified, one_shot_src, &one_shot);
    const GroundStats kept_receipt =
        GroundText(text, unsimplified, kept_src, &kept, &keep);
    ASSERT_NE(keep, nullptr);
    ASSERT_EQ(Fingerprint(one_shot), Fingerprint(kept))
        << "one-shot:\n" << one_shot.ToString() << "kept:\n"
        << kept.ToString();

    GroundText(text, {}, simplified_src, &simplified);
    std::vector<std::string> rules = CanonicalRules(simplified);
    std::sort(rules.begin(), rules.end());
    ASSERT_EQ(std::adjacent_find(rules.begin(), rules.end()), rules.end())
        << "the simplified grounding holds a duplicate rule:\n"
        << simplified.ToString();

    programs_skipping +=
        one_shot_receipt.instance_probes < kept_receipt.instance_probes;
    programs_probing += one_shot_receipt.instance_probes > 0;
  }
  // Both paths ran: some rules skipped the dedupe, some were looked up.
  EXPECT_GT(programs_skipping, 100u);
  EXPECT_GT(programs_probing, 100u);
}

}  // namespace
}  // namespace afp
