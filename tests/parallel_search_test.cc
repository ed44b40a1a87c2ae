// The stable-model search (src/search/): bit-identical enumeration —
// model set AND emission order — across engine reuse (the undo trail
// must leave nothing behind) and root seeding, golden fingerprints of the
// emission sequence and tree shape, a brute-force differential on the
// model set, prefix-exact max_models / cancellation / timeout, the
// per-node repair receipt, and the Solver integration (well-founded
// seeding, cached-engine invalidation on session mutation). The suites
// kept the names they had when the search ran on a thread pool.

#include "search/stable_search.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "afp/solver.h"
#include "ast/program.h"
#include "core/alternating.h"
#include "core/horn_solver.h"
#include "ground/grounder.h"
#include "stable/enumerate.h"
#include "stable/gl_transform.h"
#include "workload/graphs.h"
#include "workload/programs.h"

#ifndef AFP_LP_CORPUS_DIR
#error "AFP_LP_CORPUS_DIR must point at the .lp corpus directory"
#endif

namespace afp {
namespace {

GroundProgram MustGround(Program& p) {
  GroundOptions opts;
  opts.mode = GroundMode::kFull;
  auto g = Grounder::Ground(p, opts);
  EXPECT_TRUE(g.ok()) << g.status().ToString();
  return std::move(g).value();
}

Solver MustCreate(Program program, const SolverOptions& options = {}) {
  auto s = Solver::FromProgram(std::move(program), options);
  EXPECT_TRUE(s.ok()) << s.status().ToString();
  return std::move(s).value();
}

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

// Canonicalizes a model list as sorted atom-name sets — the only valid
// comparison across two solvers whose atom universes (sizes and id
// assignment) differ, e.g. a mutated session vs a fresh one.
std::vector<std::vector<std::string>> NamedModels(
    const GroundProgram& gp, const std::vector<Bitset>& models) {
  std::vector<std::vector<std::string>> out;
  for (const Bitset& m : models) {
    std::vector<std::string> names;
    m.ForEach([&](std::size_t a) {
      names.push_back(gp.AtomName(static_cast<AtomId>(a)));
    });
    std::sort(names.begin(), names.end());
    out.push_back(std::move(names));
  }
  std::sort(out.begin(), out.end());
  return out;
}

// Canonicalizes a model list for set comparison (order-insensitive).
std::vector<Bitset> Sorted(std::vector<Bitset> models) {
  std::sort(models.begin(), models.end(), [](const Bitset& a, const Bitset& b) {
    for (std::size_t i = 0; i < a.universe_size(); ++i) {
      if (a.Test(i) != b.Test(i)) return b.Test(i);
    }
    return false;
  });
  return models;
}

StableResult EnumerateWith(const GroundProgram& gp, bool wfs_propagation) {
  StableSearchOptions po;
  po.wfs_propagation = wfs_propagation;
  StableSearch search(gp, po);
  return search.Enumerate();
}

void ExpectSameRun(const StableResult& r, const StableResult& expected,
                   const char* what) {
  ASSERT_EQ(r.models.size(), expected.models.size()) << what;
  for (std::size_t i = 0; i < expected.models.size(); ++i) {
    EXPECT_EQ(r.models[i], expected.models[i]) << "model " << i << " " << what;
  }
  // Same propagation + same branch atom => the same tree.
  EXPECT_EQ(r.search.nodes, expected.search.nodes) << what;
  EXPECT_EQ(r.search.leaves, expected.search.leaves) << what;
  EXPECT_EQ(r.search.implied_atoms, expected.search.implied_atoms) << what;
  EXPECT_TRUE(r.search.complete) << what;
}

// The core differential against a fresh engine's depth-first run, which
// the golden fingerprints below pin: a second run on the same (warm)
// engine must reproduce it EXACTLY (set, order and tree), so backtracking
// left no trail entry, assumption bit or scratch stamp behind; under
// wfs_propagation so must a run whose root is seeded with the
// well-founded model.
void ExpectMatchesSequential(const GroundProgram& gp, bool wfs_propagation) {
  StableSearchOptions po;
  po.wfs_propagation = wfs_propagation;
  StableSearch search(gp, po);
  const StableResult seq = search.Enumerate();
  EXPECT_TRUE(seq.search.complete);
  ExpectSameRun(search.Enumerate(), seq, "warm rerun");
  if (wfs_propagation) {
    const AfpResult wfs = AlternatingFixpoint(gp);
    search.SeedRoot(wfs.model.true_atoms(), wfs.model.false_atoms());
    const StableResult seeded = search.Enumerate();
    ExpectSameRun(seeded, seq, "seeded");
    EXPECT_EQ(seeded.search.afp_calls + 1, seq.search.afp_calls);
  }
}

TEST(ParallelSearch, MatchesSequentialOnCorpus) {
  std::size_t covered = 0;
  for (const std::string& text : CorpusTexts()) {
    auto parsed = ParseProgram(text);
    if (!parsed.ok()) continue;  // mutation-script fixtures etc.
    Program p = std::move(parsed).value();
    GroundOptions opts;
    opts.mode = GroundMode::kFull;
    auto g = Grounder::Ground(p, opts);
    if (!g.ok()) continue;
    GroundProgram gp = std::move(g).value();
    if (gp.num_atoms() > 128) continue;  // keep enumeration cheap
    ExpectMatchesSequential(gp, /*wfs_propagation=*/true);
    ++covered;
  }
  EXPECT_GE(covered, 5u) << "corpus coverage collapsed";
}

TEST(ParallelSearch, MatchesSequentialOnRandomFamilies) {
  for (std::uint64_t seed = 0; seed < 12; ++seed) {
    Program p = workload::RandomPropositional(
        /*num_atoms=*/8, /*num_rules=*/14, /*body_len=*/2,
        /*neg_prob_percent=*/50, seed);
    GroundProgram gp = MustGround(p);
    ExpectMatchesSequential(gp, /*wfs_propagation=*/true);
    ExpectMatchesSequential(gp, /*wfs_propagation=*/false);
  }
}

TEST(ParallelSearch, MatchesSequentialOnCycleClusters) {
  Program p = workload::EvenCycleClusters(/*k=*/5, /*chain_len=*/6);
  GroundProgram gp = MustGround(p);
  ExpectMatchesSequential(gp, /*wfs_propagation=*/true);
}

TEST(ParallelSearch, MatchesBruteForce) {
  for (std::uint64_t seed = 40; seed < 52; ++seed) {
    Program p = workload::RandomPropositional(
        /*num_atoms=*/8, /*num_rules=*/14, /*body_len=*/2,
        /*neg_prob_percent=*/50, seed);
    GroundProgram gp = MustGround(p);
    auto brute = EnumerateStableModelsBruteForce(gp);
    ASSERT_TRUE(brute.ok());
    StableSearch par(gp);
    // Brute force emits in subset-mask order, not search order: compare
    // as sets.
    EXPECT_EQ(Sorted(*brute), Sorted(par.Enumerate().models))
        << "seed " << seed;
  }
}

TEST(ParallelSearch, NoModelsOnOddLoop) {
  auto parsed = ParseProgram("p :- not p.");
  ASSERT_TRUE(parsed.ok());
  Program p = std::move(parsed).value();
  GroundProgram gp = MustGround(p);
  StableSearch par(gp);
  StableResult r = par.Enumerate();
  EXPECT_TRUE(r.models.empty());
  EXPECT_TRUE(r.search.complete);
}

TEST(ParallelSearch, MaxModelsIsPrefixExact) {
  Program p = workload::EvenNegativeCycles(6);
  GroundProgram gp = MustGround(p);
  const std::vector<Bitset> all =
      EnumerateWith(gp, /*wfs_propagation=*/true).models;
  ASSERT_EQ(all.size(), 64u);

  // One engine throughout: a run cut short by max_models leaves its trail
  // and assumption bits behind, and the next run must not see them.
  StableSearch par(gp);
  for (std::size_t k : {std::size_t{5}, std::size_t{0}, std::size_t{1},
                        std::size_t{64}, std::size_t{5}}) {
    StableSearchControl control;
    control.max_models = k;
    StableResult r = par.Enumerate(control);
    ASSERT_EQ(r.models.size(), k);
    // Not just any k models: the FIRST k of the depth-first order.
    for (std::size_t i = 0; i < k; ++i) {
      EXPECT_EQ(r.models[i], all[i]) << "i=" << i;
    }
    EXPECT_TRUE(r.search.complete);
    EXPECT_EQ(r.search.models, k);
  }
}

TEST(ParallelSearch, PreCancelledTokenStopsImmediately) {
  Program p = workload::EvenNegativeCycles(8);
  GroundProgram gp = MustGround(p);
  std::atomic<bool> cancel{true};
  StableSearch par(gp);
  StableSearchControl control;
  control.cancel = &cancel;
  StableResult r = par.Enumerate(control);
  EXPECT_TRUE(r.models.empty());
  EXPECT_FALSE(r.search.complete);
}

TEST(ParallelSearch, ExpiredTimeoutGivesEmptyPrefixAndIncomplete) {
  Program p = workload::EvenNegativeCycles(8);
  GroundProgram gp = MustGround(p);
  StableSearch par(gp);
  StableSearchControl control;
  control.timeout = std::chrono::nanoseconds(1);
  StableResult r = par.Enumerate(control);
  EXPECT_TRUE(r.models.empty());
  EXPECT_FALSE(r.search.complete);
}

TEST(ParallelSearch, CountMatchesEnumerate) {
  Program p = workload::EvenCycleClusters(/*k=*/6, /*chain_len=*/4);
  GroundProgram gp = MustGround(p);
  StableSearch par(gp);
  StableResult counted = par.Count();
  EXPECT_TRUE(counted.models.empty());
  EXPECT_EQ(counted.search.models, 64u);
  StableResult enumerated = par.Enumerate();  // engine is reusable
  EXPECT_EQ(enumerated.models.size(), 64u);
  EXPECT_EQ(enumerated.search.nodes, counted.search.nodes);
}

TEST(ParallelSearch, SeededRootMatchesUnseededAndSkipsOneFixpoint) {
  Program p = workload::EvenCycleClusters(/*k=*/4, /*chain_len=*/5);
  GroundProgram gp = MustGround(p);
  AfpResult wfs = AlternatingFixpoint(gp);

  StableSearch unseeded(gp);
  StableResult base = unseeded.Enumerate();
  ASSERT_FALSE(base.search.seeded);

  StableSearch seeded(gp);
  seeded.SeedRoot(wfs.model.true_atoms(), wfs.model.false_atoms());
  StableResult r = seeded.Enumerate();
  EXPECT_TRUE(r.search.seeded);
  ASSERT_EQ(r.models.size(), base.models.size());
  for (std::size_t i = 0; i < r.models.size(); ++i) {
    EXPECT_EQ(r.models[i], base.models[i]) << "model " << i;
  }
  // Same tree, one fewer alternating fixpoint (the root's).
  EXPECT_EQ(r.search.nodes, base.search.nodes);
  EXPECT_EQ(r.search.afp_calls + 1, base.search.afp_calls);
}

// The per-node work receipt. Each cluster's chain hangs off its own fact
// and never meets the cycle, so a branch assumption re-solves exactly the
// branch atom's two-atom cycle component: one component solve per
// non-root node, whatever the chain length (a from-scratch propagation
// re-derives every chain at every node).
TEST(ParallelSearch, SeededRunResolvesOneComponentPerNode) {
  std::size_t nodes = 0;
  for (int chain_len : {5, 50}) {
    Program p = workload::EvenCycleClusters(/*k=*/4, chain_len);
    GroundProgram gp = MustGround(p);
    const AfpResult wfs = AlternatingFixpoint(gp);
    StableSearch search(gp);
    search.SeedRoot(wfs.model.true_atoms(), wfs.model.false_atoms());
    const StableResult r = search.Enumerate();
    EXPECT_EQ(r.models.size(), 16u) << "chain_len=" << chain_len;
    EXPECT_EQ(r.search.components_resolved, r.search.nodes - 1)
        << "chain_len=" << chain_len;
    if (nodes != 0) {
      EXPECT_EQ(r.search.nodes, nodes);
    }
    nodes = r.search.nodes;
  }
}

// The leaf-check receipt. Every leaf of EvenCycleClusters(4, L) is a model
// whose four branch atoms each have one rule, so the path-local check
// reads 16 leaves x 4 frames x 1 rule, whatever the chain length (a
// whole-program check reads every rule at every leaf: 16 * |P|).
TEST(ParallelSearch, SeededLeafChecksReadOnlyBranchAtomRules) {
  for (int chain_len : {5, 50}) {
    Program p = workload::EvenCycleClusters(/*k=*/4, chain_len);
    GroundProgram gp = MustGround(p);
    const AfpResult wfs = AlternatingFixpoint(gp);
    StableSearch search(gp);
    search.SeedRoot(wfs.model.true_atoms(), wfs.model.false_atoms());
    const StableResult r = search.Enumerate();
    ASSERT_EQ(r.search.leaves, 16u) << "chain_len=" << chain_len;
    EXPECT_EQ(r.search.models, 16u) << "chain_len=" << chain_len;
    EXPECT_EQ(r.search.leaf_rules_checked, 64u) << "chain_len=" << chain_len;
  }
}

// The path-local leaf check against the whole-program Gelfond-Lifschitz
// check on random programs, through sessions with an unseeded root
// (unsolved) and a seeded one (solved): every emitted model is stable,
// and the model set is that of the positive-closure search (whose leaves
// run the whole-program check) and, on small universes, of brute force.
TEST(ParallelSearch, LeafCheckMatchesWholeProgramCheck) {
  SolverOptions options;
  options.ground.mode = GroundMode::kFull;
  std::size_t brute_forced = 0;
  std::size_t models = 0;
  for (std::uint64_t seed = 0; seed < 240; ++seed) {
    const int num_atoms = 12 + static_cast<int>(seed % 9);
    const int body_len = 1 + static_cast<int>((seed / 9) % 3);
    const int num_rules = num_atoms + static_cast<int>(seed % 7);
    const Program program = workload::RandomPropositional(
        num_atoms, num_rules, body_len, /*neg_prob_percent=*/50, seed);
    Program to_ground = program;
    GroundProgram gp = MustGround(to_ground);
    const auto expected =
        NamedModels(gp, EnumerateWith(gp, /*wfs_propagation=*/false).models);
    if (gp.num_atoms() <= 16) {
      auto brute = EnumerateStableModelsBruteForce(gp);
      ASSERT_TRUE(brute.ok());
      EXPECT_EQ(NamedModels(gp, *brute), expected) << "seed " << seed;
      ++brute_forced;
    }
    for (bool solved : {false, true}) {
      Solver session = MustCreate(program, options);
      if (solved) session.Solve();
      const StableResult r = session.StableModels();
      EXPECT_EQ(r.search.seeded, solved) << "seed " << seed;
      const HornSolver whole(session.ground().View());
      for (const Bitset& m : r.models) {
        EXPECT_TRUE(IsStableModel(whole, m)) << "seed " << seed;
      }
      EXPECT_EQ(NamedModels(session.ground(), r.models), expected)
          << "seed " << seed << " solved=" << solved;
      models += r.models.size();
    }
  }
  EXPECT_GE(brute_forced, 50u) << "brute-force coverage collapsed";
  EXPECT_GE(models, 200u) << "model coverage collapsed";
}

// A positive loop: an assumed-true atom whose only firing rule waits on
// its own component leaves the leaf to the whole-program check.
TEST(ParallelSearch, LeafCheckFallbackOnPositiveLoops) {
  struct Case {
    const char* text;
    std::vector<std::vector<std::string>> models;
    /// Rule bodies the two leaves read (the branch atom is the first one).
    std::size_t leaf_rules_checked;
  };
  const Case cases[] = {
      // {c}: a assumed false, its one rule does not fire. {a, b}: a's
      // firing rule `a :- b` waits on b, so the program's four rules are
      // checked, and `b :- not c` derives b in its reduct: 1 + 1 + 4.
      {"a :- b. b :- a. b :- not c. c :- not a.", {{"a", "b"}, {"c"}}, 6},
      // Assumed false, p's rule `p :- not p` fires (2 rules read);
      // assumed true, p and q only support each other, so the
      // program's three rules derive nothing: 2 + 2 + 3.
      {"p :- q. q :- p. p :- not p.", {}, 7},
  };
  for (const Case& c : cases) {
    auto parsed = ParseProgram(c.text);
    ASSERT_TRUE(parsed.ok()) << c.text;
    Program p = std::move(parsed).value();
    GroundProgram gp = MustGround(p);
    const StableResult r = EnumerateWith(gp, /*wfs_propagation=*/true);
    EXPECT_EQ(NamedModels(gp, r.models), c.models) << c.text;
    EXPECT_EQ(NamedModels(gp, EnumerateWith(gp, false).models), c.models)
        << c.text;
    auto brute = EnumerateStableModelsBruteForce(gp);
    ASSERT_TRUE(brute.ok());
    EXPECT_EQ(NamedModels(gp, *brute), c.models) << c.text;
    // Two leaves, one per value of the one branch atom.
    EXPECT_EQ(r.search.leaves, 2u) << c.text;
    EXPECT_EQ(r.search.leaf_rules_checked, c.leaf_rules_checked) << c.text;
  }
}

// --- Golden enumeration fingerprints -------------------------------------
//
// The emitted model sequence and the shape of the branch tree are the
// search's contract. A fingerprint hashes every model in emission order
// (a boundary word, then its atom ids) followed by nodes, leaves and
// implied_atoms, so a reordered model, a different branch atom or a lost
// implied atom changes it. The expected values were recorded with the
// recursive sequential search that re-ran the whole alternating fixpoint
// of the conditioned program at every node; the incremental repair must
// reproduce them. RandomPropositional depends on libstdc++'s <random>
// distributions.

std::uint64_t EnumerationFingerprint(const std::vector<Bitset>& models,
                                     const StableSearchStats& s) {
  std::uint64_t h = 1469598103934665603ull;  // FNV-1a over 64-bit words
  auto mix = [&h](std::uint64_t v) {
    h ^= v;
    h *= 1099511628211ull;
  };
  for (const Bitset& m : models) {
    mix(~std::uint64_t{0});
    m.ForEach([&](std::size_t a) { mix(a); });
  }
  mix(s.nodes);
  mix(s.leaves);
  mix(s.implied_atoms);
  return h;
}

/// Every fingerprinted input, in table order: the corpus files (each at
/// most 128 atoms under full grounding), then the generator families the
/// differentials above use.
std::vector<std::pair<std::string, Program>> GoldenSearchInputs() {
  constexpr const char* kFiles[] = {
      "double_negation.lp", "even_cycle.lp", "example31.lp", "example51.lp",
      "facts_only.lp", "growth_function_terms.lp", "growth_new_constants.lp",
      "growth_win_move_frontier.lp", "odd_loop.lp", "tc_ntc.lp",
      "win_move_fig4a.lp", "win_move_fig4b.lp", "win_move_fig4c.lp",
  };
  std::vector<std::pair<std::string, Program>> out;
  for (const char* file : kFiles) {
    std::ifstream in(std::filesystem::path(AFP_LP_CORPUS_DIR) / file);
    std::ostringstream ss;
    ss << in.rdbuf();
    auto parsed = ParseProgram(ss.str());
    EXPECT_TRUE(parsed.ok()) << file << ": " << parsed.status().ToString();
    if (parsed.ok()) out.emplace_back(file, std::move(parsed).value());
  }
  for (std::uint64_t seed = 0; seed < 12; ++seed) {
    out.emplace_back("RandomPropositional(8,14,2,50," +
                         std::to_string(seed) + ")",
                     workload::RandomPropositional(8, 14, 2, 50, seed));
  }
  out.emplace_back("EvenCycleClusters(5,6)",
                   workload::EvenCycleClusters(5, 6));
  out.emplace_back("EvenNegativeCycles(6)", workload::EvenNegativeCycles(6));
  return out;
}

struct SearchGolden {
  const char* input;
  std::uint64_t wfs;  // wfs_propagation = true
  /// wfs_propagation = false; 0 = not run. Positive-closure propagation
  /// never decides a chain atom false, so on EvenCycleClusters(5,6) it
  /// branches on all 40 atoms.
  std::uint64_t positive;
};

constexpr SearchGolden kSearchGolden[] = {
    {"double_negation.lp", 0xa710581ff5eb959ull, 0x2d1dbc82130478a4ull},
    {"even_cycle.lp", 0xc4b16c1b017cdf09ull, 0xd5f3631b0b3e6adfull},
    {"example31.lp", 0x669b3851f6c47979ull, 0xbd22415227c03e87ull},
    {"example51.lp", 0x21eaac9529dc20daull, 0x785023955abbba6cull},
    {"facts_only.lp", 0x592a2e799f5ec411ull, 0x592a2e799f5ec411ull},
    {"growth_function_terms.lp", 0x84f5de3d3b19420aull, 0x84f5de3d3b19420aull},
    {"growth_new_constants.lp", 0x81870ef17e3ac1eaull, 0x4d9f2ff160d94234ull},
    {"growth_win_move_frontier.lp",
     0xf02aa590c1930be5ull, 0x241ccb90defd58c5ull},
    {"odd_loop.lp", 0x8f4ea04f2be01cd2ull, 0x8f4b3a4f2bdd39a9ull},
    {"tc_ntc.lp", 0x26704d107fcee3cbull, 0xc786fe17a5758c13ull},
    {"win_move_fig4a.lp", 0xfdf9932997d8b5bfull, 0x7721af29dc6f1be7ull},
    {"win_move_fig4b.lp", 0xf0d78ba08884ca66ull, 0x361348a0afb7d1aaull},
    {"win_move_fig4c.lp", 0x4500862c8eadc8e8ull, 0x2261312c7b133a7full},
    {"RandomPropositional(8,14,2,50,0)",
     0x8f4eac4f2be03136ull, 0x19f4244f7a6bfa1aull},
    {"RandomPropositional(8,14,2,50,1)",
     0x5f24384fa193daaeull, 0x44344450b451976bull},
    {"RandomPropositional(8,14,2,50,2)",
     0xd4a7d64f532b3c40ull, 0xe9ab984ff0067d3bull},
    {"RandomPropositional(8,14,2,50,3)",
     0xf755054f66d1c773ull, 0x44303f50b44da615ull},
    {"RandomPropositional(8,14,2,50,4)",
     0xc33d674f4947926eull, 0x4b63164cc14349beull},
    {"RandomPropositional(8,14,2,50,5)",
     0x2186d777c8bc219aull, 0xafcec478aa465cf2ull},
    {"RandomPropositional(8,14,2,50,6)",
     0x7fec65f29f7d8e17ull, 0xd6a340f2d0a228bdull},
    {"RandomPropositional(8,14,2,50,7)",
     0xa6a90cdd90f5ebdeull, 0x579a72de86234750ull},
    {"RandomPropositional(8,14,2,50,8)",
     0x93131a4fbefb7e2bull, 0x85dcd0504891acfaull},
    {"RandomPropositional(8,14,2,50,9)",
     0xb1e0424f3f6ef0b6ull, 0xa84240505bfaf0fdull},
    {"RandomPropositional(8,14,2,50,10)",
     0x28450f4f44b84c3dull, 0x84155a4dc590cd73ull},
    {"RandomPropositional(8,14,2,50,11)",
     0x8f4eac4f2be03136ull, 0xf7330d4f66b4eea5ull},
    {"EvenCycleClusters(5,6)", 0x3c01dc48c11c6ca0ull, 0},
    {"EvenNegativeCycles(6)", 0xc5eab3ed4dc0e6caull, 0xf064c1f829e8d86full},
};

TEST(ParallelSearch, GoldenFingerprintsPinEnumeration) {
  auto inputs = GoldenSearchInputs();
  EXPECT_EQ(inputs.size(), std::size(kSearchGolden));
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    const std::string& name = inputs[i].first;
    const SearchGolden want = i < std::size(kSearchGolden)
                                  ? kSearchGolden[i]
                                  : SearchGolden{"", 0, 0};
    EXPECT_EQ(name, want.input);
    GroundProgram gp = MustGround(inputs[i].second);
    for (bool wfs : {true, false}) {
      const std::uint64_t expected = wfs ? want.wfs : want.positive;
      if (!wfs && expected == 0) continue;
      const StableResult r = EnumerateWith(gp, wfs);
      EXPECT_TRUE(r.search.complete) << name;
      const std::uint64_t got = EnumerationFingerprint(r.models, r.search);
      EXPECT_EQ(got, expected) << name << " wfs=" << wfs << std::hex
                               << " got 0x" << got;
    }
  }
}

// --- Solver integration -------------------------------------------------

TEST(ParallelSearchSolver, SolvedSessionSeedsTheRoot) {
  Solver cold = MustCreate(workload::EvenNegativeCycles(5));
  StableResult cold_r = cold.StableModels();
  EXPECT_FALSE(cold_r.search.seeded);  // nothing solved yet

  Solver warm = MustCreate(workload::EvenNegativeCycles(5));
  warm.Solve();
  StableResult warm_r = warm.StableModels();
  EXPECT_TRUE(warm_r.search.seeded);
  ASSERT_EQ(warm_r.models.size(), cold_r.models.size());
  for (std::size_t i = 0; i < warm_r.models.size(); ++i) {
    EXPECT_EQ(warm_r.models[i], cold_r.models[i]) << "model " << i;
  }
  EXPECT_EQ(warm_r.search.afp_calls + 1, cold_r.search.afp_calls);
  // The receipt is surfaced through the session stats (CLI --stats).
  EXPECT_EQ(warm.Stats().search.models, warm_r.models.size());
  EXPECT_EQ(warm.Stats().search.components_resolved,
            warm_r.search.components_resolved);
}

// The session caches its engine across StableModels calls: the second
// call runs on the warm engine (its trail, scratch and assumption bits
// left by the first run) and must repeat the first exactly, as must a
// CountStableModels call in between.
TEST(ParallelSearchSolver, CachedEngineRepeatsThroughTheFacade) {
  Solver solver = MustCreate(workload::EvenCycleClusters(4, 4));
  solver.Solve();
  const StableResult first = solver.StableModels();
  ASSERT_EQ(first.models.size(), 16u);
  EXPECT_EQ(solver.CountStableModels(), 16u);
  const StableResult again = solver.StableModels();
  ASSERT_EQ(again.models.size(), first.models.size());
  for (std::size_t i = 0; i < first.models.size(); ++i) {
    EXPECT_EQ(again.models[i], first.models[i]) << "model " << i;
  }
  EXPECT_EQ(again.search.nodes, first.search.nodes);
  EXPECT_EQ(again.search.components_resolved,
            first.search.components_resolved);
}

// Regression pair: StableModels on a session mutated after a previous
// StableModels call must not reuse the stale cached search state — the
// cached engine's solvers and indexes reference the pre-mutation rule
// storage. Differential oracle: a fresh solver built over the mutated
// program.

TEST(ParallelSearchSolver, FactMutationInvalidatesCachedSearch) {
  const std::string_view text = "e. p :- e, not q. a :- not b. b :- not a.";
  auto solver = Solver::FromText(text);
  ASSERT_TRUE(solver.ok());
  solver->Solve();
  StableResult before = solver->StableModels();
  EXPECT_EQ(before.models.size(), 2u);  // {e,p,a}, {e,p,b}

  ASSERT_TRUE(solver->RetractFacts({"e"}).ok());
  StableResult after = solver->StableModels();

  auto fresh = Solver::FromText("p :- e, not q. a :- not b. b :- not a.");
  ASSERT_TRUE(fresh.ok());
  StableResult oracle = fresh->StableModels();
  EXPECT_EQ(NamedModels(solver->ground(), after.models),
            NamedModels(fresh->ground(), oracle.models));

  // And back: re-asserting restores the original answer through yet
  // another engine rebuild.
  ASSERT_TRUE(solver->AssertFacts({"e"}).ok());
  StableResult restored = solver->StableModels();
  ASSERT_EQ(restored.models.size(), before.models.size());
  for (std::size_t i = 0; i < before.models.size(); ++i) {
    EXPECT_EQ(restored.models[i], before.models[i]) << "model " << i;
  }
}

TEST(ParallelSearchSolver, RuleMutationInvalidatesCachedSearch) {
  SolverOptions o;
  o.ground.simplify = false;  // rule mutations require unsimplified grounding
  auto solver = Solver::FromText("a :- not b. b :- not a.", o);
  ASSERT_TRUE(solver.ok());
  solver->Solve();
  EXPECT_EQ(solver->StableModels().models.size(), 2u);

  ASSERT_TRUE(solver->AddRule("c :- not a.").ok());
  StableResult after = solver->StableModels();

  auto fresh =
      Solver::FromText("a :- not b. b :- not a. c :- not a.", o);
  ASSERT_TRUE(fresh.ok());
  StableResult oracle = fresh->StableModels();
  EXPECT_EQ(NamedModels(solver->ground(), after.models),
            NamedModels(fresh->ground(), oracle.models));
}

}  // namespace
}  // namespace afp
