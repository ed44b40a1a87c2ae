// FlatIndex tests: randomized differential fuzz against std::unordered_map,
// dense-id stability across growth, adversarial hash collisions.

#include "util/flat_index.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <random>
#include <unordered_map>
#include <vector>

#include "util/span_hash.h"

namespace afp {
namespace {

// A minimal owning pool in the style FlatIndex is designed for: keys live
// here, the index stores only (hash, id).
struct Pool {
  std::vector<std::uint64_t> keys;
  FlatIndex index;

  static std::uint64_t Hash(std::uint64_t key) {
    return HashAvalanche(key + kSpanHashSeed);
  }

  std::uint32_t Intern(std::uint64_t key) {
    const std::uint32_t next = static_cast<std::uint32_t>(keys.size());
    const std::uint32_t id = index.FindOrInsert(
        Hash(key), next, [&](std::uint32_t id) { return keys[id] == key; });
    if (id == next) keys.push_back(key);
    return id;
  }

  std::uint32_t Find(std::uint64_t key) const {
    return index.Find(Hash(key),
                      [&](std::uint32_t id) { return keys[id] == key; });
  }
};

TEST(FlatIndex, EmptyIndexFindsNothing) {
  Pool pool;
  EXPECT_TRUE(pool.index.empty());
  EXPECT_EQ(pool.Find(42), FlatIndex::kNotFound);
  EXPECT_EQ(pool.index.stats().grow_allocs, 0u);
}

TEST(FlatIndex, InternIsIdempotentAndDense) {
  Pool pool;
  EXPECT_EQ(pool.Intern(7), 0u);
  EXPECT_EQ(pool.Intern(9), 1u);
  EXPECT_EQ(pool.Intern(7), 0u);
  EXPECT_EQ(pool.Find(9), 1u);
  EXPECT_EQ(pool.Find(8), FlatIndex::kNotFound);
  EXPECT_EQ(pool.index.size(), 2u);
}

TEST(FlatIndex, DenseIdsSurviveGrowth) {
  // Insert well past several doublings; every id handed out early must
  // still resolve after the rehashes (which re-place from stored hashes).
  Pool pool;
  constexpr std::uint32_t kN = 10000;
  for (std::uint32_t i = 0; i < kN; ++i) {
    ASSERT_EQ(pool.Intern(i * 2654435761u), i);
  }
  EXPECT_GT(pool.index.stats().grow_allocs, 5u);
  for (std::uint32_t i = 0; i < kN; ++i) {
    ASSERT_EQ(pool.Find(i * 2654435761u), i);
  }
  EXPECT_EQ(pool.Find(1), FlatIndex::kNotFound);
}

TEST(FlatIndex, ReservePreventsIntermediateGrowth) {
  Pool pool;
  pool.index.Reserve(10000);
  const std::uint64_t allocs_after_reserve = pool.index.stats().grow_allocs;
  EXPECT_EQ(allocs_after_reserve, 1u);
  for (std::uint32_t i = 0; i < 10000; ++i) pool.Intern(i * 2654435761u);
  EXPECT_EQ(pool.index.stats().grow_allocs, allocs_after_reserve)
      << "Reserve(n) must pre-size so n inserts trigger no rehash";
}

TEST(FlatIndex, RenumberKeepsSurvivorsUnderTheirNewIds) {
  // Drop every third entry; the survivors take their ranks as ids. The
  // keys are compacted the same way, so Find reads the renumbered pool.
  Pool pool;
  constexpr std::uint32_t kN = 3000;
  for (std::uint32_t i = 0; i < kN; ++i) pool.Intern(i * 2654435761u);
  const std::size_t bytes_before = pool.index.stats().capacity_bytes;
  std::vector<std::uint32_t> remap(kN);
  std::vector<std::uint64_t> kept_keys;
  for (std::uint32_t i = 0; i < kN; ++i) {
    remap[i] = i % 3 == 0 ? FlatIndex::kNotFound
                          : static_cast<std::uint32_t>(kept_keys.size());
    if (i % 3 != 0) kept_keys.push_back(pool.keys[i]);
  }
  pool.index.Renumber(remap, kept_keys.size());
  pool.keys = kept_keys;
  EXPECT_EQ(pool.index.size(), kept_keys.size());
  EXPECT_LT(pool.index.stats().capacity_bytes, bytes_before);
  for (std::uint32_t i = 0; i < kN; ++i) {
    ASSERT_EQ(pool.Find(i * 2654435761u), remap[i]) << i;
  }
  // Interning continues densely after the survivors.
  EXPECT_EQ(pool.Intern(1), kept_keys.size());
}

TEST(FlatIndex, SteadyStateLookupsNeverGrow) {
  Pool pool;
  for (std::uint32_t i = 0; i < 1000; ++i) pool.Intern(i * 2654435761u);
  const std::uint64_t allocs = pool.index.stats().grow_allocs;
  // Hits via both Find and FindOrInsert, plus misses: no growth.
  for (std::uint32_t i = 0; i < 1000; ++i) {
    pool.Find(i * 2654435761u);
    pool.Intern(i * 2654435761u);
    pool.Find(i * 2654435761u + 1);
  }
  EXPECT_EQ(pool.index.stats().grow_allocs, allocs);
}

TEST(FlatIndex, ClearAndReleaseResetState) {
  Pool pool;
  for (std::uint32_t i = 0; i < 100; ++i) pool.Intern(i);

  pool.index.Release();
  EXPECT_EQ(pool.index.size(), 0u);
  EXPECT_EQ(pool.index.stats().capacity_bytes, 0u)
      << "Release must drop the slot arrays, not just forget the entries";
}

TEST(FlatIndex, RandomizedDifferentialAgainstUnorderedMap) {
  // Drive the pool and a std::unordered_map<key, id> reference through the
  // same randomized op stream; they must agree on every result. Keys are
  // drawn from a small-ish domain so hits, misses and collisions all occur.
  std::mt19937_64 rng(20260808);
  for (int round = 0; round < 4; ++round) {
    Pool pool;
    std::unordered_map<std::uint64_t, std::uint32_t> ref;
    std::uniform_int_distribution<std::uint64_t> key_dist(
        0, 1u << (10 + 2 * round));
    for (int op = 0; op < 20000; ++op) {
      const std::uint64_t key = key_dist(rng);
      if (rng() % 3 == 0) {
        const auto it = ref.find(key);
        const std::uint32_t expect =
            it == ref.end() ? FlatIndex::kNotFound : it->second;
        ASSERT_EQ(pool.Find(key), expect) << "round " << round << " op " << op;
      } else {
        const auto [it, inserted] =
            ref.emplace(key, static_cast<std::uint32_t>(ref.size()));
        ASSERT_EQ(pool.Intern(key), it->second)
            << "round " << round << " op " << op;
      }
    }
    ASSERT_EQ(pool.index.size(), ref.size());
  }
}

TEST(FlatIndex, AdversarialHashCollisionsStayCorrect) {
  // Force identical stored hashes: correctness must come from eq() alone.
  std::vector<std::uint64_t> keys;
  FlatIndex index;
  for (std::uint32_t i = 0; i < 64; ++i) {
    const std::uint32_t next = static_cast<std::uint32_t>(keys.size());
    const std::uint32_t id = index.FindOrInsert(
        /*hash=*/12345, next, [&](std::uint32_t id) { return keys[id] == i; });
    ASSERT_EQ(id, next);
    keys.push_back(i);
  }
  for (std::uint32_t i = 0; i < 64; ++i) {
    ASSERT_EQ(index.Find(12345,
                         [&](std::uint32_t id) { return keys[id] == i; }),
              i);
  }
  EXPECT_EQ(
      index.Find(12345, [&](std::uint32_t id) { return keys[id] == 999; }),
      FlatIndex::kNotFound);
}

}  // namespace
}  // namespace afp
