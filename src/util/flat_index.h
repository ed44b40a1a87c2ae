#ifndef AFP_UTIL_FLAT_INDEX_H_
#define AFP_UTIL_FLAT_INDEX_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

namespace afp {

/// Allocation/probe counters of a FlatIndex (or of a table aggregating
/// several). `probes`/`collisions` count the interning path (FindOrInsert)
/// only — a const Find writes nothing; `grow_allocs` moves exclusively
/// when a table (re)allocates its slot array — the regression guard for
/// "interning allocates nothing per call".
struct FlatIndexStats {
  std::uint64_t probes = 0;
  std::uint64_t collisions = 0;
  std::uint64_t grow_allocs = 0;
  std::size_t capacity_bytes = 0;

  FlatIndexStats& operator+=(const FlatIndexStats& o) {
    probes += o.probes;
    collisions += o.collisions;
    grow_allocs += o.grow_allocs;
    capacity_bytes += o.capacity_bytes;
    return *this;
  }
};

/// Open-addressing hash index over keys that live in someone else's pool.
///
/// A slot stores only (hash, dense_id): the index never materializes,
/// copies or owns a key. Lookups supply the key's 64-bit hash (full
/// avalanche required — see util/span_hash.h) plus an equality functor
/// `eq(id)` that compares the probe key against the entry with that dense
/// id by reading the owning table's pools (heterogeneous lookup over
/// std::span, zero key construction). Compared with the
/// std::unordered_map<VectorKey, Id> idiom it replaces, a steady-state
/// lookup performs zero allocations and touches one contiguous slot array
/// instead of chasing bucket nodes.
///
/// Properties:
///   * linear probing over a power-of-two slot array, max load 2/3 (linear
///     probing clusters hard above ~0.7: at 7/8 the expected successful
///     chain is ~4.5 probes, at 2/3 it is ~2 — measured directly by
///     bench_scale's intern_probes/intern_collisions counters);
///   * tombstone-free: entries are never removed one by one (dense-id
///     interning is append-only), so probe chains never degrade; Renumber
///     drops and renumbers entries wholesale into a fresh slot array;
///   * dense ids survive rehash: growth reinserts (hash, id) pairs from
///     the stored hashes — keys are not re-read, ids are not renumbered;
///   * Find is a pure read, so concurrent Finds are safe; FindOrInsert
///     (which also keeps the probe counters) is single-threaded, like the
///     owning table's pools.
class FlatIndex {
 public:
  static constexpr std::uint32_t kNotFound = static_cast<std::uint32_t>(-1);

  FlatIndex() = default;

  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  /// Pre-sizes the slot array for `n` entries without intermediate growth.
  void Reserve(std::size_t n) {
    const std::size_t want = CapacityFor(n);
    if (want > hashes_.size()) Rehash(want);
  }

  /// Gives every entry the id `remap[id]`, dropping those mapped to
  /// kNotFound, in a slot array sized for the `kept` survivors. Placement
  /// reads only the stored hashes: no key is re-hashed or compared.
  void Renumber(std::span<const std::uint32_t> remap, std::size_t kept) {
    std::vector<std::uint64_t> old_hashes = std::move(hashes_);
    std::vector<std::uint32_t> old_ids = std::move(ids_);
    hashes_.assign(CapacityFor(kept), 0);
    ids_.assign(hashes_.size(), kNotFound);
    ++stats_.grow_allocs;
    size_ = 0;
    for (std::size_t i = 0; i < old_ids.size(); ++i) {
      if (old_ids[i] == kNotFound || remap[old_ids[i]] == kNotFound) continue;
      Place(old_hashes[i], remap[old_ids[i]]);
      ++size_;
    }
  }

  /// Returns the dense id of the entry whose stored hash equals `hash` and
  /// for which `eq(id)` holds, or kNotFound. Never allocates and writes
  /// nothing (not even the probe counters), so concurrent readers of a
  /// table that no one is interning into need no synchronization.
  template <typename Eq>
  std::uint32_t Find(std::uint64_t hash, Eq&& eq) const {
    if (ids_.empty()) return kNotFound;
    const std::size_t mask = ids_.size() - 1;
    std::size_t i = static_cast<std::size_t>(hash) & mask;
    while (true) {
      const std::uint32_t id = ids_[i];
      if (id == kNotFound) return kNotFound;
      if (hashes_[i] == hash && eq(id)) return id;
      i = (i + 1) & mask;
    }
  }

  /// Find, inserting `id` for the probe key when absent. Returns the
  /// resident id (== `id` exactly when the key was newly inserted, so the
  /// caller knows to append the key's payload to its pools). `eq` is only
  /// invoked on previously inserted ids, never on `id` itself.
  template <typename Eq>
  std::uint32_t FindOrInsert(std::uint64_t hash, std::uint32_t id, Eq&& eq) {
    if ((size_ + 1) * 3 > ids_.size() * 2) Rehash(NextCapacity());
    const std::size_t mask = ids_.size() - 1;
    std::size_t i = static_cast<std::size_t>(hash) & mask;
    while (true) {
      ++stats_.probes;
      const std::uint32_t resident = ids_[i];
      if (resident == kNotFound) {
        hashes_[i] = hash;
        ids_[i] = id;
        ++size_;
        return id;
      }
      if (hashes_[i] == hash && eq(resident)) return resident;
      ++stats_.collisions;
      i = (i + 1) & mask;
    }
  }

  /// Releases the slot arrays entirely (once a one-shot grounding is done
  /// with an index that would otherwise idle at program-size footprint).
  void Release() {
    std::vector<std::uint64_t>().swap(hashes_);
    std::vector<std::uint32_t>().swap(ids_);
    size_ = 0;
  }

  FlatIndexStats stats() const {
    FlatIndexStats s = stats_;
    s.capacity_bytes =
        hashes_.size() * sizeof(std::uint64_t) + ids_.size() * sizeof(std::uint32_t);
    return s;
  }

 private:
  static constexpr std::size_t kMinCapacity = 16;

  /// The smallest slot count that holds `n` entries under the 2/3 load cap.
  static std::size_t CapacityFor(std::size_t n) {
    std::size_t want = kMinCapacity;
    while (want * 2 < n * 3) want <<= 1;
    return want;
  }

  std::size_t NextCapacity() const {
    return ids_.empty() ? kMinCapacity : ids_.size() * 2;
  }

  /// Linear-probe placement without growth/size bookkeeping.
  void Place(std::uint64_t hash, std::uint32_t id) {
    const std::size_t mask = ids_.size() - 1;
    std::size_t i = static_cast<std::size_t>(hash) & mask;
    while (ids_[i] != kNotFound) i = (i + 1) & mask;
    hashes_[i] = hash;
    ids_[i] = id;
  }

  void Rehash(std::size_t new_capacity) {
    std::vector<std::uint64_t> old_hashes = std::move(hashes_);
    std::vector<std::uint32_t> old_ids = std::move(ids_);
    hashes_.assign(new_capacity, 0);
    ids_.assign(new_capacity, kNotFound);
    ++stats_.grow_allocs;
    for (std::size_t i = 0; i < old_ids.size(); ++i) {
      if (old_ids[i] != kNotFound) Place(old_hashes[i], old_ids[i]);
    }
  }

  /// Parallel arrays, one allocation each: 12 bytes per slot instead of a
  /// 16-byte padded struct, and the id scan (the common probe rejection:
  /// empty slot) stays denser in cache.
  std::vector<std::uint64_t> hashes_;
  std::vector<std::uint32_t> ids_;
  std::size_t size_ = 0;
  FlatIndexStats stats_;
};

}  // namespace afp

#endif  // AFP_UTIL_FLAT_INDEX_H_
