#ifndef AFP_UTIL_BITSET_H_
#define AFP_UTIL_BITSET_H_

#include <cstdint>
#include <cstddef>
#include <vector>

#ifdef _MSC_VER
#include <intrin.h>
#endif

namespace afp {

/// Fixed-universe dynamic bitset used to represent sets of ground atoms.
/// The universe size is set at construction (the Herbrand base size); all
/// binary operations require equal universe sizes.
class Bitset {
 public:
  Bitset() = default;
  explicit Bitset(std::size_t universe, bool all_set = false)
      : size_(universe), words_((universe + 63) / 64, all_set ? ~0ULL : 0ULL) {
    TrimLastWord();
  }

  std::size_t universe_size() const { return size_; }

  /// Re-sizes the universe and clears every bit. Word storage is retained
  /// where possible, so pooled scratch bitsets can be recycled across
  /// programs of different sizes without reallocating.
  void Resize(std::size_t universe) {
    size_ = universe;
    words_.assign((universe + 63) / 64, 0ULL);
  }

  /// Grows the universe to `universe` bits, preserving every existing bit
  /// (new bits are clear). Shrinking is not supported; the universe of a
  /// live session only ever grows (rule-level delta grounding interns new
  /// atoms but never un-interns). Contrast Resize, which clears.
  void GrowTo(std::size_t universe) {
    if (universe <= size_) return;
    size_ = universe;
    words_.resize((universe + 63) / 64, 0ULL);
  }

  /// Bytes of backing storage currently reserved (diagnostics: the
  /// EvalContext scratch high-water mark).
  std::size_t CapacityBytes() const {
    return words_.capacity() * sizeof(std::uint64_t);
  }

  void Set(std::size_t i) { words_[i >> 6] |= 1ULL << (i & 63); }
  void Reset(std::size_t i) { words_[i >> 6] &= ~(1ULL << (i & 63)); }
  bool Test(std::size_t i) const {
    return (words_[i >> 6] >> (i & 63)) & 1ULL;
  }

  void Clear() {
    for (auto& w : words_) w = 0;
  }
  void SetAll() {
    for (auto& w : words_) w = ~0ULL;
    TrimLastWord();
  }

  /// Number of set bits.
  std::size_t Count() const {
    std::size_t n = 0;
    for (std::uint64_t w : words_) n += Popcount(w);
    return n;
  }

  bool None() const {
    for (std::uint64_t w : words_) {
      if (w != 0) return false;
    }
    return true;
  }

  /// In-place union.
  Bitset& operator|=(const Bitset& o) {
    for (std::size_t i = 0; i < words_.size(); ++i) words_[i] |= o.words_[i];
    return *this;
  }
  /// In-place intersection.
  Bitset& operator&=(const Bitset& o) {
    for (std::size_t i = 0; i < words_.size(); ++i) words_[i] &= o.words_[i];
    return *this;
  }
  /// In-place difference (this \ o).
  Bitset& Subtract(const Bitset& o) {
    for (std::size_t i = 0; i < words_.size(); ++i) words_[i] &= ~o.words_[i];
    return *this;
  }
  /// In-place complement within the universe.
  Bitset& Complement() {
    for (auto& w : words_) w = ~w;
    TrimLastWord();
    return *this;
  }

  /// Returns the complement of `s` within its universe.
  static Bitset ComplementOf(const Bitset& s) {
    Bitset out = s;
    out.Complement();
    return out;
  }

  /// Makes this the complement of `o` within o's universe, in one word
  /// pass (where `*this = o; Complement();` pays two). The borrowed-view
  /// unfounded-set evaluation uses this to turn the maintained supported
  /// set X into the next round's false set without an intermediate copy.
  Bitset& AssignComplementOf(const Bitset& o) {
    size_ = o.size_;
    words_.resize(o.words_.size());
    for (std::size_t i = 0; i < words_.size(); ++i) words_[i] = ~o.words_[i];
    TrimLastWord();
    return *this;
  }

  /// True iff this equals the complement of `o` within the shared universe
  /// (equal universe sizes required). One word pass, no materialization.
  bool IsComplementOf(const Bitset& o) const {
    if (size_ != o.size_) return false;
    if (words_.empty()) return true;
    for (std::size_t i = 0; i + 1 < words_.size(); ++i) {
      if (words_[i] != ~o.words_[i]) return false;
    }
    std::uint64_t mask = (size_ % 64 == 0) ? ~0ULL : (1ULL << (size_ % 64)) - 1;
    return words_.back() == (~o.words_.back() & mask);
  }

  /// Word-granular access, for serializing a bitset (ServingSolver's
  /// SaveState / RestoreState). Bit i lives in word i/64 at position i%64.
  std::size_t num_words() const { return words_.size(); }
  std::uint64_t word(std::size_t wi) const { return words_[wi]; }
  void set_word(std::size_t wi, std::uint64_t w) { words_[wi] = w; }

  /// A word loop rather than the vectors' ==, which calls memcmp: the
  /// component solves compare bitsets of a word or two several times per
  /// fixpoint round, where the call costs more than the comparison.
  bool operator==(const Bitset& o) const {
    if (size_ != o.size_) return false;
    for (std::size_t i = 0; i < words_.size(); ++i) {
      if (words_[i] != o.words_[i]) return false;
    }
    return true;
  }
  bool operator!=(const Bitset& o) const { return !(*this == o); }

  /// True iff this is a subset of `o`.
  bool IsSubsetOf(const Bitset& o) const {
    for (std::size_t i = 0; i < words_.size(); ++i) {
      if (words_[i] & ~o.words_[i]) return false;
    }
    return true;
  }

  /// True iff the two sets share no element.
  bool IsDisjointWith(const Bitset& o) const {
    for (std::size_t i = 0; i < words_.size(); ++i) {
      if (words_[i] & o.words_[i]) return false;
    }
    return true;
  }

  /// The smallest position set in neither `a` nor `b` (equal universe
  /// sizes required), or the universe size when `a | b` covers it. A word
  /// at a time, with the bits past the universe masked off the last word:
  /// the stable search's branch choice (first atom neither true nor
  /// false).
  static std::size_t FirstZeroOfUnion(const Bitset& a, const Bitset& b) {
    for (std::size_t wi = 0; wi < a.words_.size(); ++wi) {
      std::uint64_t free = ~(a.words_[wi] | b.words_[wi]);
      if (wi + 1 == a.words_.size() && a.size_ % 64 != 0) {
        free &= (1ULL << (a.size_ % 64)) - 1;
      }
      if (free != 0) return wi * 64 + CountTrailingZeros(free);
    }
    return a.size_;
  }

  /// Calls fn(i, now_set) for every position whose bit differs between
  /// `prev` and `now` (equal universe sizes required); `now_set` is the
  /// bit's value in `now`. Word-level XOR scan — the primitive behind
  /// delta-driven S_P re-evaluation.
  template <typename Fn>
  static void ForEachChanged(const Bitset& prev, const Bitset& now,
                             Fn&& fn) {
    for (std::size_t wi = 0; wi < now.words_.size(); ++wi) {
      std::uint64_t diff = prev.words_[wi] ^ now.words_[wi];
      while (diff) {
        std::size_t bit = CountTrailingZeros(diff);
        std::size_t i = wi * 64 + bit;
        fn(i, (now.words_[wi] >> bit) & 1ULL);
        diff &= diff - 1;
      }
    }
  }

  /// Calls fn(i) for every set bit i in increasing order.
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    for (std::size_t wi = 0; wi < words_.size(); ++wi) {
      std::uint64_t w = words_[wi];
      while (w) {
        std::size_t bit = CountTrailingZeros(w);
        fn(wi * 64 + bit);
        w &= w - 1;
      }
    }
  }

 private:
  void TrimLastWord() {
    if (size_ % 64 != 0 && !words_.empty()) {
      words_.back() &= (1ULL << (size_ % 64)) - 1;
    }
  }

  static std::size_t Popcount(std::uint64_t w) {
#ifdef _MSC_VER
    return static_cast<std::size_t>(__popcnt64(w));
#elif defined(__POPCNT__)
    return static_cast<std::size_t>(__builtin_popcountll(w));
#else
    // Without the POPCNT instruction the builtin is a libgcc call; the
    // inline bit-parallel count is cheaper.
    w -= (w >> 1) & 0x5555555555555555ULL;
    w = (w & 0x3333333333333333ULL) + ((w >> 2) & 0x3333333333333333ULL);
    w = (w + (w >> 4)) & 0x0F0F0F0F0F0F0F0FULL;
    return static_cast<std::size_t>((w * 0x0101010101010101ULL) >> 56);
#endif
  }
  static std::size_t CountTrailingZeros(std::uint64_t w) {
#ifdef _MSC_VER
    unsigned long idx;
    _BitScanForward64(&idx, w);
    return idx;
#else
    return static_cast<std::size_t>(__builtin_ctzll(w));
#endif
  }

  std::size_t size_ = 0;
  std::vector<std::uint64_t> words_;
};

}  // namespace afp

#endif  // AFP_UTIL_BITSET_H_
