#ifndef AFP_UTIL_SPAN_HASH_H_
#define AFP_UTIL_SPAN_HASH_H_

#include <cstddef>
#include <cstdint>
#include <span>

namespace afp {

/// The one span-hash of the interning pipeline. AtomTable, TermTable and
/// the grounder's rule hashes (instance dedupe, assembly collision probe)
/// all hash the same shape of data — a small header word plus one or
/// more spans of dense 32-bit ids — and used to carry four copy-pasted
/// `h = h * 1000003 + v` loops. Those polynomials have no avalanche step:
/// their low bits are a near-linear function of the last few elements,
/// which is survivable under std::unordered_map's prime-modulus bucketing
/// but clusters catastrophically under FlatIndex's power-of-two masking.
/// Every hash built from these mixers therefore MUST be finished with
/// HashAvalanche before it is used to index anything.

/// Fixed seed so hashes are deterministic run to run (the flat index stores
/// them; determinism keeps probe traces reproducible under a debugger).
inline constexpr std::uint64_t kSpanHashSeed = 0x9E3779B97F4A7C15ull;

/// splitmix64 finalizer: full avalanche, so power-of-two slot masks see
/// every input bit.
inline std::uint64_t HashAvalanche(std::uint64_t x) {
  x ^= x >> 30;
  x *= 0xBF58476D1CE4E5B9ull;
  x ^= x >> 27;
  x *= 0x94D049BB133111EBull;
  x ^= x >> 31;
  return x;
}

/// Folds one word into the running state. xor-multiply-shift: cheap, and
/// keeps adjacent ids (the common case — dense AtomIds) from landing in
/// adjacent slots once finished.
inline std::uint64_t HashMixWord(std::uint64_t h, std::uint64_t v) {
  h ^= v + 0x9E3779B97F4A7C15ull;
  h *= 0xC2B2AE3D27D4EB4Full;
  h ^= h >> 29;
  return h;
}

/// Folds a span of dense ids into the running state. The trailing length
/// word separates e.g. ([a], [b]) from ([a, b], []) when two spans are
/// mixed back to back (rule pos/neg bodies).
inline std::uint64_t HashMixSpan(std::uint64_t h,
                                 std::span<const std::uint32_t> s) {
  for (std::uint32_t v : s) h = HashMixWord(h, v);
  return HashMixWord(h, s.size());
}

}  // namespace afp

#endif  // AFP_UTIL_SPAN_HASH_H_
