#ifndef AFP_GROUND_ATOM_TABLE_H_
#define AFP_GROUND_ATOM_TABLE_H_

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "ast/term.h"
#include "util/flat_index.h"
#include "util/interner.h"

namespace afp {

/// Dense id of a ground atom within an AtomTable. The set of interned atoms
/// plays the role of the (relevant portion of the) Herbrand base H (§3).
using AtomId = std::uint32_t;
inline constexpr AtomId kInvalidAtom = static_cast<AtomId>(-1);

/// Hash-consed store of ground atoms p(t1,...,tn). Each distinct atom gets a
/// dense AtomId, so sets of atoms / negative literals (the paper's I+, Ĩ)
/// can be represented as bitsets.
///
/// The index is a FlatIndex probing preds_/arg_offsets_/args_pool_ in
/// place: Intern and Find hash (pred, args) straight from the caller's span
/// and compare against resident atoms by reading the pools — no key object,
/// no per-lookup allocation.
class AtomTable {
 public:
  /// Returns the id for pred(args...), interning it if new. All args must be
  /// ground terms.
  AtomId Intern(SymbolId pred, std::span<const TermId> args);

  /// Returns the id if interned, kInvalidAtom otherwise.
  AtomId Find(SymbolId pred, std::span<const TermId> args) const;

  /// Keeps the atoms `remap` gives a new id and drops those it maps to
  /// kInvalidAtom, in place. The new ids must be the kept atoms' ranks
  /// (0, 1, ... in old-id order), `kept` of them. The index is rebuilt
  /// from its stored hashes.
  void Compact(std::span<const AtomId> remap, std::size_t kept);

  std::size_t size() const { return preds_.size(); }

  SymbolId predicate(AtomId a) const { return preds_[a]; }
  std::span<const TermId> args(AtomId a) const {
    return {args_pool_.data() + arg_offsets_[a],
            arg_offsets_[a + 1] - arg_offsets_[a]};
  }

  /// Probe/allocation counters of the index. grow_allocs only moves when
  /// the slot array doubles: a steady-state Intern of a present atom — and
  /// every Find — allocates nothing.
  FlatIndexStats index_stats() const { return index_.stats(); }

  /// Renders the atom, e.g. "move(a,b)".
  std::string ToString(AtomId a, const Interner& symbols,
                       const TermTable& terms) const;

 private:
  static std::uint64_t HashAtom(SymbolId pred, std::span<const TermId> args);
  bool AtomEquals(AtomId id, SymbolId pred,
                  std::span<const TermId> args) const;
  AtomId Append(SymbolId pred, std::span<const TermId> args);

  std::vector<SymbolId> preds_;
  std::vector<std::uint32_t> arg_offsets_{0};  // size()+1 entries
  std::vector<TermId> args_pool_;
  FlatIndex index_;
};

}  // namespace afp

#endif  // AFP_GROUND_ATOM_TABLE_H_
