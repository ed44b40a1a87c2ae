#ifndef AFP_AST_TERM_H_
#define AFP_AST_TERM_H_

#include <cstdint>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "util/flat_index.h"
#include "util/interner.h"

namespace afp {

/// Dense id of a hash-consed term within a TermTable.
using TermId = std::uint32_t;
inline constexpr TermId kInvalidTerm = static_cast<TermId>(-1);

/// Kind of a term node.
enum class TermKind : std::uint8_t {
  kConstant,  // e.g. `a`, `42`
  kVariable,  // e.g. `X`
  kCompound,  // e.g. `f(X, g(a))`
};

/// Hash-consed store of first-order terms. Each distinct term is stored
/// exactly once, so term equality is TermId equality and substitution
/// results are shared. Terms are immutable once created.
///
/// The Herbrand universe of a program (paper §3) is the set of ground terms
/// formed from its constants and function symbols; TermTable is the concrete
/// machinery backing it.
///
/// Interning is indexed by a FlatIndex probing the node/argument pools in
/// place: Make*/Find* hash the candidate (kind, symbol, args) directly from
/// the caller's span and compare against resident terms through
/// nodes_/args_, so a compound lookup materializes no key and performs no
/// steady-state allocation.
class TermTable {
 public:
  /// Returns the (unique) constant term with the given symbol.
  TermId MakeConstant(SymbolId symbol);
  /// Returns the (unique) variable term with the given symbol.
  TermId MakeVariable(SymbolId symbol);
  /// Returns the (unique) compound term functor(args...). `args` must be
  /// non-empty; zero-arity function symbols are constants.
  TermId MakeCompound(SymbolId functor, std::span<const TermId> args);

  /// Const lookups: return the term id if it is already interned, or
  /// kInvalidTerm otherwise. Used to query models without mutating tables.
  TermId FindConstant(SymbolId symbol) const;
  TermId FindCompound(SymbolId functor, std::span<const TermId> args) const;

  TermKind kind(TermId t) const { return nodes_[t].kind; }
  /// The constant/variable name, or the functor symbol for compounds.
  SymbolId symbol(TermId t) const { return nodes_[t].symbol; }
  /// Argument list (empty for constants and variables).
  std::span<const TermId> args(TermId t) const {
    const Node& n = nodes_[t];
    return {args_.data() + n.args_offset, n.args_len};
  }
  /// True iff the term contains no variables.
  bool IsGround(TermId t) const { return nodes_[t].ground; }
  /// Nesting depth: constants/variables have depth 0, f(t...) has
  /// 1 + max depth of arguments. Informational: no grounding limit reads
  /// it (only GroundOptions::max_atoms bounds the terms grounding builds).
  std::uint32_t Depth(TermId t) const { return nodes_[t].depth; }

  std::size_t size() const { return nodes_.size(); }

  /// Probe/allocation counters of the index.
  FlatIndexStats index_stats() const { return index_.stats(); }

  /// Renders `t` using `symbols` for names, e.g. "f(a,g(X))". Iterative:
  /// any nesting depth renders.
  std::string ToString(TermId t, const Interner& symbols) const;

  /// Applies the substitution `binding` (variable symbol -> term) to `t`.
  /// Unbound variables are left in place.
  TermId Substitute(TermId t,
                    const std::unordered_map<SymbolId, TermId>& binding);

  /// Collects the variable symbols occurring in `t` into `out` (may repeat).
  void CollectVariables(TermId t, std::vector<SymbolId>& out) const;

 private:
  struct Node {
    TermKind kind;
    bool ground;
    std::uint32_t depth;
    SymbolId symbol;
    std::uint32_t args_offset;
    std::uint32_t args_len;
  };

  static std::uint64_t HashTerm(TermKind kind, SymbolId symbol,
                                std::span<const TermId> args);
  /// True iff resident term `id` is (kind, symbol, args).
  bool TermEquals(TermId id, TermKind kind, SymbolId symbol,
                  std::span<const TermId> args) const;

  TermId Intern(TermKind kind, SymbolId symbol, std::span<const TermId> args);
  TermId Find(TermKind kind, SymbolId symbol,
              std::span<const TermId> args) const;
  /// Appends the node + argument payload; returns the new dense id.
  TermId AppendNode(TermKind kind, SymbolId symbol,
                    std::span<const TermId> args);

  std::vector<Node> nodes_;
  std::vector<TermId> args_;
  FlatIndex index_;
};

}  // namespace afp

#endif  // AFP_AST_TERM_H_
