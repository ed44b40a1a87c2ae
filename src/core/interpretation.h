#ifndef AFP_CORE_INTERPRETATION_H_
#define AFP_CORE_INTERPRETATION_H_

#include <string>
#include <vector>

#include "ground/ground_program.h"
#include "util/bitset.h"
#include "util/json.h"
#include "util/status.h"

namespace afp {

/// Three truth values of a partial interpretation (§3.3).
enum class TruthValue { kFalse, kUndefined, kTrue };

/// Short printable name: "true" / "false" / "undef".
const char* TruthValueName(TruthValue v);

/// A partial interpretation of a ground program: disjoint sets of true and
/// false atoms over the program's atom universe; everything else is
/// undefined (§3.3). Ground atoms of the Herbrand base that are not in the
/// grounded universe at all are false (they are underivable, hence
/// unfounded).
class PartialModel {
 public:
  PartialModel() = default;
  PartialModel(Bitset true_atoms, Bitset false_atoms)
      : true_(std::move(true_atoms)), false_(std::move(false_atoms)) {}

  /// Constructs the all-undefined interpretation over `universe` atoms.
  static PartialModel AllUndefined(std::size_t universe) {
    return PartialModel(Bitset(universe), Bitset(universe));
  }

  const Bitset& true_atoms() const { return true_; }
  const Bitset& false_atoms() const { return false_; }
  /// Mutable access invalidates the cached counts below — the engines'
  /// round loops swap buffers through these, so a model under iteration
  /// never pays for the cache, and a settled model pays one popcount pass
  /// total no matter how many num_*/IsTotal calls follow.
  Bitset& true_atoms() {
    counts_valid_ = false;
    return true_;
  }
  Bitset& false_atoms() {
    counts_valid_ = false;
    return false_;
  }

  TruthValue Value(AtomId a) const {
    if (true_.Test(a)) return TruthValue::kTrue;
    if (false_.Test(a)) return TruthValue::kFalse;
    return TruthValue::kUndefined;
  }

  /// True iff no atom is undefined (a total model, Definition 5.2 sense).
  bool IsTotal() const;
  /// True iff the true/false sets are disjoint.
  bool IsConsistent() const { return true_.IsDisjointWith(false_); }

  /// Cardinalities, cached across calls (invalidated by the mutable
  /// accessors). One bitset popcount pass fills all three.
  ///
  /// Thread-safety note: the cache makes these const methods physically
  /// mutating (mutable fields), so concurrent reads of ONE PartialModel
  /// from several threads need external synchronization or a per-thread
  /// copy — unlike the pre-cache version. Nothing in-tree shares a model
  /// across threads (parallel workers own their local models and the
  /// result model is read after the pool joins); keep it that way or
  /// synchronize.
  std::size_t num_true() const {
    EnsureCounts();
    return cached_true_;
  }
  std::size_t num_false() const {
    EnsureCounts();
    return cached_false_;
  }
  std::size_t num_undefined() const {
    EnsureCounts();
    return true_.universe_size() - cached_true_ - cached_false_;
  }

  bool operator==(const PartialModel& o) const {
    return true_ == o.true_ && false_ == o.false_;
  }

 private:
  void EnsureCounts() const {
    if (counts_valid_) return;
    cached_true_ = true_.Count();
    cached_false_ = false_.Count();
    counts_valid_ = true;
  }

  Bitset true_;
  Bitset false_;
  mutable std::size_t cached_true_ = 0;
  mutable std::size_t cached_false_ = 0;
  mutable bool counts_valid_ = false;
};

/// Three-valued value of a rule body (conjunction of literals) in `m`:
/// false if some literal is false, true if all are true, else undefined
/// (Definition 3.4).
TruthValue BodyValue(const GroundProgram& gp, const GroundRule& r,
                     const PartialModel& m);

/// Whether `m` satisfies every rule of the ground program per
/// Definition 3.5: for each rule, the head is true, or the body is false,
/// or both head and body are undefined.
bool Satisfies(const GroundProgram& gp, const PartialModel& m);

/// Extends a partial model to a total model by making every undefined atom
/// true — the constructive content of Theorem 3.3(A): decided-false body
/// literals stay false, and rules whose head was undefined become satisfied
/// through their (now true) heads. Precondition: `m` satisfies `gp`
/// (checked; returns FailedPrecondition otherwise).
StatusOr<PartialModel> ExtendToTotalModel(const GroundProgram& gp,
                                          const PartialModel& m);

/// Options for rendering a model as text.
struct ModelPrintOptions {
  /// Omit atoms of EDB predicates (the paper's convention, §3).
  bool include_edb = false;
  /// Omit the (often large) list of false atoms.
  bool include_false = true;
};

/// Renders the model as three sorted atom lists:
///   true:  p(a) p(b)
///   false: q(a)
///   undef: r(b)
std::string ModelToString(const GroundProgram& gp, const PartialModel& m,
                          const ModelPrintOptions& opts = {});

/// Renders a set of atoms as e.g. "{p(a), p(b)}", sorted by name; used for
/// trace output (Table I rows).
std::string AtomSetToString(const GroundProgram& gp, const Bitset& set,
                            bool include_edb = false);

/// Serializes the model as compact JSON for external tooling:
///   {"counts":{"true":2,"false":1,"undefined":0},
///    "atoms":[{"atom":"p(a)","value":"true"}, ...]}
/// Atom order follows AtomId order; EDB atoms included per `opts`.
std::string ModelToJson(const GroundProgram& gp, const PartialModel& m,
                        const ModelPrintOptions& opts = {});

/// Writes ModelToJson's "counts" and "atoms" members into the object `w`
/// has open, so a caller can put members of its own next to them.
void WriteModelJson(JsonWriter& w, const GroundProgram& gp,
                    const PartialModel& m, const ModelPrintOptions& opts = {});

/// Resolves the textual form of a ground atom (e.g. "wins(a)") to its id in
/// the grounded base, or kInvalidAtom if the atom is not materialized
/// (which means it is false, closed world). Errors only on unparsable or
/// non-ground input.
StatusOr<AtomId> ResolveAtom(const GroundProgram& gp,
                             const std::string& atom_text);

/// Looks up the truth value of the atom written as `atom_text` (e.g.
/// "wins(a)"). The text is parsed against `gp.source()`'s symbols; atoms
/// outside the grounded universe report false (closed world).
StatusOr<TruthValue> QueryAtom(const GroundProgram& gp, const PartialModel& m,
                               const std::string& atom_text);

}  // namespace afp

#endif  // AFP_CORE_INTERPRETATION_H_
