#ifndef AFP_GROUND_GROUND_PROGRAM_H_
#define AFP_GROUND_GROUND_PROGRAM_H_

#include <cstdint>
#include <span>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "ast/program.h"
#include "ground/atom_table.h"
#include "util/flat_index.h"

namespace afp {

/// What grounding cost in memory terms: the receipt of the flat interning
/// pipeline (AtomTable / TermTable / instance dedupe / the assembly's
/// probe for rules simplification made equal), surfaced through
/// Solver::Stats and the CLI's --stats, and recorded by bench_scale.
struct GroundStats {
  std::size_t atoms = 0;
  std::size_t rules = 0;
  /// Flat-index slots inspected / rejected by interning (FindOrInsert)
  /// only; read-only lookups (AtomTable::Find, TermTable::Find) are not
  /// counted, so concurrent readers write nothing.
  std::uint64_t intern_probes = 0;
  std::uint64_t intern_collisions = 0;
  /// Slot-array (re)allocations — the ONLY allocations the flat interning
  /// path performs. A lookup of a present key (every AtomTable::Find, every
  /// re-intern, every duplicate-instance rejection) allocates nothing; this
  /// counter is the steady-state-zero-allocation regression guard.
  std::uint64_t intern_allocs = 0;
  /// Bytes handed out by the grounder's candidate-list arena: the
  /// predicate lists and posting lists its join walks.
  std::size_t arena_bytes = 0;
  /// Candidate atoms the grounder's join tested, the receipt of join work:
  /// deterministic, and linear in the ground program on indexed joins.
  std::uint64_t join_candidates = 0;
  /// Emitted instances the grounder looked up in its instance dedupe. A
  /// kept grounder looks up every one; a one-shot kSmart grounding skips
  /// the rules whose bindings cannot emit one instance twice, so this is
  /// 0 on the TC-complement and win-move programs.
  std::uint64_t instance_probes = 0;
  /// Flat-index slot-array footprint across the live tables.
  std::size_t index_bytes = 0;
  /// Process peak RSS when the receipt was filled (0 where unavailable).
  std::size_t peak_rss_bytes = 0;

  /// Folds one index's counters into the receipt.
  void Absorb(const FlatIndexStats& s) {
    intern_probes += s.probes;
    intern_collisions += s.collisions;
    intern_allocs += s.grow_allocs;
    index_bytes += s.capacity_bytes;
  }
};

/// One instantiated rule of P_H: head :- pos..., not neg....
/// Offsets index into the owning container's shared body pool.
struct GroundRule {
  AtomId head;
  std::uint32_t pos_offset;
  std::uint32_t pos_len;
  std::uint32_t neg_offset;
  std::uint32_t neg_len;
};

/// A borrowed, index-free view of a set of ground rules over a fixed atom
/// universe. GroundProgram and OwnedRules produce views; the solvers
/// consume them.
struct RuleView {
  std::size_t num_atoms = 0;
  std::span<const GroundRule> rules;
  std::span<const AtomId> body_pool;

  std::span<const AtomId> pos(const GroundRule& r) const {
    return body_pool.subspan(r.pos_offset, r.pos_len);
  }
  std::span<const AtomId> neg(const GroundRule& r) const {
    return body_pool.subspan(r.neg_offset, r.neg_len);
  }
};

/// The Herbrand instantiation P_H of a program (Definition 3.4), restricted
/// to its relevant ground rules: a pool of GroundRules over dense AtomIds.
///
/// The grounder builds the tables and hands them over whole (its atom
/// table and, for a one-shot grounding, its instance pool as the body
/// pool); afterwards rules only change through the mutation calls below.
/// A GroundProgram borrows the Program it was grounded from (for symbol
/// and term rendering); it must not outlive it.
class GroundProgram {
 public:
  /// An empty program. `source` provides the interner/term table used for
  /// rendering atom names. Must outlive this object.
  explicit GroundProgram(const Program* source) : source_(source) {}

  /// Takes over the tables of a finished grounding: every rule's body
  /// indexes `body_pool`, every atom id is one of `atoms`.
  GroundProgram(const Program* source, AtomTable atoms,
                std::vector<GroundRule> rules, std::vector<AtomId> body_pool,
                const GroundStats& grounding_stats)
      : source_(source),
        atoms_(std::move(atoms)),
        rules_(std::move(rules)),
        body_pool_(std::move(body_pool)),
        grounding_stats_(grounding_stats) {}

  AtomTable& atoms() { return atoms_; }
  const AtomTable& atoms() const { return atoms_; }
  const Program& source() const { return *source_; }

  std::size_t num_atoms() const { return atoms_.size(); }
  std::size_t num_rules() const { return rules_.size(); }
  /// Sum of body lengths plus one head per rule; the "size of the program"
  /// in the complexity discussions.
  std::size_t TotalSize() const { return body_pool_.size() + rules_.size(); }

  /// Appends the ground rule `head :- pos, not neg` as rule num_rules() - 1,
  /// with no duplicate check. An empty body makes it an EDB fact append
  /// that keeps the lazily built fact index (HasFact/RemoveFact) current,
  /// exactly as AddFact does — but without AddFact's already-present
  /// short-circuit, so prefer AddFact for fact mutation.
  void AddRule(AtomId head, std::span<const AtomId> pos,
               std::span<const AtomId> neg);

  /// The receipt of the grounding run that built this program (counters
  /// of the scratch structures the grounder destroys on completion; the
  /// live atom/term table counters, the grounding's interning included,
  /// are read separately — see Solver::Stats).
  const GroundStats& grounding_stats() const { return grounding_stats_; }

  /// --- EDB mutation (Solver::AssertFacts / RetractFacts) ---
  ///
  /// A fact is a rule with an empty body; adding or removing one changes no
  /// dependency arcs and interns no atoms, so a cached AtomDependencyGraph
  /// over this program stays valid across these calls.

  /// True iff the fact rule `atom.` is present.
  bool HasFact(AtomId atom) const;

  /// Appends the fact rule `atom.` (no-op when already present). Returns
  /// true if the program changed; the new rule id is num_rules() - 1.
  bool AddFact(AtomId atom);

  /// How RemoveFact rearranged the rule vector, so callers maintaining
  /// per-component rule buckets can patch them in O(affected buckets).
  struct FactRemoval {
    bool removed = false;
    /// Id the fact rule occupied; after the call this slot holds the rule
    /// that previously had id `moved_rule` (== erased_rule when the fact
    /// was last, in which case nothing moved).
    std::uint32_t erased_rule = 0;
    std::uint32_t moved_rule = 0;
  };

  /// Removes the fact rule `atom.` by swapping the last rule into its slot
  /// (rule ids are otherwise stable). No-op when the fact is absent.
  FactRemoval RemoveFact(AtomId atom);

  /// --- Rule mutation (Solver::AddRule / RemoveRule) ---
  ///
  /// Removes the rule with id `rule` — fact or proper rule — by the same
  /// swap-remove discipline as RemoveFact; `erased_rule == rule` and
  /// `moved_rule` is the previous last rule now occupying that slot. The
  /// fact index (if built) is kept current for both the erased and the
  /// moved rule. Body-pool storage of the removed rule is orphaned, not
  /// reclaimed — the pool is append-only; a long-lived session compacts by
  /// re-grounding, not in place.
  FactRemoval RemoveRuleAt(std::uint32_t rule);

  /// Monotone counter bumped by every mutation of the rule set (AddRule,
  /// AddFact, RemoveFact, RemoveRuleAt). Caches derived from the rule set —
  /// compiled rule kernels in particular (core/rule_kernel.h) — record the
  /// epoch they were built against and treat any unexplained change as a
  /// signal to invalidate: a rule appended through AddRule directly, with
  /// no cache-aware caller patching things up, must never be evaluated
  /// against a stale compiled bucket.
  std::uint64_t mutation_epoch() const { return mutation_epoch_; }

  const GroundRule& rule(std::size_t i) const { return rules_[i]; }
  std::span<const AtomId> pos(const GroundRule& r) const {
    return {body_pool_.data() + r.pos_offset, r.pos_len};
  }
  std::span<const AtomId> neg(const GroundRule& r) const {
    return {body_pool_.data() + r.neg_offset, r.neg_len};
  }

  /// Borrowed view for the solvers.
  RuleView View() const {
    return RuleView{atoms_.size(), rules_, body_pool_};
  }

  /// Renders atom `a`, e.g. "wins(3)".
  std::string AtomName(AtomId a) const {
    return atoms_.ToString(a, source_->symbols(), source_->terms());
  }
  /// Renders rule `i` in input syntax.
  std::string RuleToString(std::size_t i) const;
  /// Renders the whole ground program (tests/debugging).
  std::string ToString() const;

 private:
  /// Rebuilds fact_index_ (fact head -> rule id) on first mutation query.
  void EnsureFactIndex() const;

  const Program* source_;
  AtomTable atoms_;
  std::vector<GroundRule> rules_;
  std::vector<AtomId> body_pool_;
  GroundStats grounding_stats_;
  std::uint64_t mutation_epoch_ = 0;
  mutable bool fact_index_built_ = false;
  mutable std::unordered_map<AtomId, std::uint32_t> fact_index_;
};

}  // namespace afp

#endif  // AFP_GROUND_GROUND_PROGRAM_H_
