#ifndef AFP_GROUND_GROUNDER_H_
#define AFP_GROUND_GROUNDER_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <unordered_map>
#include <vector>

#include "ast/program.h"
#include "ground/ground_program.h"
#include "util/arena.h"
#include "util/flat_index.h"
#include "util/status.h"

namespace afp {

/// Instantiation strategy.
enum class GroundMode {
  /// Instantiate rules bottom-up against the least model of the program's
  /// positive projection (negative literals ignored). This is the standard
  /// "relevant" grounding: every rule instance whose positive body could
  /// ever be satisfied is produced, and nothing else. Terminates iff that
  /// least model is finite (always, for function-free programs).
  kSmart,
  /// Enumerate every assignment of rule variables to the program's active
  /// domain of constants (the full Herbrand instantiation P_H for
  /// function-free programs). Exponential in rule arity; intended for the
  /// small examples where trace fidelity to the paper matters.
  kFull,
};

/// Options controlling grounding.
struct GroundOptions {
  GroundMode mode = GroundMode::kSmart;
  /// Use delta-driven (semi-naive) instantiation; when false, every round
  /// re-derives all instances (the ablation baseline for bench_grounding).
  bool semi_naive = true;
  /// Drop negative body literals whose atom can never be derived (they are
  /// certainly true), and omit such atoms from the ground program's base.
  /// This preserves the well-founded and stable semantics of the reachable
  /// atoms; disable it to reproduce the paper's traces, which mention
  /// underivable atoms explicitly. Ignored in kFull mode (no dropping).
  bool simplify = true;
  /// Guards against non-terminating instantiation (infinite Herbrand
  /// universes reachable through function symbols).
  std::size_t max_atoms = 5'000'000;
  std::size_t max_rules = 20'000'000;
};

/// Computes the (relevant) Herbrand instantiation P_H of a program, and
/// keeps it current as source rules come and go.
///
/// One semi-naive join does all the instantiation. The initial grounding
/// derives the EDB facts, adds every source rule over them and cascades;
/// a rule op later adds (or retracts) a few rules over the derived set of
/// that same run and cascades the same way. Each emitted instance carries
/// a provenance count — how many live source-rule bindings emit it — so a
/// removal drops exactly the instances no live rule still emits.
///
/// `program` is taken by mutable reference because instantiation creates
/// new ground terms in its term table; no rules or symbols are modified.
/// The returned GroundProgram borrows `program` and must not outlive it,
/// and so does a kept grounder (rule ops read the rules appended to it);
/// `program` must stay at one address meanwhile (a Solver keeps its
/// Program on the heap).
class Grounder {
 public:
  /// What one rule op did to the ground program, in application order —
  /// the Solver patches its dependency graph, rule buckets and kernel cache
  /// from this (mirroring how UpdateFactsById consumes FactRemoval).
  struct Delta {
    /// Gp rule ids appended by the op (ascending), and their head atoms
    /// (parallel vector — the ids alias other rules once a later removal
    /// swap-moves them, the heads never do).
    std::vector<std::uint32_t> added_rules;
    std::vector<AtomId> added_heads;
    struct Removal {
      std::uint32_t erased_rule;
      std::uint32_t moved_rule;
      AtomId head;
      /// Head of the rule swapped into the erased slot, captured at
      /// removal time (reading it later is wrong once further removals
      /// have moved that slot again). kInvalidAtom when nothing moved.
      AtomId moved_head;
      /// The removed rule's body: the Solver checks no removed edge
      /// head -> body atom was intra-component — the one case where
      /// dropping edges could invalidate the cached SCC partition.
      std::vector<AtomId> pos, neg;
    };
    /// Swap-removes applied, in order (ids are as-of each removal).
    std::vector<Removal> removals;
    /// Source-rule instantiation joins run — the "rules re-ground" half of
    /// the O(touched) receipt.
    std::size_t rules_reground = 0;
  };

  /// Grounds `program`. When `keep` is non-null and SupportsRuleOps holds,
  /// the grounder survives in `*keep` so the caller can later patch the
  /// returned program with rule ops; otherwise `*keep` is left null and
  /// every grounding structure is released on return.
  static StatusOr<GroundProgram> Ground(
      Program& program, const GroundOptions& options = {},
      std::unique_ptr<Grounder>* keep = nullptr);

  /// Rule ops need exact provenance: semi-naive kSmart grounding emits
  /// every binding exactly once, and only unsimplified grounding keeps each
  /// instance's body as emitted.
  static bool SupportsRuleOps(const GroundOptions& options) {
    return options.mode == GroundMode::kSmart && options.semi_naive &&
           !options.simplify;
  }

  // --- Rule ops on a kept grounder -------------------------------------
  //
  // `gp` is the program Ground returned (possibly moved since). It is
  // passed on every call and never retained, so the owner may move it
  // freely between calls. Each op first folds in the atoms queued by
  // NoteFactAsserted.

  /// Instantiates source rules program.rules()[first_rule..] (non-fact
  /// rules, already validated, appended since the last op) over the
  /// derived set and cascades new derivations across all live rules.
  Status AddSourceRules(GroundProgram& gp, std::size_t first_rule,
                        Delta* delta);

  /// Retracts the live source rule at `rule_index`: re-enumerates its
  /// bindings over the derived set, decrements their instances'
  /// provenance counts and removes count-zero instances from `gp`. The
  /// source rule is tombstoned (Program's rule list is append-only).
  Status RemoveSourceRule(GroundProgram& gp, std::size_t rule_index,
                          Delta* delta);

  /// Finds a live source rule structurally equal to `r` (up to a bijective
  /// renaming of variables; body literal order significant).
  std::optional<std::size_t> FindLiveRule(const Rule& r) const;

  /// An EDB fact on `atom` was asserted. If the atom was never derived,
  /// the next rule op derives it and instantiates through it (the
  /// deferred-extension contract of docs/API.md).
  void NoteFactAsserted(AtomId atom) {
    if (atom < derived_.size() && !derived_[atom]) asserted_.push_back(atom);
  }

  /// `gp` swap-moved its last rule into slot `rule` (RemoveFact or
  /// RemoveRuleAt); re-points that rule's instance, if it has one.
  void NoteRuleMoved(const GroundProgram& gp, std::uint32_t rule);

 private:
  /// Which derivation rounds a join position may draw candidates from.
  enum class RoundFilter { kOld, kDelta, kUpTo };
  /// Join() delta position meaning "no semi-naive restriction": every
  /// literal matches anything derived before the current round.
  static constexpr std::size_t kFullJoin = static_cast<std::size_t>(-1);
  static constexpr std::uint32_t kNoRule = static_cast<std::uint32_t>(-1);

  /// One arena-backed segment of a predicate's candidate list. Chunks
  /// never move once allocated, so Join may keep walking a list while
  /// EmitInstance appends to it.
  struct CandChunk {
    CandChunk* next;
    std::uint32_t count;
    std::uint32_t cap;
    AtomId* items() { return reinterpret_cast<AtomId*>(this + 1); }
    const AtomId* items() const {
      return reinterpret_cast<const AtomId*>(this + 1);
    }
  };
  struct PredList {
    CandChunk* head = nullptr;
    CandChunk* tail = nullptr;
  };
  /// A (source rule, positive-literal position) pair fired when the
  /// literal's predicate gains atoms.
  struct Trigger {
    std::uint32_t rule;
    std::uint32_t pos;
  };
  /// An emitted instance; its body lives in instance_pool_, the negative
  /// literals right after the positive ones.
  struct Instance {
    AtomId head;
    std::uint32_t pos_offset;
    std::uint32_t pos_len;
    std::uint32_t neg_len;
    /// Live source-rule bindings emitting this instance; zero once every
    /// one of them was retracted.
    std::uint32_t count;
  };
  using Binding = std::unordered_map<SymbolId, TermId>;

  Grounder(Program& program, const GroundOptions& options)
      : program_(program), opts_(options) {}

  /// The initial grounding; `keep` prepares the grounder for rule ops.
  StatusOr<GroundProgram> Build(bool keep);
  /// Syncs alive_/triggers_ with program_.rules() (appends only).
  void RegisterSourceRules();
  /// Registers rules [first..], full-joins each over the derived set and
  /// cascades.
  Status AddRules(std::size_t first);
  Status FoldAsserted();
  /// Runs semi-naive rounds until no new atoms are derived; the first
  /// round's delta is derived_log_[delta_begin..].
  Status CascadeFrom(std::size_t delta_begin);
  Status NaiveInstantiation();
  Status FullInstantiation();
  Status EnumerateAssignments(const Rule& r, const std::vector<SymbolId>& vars,
                              std::size_t i, const std::vector<TermId>& domain,
                              Binding& binding);

  StatusOr<AtomId> InternAtom(SymbolId pred, std::span<const TermId> args);
  void MarkDerived(AtomId id, std::uint32_t round);
  void PredAppend(PredList& pl, AtomId id);

  /// Joins the positive body literals of `r` left to right, from the
  /// `pos_index`-th on, emitting one instance per complete match. Literals
  /// before `delta_pos` match only atoms older than the previous round
  /// (kOld), the one at it only the previous round's (kDelta), later ones
  /// anything derived before `round` (kUpTo).
  Status Join(const Rule& r, std::size_t delta_pos, std::size_t pos_index,
              std::uint32_t round, Binding& binding);
  /// Matches `pattern` against candidate `cand` and, on success, joins the
  /// next positive literal; undoes the match's bindings before returning.
  Status Descend(const Rule& r, const Atom& pattern, AtomId cand,
                 std::size_t delta_pos, std::size_t pos_index,
                 std::uint32_t round, Binding& binding);
  Status SubstArgs(const Rule& r, const Atom& a, const Binding& binding,
                   const char* what, std::vector<TermId>& out);
  /// Builds the instance `binding` gives `r` into the emit_* scratch, then
  /// adds one provenance count to it (or, while retiring_, takes one away).
  Status EmitInstance(const Rule& r, const Binding& binding);
  Status RetireInstance(const Rule& r, std::uint64_t hash, AtomId head);
  /// True iff instance `id` equals (head, pos, neg), bodies as multisets.
  bool InstanceEquals(std::uint32_t id, AtomId head,
                      std::span<const AtomId> pos,
                      std::span<const AtomId> neg) const;

  StatusOr<GroundProgram> Assemble(bool keep);

  /// Binds the program a rule op patches for the duration of one call.
  class OpScope;

  Program& program_;
  GroundOptions opts_;

  /// Atom table the join interns into: scratch_atoms_ while building, the
  /// patched program's own table during a rule op, null in between.
  AtomTable* atoms_ = nullptr;
  AtomTable scratch_atoms_;
  /// The program and receipt of the rule op in progress (null otherwise).
  GroundProgram* gp_ = nullptr;
  Delta* delta_ = nullptr;
  /// Set while a removal re-enumerates the retracted rule's bindings.
  bool retiring_ = false;

  /// Tombstone bitmap over program_.rules() (facts are never "live").
  std::vector<std::uint8_t> alive_;
  /// Trigger index by predicate SymbolId; tombstoned rules skipped at use.
  std::vector<std::vector<Trigger>> triggers_;

  /// Derivation state, indexed by AtomId. The derived set is monotone: a
  /// retracted rule or fact leaves its atoms derived.
  std::vector<bool> derived_;
  std::vector<std::uint32_t> round_;
  std::vector<AtomId> derived_log_;  // derivation order, grouped by round
  std::uint32_t current_round_ = 0;
  std::vector<AtomId> fact_atoms_;  // EDB facts of the initial program
  std::vector<AtomId> asserted_;    // NoteFactAsserted queue

  /// Per-predicate candidate index: dense-by-SymbolId chunk lists
  /// bump-allocated from an arena.
  std::vector<PredList> by_pred_;
  Arena cand_arena_;

  /// Emitted instances, deduped by a FlatIndex over instance_pool_, and
  /// (kept grounders only) each live instance's rule id in the program.
  std::vector<Instance> instances_;
  std::vector<AtomId> instance_pool_;
  FlatIndex instance_index_;
  std::vector<std::uint32_t> instance_rule_;

  // Reusable scratch.
  std::vector<TermId> emit_args_;
  std::vector<AtomId> emit_pos_, emit_neg_;
  std::vector<SymbolId> delta_preds_;
};

}  // namespace afp

#endif  // AFP_GROUND_GROUNDER_H_
