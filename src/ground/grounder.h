#ifndef AFP_GROUND_GROUNDER_H_
#define AFP_GROUND_GROUNDER_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
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
/// The join runs on plans compiled once per source rule (variables as
/// dense slots). A positive literal whose arguments are all bound on
/// arrival — constants, or variables an earlier literal bound — probes the
/// atom table for its one candidate; one with some bound walks the posting
/// list of (predicate, first bound position, term); one with none walks
/// its predicate's list; a delta literal starts at the previous round's
/// first atom. Every list is in derivation order, so matches, atom ids and
/// rule order are those of a scan over the whole predicate.
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
  /// every grounding structure is released on return. When `receipt` is
  /// non-null it receives the grounding receipt even if grounding fails:
  /// after a resource limit it says how far the run got (`atoms`
  /// interned, `rules` emitted with the EDB facts, `join_candidates`).
  static StatusOr<GroundProgram> Ground(
      Program& program, const GroundOptions& options = {},
      std::unique_ptr<Grounder>* keep = nullptr,
      GroundStats* receipt = nullptr);

  /// Rule ops need exact provenance: kSmart grounding emits every binding
  /// exactly once, and only unsimplified grounding keeps each instance's
  /// body as emitted. A kept grounder also looks up every instance it
  /// emits, because a rule op finds the instances it retracts by content.
  static bool SupportsRuleOps(const GroundOptions& options) {
    return options.mode == GroundMode::kSmart && !options.simplify;
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
  /// Which derivation rounds a join step may draw candidates from.
  enum class RoundFilter { kOld, kDelta, kUpTo };
  /// Join() delta position meaning "no semi-naive restriction": every
  /// literal matches anything derived before the current round.
  static constexpr std::size_t kFullJoin = static_cast<std::size_t>(-1);
  static constexpr std::uint32_t kNoRule = static_cast<std::uint32_t>(-1);
  /// "None" for list ids, key positions and rounds.
  static constexpr std::uint32_t kNone = static_cast<std::uint32_t>(-1);
  /// Posting lists cover argument positions below this (one mask bit each).
  static constexpr std::uint32_t kMaxKeyPosition = 64;

  // --- join plans -----------------------------------------------------
  //
  // Each source rule is compiled once, when it is registered. Its
  // variables become dense slots of slots_; which slot a literal binds and
  // which it only reads is fixed by the left-to-right join order, so a
  // binding is never undone: the next candidate simply overwrites it.

  /// One instruction of a compiled term. Matching runs a literal's
  /// arguments in preorder against a candidate's terms; building runs an
  /// atom's arguments in postfix onto emit_args_.
  struct TermOp {
    enum Kind : std::uint8_t {
      kGround,    // match: the term is `value`; build: push `value`
      kBind,      // match: the variable's first occurrence; slot `value`
                  // takes the term (never built: all slots are bound)
      kSlot,      // match: the term equals slot `value`; build: push it
      kCompound,  // match: the term is `value`(...) with `arity`
                  // arguments, matched next; build: replace the top
                  // `arity` terms by `value`(...)
    };
    Kind kind;
    std::uint32_t arity;
    std::uint32_t value;
  };
  /// An atom to build, its arguments in plan_ops_[ops_begin, ops_end).
  struct AtomPlan {
    SymbolId pred;
    std::uint32_t ops_begin, ops_end;
    bool positive;  // body atoms: the literal's sign
  };
  /// One positive body literal, matched by plan_ops_[ops_begin, ops_end).
  /// How the join finds its candidates depends on which arguments are
  /// bound when it gets there — constants of the rule, and variables an
  /// earlier literal bound: with all of them bound (arity 0 included) it
  /// probes the atom table for the one atom it can match (kProbe); with
  /// some bound it walks the posting list of (pred, key_pos, the term
  /// there) (kPosting); with none it walks the predicate's list (kScan).
  struct JoinStep {
    enum Access : std::uint8_t { kScan, kPosting, kProbe };
    SymbolId pred;
    std::uint32_t arity;
    std::uint32_t ops_begin, ops_end;
    Access access;
    /// kPosting: the first bound argument, and its term: `key_value`
    /// itself (kGround) or the value of slot `key_value` (kSlot).
    TermOp::Kind key_kind;
    std::uint32_t key_pos;
    std::uint32_t key_value;
  };
  /// A compiled source rule; ranges index the plan pools below.
  struct RulePlan {
    std::uint32_t rule;  // index in program_.rules()
    bool alive;          // false once the rule is retracted
    /// No other binding of this plan, and no other plan, can emit an
    /// instance equal to one of its own, so EmitInstance skips the
    /// instance dedupe (one-shot kSmart groundings only; MarkEmitOnce).
    bool emit_once;
    std::uint32_t num_slots;
    std::uint32_t steps_begin, steps_end;  // steps_: positive literals
    std::uint32_t atoms_begin, atoms_end;  // plan_atoms_: head, then body
    std::uint32_t vars_begin;  // slot_vars_: each slot's variable
  };

  // --- candidate lists ------------------------------------------------

  /// One arena-backed segment of a candidate list. Chunks never move once
  /// allocated, so Join may keep walking a list while EmitInstance
  /// appends to it (or creates other lists).
  struct CandChunk {
    CandChunk* next;
    std::uint32_t count;
    std::uint32_t cap;
    AtomId* items() { return reinterpret_cast<AtomId*>(this + 1); }
    const AtomId* items() const {
      return reinterpret_cast<const AtomId*>(this + 1);
    }
  };
  /// Where one round's atoms begin in a list.
  struct RoundMark {
    const CandChunk* chunk = nullptr;
    std::uint32_t index = 0;
    std::uint32_t round = kNone;
  };
  /// Atoms appended in derivation order, hence sorted by round. During
  /// round r a list holds nothing newer than r, so the starts of its last
  /// two rounds locate round r-1's atoms: where a delta walk begins.
  struct CandList {
    CandChunk* head = nullptr;
    CandChunk* tail = nullptr;
    RoundMark last, prev;
  };
  /// The lists a predicate keeps: a whole-predicate list when some
  /// registered kScan step reads it, and posting lists on the argument
  /// positions registered kPosting steps key on.
  struct PredLists {
    std::uint32_t list = kNone;   // lists_ index
    std::uint64_t positions = 0;  // bit i: posting lists on argument i
  };
  /// The posting list of the atoms whose argument `pos` is `term`.
  struct PostingKey {
    SymbolId pred;
    std::uint32_t pos;
    TermId term;
    std::uint32_t list;  // lists_ index
  };

  /// A (source rule plan, join step) pair fired when the step's predicate
  /// gains atoms.
  struct Trigger {
    std::uint32_t plan;
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

  Grounder(Program& program, const GroundOptions& options)
      : program_(program), opts_(options) {}

  /// The initial grounding; `keep` prepares the grounder for rule ops.
  StatusOr<GroundProgram> Build(bool keep);
  /// Compiles the source rules program_.rules() gained since the last
  /// call into plans_ and triggers_, creating the lists the new plans read
  /// and back-filling them from derived_log_.
  Status RegisterSourceRules();
  StatusOr<RulePlan> CompileRule(const Rule& r);
  /// Registers the program rules appended since the last call, full-joins
  /// each new source rule over the derived set and cascades. A `one_shot`
  /// grounding (no rule op follows) first marks its emit-once plans.
  Status AddRules(bool one_shot);
  /// Sets RulePlan::emit_once on every plan whose instances no other
  /// binding or plan can emit, in O(plans + their literals) after zeroing
  /// counters indexed by symbol.
  void MarkEmitOnce();
  Status FoldAsserted();
  /// Runs semi-naive rounds until no new atoms are derived; the first
  /// round's delta is derived_log_[delta_begin..].
  Status CascadeFrom(std::size_t delta_begin);
  Status FullInstantiation();
  Status EnumerateAssignments(const RulePlan& plan,
                              std::span<const std::uint32_t> order,
                              std::size_t i, const std::vector<TermId>& domain);

  StatusOr<AtomId> InternAtom(SymbolId pred, std::span<const TermId> args);
  void MarkDerived(AtomId id, std::uint32_t round);
  /// Appends `id` to the lists `which` names (its predicate's lists, or
  /// the subset a back-fill creates).
  void IndexAtom(AtomId id, const PredLists& which);
  CandList& PostingList(SymbolId pred, std::uint32_t pos, TermId term);
  void Append(CandList& list, AtomId id);
  /// The list a kScan or kPosting step walks under the current slots, or
  /// null if it is empty.
  const CandList* StepList(const JoinStep& step) const;

  /// Joins the plan's positive literals left to right, from `step` on,
  /// emitting one instance per complete match. Literals before
  /// `delta_pos` match only atoms older than the previous round (kOld),
  /// the one at it only the previous round's (kDelta), later ones
  /// anything derived before `round` (kUpTo).
  Status Join(const RulePlan& plan, std::uint32_t step, std::size_t delta_pos,
              std::uint32_t round);
  /// Matches `step` against candidate `cand`, binding its new slots.
  bool Match(const JoinStep& step, AtomId cand);
  /// Builds `a`'s arguments from slots_ into emit_args_.
  void BuildArgs(const AtomPlan& a);
  /// Builds the instance the slots give `plan` into the emit_* scratch,
  /// then adds one provenance count to it (or, while retiring_, takes one
  /// away). After a join (`joined`) the positive body is the matched
  /// candidates; kFull grounding builds and interns it too.
  Status EmitInstance(const RulePlan& plan, bool joined);
  Status RetireInstance(std::uint64_t hash, AtomId head);
  /// True iff instance `id` equals (head, pos, neg), bodies as multisets.
  bool InstanceEquals(std::uint32_t id, AtomId head,
                      std::span<const AtomId> pos,
                      std::span<const AtomId> neg) const;

  /// Folds the scratch structures' counters into `gs`.
  void FillReceipt(GroundStats& gs) const;
  /// Frees what only joins use (derivation log and rounds, lists, plans,
  /// triggers, the instance dedupe) once a one-shot grounding is done
  /// joining, so the program is assembled without them alongside.
  void ReleaseJoinState();
  /// Hands the grounding over as a GroundProgram: the scratch atom table,
  /// compacted to the kept atoms, and (one-shot) the instance pool as its
  /// body pool. Only rules simplification can have made equal are probed
  /// for duplicates.
  GroundProgram Assemble(bool keep, GroundStats receipt);

  /// Binds the program a rule op patches for the duration of one call.
  class OpScope;

  Program& program_;
  GroundOptions opts_;

  /// Atom table the join interns into: scratch_atoms_ while building (the
  /// program takes it over), the patched program's own table during a
  /// rule op, null in between.
  AtomTable* atoms_ = nullptr;
  AtomTable scratch_atoms_;
  /// The program and receipt of the rule op in progress (null otherwise).
  GroundProgram* gp_ = nullptr;
  Delta* delta_ = nullptr;
  /// The source rule a removal is re-enumerating the bindings of, else
  /// kNoRule.
  std::uint32_t retiring_ = kNoRule;

  /// The source rules' plans in program order (EDB facts have none), and
  /// how many of program_.rules() have been registered.
  std::vector<RulePlan> plans_;
  std::size_t registered_rules_ = 0;
  /// Plan pools.
  std::vector<JoinStep> steps_;
  std::vector<AtomPlan> plan_atoms_;
  std::vector<TermOp> plan_ops_;
  std::vector<SymbolId> slot_vars_;
  /// Trigger index by predicate SymbolId; retracted rules skipped at use.
  std::vector<std::vector<Trigger>> triggers_;

  /// Derivation state, indexed by AtomId. The derived set is monotone: a
  /// retracted rule or fact leaves its atoms derived.
  std::vector<bool> derived_;
  std::vector<std::uint32_t> round_;
  std::vector<AtomId> derived_log_;  // derivation order, grouped by round
  std::uint32_t current_round_ = 0;
  std::vector<AtomId> fact_atoms_;  // EDB facts of the initial program
  std::vector<AtomId> asserted_;    // NoteFactAsserted queue

  /// Candidate index: the lists each predicate keeps (dense by SymbolId,
  /// registered predicates only), their chunks bump-allocated from an
  /// arena, and the posting lists found by (pred, pos, term).
  std::vector<PredLists> pred_lists_;
  std::vector<CandList> lists_;
  std::vector<PostingKey> posting_keys_;
  FlatIndex posting_index_;
  Arena cand_arena_;
  /// Candidate atoms the joins have tested (GroundStats::join_candidates).
  std::uint64_t join_candidates_ = 0;

  /// Emitted instances, and (kept grounders only) each live instance's
  /// rule id in the program. The FlatIndex over instance_pool_ dedupes
  /// them, and holds every instance of a kept grounder, where rule ops
  /// find instances by content; a one-shot grounding looks up only the
  /// instances of plans not marked emit_once.
  std::vector<Instance> instances_;
  std::vector<AtomId> instance_pool_;
  FlatIndex instance_index_;
  std::vector<std::uint32_t> instance_rule_;
  /// Emitted instances looked up in instance_index_
  /// (GroundStats::instance_probes).
  std::uint64_t instance_probes_ = 0;

  // Join and emission scratch, reused by every join: the slots and the
  // candidate each step matched (sized when rules register), the
  // candidate terms a match has yet to visit inside compound arguments,
  // and the instance being emitted.
  std::vector<TermId> slots_;
  std::vector<AtomId> matched_;
  std::vector<TermId> pending_;
  std::vector<TermId> emit_args_;
  std::vector<AtomId> emit_pos_, emit_neg_;
  std::vector<SymbolId> delta_preds_;
};

}  // namespace afp

#endif  // AFP_GROUND_GROUNDER_H_
