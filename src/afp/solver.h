#ifndef AFP_AFP_SOLVER_H_
#define AFP_AFP_SOLVER_H_

/// \file
/// The long-lived solver session: the primary public API of the library.
///
/// The paper presents the alternating fixpoint as a one-shot computation;
/// everything built on top of it here — delta-driven evaluators, pooled
/// contexts, the cached condensation, compiled component buckets — is
/// session-shaped: compile (parse + ground + index) once, then solve,
/// query, and UPDATE many times. afp::Solver is that session: it solves
/// component by component on one dependency analysis that its repairs
/// keep patching. The three well-founded engines remain available as free
/// functions (the differential-testing surface); every user-facing entry
/// point goes through the facade.
///
/// Lifecycle (see docs/API.md for the full contract):
///
///   auto solver = afp::Solver::FromText("p :- not q. q.");
///   solver->Solve();                        // well-founded model
///   solver->Query("p");                     // O(1) against the model
///   solver->AssertFacts({"r"});             // EDB mutation + incremental
///   solver->RetractFacts({"q"});            //   downstream-only re-solve
///   solver->StableModels();                 // enumeration on demand

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "analysis/atom_graph.h"
#include "ast/program.h"
#include "core/eval_context.h"
#include "core/explain.h"
#include "core/interpretation.h"
#include "core/query.h"
#include "core/rule_kernel.h"
#include "core/scc_engine.h"
#include "ground/ground_program.h"
#include "ground/grounder.h"
#include "search/stable_search.h"
#include "util/status.h"

namespace afp {

/// The one options struct of the public API. Every Solve() runs the
/// component-wise engine (core/scc_engine.h) over the session's one
/// dependency analysis, which fact repairs and rule ops then patch and
/// reuse; the alternating fixpoint (or W_P) runs per component. Every
/// operator goes through the delta-driven evaluators (SpEvaluator for S_P,
/// TpEvaluator and GusEvaluator for T_P and U_P); there is no
/// evaluation-mode knob. The monolithic AlternatingFixpoint and
/// WellFoundedViaWp stay as free functions, the differential oracles.
struct SolverOptions {
  /// Per-component engine of every solve, repair and unsolved query.
  SccInnerEngine inner = SccInnerEngine::kAfp;
  /// Grounding controls (instantiation mode, simplification, limits).
  GroundOptions ground;
};

/// What the current model cost to compute, plus program shape. Reported by
/// Solver::Stats(); refreshed by every Solve() and incremental update.
struct SolverStats {
  std::size_t num_atoms = 0;
  std::size_t num_rules = 0;
  std::size_t ground_size = 0;
  /// Shape of the last full solve: components solved and the summed size
  /// of their local subprograms (see component_iterations for the
  /// per-component rounds).
  std::size_t num_components = 0;
  std::size_t total_local_size = 0;
  bool locally_stratified = false;
  /// The compiled buckets the session keeps (one per general-path
  /// component solved since its rules last changed) and their bytes.
  std::size_t buckets = 0;
  std::size_t bucket_bytes = 0;
  /// Work counters of the last full solve or incremental update.
  EvalStats eval;
  /// Session counters.
  std::size_t full_solves = 0;
  std::size_t incremental_updates = 0;
  /// Receipt of the last StableModels/CountStableModels run: tree shape,
  /// per-node repair work, whether the root was seeded from the cached
  /// model, and whether the run completed (see StableSearchStats).
  StableSearchStats search;
  /// Memory receipt of the grounding pipeline: the grounding-time scratch
  /// counters recorded by the grounder, plus the live atom/term table
  /// index counters (which keep accumulating as queries and mutations
  /// intern), plus current peak RSS. Refreshed with the rest of the stats.
  GroundStats ground;
};

/// What one AssertFacts / RetractFacts call did. The component counts are
/// the incremental re-solve's receipt: everything outside
/// `components_downstream` kept its verdict untouched, and of the
/// downstream candidates only `components_resolved` local fixpoints were
/// re-run (the change frontier died out before the rest).
struct UpdateStats {
  /// Facts actually added/removed (asserting a present fact or retracting
  /// an absent one is a no-op and triggers no re-solve).
  std::size_t facts_changed = 0;
  std::size_t components_downstream = 0;
  std::size_t components_resolved = 0;
  std::size_t components_skipped = 0;
  /// Components whose verdicts were reused untouched (upstream or
  /// side-stream of every touched atom).
  std::size_t components_reused = 0;
  /// Whether any atom's truth value changed.
  bool model_changed = false;
  EvalStats eval;
};

/// What one AddRule / RemoveRule call did: the delta-maintenance receipt.
/// `rules_reground` plus the bucket counters are the O(touched) evidence —
/// a periphery edit re-runs a handful of source-rule instantiation joins
/// and drops only the buckets of the components whose rules changed,
/// independent of program size (pinned by the rule-mutation tests), from
/// the session's first rule op on.
struct RuleUpdateStats {
  /// Source (non-ground) rules added or removed by this call.
  std::size_t source_rules_changed = 0;
  /// Ground instances spliced in / out of the ground program.
  std::size_t ground_rules_added = 0;
  std::size_t ground_rules_removed = 0;
  /// Universe growth (atom ids are append-only; removal never shrinks).
  std::size_t atoms_added = 0;
  /// Source-rule instantiation joins the grounder ran.
  std::size_t rules_reground = 0;
  /// False: the cached SCC condensation was patched in place (the append
  /// or removal fast path). True: the delta would have merged, split or
  /// reordered existing components and the analysis was rebuilt wholesale
  /// (verdicts are still repaired incrementally from the delta's heads).
  bool graph_rebuilt = false;
  std::size_t components_added = 0;
  /// Compiled buckets dropped because their component's rules changed,
  /// and buckets built by the repair that followed (eval.buckets_built).
  std::size_t buckets_invalidated = 0;
  /// Incremental repair receipt (same semantics as UpdateStats).
  std::size_t components_downstream = 0;
  std::size_t components_resolved = 0;
  std::size_t components_skipped = 0;
  std::size_t components_reused = 0;
  bool model_changed = false;
  EvalStats eval;
};

/// A long-lived solving session over one program: owns the parse → ground
/// pipeline output, the pooled evaluation scratch (EvalContext), the
/// cached atom-dependency condensation, and the current well-founded
/// model. Movable, not copyable; not thread-safe
/// (one session per thread, like an EvalContext).
class Solver {
 public:
  /// Parses and grounds `program_text`. Errors (parse, unsafe rules,
  /// grounding limits) surface here; a returned Solver always holds a
  /// valid ground program. No fixpoint is computed yet.
  static StatusOr<Solver> FromText(std::string_view program_text,
                                   SolverOptions options = {});

  /// As FromText for an already constructed Program (takes ownership).
  static StatusOr<Solver> FromProgram(Program program,
                                      SolverOptions options = {});

  Solver(Solver&&) = default;
  Solver& operator=(Solver&&) = default;
  Solver(const Solver&) = delete;
  Solver& operator=(const Solver&) = delete;

  /// Computes the well-founded model component by component (building the
  /// dependency analysis that later repairs reuse), or returns the cached
  /// one (Solve after Solve is free; AssertFacts/RetractFacts keep the
  /// cache current, so explicit re-solves are never needed).
  const PartialModel& Solve();

  /// Whether a current model is cached.
  bool solved() const { return solved_; }

  /// The current well-founded model (solves on demand).
  const PartialModel& model() { return Solve(); }

  /// Truth value of a ground atom written as text, e.g. "wins(a)". On a
  /// solved session this is a model lookup; on an unsolved one the query
  /// is answered through the relevance machinery — only the subprogram the
  /// atom depends on is solved, component-wise over its own atoms, the
  /// paper's query-directed evaluation — without materializing the full
  /// model. Atoms outside the grounded base are false (closed world).
  StatusOr<TruthValue> Query(const std::string& atom_text);

  /// As Query, for a batch; results are in input order, and a text that
  /// does not parse fails only its own slot. On an unsolved session the
  /// whole batch is answered by ONE relevance slice over the union of the
  /// queried atoms, solved once.
  std::vector<StatusOr<TruthValue>> QueryBatch(
      const std::vector<std::string>& atom_texts);

  /// Pattern enumeration against the model, e.g. "wins(X)" (solves on
  /// demand). See Select() in core/query.h.
  StatusOr<std::vector<QueryMatch>> Select(
      const std::string& pattern,
      QueryFilter filter = QueryFilter::kTrueOnly);

  /// Why `atom_text` has its well-founded value (solves on demand).
  StatusOr<Justification> Explain(const std::string& atom_text);

  /// Enumerates stable models with the depth-first search (src/search/).
  /// Models arrive in depth-first order. On a solved session the root is
  /// seeded from the cached well-founded model (Solve() ran and
  /// incremental updates kept it current), skipping the root's
  /// propagation; the engine itself is cached across calls and dropped
  /// whenever the ground program mutates (AssertFacts / RetractFacts /
  /// AddRule / RemoveRule), so a mutated session never reuses a stale
  /// ground-program view.
  StableResult StableModels(
      std::size_t max_models = static_cast<std::size_t>(-1));

  /// As above with the full per-run controls (max_models, timeout,
  /// cancellation token).
  StableResult StableModels(const StableSearchControl& control);

  /// Counts stable models without materializing them (the search still
  /// runs; only the O(models × atoms) storage is skipped).
  std::size_t CountStableModels(
      std::size_t max_models = static_cast<std::size_t>(-1));
  std::size_t CountStableModels(const StableSearchControl& control);

  /// --- Incremental EDB updates -------------------------------------
  ///
  /// AssertFacts adds the fact rules `atom.`, RetractFacts removes them;
  /// both then repair the model INCREMENTALLY: only components
  /// condensation-downstream of the touched atoms are candidates, and the
  /// re-solve stops where verdicts stop changing. The repaired model is
  /// bit-identical — model and per-component trajectories — to a
  /// from-scratch solve of the mutated program (pinned by the Solver
  /// differential tests).
  ///
  /// Atoms must parse and resolve within the grounded base; an unknown
  /// atom fails the whole call with NotFound and mutates nothing (the
  /// grounded universe — and with it the cached condensation — is fixed
  /// at construction; ground with GroundMode::kFull, or include the atom
  /// in the initial program, to materialize atoms you plan to toggle).
  /// On an unsolved session the mutation applies before the first full
  /// solve (facts_changed reported, no re-solve counted).
  StatusOr<UpdateStats> AssertFacts(const std::vector<std::string>& atoms);
  StatusOr<UpdateStats> RetractFacts(const std::vector<std::string>& atoms);
  StatusOr<UpdateStats> AssertFact(const std::string& atom);
  StatusOr<UpdateStats> RetractFact(const std::string& atom);

  /// Applies one coalesced update batch — retracts first, then asserts —
  /// and repairs the model with ONE incremental re-solve over the union
  /// change frontier. Equivalent to RetractFacts(retracts) followed by
  /// AssertFacts(asserts), except the repair runs once over the union of
  /// touched atoms instead of once per call (the serving writer's drain
  /// entry point; an atom appearing in both lists ends up asserted).
  /// Resolution is atomic like AssertFacts: any unknown atom fails the
  /// whole call before any mutation.
  StatusOr<UpdateStats> UpdateFacts(const std::vector<std::string>& asserts,
                                    const std::vector<std::string>& retracts);

  /// As UpdateFacts over pre-resolved atom ids (every id must come from
  /// ResolveAtom against this session's ground program — no validation,
  /// no parsing). ServingSolver resolves texts on the caller thread and
  /// hands ids to its writer thread through this entry.
  UpdateStats UpdateFactsById(std::span<const AtomId> asserts,
                              std::span<const AtomId> retracts);

  /// --- Incremental rule updates (rule-level view maintenance) -------
  ///
  /// AddRule parses `rule_text` (one or more non-fact rules) into the live
  /// program and splices their ground instances into the session: only the
  /// new rules are instantiated — against the session's derived-atom set,
  /// cascading semi-naively where new heads feed other rules — and the
  /// universe grows by exactly the atoms those instances mention. The
  /// cached dependency condensation, rule buckets and compiled buckets
  /// are patched in place when the delta appends cleanly (new atoms
  /// form their own trailing components); otherwise the analysis is
  /// rebuilt. Either way the model is repaired by the same
  /// downstream-only re-solve as fact updates, seeded by the touched
  /// components, and is bit-identical — model and per-component
  /// trajectories — to a from-scratch solve of the mutated program.
  ///
  /// RemoveRule removes the live rule structurally equal (up to variable
  /// renaming; body literal order significant) to `rule_text`, removing
  /// each ground instance whose last emitting source rule it was.
  /// Previously derived head atoms stay in the universe as (typically
  /// false) dead atoms, exactly like RetractFacts leaves its atom behind.
  ///
  /// Both need the exact instance provenance the session's grounder keeps
  /// from construction, which only GroundMode::kSmart, simplify = false
  /// grounding provides (Grounder::SupportsRuleOps); on
  /// any other session they fail FailedPrecondition, mutating nothing.
  /// Fact texts are rejected (InvalidArgument): facts are EDB state, use
  /// AssertFacts/RetractFacts.
  StatusOr<RuleUpdateStats> AddRule(std::string_view rule_text);
  StatusOr<RuleUpdateStats> RemoveRule(std::string_view rule_text);

  /// --- Snapshot export / warm restart (the serving layer) -----------

  /// Deep copy of the current model (solves on demand) with the
  /// true/false counts pre-warmed, so readers of the returned copy never
  /// touch PartialModel's mutable count cache concurrently.
  PartialModel SnapshotModel();

  /// Installs `model` as the session's current model without solving —
  /// the warm-restart path under ServingSolver::RestoreState. Fails
  /// InvalidArgument when the universe size mismatches the ground program
  /// or the true/false sets intersect, FailedPrecondition when the model
  /// does not satisfy the program's rules (Definition 3.5 — a necessary
  /// condition for being the well-founded model; restoring state saved
  /// from a different program typically fails here). On success the
  /// session behaves as after Solve(), except that it has no
  /// per-component trajectories (unknown for an adopted model): later
  /// repairs keep the model current without them.
  Status AdoptModel(PartialModel model);

  /// Drops the cached model: queries fall back to the relevance path and
  /// the next Solve() is full. Warm restart uses this to sync the EDB
  /// fact set (UpdateFactsById applies without an interim repair on an
  /// unsolved session) before adopting a saved model.
  void InvalidateModel() {
    solved_ = false;
    component_iterations_.clear();
  }

  /// Testing hook: rebuilds the component rule buckets from scratch and
  /// checks the incrementally patched ones match exactly (the AddFact /
  /// RemoveFact bucket surgery in UpdateFactsById, and the rule-mutation
  /// splice in FinishRuleMutation).
  bool ValidateRuleBuckets();

  /// Testing hook: the session's cached dependency analysis (null until
  /// the first Solve, incremental update or rule op builds it). The mutation
  /// differential tests map per-atom trajectories through its
  /// component_of() to compare against a from-scratch analysis.
  const AtomDependencyGraph* DependencyGraph() const { return graph_.get(); }

  /// --- Introspection ------------------------------------------------

  const SolverStats& Stats() const { return stats_; }
  const SolverOptions& options() const { return options_; }
  const Program& program() const { return *program_; }
  const GroundProgram& ground() const { return ground_; }

  /// The model rendered as true/false/undef atom lists (solves on
  /// demand).
  std::string ModelText(const ModelPrintOptions& opts = {});
  std::string ModelJson(const ModelPrintOptions& opts = {});

  /// Per-component iteration trajectory of the current model, indexed by
  /// DependencyGraph() component id. Set by Solve and maintained by every
  /// incremental update; empty after AdoptModel.
  const std::vector<std::uint32_t>& component_iterations() const {
    return component_iterations_;
  }

 private:
  Solver(std::unique_ptr<Program> program, GroundProgram ground,
         std::unique_ptr<Grounder> grounder, SolverOptions options);

  /// Lazily builds (and caches) the dependency graph + rule buckets that
  /// Solve and every incremental update share, and drops the compiled
  /// buckets on a program mutation the session did not make itself.
  void EnsureGraph();

  /// Recomputes stats_.ground: grounding receipt + live table counters +
  /// peak RSS. Called wherever the sibling shape counters refresh.
  void RefreshGroundStats();

  /// Applies one batch of fact mutations and repairs the model.
  StatusOr<UpdateStats> MutateFacts(const std::vector<std::string>& atoms,
                                    bool add);

  /// The repair both mutation kinds share: re-solves the components
  /// downstream of `touched` in place (SccResolveDownstream) and records
  /// the work in stats_.
  SccUpdateStats RepairDownstream(std::span<const AtomId> touched);

  /// Rule-op precondition: the session kept its grounder.
  Status RuleOpsAvailable() const;

  /// Rule-op back half: patches the analysis from the delta
  /// (fast path or rebuild), repairs the model, fills the receipt.
  RuleUpdateStats FinishRuleMutation(const Grounder::Delta& delta,
                                     std::size_t atoms_before,
                                     std::size_t source_rules_changed);

  /// Recovery from a grounder error that may have left a partial splice
  /// (resource limits mid-cascade): drops the grounder — its provenance no
  /// longer covers the program, so later rule ops fail FailedPrecondition
  /// — rebuilds the analysis over whatever the ground program now holds,
  /// and invalidates the model so the next Solve() is full. Returns `st`.
  Status PoisonRuleMutation(Status st);

  SccOptions SccOptionsFromSession();

  /// Returns the cached stable-model search engine, first dropping it when
  /// the ground program mutated (epoch mismatch) or the session moved
  /// (address mismatch) since it was built — the engine's solvers and
  /// indexes reference the rule storage directly, so reuse across either
  /// would read a stale ground-program view.
  StableSearch& EnsureSearch();

  SolverOptions options_;
  std::unique_ptr<Program> program_;
  GroundProgram ground_;
  std::unique_ptr<EvalContext> ctx_;
  std::unique_ptr<AtomDependencyGraph> graph_;
  RuleBuckets comp_rules_;
  /// The compiled buckets of the condensation above, kept across solves,
  /// repairs and rule ops. Invalidation: fact repairs and rule ops drop
  /// exactly the touched components and acknowledge the program's
  /// mutation epoch; any OTHER mutation (a bare GroundProgram::AddRule) is
  /// caught by the epoch check at every entry point and drops the whole
  /// cache rather than ever solving on a stale bucket.
  BucketCache buckets_;
  /// Persistent per-update scratch for SccResolveDownstream: keeps every
  /// incremental repair O(downstream closure) instead of paying an
  /// O(num_components) zero-fill floor per update (see SccUpdateScratch).
  SccUpdateScratch update_scratch_;
  /// The grounder that built ground_, kept with its instance provenance
  /// for AddRule/RemoveRule (null unless Grounder::SupportsRuleOps holds
  /// for options_.ground, or after PoisonRuleMutation). It holds no
  /// reference to ground_ between calls, so the session stays movable.
  std::unique_ptr<Grounder> grounder_;
  /// Cached stable-model search engine (its graph, solvers and scratch
  /// stay warm across StableModels calls). Guarded by EnsureSearch's
  /// epoch/address staleness check; null until the first call.
  std::unique_ptr<StableSearch> search_;
  /// GroundProgram::mutation_epoch() at the time search_ was built.
  std::uint64_t search_epoch_ = 0;
  bool solved_ = false;
  PartialModel model_;
  std::vector<std::uint32_t> component_iterations_;
  SolverStats stats_;
};

}  // namespace afp

#endif  // AFP_AFP_SOLVER_H_
