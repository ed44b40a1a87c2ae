#ifndef AFP_SEARCH_STABLE_SEARCH_H_
#define AFP_SEARCH_STABLE_SEARCH_H_

/// \file
/// The stable-model search: the guess-and-check branch tree as a
/// work-sharing pool workload.
///
/// Every node of the tree is an assumed-literal set. Expanding a node
/// conditions the program on its assumptions (assumed-true atoms become
/// facts; rules for assumed-false atoms are deleted), runs the
/// alternating fixpoint of the conditioned program as the pruning
/// propagation, and branches on the first atom the fixpoint left
/// undecided. Every total leaf is verified against the original program
/// with the Gelfond–Lifschitz condition. Since every stable model
/// extends the well-founded partial model (§2.4), the propagation prunes
/// the tree without losing models. The per-node fixpoints dominate the
/// cost and are mutually independent once a node's assumptions are fixed
/// — which makes the branch tree a natural workload for the worker-pool
/// machinery in exec/scheduler.
///
/// ParallelStableSearch decomposes the tree into work units: one unit =
/// one branch node, carrying its assumed-true / assumed-false sets (the
/// residual frontier — the undecided atoms — is implicit: whatever the
/// node's own propagation leaves open). Units flow through a work-sharing
/// LIFO deque (WorkPool); each worker owns a persistent EvalContext slot
/// in an EvalContextRegistry plus a rebindable even/odd SpEvaluator pair
/// (the SCC engine's ComponentSolver pattern), so expanding a node
/// allocates nothing once the pools are warm. At one thread the pool runs
/// every unit inline on the caller: the exact sequential depth-first
/// search.
///
/// Determinism argument. Enumeration is bit-identical — model set AND
/// emission order — at every thread count because
///   (1) the branch tree itself is thread-count independent: a node's
///       propagation depends only on its assumptions, the branch atom is
///       canonically the first undecided atom, and children are ordered
///       assume-false before assume-true;
///   (2) workers record results into an explicit tree (node states, never
///       an output list), and a single emission cursor walks that tree in
///       sequential depth-first order under the tree mutex, emitting a
///       leaf model only once every leaf to its left has been resolved.
/// The cursor also makes max_models prefix-exact: the run cancels only
/// after the whole depth-first prefix up to model #max_models is
/// resolved, so the emitted set is exactly the first max_models models of
/// the sequential order regardless of how many workers raced ahead.
///
/// Seeding contract. The root node's propagation — the alternating
/// fixpoint under empty assumptions — IS the program's well-founded
/// model. A session that already holds that model (solved once, or kept
/// current by incremental repair) passes it to SeedRoot and the engine
/// copies it instead of re-deriving it; every deeper node still runs its
/// own conditioned fixpoint. An engine that is never seeded derives the
/// root itself (bench_search measures both). The seed must be THE
/// well-founded model of the engine's program: Solver guarantees this by
/// dropping its cached engine whenever the ground program mutates.

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <optional>
#include <vector>

#include "core/eval_context.h"
#include "core/horn_solver.h"
#include "exec/scheduler.h"
#include "ground/ground_program.h"
#include "util/bitset.h"

namespace afp {

/// Construction-time options of a ParallelStableSearch; per-run bounds
/// (max_models, timeout, cancellation) travel in StableSearchControl.
struct ParallelSearchOptions {
  /// Worker threads. <= 1 expands every node inline on the calling thread
  /// (no threads spawned); any value yields the same models in the same
  /// order.
  int num_threads = 1;
  /// Per-node propagation: full well-founded deduction (default), or only
  /// the positive Horn closure of the assumed-false set — close in spirit
  /// to the Saccà–Zaniolo backtracking fixpoint the paper cites (§2.4),
  /// whose running time "may be unpleasant". bench_stable_np compares the
  /// two.
  bool wfs_propagation = true;
  SpMode sp_mode = SpMode::kDelta;
  HornMode horn_mode = HornMode::kCounting;
  /// Per-worker contexts. Pass a session's registry to share warm pools
  /// with its relevance query batches; null = engine-private registry.
  EvalContextRegistry* registry = nullptr;
};

/// Per-run controls of a stable-model search, separate from the
/// construction-time ParallelSearchOptions so one engine (with its warm
/// worker pools) serves many differently-bounded runs.
struct StableSearchControl {
  /// Stop after this many models (SIZE_MAX = all). The emitted set is
  /// exactly the first max_models models of the canonical (sequential
  /// depth-first) enumeration order at every thread count.
  std::size_t max_models = static_cast<std::size_t>(-1);
  /// Wall-clock budget; zero = none. On expiry the run stops expanding
  /// and returns the models emitted so far — always a prefix of the
  /// canonical order, but how long a prefix is timing-dependent
  /// (StableSearchStats::complete reports the cut).
  std::chrono::nanoseconds timeout{0};
  /// Optional external cancellation token, read with relaxed loads at
  /// node granularity. Same prefix semantics as timeout.
  const std::atomic<bool>* cancel = nullptr;
};

/// Search statistics of one run.
struct StableSearchStats {
  std::size_t nodes = 0;        // search tree nodes visited
  std::size_t leaves = 0;       // total candidates reached
  std::size_t stable_checks = 0;
  std::size_t models = 0;
  /// Alternating-fixpoint propagations run — one per node under
  /// wfs_propagation, minus a root seeded from a session's cached model.
  std::size_t afp_calls = 0;
  /// Atoms decided by per-node propagation beyond the assumptions
  /// themselves — the paper's pruning at work: every implied atom halves
  /// the subtree a blind guess-and-check would have explored.
  std::size_t implied_atoms = 0;
  /// Nodes cut without branching or a leaf check (positive-closure
  /// conflicts under wfs_propagation = false).
  std::size_t pruned_nodes = 0;
  /// Pool shape and work-sharing behavior of the run that produced these
  /// counts.
  std::size_t num_workers = 1;
  std::size_t steals = 0;
  std::size_t idle_waits = 0;
  std::vector<std::size_t> per_worker_nodes;
  std::vector<std::size_t> per_worker_steals;
  /// Whether the root node's propagation was seeded from the session's
  /// cached well-founded model instead of being re-derived.
  bool seeded = false;
  /// False when the run stopped early on timeout or external cancellation
  /// (exhausting max_models still counts as complete).
  bool complete = true;
};

/// Result of one Enumerate / Count run (and of Solver::StableModels).
struct StableResult {
  /// The stable models (positive-atom sets) in canonical depth-first
  /// order; empty on Count runs.
  std::vector<Bitset> models;
  StableSearchStats search;
  /// Evaluation work across every worker context, folded through
  /// EvalStats::Accumulate.
  EvalStats eval;
};

/// The work-sharing branch-tree engine. One instance binds to one ground
/// program and keeps its worker state (contexts, base solvers, evaluator
/// pairs) warm across any number of runs; it must be discarded when the
/// program mutates (Solver keys this on GroundProgram::mutation_epoch).
/// Not movable and not thread-safe itself — one caller drives runs, the
/// parallelism lives inside Enumerate/Count.
class ParallelStableSearch {
 public:
  explicit ParallelStableSearch(const GroundProgram& gp,
                                ParallelSearchOptions options = {});
  ~ParallelStableSearch();

  ParallelStableSearch(const ParallelStableSearch&) = delete;
  ParallelStableSearch& operator=(const ParallelStableSearch&) = delete;

  /// Installs the session's well-founded model as the root node's
  /// propagation result (copied here). Both bitsets must span the
  /// program's atom universe, and the pair must BE the program's
  /// well-founded model — seeding anything else changes the answer.
  void SeedRoot(const Bitset& wf_true, const Bitset& wf_false);
  void ClearSeed();
  bool seeded() const { return seeded_; }

  /// Runs the search; models in canonical order. Re-entrant across calls
  /// (worker pools stay warm), not concurrently.
  StableResult Enumerate(const StableSearchControl& control = {});

  /// As Enumerate without materializing models (the tree is still walked
  /// and every leaf checked; only the O(models × atoms) storage is
  /// skipped).
  StableResult Count(const StableSearchControl& control = {});

  /// The program this engine is bound to (Solver's staleness check
  /// compares addresses after a session move).
  const GroundProgram& ground() const { return gp_; }

 private:
  /// One branch node. Assumption sets are node-owned plain bitsets,
  /// written at creation (under the tree mutex) and read only by the
  /// node's own expansion task; they are dropped as soon as the node
  /// resolves. `model` exists only in state kLeafModel, until the
  /// emission cursor moves it out.
  struct Node {
    enum class State : std::uint8_t {
      kPending,    // created, expansion not finished
      kExpanded,   // interior: children valid
      kLeafModel,  // stable-model leaf, model not yet emitted
      kLeafDone,   // resolved leaf with nothing (left) to emit
      kPruned,     // cut by positive-closure conflict
    };
    State state = State::kPending;
    /// Which child of `parent` this node is: 0 = assume-false (emitted
    /// first), 1 = assume-true.
    std::uint8_t which = 0;
    std::uint32_t parent = 0;
    std::uint32_t children[2] = {0, 0};
    Bitset assumed_true;
    Bitset assumed_false;
    Bitset model;
  };

  /// Per-worker persistent state, indexed by pool worker id. The base
  /// solver/evaluator serve leaf stability checks against the original
  /// program; the even/odd pair is rebound to each node's conditioned
  /// solver (ComponentSolver pattern: zero construction per node).
  struct Worker {
    EvalContext* ctx = nullptr;
    std::optional<HornSolver> base_solver;
    std::optional<SpEvaluator> base_sp;
    std::optional<SpEvaluator> even;
    std::optional<SpEvaluator> odd;
    // Per-run counters, folded into StableSearchStats after the join.
    std::size_t nodes = 0;
    std::size_t afp_calls = 0;
    std::size_t implied_atoms = 0;
    std::size_t leaves = 0;
    std::size_t stable_checks = 0;
    std::size_t pruned = 0;
    EvalStats start;
  };

  static constexpr std::uint32_t kRootNode = 0;

  StableResult Run(const StableSearchControl& control, bool count_only);
  /// The work-unit body: condition + propagate + branch or leaf-check one
  /// node, then record the outcome in the tree.
  void ExpandNode(WorkPool& pool, std::uint32_t id, std::uint32_t worker);
  /// Checks the run's cancellation token and deadline; cancels the pool
  /// and returns true when either fired.
  bool ShouldStop(WorkPool& pool);
  /// Marks a node resolved with no subtree and advances the cursor.
  void ResolveWithoutModel(WorkPool& pool, std::uint32_t id,
                           Node::State state);
  /// Walks the emission cursor forward through resolved nodes (tree mutex
  /// held), emitting leaf models in depth-first order; cancels the pool
  /// once max_models have been emitted.
  void AdvanceEmissionLocked(WorkPool& pool);

  const GroundProgram& gp_;
  ParallelSearchOptions options_;
  std::unique_ptr<EvalContextRegistry> own_registry_;
  EvalContextRegistry* registry_ = nullptr;
  /// Atoms underivable under any assumptions (positive-closure mode only).
  Bitset statically_false_;

  bool seeded_ = false;
  Bitset seed_true_;
  Bitset seed_false_;

  /// Worker roster; grows to the pool size on first use and persists
  /// across runs (deque: Worker holds non-movable evaluators).
  std::deque<Worker> workers_;

  // --- Per-run tree state. nodes_ is a deque for reference stability:
  // workers append children under tree_mu_ and read their own node's
  // assumption sets lock-free through a pointer fetched under tree_mu_
  // (the pool's mutex sequences creation before the child task runs).
  std::mutex tree_mu_;
  std::deque<Node> nodes_;
  std::vector<Bitset> models_;
  std::uint32_t cursor_ = kRootNode;
  std::size_t emitted_ = 0;
  std::size_t max_models_ = 0;
  bool finished_ = false;
  bool count_only_ = false;
  bool use_seed_ = false;
  const std::atomic<bool>* cancel_ = nullptr;
  bool has_deadline_ = false;
  std::chrono::steady_clock::time_point deadline_;
};

}  // namespace afp

#endif  // AFP_SEARCH_STABLE_SEARCH_H_
