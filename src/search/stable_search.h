#ifndef AFP_SEARCH_STABLE_SEARCH_H_
#define AFP_SEARCH_STABLE_SEARCH_H_

/// \file
/// The stable-model search: one sequential depth-first guess-and-check
/// whose per-node propagation is an incremental repair of the parent's
/// model.
///
/// Every node of the tree is an assumption pair. Its propagation is the
/// well-founded model of the program conditioned on the pair (assumed-true
/// atoms become facts; rules whose head is assumed false are deleted).
/// The search branches on the first atom that model leaves undecided,
/// assume-false child first, and verifies every total leaf against the
/// original program with the Gelfond–Lifschitz condition. Since every
/// stable model extends the well-founded partial model (§2.4), the
/// propagation prunes the tree without losing models.
///
/// Propagation as repair. The engine builds the base program's atom
/// dependency graph and rule buckets once. A child differs from its
/// parent by one assumption on the branch atom b — only in the rules for
/// b — so its model is the parent's with b's component, and whatever that
/// component's change frontier reaches, re-solved by SccResolveDownstream
/// (the walk session fact repairs use) through one ComponentSolver that
/// reads the engine's assumption pair. A general-path component is
/// lowered into its bucket once, at its first solve, and every later node
/// only binds it again (core/rule_kernel.h). The search keeps a single model;
/// the repair logs every write it makes on an undo trail, and
/// backtracking pops the trail to the frame's mark and clears the
/// assumption bit. Per node there is no model copy, no rule copy and no
/// whole-program fixpoint, and a leaf runs one only when the path-local
/// check below cannot decide it.
///
/// Path-local leaf checks. A total leaf's M is the well-founded model of
/// the program conditioned on the path's assumptions, and a total
/// well-founded model is its program's unique stable model (§2.4): the
/// least model of the conditioned program's reduct is M. A component of
/// the base condensation without an assumed atom has the same rules in
/// both programs, so, solving the reduct's least model bottom-up, it
/// reproduces M there as long as the components below it do; the
/// paper's condition lfp(P^M) = M (§4) can only fail in the components
/// of the branch atoms. In such a component C (every component below it
/// exact), "no rule of an assumed-false member has a body true in M"
/// plus "every assumed-true member is in lfp(C^M)" is equivalent to
/// lfp(C^M) = M ∩ C. So a leaf reads the rules of its branch atoms: an
/// assumed-false atom fails it if one of its rules has a body true in M;
/// an assumed-true atom fails it if none has (lfp(P^M) = M derives every
/// atom of M through such a rule), and is in lfp(C^M) if one of them has
/// no positive body atom in the atom's own component. The leaf passes
/// when every assumed-true atom has such a rule; an assumed-true atom
/// supported only through a positive loop inside its component leaves
/// the leaf to the whole-program check, whose S_P the engine builds on
/// first use. Verdicts are exact, and a leaf the path-local check decides
/// costs the rules of its branch atoms instead of the whole program.

/// Exactness. Conditioning only adds facts and drops rules, so
/// dependency arcs only disappear, and the base condensation stays a
/// valid bottom-up order for every conditioned program. Solving its
/// components in order therefore yields the well-founded model of the
/// conditioned program — what the alternating fixpoint of that program
/// computes from scratch — and the repair equals that solve, because a
/// component that is not re-solved has unchanged rules and unchanged
/// inputs. So each node's decided sets do not depend on how the model was
/// reached, and neither do the branch atoms, the tree, the leaves or the
/// emission order; the golden fingerprints in the tests pin them.
///
/// Seeding contract. The root's propagation — no assumptions — IS the
/// program's well-founded model. A session that already holds that model
/// (solved once, or kept current by incremental repair) passes it to
/// SeedRoot and the engine copies it instead of re-deriving it; an engine
/// that is never seeded solves the root component-wise over its graph
/// (WellFoundedSccOnGraph). The seed must be THE well-founded model of
/// the engine's program: Solver guarantees this by dropping its cached
/// engine whenever the ground program mutates.
///
/// The positive-closure ablation (wfs_propagation = false) is a different,
/// weaker propagation: each node conditions the program on its
/// assumptions and computes one S_P from scratch. Its total leaves are
/// not well-founded models of the conditioned program, so the path-local
/// argument above does not apply: each leaf is checked against the whole
/// program by one delta S_P evaluation.

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "analysis/atom_graph.h"
#include "core/eval_context.h"
#include "core/horn_solver.h"
#include "core/rule_kernel.h"
#include "core/scc_engine.h"
#include "ground/ground_program.h"
#include "util/bitset.h"

namespace afp {

class ComponentSolver;  // core/component_solver.h

/// Construction-time options of a StableSearch; per-run bounds
/// (max_models, timeout, cancellation) travel in StableSearchControl.
struct StableSearchOptions {
  /// Per-node propagation: full well-founded deduction (default), or only
  /// the positive Horn closure of the assumed-false set — close in spirit
  /// to the Saccà–Zaniolo backtracking fixpoint the paper cites (§2.4),
  /// whose running time "may be unpleasant". bench_stable_np compares the
  /// two.
  bool wfs_propagation = true;
};

/// Per-run controls of a stable-model search, separate from the
/// construction-time StableSearchOptions so one engine serves many
/// differently-bounded runs.
struct StableSearchControl {
  /// Stop after this many models (SIZE_MAX = all): the first max_models
  /// models of the depth-first enumeration order.
  std::size_t max_models = static_cast<std::size_t>(-1);
  /// Wall-clock budget; zero = none. On expiry the run stops expanding
  /// and returns the models emitted so far — always a prefix of the
  /// enumeration order, but how long a prefix is timing-dependent
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
  /// Node propagations run — one per node under wfs_propagation, minus a
  /// root seeded from a session's cached model.
  std::size_t afp_calls = 0;
  /// Atoms decided by per-node propagation beyond the assumptions
  /// themselves, summed over nodes — the paper's pruning at work: every
  /// implied atom halves the subtree a blind guess-and-check would have
  /// explored. It counts the tree's decisions, not the work that found
  /// them (an atom decided at a node counts again at every descendant).
  std::size_t implied_atoms = 0;
  /// Component solves run by node propagation: every component for an
  /// unseeded root, 0 for a seeded one, and per deeper node the branch
  /// atom's component plus whatever its change frontier reached. 0 under
  /// wfs_propagation = false.
  std::size_t components_resolved = 0;
  /// Rule bodies read by leaf stability checks, summed over leaves: under
  /// wfs_propagation the rules of each leaf's branch atoms (plus every
  /// rule of the program for a leaf left to the whole-program check);
  /// under wfs_propagation = false every rule of the program per leaf.
  std::size_t leaf_rules_checked = 0;
  /// Nodes cut without branching or a leaf check (positive-closure
  /// conflicts under wfs_propagation = false).
  std::size_t pruned_nodes = 0;
  /// Whether the root node's propagation was seeded from the session's
  /// cached well-founded model instead of being re-derived.
  bool seeded = false;
  /// False when the run stopped early on timeout or external cancellation
  /// (exhausting max_models still counts as complete).
  bool complete = true;
};

/// Result of one Enumerate / Count run (and of Solver::StableModels).
struct StableResult {
  /// The stable models (positive-atom sets) in depth-first order; empty on
  /// Count runs.
  std::vector<Bitset> models;
  StableSearchStats search;
  /// Evaluation work of the run, from the engine's context.
  EvalStats eval;
};

/// The search engine. One instance binds to one ground program and keeps
/// its graph, solvers and scratch warm across any number of runs; it must
/// be discarded when the program mutates (Solver keys this on
/// GroundProgram::mutation_epoch). Not movable and not thread-safe.
class StableSearch {
 public:
  explicit StableSearch(const GroundProgram& gp,
                        StableSearchOptions options = {});
  ~StableSearch();

  StableSearch(const StableSearch&) = delete;
  StableSearch& operator=(const StableSearch&) = delete;

  /// Installs the session's well-founded model as the root node's
  /// propagation result (copied here). Both bitsets must span the
  /// program's atom universe, and the pair must BE the program's
  /// well-founded model — seeding anything else changes the answer.
  void SeedRoot(const Bitset& wf_true, const Bitset& wf_false);
  void ClearSeed();
  bool seeded() const { return seeded_; }

  /// Runs the search; models in depth-first order. Re-entrant across
  /// calls, not concurrently.
  StableResult Enumerate(const StableSearchControl& control = {});

  /// As Enumerate without materializing models (the tree is still walked
  /// and every leaf checked; only the O(models × atoms) storage is
  /// skipped).
  StableResult Count(const StableSearchControl& control = {});

  /// The program this engine is bound to (Solver's staleness check
  /// compares addresses after a session move).
  const GroundProgram& ground() const { return gp_; }

 private:
  /// One interior node on the depth-first path: its branch atom, the
  /// trail length and decided-atom count before its children's repairs,
  /// and which child is being explored (false child first).
  struct Frame {
    AtomId branch;
    std::size_t mark;
    std::size_t decided;
    bool true_child;
  };

  StableResult Run(const StableSearchControl& control, bool count_only);
  /// Propagates the current node into true_/false_. Under wfs_propagation
  /// the root takes the seed or a full component-wise solve, and a child
  /// repairs its parent's model after the innermost frame's assumption
  /// (writes logged on trail_); the positive-closure mode recomputes from
  /// scratch. Returns false when the node is cut (positive closure only).
  bool Propagate(bool use_seed, StableSearchStats* s);
  /// Backtracks to the deepest frame whose assume-true child is still
  /// unexplored, undoing the repairs made below it, and switches that
  /// frame to its true child. False when the whole tree is resolved.
  bool NextSibling();
  /// The positive-closure propagation of the current assumptions, from
  /// scratch. Returns false when the node is cut (an assumed-false atom is
  /// derived).
  bool PropagatePositive();
  /// Whether the total leaf true_ is a stable model of the original
  /// program: the path-local check under wfs_propagation, and one
  /// whole-program S_P for a leaf it cannot decide and for every
  /// positive-closure leaf.
  bool LeafIsStable(StableSearchStats* s);
  /// The whole-program S_P of the full leaf check, built on first use.
  SpEvaluator& BaseSp();

  const GroundProgram& gp_;
  const RuleView view_;
  const StableSearchOptions options_;
  EvalContext ctx_;
  /// Whole-program leaf checks, built on first use (BaseSp): every
  /// positive-closure leaf, and under wfs_propagation a leaf the
  /// path-local check cannot decide.
  std::optional<HornSolver> base_solver_;
  std::optional<SpEvaluator> base_sp_;

  /// The current node's assumption pair and decided sets.
  Bitset assumed_true_;
  Bitset assumed_false_;
  Bitset true_;
  Bitset false_;
  std::vector<TrailEntry> trail_;
  std::vector<Frame> frames_;
  /// |true_| + |false_|: counted after a whole-model propagation, moved
  /// by each repair's trail entries, restored from the frame on
  /// backtracking — so a node's implied_atoms costs its repair's writes,
  /// not a pass over the model.
  std::size_t decided_ = 0;

  /// wfs_propagation: the base program's condensation, its rule buckets,
  /// their compiled buckets (kept across nodes and runs), and the one
  /// assumption-reading solver every repair drives.
  std::optional<AtomDependencyGraph> graph_;
  RuleBuckets comp_rules_;
  BucketCache buckets_;
  std::unique_ptr<ComponentSolver> solver_;
  SccUpdateScratch scratch_;

  /// wfs_propagation leaf checks: every atom's rules (CSR by head).
  std::vector<std::uint32_t> head_offsets_;
  std::vector<std::uint32_t> head_rules_;

  /// Atoms underivable under any assumptions (positive-closure mode only).
  Bitset statically_false_;

  bool seeded_ = false;
  Bitset seed_true_;
  Bitset seed_false_;
};

}  // namespace afp

#endif  // AFP_SEARCH_STABLE_SEARCH_H_
