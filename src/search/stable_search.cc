#include "search/stable_search.h"

#include <algorithm>
#include <utility>

#include "core/alternating.h"
#include "ground/owned_rules.h"
#include "stable/gl_transform.h"

namespace afp {

namespace {

/// Conditions `base` on an assumption pair into `*out` (cleared here):
/// atoms in `assumed_true` become facts; when `delete_false_heads`, rules
/// whose head is in `assumed_false` are deleted (making those atoms
/// unfounded in the conditioned program).
void ConditionOnAssumptions(const RuleView& base, const Bitset& assumed_true,
                            const Bitset& assumed_false,
                            bool delete_false_heads, OwnedRules* out) {
  out->rules.clear();
  out->pool.clear();
  out->num_atoms = base.num_atoms;
  for (const GroundRule& r : base.rules) {
    if (delete_false_heads && assumed_false.Test(r.head)) continue;
    out->Add(r.head, base.pos(r), base.neg(r));
  }
  assumed_true.ForEach([&](std::size_t a) {
    out->Add(static_cast<AtomId>(a), {}, {});
  });
}

}  // namespace

ParallelStableSearch::ParallelStableSearch(const GroundProgram& gp,
                                           ParallelSearchOptions options)
    : gp_(gp), options_(options) {
  if (options_.registry != nullptr) {
    registry_ = options_.registry;
  } else {
    own_registry_ = std::make_unique<EvalContextRegistry>();
    registry_ = own_registry_.get();
  }
  if (!options_.wfs_propagation) {
    // Atoms not derivable even with every negative literal granted can
    // never belong to a stable model (S_P is monotonic); computed once,
    // with throwaway scratch.
    EvalContext tmp;
    HornSolver solver(gp_.View(), &tmp);
    Bitset all(gp_.num_atoms());
    all.SetAll();
    statically_false_ = Bitset::ComplementOf(
        solver.EventualConsequences(all, options_.horn_mode));
  }
}

ParallelStableSearch::~ParallelStableSearch() = default;

void ParallelStableSearch::SeedRoot(const Bitset& wf_true,
                                    const Bitset& wf_false) {
  seed_true_ = wf_true;
  seed_false_ = wf_false;
  seeded_ = true;
}

void ParallelStableSearch::ClearSeed() {
  seed_true_ = Bitset();
  seed_false_ = Bitset();
  seeded_ = false;
}

StableResult ParallelStableSearch::Enumerate(
    const StableSearchControl& control) {
  return Run(control, /*count_only=*/false);
}

StableResult ParallelStableSearch::Count(
    const StableSearchControl& control) {
  return Run(control, /*count_only=*/true);
}

StableResult ParallelStableSearch::Run(const StableSearchControl& control,
                                       bool count_only) {
  const std::size_t n = gp_.num_atoms();
  const int requested = std::clamp(options_.num_threads, 1, kMaxPoolWorkers);
  const std::size_t nw = static_cast<std::size_t>(requested);

  // Grow the worker roster to the pool size; slots persist across runs
  // with their contexts, base solvers, and evaluator pairs warm.
  registry_->EnsureSize(nw);
  while (workers_.size() < nw) workers_.emplace_back();
  for (std::size_t i = 0; i < nw; ++i) {
    Worker& w = workers_[i];
    if (w.ctx == nullptr) {
      w.ctx = &registry_->ForWorker(i);
      w.base_solver.emplace(gp_.View(), w.ctx);
      w.base_sp.emplace(*w.base_solver, *w.ctx, options_.sp_mode,
                        options_.horn_mode);
      // The even/odd pair is rebound to each node's conditioned solver;
      // the binding chosen here is never evaluated.
      w.even.emplace(*w.base_solver, *w.ctx, options_.sp_mode,
                     options_.horn_mode);
      w.odd.emplace(*w.base_solver, *w.ctx, options_.sp_mode,
                    options_.horn_mode);
    }
    w.nodes = 0;
    w.afp_calls = 0;
    w.implied_atoms = 0;
    w.leaves = 0;
    w.stable_checks = 0;
    w.pruned = 0;
    w.start = w.ctx->stats();
  }

  nodes_.clear();
  models_.clear();
  cursor_ = kRootNode;
  emitted_ = 0;
  finished_ = false;
  count_only_ = count_only;
  max_models_ = control.max_models;
  cancel_ = control.cancel;
  has_deadline_ = control.timeout.count() > 0;
  if (has_deadline_) {
    deadline_ = std::chrono::steady_clock::now() + control.timeout;
  }
  // Seeding only replaces the root's well-founded propagation; the
  // positive-closure ablation computes something weaker at the root, so a
  // seed there would change the branch tree rather than shortcut it.
  use_seed_ = seeded_ && options_.wfs_propagation;

  WorkPoolStats pstats;
  pstats.num_workers = nw;
  if (max_models_ == 0) {
    finished_ = true;  // the empty prefix, exactly
  } else {
    nodes_.emplace_back();
    Node& root = nodes_.back();
    root.assumed_true = Bitset(n);
    root.assumed_false = Bitset(n);
    const std::uint64_t roots[] = {kRootNode};
    pstats = RunWorkPool(
        roots, requested,
        [this](WorkPool& pool, std::uint64_t item, std::uint32_t worker) {
          ExpandNode(pool, static_cast<std::uint32_t>(item), worker);
        });
  }

  StableResult result;
  StableSearchStats& s = result.search;
  for (std::size_t i = 0; i < nw; ++i) {
    const Worker& w = workers_[i];
    s.nodes += w.nodes;
    s.afp_calls += w.afp_calls;
    s.implied_atoms += w.implied_atoms;
    s.leaves += w.leaves;
    s.stable_checks += w.stable_checks;
    s.pruned_nodes += w.pruned;
    result.eval.Accumulate(w.ctx->stats().Since(w.start));
  }
  s.models = emitted_;
  s.num_workers = pstats.num_workers;
  s.steals = pstats.steals;
  s.idle_waits = pstats.idle_waits;
  s.per_worker_nodes = pstats.per_worker_items;
  s.per_worker_steals = pstats.per_worker_steals;
  s.seeded = use_seed_;
  s.complete = finished_;
  result.models = std::move(models_);
  models_.clear();
  nodes_.clear();
  return result;
}

bool ParallelStableSearch::ShouldStop(WorkPool& pool) {
  if (pool.cancelled()) return true;
  if (cancel_ != nullptr && cancel_->load(std::memory_order_relaxed)) {
    pool.Cancel();
    return true;
  }
  if (has_deadline_ && std::chrono::steady_clock::now() >= deadline_) {
    pool.Cancel();
    return true;
  }
  return false;
}

void ParallelStableSearch::ResolveWithoutModel(WorkPool& pool,
                                               std::uint32_t id,
                                               Node::State state) {
  std::lock_guard<std::mutex> lk(tree_mu_);
  Node& nd = nodes_[id];
  nd.assumed_true = Bitset();
  nd.assumed_false = Bitset();
  nd.state = state;
  AdvanceEmissionLocked(pool);
}

void ParallelStableSearch::ExpandNode(WorkPool& pool, std::uint32_t id,
                                      std::uint32_t worker) {
  if (ShouldStop(pool)) return;
  Worker& w = workers_[worker];
  EvalContext& ctx = *w.ctx;
  const std::size_t n = gp_.num_atoms();

  Node* node;
  {
    // Fetch the stable reference under the lock; the node's assumption
    // sets were written before this item was submitted (the pool's mutex
    // sequences that write before this task) and nothing mutates them
    // until this task resolves the node, so they are read lock-free.
    std::lock_guard<std::mutex> lk(tree_mu_);
    node = &nodes_[id];
  }
  ++w.nodes;

  // --- Propagate under this node's assumptions with worker-local
  // machinery.
  Bitset decided_true;
  Bitset decided_false;
  if (options_.wfs_propagation) {
    if (id == kRootNode && use_seed_) {
      // The session already derived the well-founded model — which IS the
      // root's propagation result under empty assumptions.
      decided_true = ctx.AcquireBitsetCopy(seed_true_);
      decided_false = ctx.AcquireBitsetCopy(seed_false_);
    } else {
      OwnedRules conditioned = ctx.AcquireRules();
      ConditionOnAssumptions(gp_.View(), node->assumed_true,
                             node->assumed_false,
                             /*delete_false_heads=*/true, &conditioned);
      {
        HornSolver solver(conditioned.View(), &ctx);
        w.even->Rebind(solver);
        w.odd->Rebind(solver);
        AfpOptions afp_opts;
        afp_opts.horn_mode = options_.horn_mode;
        afp_opts.sp_mode = options_.sp_mode;
        Bitset seed = ctx.AcquireBitset(n);
        AfpResult afp = AlternatingFixpointOnEvaluators(ctx, *w.even, *w.odd,
                                                        n, seed, afp_opts);
        ctx.ReleaseBitset(std::move(seed));
        decided_true = std::move(afp.model.true_atoms());
        decided_false = std::move(afp.model.false_atoms());
        ctx.NoteAdoptedBytes(decided_true.CapacityBytes() +
                             decided_false.CapacityBytes());
        ++w.afp_calls;
      }
      ctx.ReleaseRules(std::move(conditioned));
    }
  } else {
    // Positive-closure-only propagation (the Saccà–Zaniolo flavor): derive
    // what follows from the assumed-false set, detect direct conflicts,
    // and leave everything else to branching. Single-shot evaluation, so
    // scratch mode regardless of sp_mode.
    OwnedRules conditioned = ctx.AcquireRules();
    ConditionOnAssumptions(gp_.View(), node->assumed_true,
                           node->assumed_false,
                           /*delete_false_heads=*/false, &conditioned);
    {
      HornSolver solver(conditioned.View(), &ctx);
      SpEvaluator sp(solver, ctx, SpMode::kScratch, options_.horn_mode);
      decided_true = ctx.AcquireBitset(n);
      sp.Eval(node->assumed_false, &decided_true);
    }
    ctx.ReleaseRules(std::move(conditioned));
    if (!decided_true.IsDisjointWith(node->assumed_false)) {  // conflict
      ctx.ReleaseBitset(std::move(decided_true));
      ++w.pruned;
      ResolveWithoutModel(pool, id, Node::State::kPruned);
      return;
    }
    decided_false = ctx.AcquireBitset(n);
    decided_false |= node->assumed_false;
    decided_false |= statically_false_;
  }

  w.implied_atoms += (decided_true.Count() + decided_false.Count()) -
                     (node->assumed_true.Count() + node->assumed_false.Count());

  // --- Canonical branch choice: the first undecided atom. Identical at
  // every thread count because the decided sets depend only on the node.
  AtomId branch = kInvalidAtom;
  for (std::size_t a = 0; a < n; ++a) {
    if (!decided_true.Test(a) && !decided_false.Test(a)) {
      branch = static_cast<AtomId>(a);
      break;
    }
  }

  if (branch == kInvalidAtom) {
    // Total leaf: verify stability against the *original* program.
    ++w.leaves;
    ++w.stable_checks;
    const bool stable = IsStableModel(ctx, *w.base_sp, decided_true);
    ctx.ReleaseBitset(std::move(decided_false));
    if (!stable || count_only_) {
      ctx.ReleaseBitset(std::move(decided_true));
      ResolveWithoutModel(pool, id,
                          stable ? Node::State::kLeafModel
                                 : Node::State::kLeafDone);
      return;
    }
    // The model's storage escapes the pool cycle into the tree; the
    // emission cursor moves it into the result in canonical order.
    ctx.NoteEscapedBytes(decided_true.CapacityBytes());
    std::lock_guard<std::mutex> lk(tree_mu_);
    Node& nd = nodes_[id];
    nd.assumed_true = Bitset();
    nd.assumed_false = Bitset();
    nd.model = std::move(decided_true);
    nd.state = Node::State::kLeafModel;
    AdvanceEmissionLocked(pool);
    return;
  }
  ctx.ReleaseBitset(std::move(decided_true));
  ctx.ReleaseBitset(std::move(decided_false));

  // --- Interior node: create both children in canonical order
  // (assume-false emits first) and hand them to the pool. Submitting the
  // true child first makes LIFO claiming visit the false child next on
  // this worker — the sequential descent order, as a locality heuristic.
  std::uint32_t false_id;
  std::uint32_t true_id;
  {
    std::lock_guard<std::mutex> lk(tree_mu_);
    if (finished_) return;
    false_id = static_cast<std::uint32_t>(nodes_.size());
    nodes_.emplace_back();
    true_id = static_cast<std::uint32_t>(nodes_.size());
    nodes_.emplace_back();
    Node& nd = nodes_[id];
    Node& nf = nodes_[false_id];
    nf.parent = id;
    nf.which = 0;
    nf.assumed_true = nd.assumed_true;
    nf.assumed_false = nd.assumed_false;
    nf.assumed_false.Set(branch);
    Node& nt = nodes_[true_id];
    nt.parent = id;
    nt.which = 1;
    nt.assumed_true = nd.assumed_true;
    nt.assumed_true.Set(branch);
    nt.assumed_false = nd.assumed_false;
    nd.children[0] = false_id;
    nd.children[1] = true_id;
    nd.state = Node::State::kExpanded;
    nd.assumed_true = Bitset();
    nd.assumed_false = Bitset();
    AdvanceEmissionLocked(pool);
  }
  pool.Submit(true_id, worker);
  pool.Submit(false_id, worker);
}

void ParallelStableSearch::AdvanceEmissionLocked(WorkPool& pool) {
  while (!finished_) {
    Node& nd = nodes_[cursor_];
    if (nd.state == Node::State::kPending) return;  // left frontier open
    if (nd.state == Node::State::kExpanded) {
      cursor_ = nd.children[0];  // descend: assume-false child emits first
      continue;
    }
    if (nd.state == Node::State::kLeafModel) {
      if (!count_only_) models_.push_back(std::move(nd.model));
      nd.model = Bitset();
      nd.state = Node::State::kLeafDone;
      ++emitted_;
      if (emitted_ >= max_models_) {
        // The canonical prefix is complete; whatever other workers raced
        // ahead on is now abandoned unemitted.
        finished_ = true;
        pool.Cancel();
        return;
      }
    }
    // kLeafDone or kPruned: this subtree is fully resolved — climb until
    // there is a right sibling to visit.
    std::uint32_t cur = cursor_;
    while (true) {
      if (cur == kRootNode) {
        finished_ = true;  // whole tree resolved; the pool drains itself
        return;
      }
      const Node& c = nodes_[cur];
      if (c.which == 0) {
        cursor_ = nodes_[c.parent].children[1];
        break;
      }
      cur = c.parent;
    }
  }
}

}  // namespace afp
