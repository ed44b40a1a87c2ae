#include "search/stable_search.h"

#include <algorithm>
#include <span>
#include <utility>

#include "core/component_solver.h"
#include "ground/owned_rules.h"
#include "stable/gl_transform.h"

namespace afp {

namespace {

/// Conditions `base` on the assumed-true set into `*out` (cleared here):
/// atoms in `assumed_true` become facts. The positive-closure propagation
/// keeps the rules of assumed-false atoms and detects their derivation as
/// a conflict instead.
void ConditionOnAssumptions(const RuleView& base, const Bitset& assumed_true,
                            OwnedRules* out) {
  out->rules.clear();
  out->pool.clear();
  out->num_atoms = base.num_atoms;
  for (const GroundRule& r : base.rules) {
    out->Add(r.head, base.pos(r), base.neg(r));
  }
  assumed_true.ForEach([&](std::size_t a) {
    out->Add(static_cast<AtomId>(a), {}, {});
  });
}

/// Whether every body literal of `r` holds in the total model whose true
/// atoms are `m`.
bool BodyTrueIn(const RuleView& view, const GroundRule& r, const Bitset& m) {
  for (AtomId a : view.pos(r)) {
    if (!m.Test(a)) return false;
  }
  for (AtomId a : view.neg(r)) {
    if (m.Test(a)) return false;
  }
  return true;
}

}  // namespace

StableSearch::StableSearch(const GroundProgram& gp,
                           StableSearchOptions options)
    : gp_(gp),
      view_(gp.View()),
      options_(options),
      assumed_true_(gp.num_atoms()),
      assumed_false_(gp.num_atoms()),
      true_(gp.num_atoms()),
      false_(gp.num_atoms()) {
  if (options_.wfs_propagation) {
    graph_.emplace(view_);
    comp_rules_ = RuleBuckets(view_, *graph_);
    SccOptions so;
    so.buckets = &buckets_;
    solver_ = std::make_unique<ComponentSolver>(
        ctx_, so, view_, *graph_, comp_rules_,
        AssumptionPair{&assumed_true_, &assumed_false_});
    std::vector<std::uint32_t> cursor = ctx_.AcquireU32();
    BuildCsrIndex(
        view_.num_atoms, view_.rules,
        [](const GroundRule& r) { return std::span<const AtomId>(&r.head, 1); },
        &head_offsets_, &head_rules_, &cursor);
    ctx_.ReleaseU32(std::move(cursor));
  } else {
    BaseSp();
    // Atoms not derivable even with every negative literal granted can
    // never belong to a stable model (S_P is monotonic); computed once.
    Bitset all(gp_.num_atoms());
    all.SetAll();
    statically_false_ =
        Bitset::ComplementOf(base_solver_->EventualConsequences(all));
  }
}

StableSearch::~StableSearch() = default;

void StableSearch::SeedRoot(const Bitset& wf_true, const Bitset& wf_false) {
  seed_true_ = wf_true;
  seed_false_ = wf_false;
  seeded_ = true;
}

void StableSearch::ClearSeed() {
  seed_true_ = Bitset();
  seed_false_ = Bitset();
  seeded_ = false;
}

StableResult StableSearch::Enumerate(const StableSearchControl& control) {
  return Run(control, /*count_only=*/false);
}

StableResult StableSearch::Count(const StableSearchControl& control) {
  return Run(control, /*count_only=*/true);
}

bool StableSearch::Propagate(bool use_seed, StableSearchStats* s) {
  if (!options_.wfs_propagation) return PropagatePositive();
  if (!frames_.empty()) {
    // A child: repair the parent's model after the assumption on the
    // innermost frame's branch atom, logging every write on the trail.
    const Frame& f = frames_.back();
    const AtomId touched[] = {f.branch};
    GlobalModel gm{&true_, &false_, &trail_};
    s->components_resolved +=
        SccResolveDownstream(*solver_, touched, gm, nullptr, scratch_)
            .components_resolved;
    // The repair solves each component at most once, so it wrote each
    // atom at most once, logging the verdict it replaced.
    for (std::size_t i = f.mark; i < trail_.size(); ++i) {
      const TrailEntry& e = trail_[i];
      decided_ += gm.Value(e.atom) != TruthValue::kUndefined;
      decided_ -= e.old != TruthValue::kUndefined;
    }
  } else if (use_seed) {
    // The session already derived the well-founded model — which IS the
    // root's propagation result under empty assumptions.
    true_ = seed_true_;
    false_ = seed_false_;
    decided_ = true_.Count() + false_.Count();
    return true;
  } else {
    SccOptions so;
    so.buckets = &buckets_;
    SccWfsResult r =
        WellFoundedSccOnGraph(ctx_, view_, *graph_, comp_rules_, so);
    true_ = std::move(r.model.true_atoms());
    false_ = std::move(r.model.false_atoms());
    decided_ = true_.Count() + false_.Count();
    s->components_resolved += r.num_components;
  }
  ++s->afp_calls;
  return true;
}

bool StableSearch::NextSibling() {
  GlobalModel gm{&true_, &false_, &trail_};
  while (!frames_.empty()) {
    Frame& f = frames_.back();
    gm.UndoTo(f.mark);
    decided_ = f.decided;
    if (!f.true_child) {
      f.true_child = true;
      assumed_false_.Reset(f.branch);
      assumed_true_.Set(f.branch);
      return true;
    }
    assumed_true_.Reset(f.branch);
    frames_.pop_back();
  }
  return false;
}

bool StableSearch::PropagatePositive() {
  // Derive what follows from the assumed-false set, detect direct
  // conflicts, and leave everything else to branching. Single-shot
  // evaluation on a freshly conditioned program: one priming call.
  OwnedRules conditioned = ctx_.AcquireRules();
  ConditionOnAssumptions(view_, assumed_true_, &conditioned);
  {
    HornSolver solver(conditioned.View(), &ctx_);
    SpEvaluator sp(solver, ctx_);
    sp.Eval(assumed_false_, &true_);
  }
  ctx_.ReleaseRules(std::move(conditioned));
  if (!true_.IsDisjointWith(assumed_false_)) return false;
  false_ = assumed_false_;
  false_ |= statically_false_;
  decided_ = true_.Count() + false_.Count();
  return true;
}

bool StableSearch::LeafIsStable(StableSearchStats* s) {
  if (options_.wfs_propagation) {
    // Only the branch atoms' components can break lfp(P^M) = M (see the
    // header). Frames are read deepest first: a leaf that fails usually
    // fails on its newest assumption, the last atom propagation left open.
    const std::vector<std::uint32_t>& comp = graph_->component_of();
    bool local = true;
    for (auto f = frames_.rbegin(); f != frames_.rend(); ++f) {
      const AtomId b = f->branch;
      const std::uint32_t c = comp[b];
      // fires: some rule of b has a body true in M; supported: one such
      // rule waits on no positive body atom inside c.
      bool fires = false;
      bool supported = false;
      for (std::uint32_t i = head_offsets_[b];
           i < head_offsets_[b + 1] && !supported; ++i) {
        const GroundRule& r = view_.rules[head_rules_[i]];
        ++s->leaf_rules_checked;
        if (!BodyTrueIn(view_, r, true_)) continue;
        fires = true;
        if (!f->true_child) break;
        const std::span<const AtomId> pos = view_.pos(r);
        supported = std::none_of(pos.begin(), pos.end(),
                                 [&](AtomId a) { return comp[a] == c; });
      }
      // An assumed-false atom must stay underivable; an assumed-true one
      // needs a rule with a body true in M (lfp(P^M) = M derives each
      // atom of M through one).
      if (f->true_child ? !fires : fires) return false;
      local = local && (!f->true_child || supported);
    }
    // An assumed-true atom supported only through a positive loop inside
    // its component falls through to the whole-program check.
    if (local) return true;
  }
  s->leaf_rules_checked += view_.rules.size();
  return IsStableModel(ctx_, BaseSp(), true_);
}

SpEvaluator& StableSearch::BaseSp() {
  if (!base_sp_) {
    base_solver_.emplace(view_, &ctx_);
    base_sp_.emplace(*base_solver_, ctx_);
  }
  return *base_sp_;
}

StableResult StableSearch::Run(const StableSearchControl& control,
                               bool count_only) {
  StableResult result;
  StableSearchStats& s = result.search;
  const EvalStats start = ctx_.stats();
  // Seeding only replaces the root's well-founded propagation; the
  // positive-closure ablation computes something weaker at the root, so a
  // seed there would change the tree rather than shortcut it.
  const bool use_seed = seeded_ && options_.wfs_propagation;
  s.seeded = use_seed;
  const std::size_t n = gp_.num_atoms();
  const bool has_deadline = control.timeout.count() > 0;
  const auto deadline = std::chrono::steady_clock::now() + control.timeout;
  // Checked before every node's propagation: a stopped run has emitted a
  // prefix of the enumeration and reports itself incomplete.
  auto stopped = [&] {
    if ((control.cancel != nullptr &&
         control.cancel->load(std::memory_order_relaxed)) ||
        (has_deadline && std::chrono::steady_clock::now() >= deadline)) {
      s.complete = false;
      return true;
    }
    return false;
  };

  assumed_true_.Clear();
  assumed_false_.Clear();
  trail_.clear();
  frames_.clear();
  if (control.max_models == 0 || stopped()) {
    result.eval = ctx_.stats().Since(start);
    return result;  // the empty prefix
  }

  bool alive = Propagate(use_seed, &s);
  while (true) {
    // --- Visit the node whose decided sets are in true_/false_.
    ++s.nodes;
    std::size_t branch = n;
    if (alive) {
      s.implied_atoms += decided_ - frames_.size();
      branch = Bitset::FirstZeroOfUnion(true_, false_);
      if (branch == n) {
        // Total leaf: verify stability against the *original* program.
        ++s.leaves;
        ++s.stable_checks;
        if (LeafIsStable(&s)) {
          ++s.models;
          if (!count_only) result.models.push_back(true_);
          if (s.models >= control.max_models) break;
        }
      }
    } else {
      ++s.pruned_nodes;
    }
    if (branch < n) {
      // Interior node: descend into the assume-false child.
      frames_.push_back({static_cast<AtomId>(branch), trail_.size(),
                         decided_, /*true_child=*/false});
      assumed_false_.Set(branch);
    } else if (!NextSibling()) {
      break;  // the whole tree is resolved
    }
    if (stopped()) break;
    alive = Propagate(use_seed, &s);
  }
  result.eval = ctx_.stats().Since(start);
  return result;
}

}  // namespace afp
