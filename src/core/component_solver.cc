#include "core/component_solver.h"

#include <utility>

#include "core/alternating.h"

namespace afp {

ComponentSolver::ComponentSolver(
    EvalContext& ctx, const SccOptions& options, const RuleView& view,
    const AtomDependencyGraph& graph, const RuleBuckets& comp_rules,
    AssumptionPair assumptions)
    : ctx_(ctx),
      options_(options),
      view_(view),
      graph_(graph),
      comp_rules_(comp_rules),
      assumptions_(assumptions),
      local_(ctx.AcquireRules()),
      local_id_(ctx.AcquireU32()),
      stamp_(ctx.AcquireU32()) {
  local_id_.assign(view.num_atoms, 0);
  // UINT32_MAX never collides with a component id, so unstamped atoms are
  // recognized across every component this solver handles.
  stamp_.assign(view.num_atoms, UINT32_MAX);
}

ComponentSolver::~ComponentSolver() {
  // Evaluators release their pooled buffers first (they borrow from ctx_
  // and their destructors run before the members below are released).
  even_.reset();
  odd_.reset();
  tp_.reset();
  gus_.reset();
  kernel_.reset();
  ctx_.ReleaseRules(std::move(local_));
  ctx_.ReleaseU32(std::move(local_id_));
  ctx_.ReleaseU32(std::move(stamp_));
}

bool ComponentSolver::SolveSingleton(std::uint32_t c, GlobalModel& gm,
                                     Outcome* out) {
  const AtomId self = graph_.members(c)[0];
  if (AssumedTrue(self) || AssumedFalse(self)) {
    gm.PublishOne(self, AssumedTrue(self) ? TruthValue::kTrue
                                          : TruthValue::kFalse);
    out->iterations = 1;
    out->local_size = 0;
    return true;
  }
  // Head value = max over rules of the three-valued body value (min over
  // literals), using the enum order kFalse < kUndefined < kTrue. A body
  // that is fully true from externals decides the head true regardless of
  // any self-dependent rule (so the early exit below is sound); any other
  // self-dependency needs the fixpoint treatment of the general path.
  TruthValue head = TruthValue::kFalse;
  std::size_t local_size = 0;
  for (std::uint32_t ri : comp_rules_[c]) {
    const GroundRule& r = view_.rules[ri];
    local_size += 1 + r.pos_len + r.neg_len;
    TruthValue body = TruthValue::kTrue;
    for (AtomId q : view_.pos(r)) {
      if (q == self) return false;
      if (gm.IsTrue(q)) continue;
      if (gm.IsFalse(q)) {
        body = TruthValue::kFalse;
        break;
      }
      body = TruthValue::kUndefined;
    }
    if (body == TruthValue::kFalse) continue;
    for (AtomId q : view_.neg(r)) {
      if (q == self) return false;
      if (gm.IsFalse(q)) continue;
      if (gm.IsTrue(q)) {
        body = TruthValue::kFalse;
        break;
      }
      body = TruthValue::kUndefined;
    }
    if (body > head) head = body;
    if (head == TruthValue::kTrue) break;
  }
  gm.PublishOne(self, head);
  out->iterations = 1;
  out->local_size = local_size;
  return true;
}

ComponentSolver::Outcome ComponentSolver::Solve(std::uint32_t c,
                                                GlobalModel& gm) {
  const std::span<const AtomId> members = graph_.members(c);
  if (members.size() == 1) {
    Outcome fast;
    if (SolveSingleton(c, gm, &fast)) return fast;
  }
  // Compiled components skip the whole interpreted pipeline below (remap,
  // lowering, HornSolver CSR build, evaluator Rebind) — the bucket was
  // lowered once at compile time and only its external literals are bound
  // against the global model here. Bit-identical by contract
  // (core/rule_kernel.h); pinned by the differential tests.
  if (options_.kernels != nullptr) {
    if (const CompiledBucket* bucket = options_.kernels->Get(c)) {
      if (!kernel_) kernel_.emplace(ctx_, options_.inner);
      const KernelOutcome k = kernel_->Solve(*bucket, gm);
      Outcome out;
      out.iterations = k.iterations;
      out.local_size = k.local_size;
      return out;
    }
  }
  for (std::uint32_t i = 0; i < members.size(); ++i) {
    local_id_[members[i]] = i;
    stamp_[members[i]] = c;
  }
  const AtomId sentinel = static_cast<AtomId>(members.size());
  bool sentinel_used = false;

  local_.rules.clear();
  local_.pool.clear();
  local_.num_atoms = members.size() + 1;
  for (std::uint32_t ri : comp_rules_[c]) {
    const GroundRule& r = view_.rules[ri];
    if (AssumedFalse(r.head)) continue;
    pos_buf_.clear();
    neg_buf_.clear();
    bool dead = false;
    for (AtomId q : view_.pos(r)) {
      if (stamp_[q] == c) {
        pos_buf_.push_back(local_id_[q]);
      } else if (gm.IsTrue(q)) {
        // erased: satisfied
      } else if (gm.IsFalse(q)) {
        dead = true;
        break;
      } else {
        pos_buf_.push_back(sentinel);  // undefined external
        sentinel_used = true;
      }
    }
    if (!dead) {
      for (AtomId q : view_.neg(r)) {
        if (stamp_[q] == c) {
          neg_buf_.push_back(local_id_[q]);
        } else if (gm.IsFalse(q)) {
          // erased: not q holds
        } else if (gm.IsTrue(q)) {
          dead = true;
          break;
        } else {
          pos_buf_.push_back(sentinel);  // undefined external caps body
          sentinel_used = true;
        }
      }
    }
    if (!dead) local_.Add(local_id_[r.head], pos_buf_, neg_buf_);
  }
  if (assumptions_.true_atoms != nullptr) {
    for (AtomId m : members) {
      if (AssumedTrue(m)) local_.Add(local_id_[m], {}, {});
    }
  }
  if (sentinel_used) {
    // u :- not u — permanently undefined.
    AtomId s = sentinel;
    local_.Add(s, {}, std::span<const AtomId>(&s, 1));
  }

  Outcome out;
  out.local_size = local_.pool.size() + local_.rules.size();

  HornSolver solver(local_.View(), &ctx_);
  PartialModel local_model;
  if (options_.inner == SccInnerEngine::kWp) {
    if (tp_) {
      tp_->Rebind(solver);
      gus_->Rebind(solver);
    } else {
      tp_.emplace(solver, ctx_);
      gus_.emplace(solver, ctx_);
    }
    WpResult r =
        WellFoundedViaWpOnEvaluators(ctx_, *tp_, *gus_, local_.num_atoms);
    out.iterations = static_cast<std::uint32_t>(r.iterations);
    local_model = std::move(r.model);
  } else {
    if (even_) {
      even_->Rebind(solver);
      odd_->Rebind(solver);
    } else {
      even_.emplace(solver, ctx_);
      odd_.emplace(solver, ctx_);
    }
    Bitset local_seed = ctx_.AcquireBitset(local_.num_atoms);
    AfpResult r = AlternatingFixpointOnEvaluators(
        ctx_, *even_, *odd_, local_.num_atoms, local_seed);
    ctx_.ReleaseBitset(std::move(local_seed));
    out.iterations = static_cast<std::uint32_t>(r.outer_iterations);
    local_model = std::move(r.model);
  }

  gm.Publish(members, local_model);

  // Recycle the local model's bitsets for the next component (reversing
  // the inner fixpoint's escape note — they re-enter the pool cycle
  // here).
  ctx_.NoteAdoptedBytes(local_model.true_atoms().CapacityBytes() +
                        local_model.false_atoms().CapacityBytes());
  ctx_.ReleaseBitset(std::move(local_model.true_atoms()));
  ctx_.ReleaseBitset(std::move(local_model.false_atoms()));
  // Feed the staging profiler: this component went through the full
  // interpreted pipeline; enough of these and the session compiles it.
  if (options_.kernels != nullptr) {
    options_.kernels->NoteInterpretedSolve(c, out.iterations);
  }
  return out;
}

}  // namespace afp
