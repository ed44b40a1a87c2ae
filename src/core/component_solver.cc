#include "core/component_solver.h"

#include <utility>

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
      buckets_(options.buckets != nullptr ? *options.buckets : own_buckets_) {}

ComponentSolver::~ComponentSolver() {
  if (even_) {
    for (Bitset* b : {&afp_.under_neg, &afp_.under_pos, &afp_.over_neg,
                      &afp_.over_pos, &afp_.next_under_neg}) {
      ctx_.ReleaseBitset(std::move(*b));
    }
  }
  if (tp_) {
    for (Bitset* b : {&wp_.interp.true_atoms(), &wp_.interp.false_atoms(),
                      &wp_.new_true}) {
      ctx_.ReleaseBitset(std::move(*b));
    }
  }
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
  if (buckets_.Find(c) == nullptr) ++ctx_.stats().buckets_built;
  ++ctx_.stats().bucket_solves;
  const CompiledBucket& bucket = buckets_.Get(c, view_, graph_, comp_rules_);
  Outcome out;
  const RuleBinding binding = bucket.Bind(gm, assumptions_, &state_, &live_,
                                          &facts_, &out.local_size);
  const HornSolver& program = bucket.program();
  const std::size_t index_bytes = program.IndexBytes();
  const std::size_t n = program.view().num_atoms;

  if (options_.inner == SccInnerEngine::kWp) {
    if (!tp_) {
      tp_.emplace(program, ctx_);
      gus_.emplace(program, ctx_);
      wp_ = {PartialModel(ctx_.AcquireBitset(0), ctx_.AcquireBitset(0)),
             ctx_.AcquireBitset(0)};
    }
    tp_->Rebind(program, &binding);
    gus_->Rebind(program, &binding);
    const std::size_t rounds =
        WellFoundedViaWpOnEvaluators(*tp_, *gus_, n, wp_);
    out.iterations = static_cast<std::uint32_t>(rounds);
    gm.Publish(bucket.members(), wp_.interp.true_atoms(),
               wp_.interp.false_atoms());
  } else {
    if (!even_) {
      even_.emplace(program, ctx_);
      odd_.emplace(program, ctx_);
      afp_ = {ctx_.AcquireBitset(0), ctx_.AcquireBitset(0),
              ctx_.AcquireBitset(0), ctx_.AcquireBitset(0),
              ctx_.AcquireBitset(0)};
    }
    even_->Rebind(program, &binding);
    odd_->Rebind(program, &binding);
    // The component path never seeds.
    const std::size_t rounds = AlternatingFixpointOnEvaluators(
        *even_, *odd_, n, /*seed=*/nullptr, afp_);
    out.iterations = static_cast<std::uint32_t>(rounds);
    gm.Publish(bucket.members(), afp_.under_pos, afp_.under_neg);
  }
  // The evaluators may have built one of the bucket's lazy indexes.
  buckets_.NoteGrowth(program.IndexBytes() - index_bytes);
  return out;
}

}  // namespace afp
