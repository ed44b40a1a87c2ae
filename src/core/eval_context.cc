#include "core/eval_context.h"

#include <algorithm>
#include <cassert>

#include "core/horn_solver.h"

namespace afp {

namespace {

std::size_t RulesBytes(const OwnedRules& r) {
  return r.rules.capacity() * sizeof(GroundRule) +
         r.pool.capacity() * sizeof(AtomId);
}

}  // namespace

Bitset EvalContext::AcquireBitset(std::size_t universe) {
  if (bitsets_.empty()) {
    Bitset b(universe);
    NoteScratchBytes(static_cast<std::ptrdiff_t>(b.CapacityBytes()));
    return b;
  }
  Bitset b = std::move(bitsets_.back());
  bitsets_.pop_back();
  pool_bytes_ -= b.CapacityBytes();
  b.Resize(universe);
  NoteScratchBytes(static_cast<std::ptrdiff_t>(b.CapacityBytes()));
  return b;
}

void EvalContext::ReleaseBitset(Bitset&& b) {
  const std::size_t bytes = b.CapacityBytes();
  pool_bytes_ += bytes;
  bitsets_.push_back(std::move(b));
  NoteScratchBytes(-static_cast<std::ptrdiff_t>(bytes));
}

std::vector<std::uint32_t> EvalContext::AcquireU32() {
  if (u32s_.empty()) {
    NoteScratchBytes(0);
    return {};
  }
  std::vector<std::uint32_t> v = std::move(u32s_.back());
  u32s_.pop_back();
  pool_bytes_ -= v.capacity() * sizeof(std::uint32_t);
  v.clear();
  NoteScratchBytes(
      static_cast<std::ptrdiff_t>(v.capacity() * sizeof(std::uint32_t)));
  return v;
}

void EvalContext::ReleaseU32(std::vector<std::uint32_t>&& v) {
  const std::size_t bytes = v.capacity() * sizeof(std::uint32_t);
  pool_bytes_ += bytes;
  u32s_.push_back(std::move(v));
  NoteScratchBytes(-static_cast<std::ptrdiff_t>(bytes));
}

OwnedRules EvalContext::AcquireRules() {
  if (rules_.empty()) {
    NoteScratchBytes(0);
    return {};
  }
  OwnedRules r = std::move(rules_.back());
  rules_.pop_back();
  pool_bytes_ -= RulesBytes(r);
  r.rules.clear();
  r.pool.clear();
  r.num_atoms = 0;
  NoteScratchBytes(static_cast<std::ptrdiff_t>(RulesBytes(r)));
  return r;
}

void EvalContext::ReleaseRules(OwnedRules&& r) {
  const std::size_t bytes = RulesBytes(r);
  pool_bytes_ += bytes;
  rules_.push_back(std::move(r));
  NoteScratchBytes(-static_cast<std::ptrdiff_t>(bytes));
}

void EvalContext::NoteEscapedBytes(std::size_t bytes) {
  NoteScratchBytes(-static_cast<std::ptrdiff_t>(bytes));
}

void EvalContext::NoteScratchBytes(std::ptrdiff_t outstanding_delta) {
  outstanding_bytes_ += outstanding_delta;
  // A buffer that grew while checked out (or escaped into a result) makes
  // the running sum drift low; clamp rather than undercount the pool.
  if (outstanding_bytes_ < 0) outstanding_bytes_ = 0;
  stats_.peak_scratch_bytes =
      std::max(stats_.peak_scratch_bytes,
               pool_bytes_ + static_cast<std::size_t>(outstanding_bytes_));
}

SpEvaluator::SpEvaluator(const HornSolver& solver, EvalContext& ctx)
    : solver_(&solver),
      ctx_(ctx),
      neg_missing_(ctx.AcquireU32()),
      last_false_(ctx.AcquireBitset(0)),
      remaining_(ctx.AcquireU32()),
      queue_(ctx.AcquireU32()) {}

SpEvaluator::~SpEvaluator() {
  ctx_.ReleaseU32(std::move(neg_missing_));
  ctx_.ReleaseBitset(std::move(last_false_));
  ctx_.ReleaseU32(std::move(remaining_));
  ctx_.ReleaseU32(std::move(queue_));
}

void SpEvaluator::Eval(const Bitset& assumed_false, Bitset* out) {
  assert(assumed_false.universe_size() == solver_->view().num_atoms);
  assert(out != &assumed_false);
  ++ctx_.stats().sp_calls;
  const bool prime = !primed_;
  if (prime) {
    PrimeScratch();
  } else {
    ApplyDelta(assumed_false);
  }
  last_false_ = assumed_false;
  primed_ = true;
  Propagate(assumed_false, prime, out);
}

Bitset SpEvaluator::Eval(const Bitset& assumed_false) {
  Bitset out;
  Eval(assumed_false, &out);
  return out;
}

void SpEvaluator::PrimeScratch() {
  const std::size_t nrules = solver_->view().rules.size();
  neg_missing_.resize(nrules);
  // Only the live rules are visited from here on; a dead rule stays
  // disabled for the whole solve.
  if (binding_ != nullptr) {
    remaining_.assign(nrules, UINT32_MAX);
  } else {
    remaining_.resize(nrules);
  }
}

void SpEvaluator::ApplyDelta(const Bitset& assumed_false) {
  const std::vector<std::uint32_t>& off = solver_->neg_occ_offsets();
  const std::vector<std::uint32_t>& occ = solver_->neg_occ_rules();
  std::size_t flipped = 0;
  std::size_t touched = 0;
  Bitset::ForEachChanged(
      last_false_, assumed_false, [&](std::size_t a, bool now_false) {
        ++flipped;
        for (std::uint32_t k = off[a]; k < off[a + 1]; ++k) {
          ++touched;
          if (now_false) {
            --neg_missing_[occ[k]];  // `not a` became satisfied
          } else {
            ++neg_missing_[occ[k]];
          }
        }
      });
  ctx_.stats().delta_atoms += flipped;
  ctx_.stats().rules_rescanned += touched;
}

void SpEvaluator::Propagate(const Bitset& assumed_false, bool prime,
                            Bitset* out) {
  const RuleView& view = solver_->view();
  out->Resize(view.num_atoms);
  queue_.clear();
  auto derive = [&](AtomId h) {
    if (!out->Test(h)) {
      out->Set(h);
      queue_.push_back(h);
    }
  };

  // Priming counts each visited rule's negative literals outside Ĩ; on
  // Ĩ = ∅ (every engine's first call) that is the body length, with no
  // scan and no rescan charge.
  const bool scan = prime && !assumed_false.None();
  // A bound sentinel s is derived iff `s :- not s` is enabled, i.e. iff s
  // is assumed false; its copies in capped bodies then hold from the
  // start, and otherwise they disable their rules.
  const AtomId s = static_cast<AtomId>(view.num_atoms - 1);
  const bool s_derived =
      binding_ != nullptr && binding_->sentinel && assumed_false.Test(s);
  std::size_t visited = 0;
  auto visit = [&](std::uint32_t ri) {
    const GroundRule& r = view.rules[ri];
    if (prime) {
      std::uint32_t missing = r.neg_len;
      if (scan) {
        missing = 0;
        for (AtomId a : view.neg(r)) {
          if (!assumed_false.Test(a)) ++missing;
        }
      }
      neg_missing_[ri] = missing;
    }
    if (neg_missing_[ri] != 0 ||
        (!s_derived && binding_ != nullptr && binding_->capped(ri))) {
      remaining_[ri] = UINT32_MAX;
      return;
    }
    remaining_[ri] = r.pos_len;
    if (r.pos_len == 0) derive(r.head);
  };
  if (binding_ != nullptr) {
    for (std::uint32_t ri : binding_->live) visit(ri);
    visited = binding_->live.size();
    if (s_derived) derive(s);
    for (AtomId f : binding_->facts) derive(f);
  } else {
    for (std::uint32_t ri = 0; ri < view.rules.size(); ++ri) visit(ri);
    visited = view.rules.size();
  }
  if (scan) ctx_.stats().rules_rescanned += visited;

  const std::vector<std::uint32_t>& off = solver_->pos_occ_offsets();
  const std::vector<std::uint32_t>& occ = solver_->pos_occ_rules();
  while (!queue_.empty()) {
    AtomId a = queue_.back();
    queue_.pop_back();
    for (std::uint32_t k = off[a]; k < off[a + 1]; ++k) {
      std::uint32_t ri = occ[k];
      if (remaining_[ri] == UINT32_MAX) continue;
      if (--remaining_[ri] == 0) derive(view.rules[ri].head);
    }
  }
}

}  // namespace afp
