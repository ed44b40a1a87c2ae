#include "core/horn_solver.h"

#include <utility>

#include "core/eval_context.h"

namespace afp {

// Every index (positive and negative occurrences, heads) comes from
// BuildCsrIndex in core/eval_context.h, so every index of the evaluation
// core has one construction path.

namespace {

std::size_t CsrBytes(const std::vector<std::uint32_t>& offsets,
                     const std::vector<std::uint32_t>& entries) {
  return (offsets.capacity() + entries.capacity()) * sizeof(std::uint32_t);
}

}  // namespace

HornSolver::HornSolver(RuleView view, EvalContext* ctx)
    : view_(view), ctx_(ctx) {
  std::vector<std::uint32_t> cursor;
  if (ctx_ != nullptr) {
    pos_occ_offsets_ = ctx_->AcquireU32();
    pos_occ_rules_ = ctx_->AcquireU32();
    cursor = ctx_->AcquireU32();
  }
  BuildCsrIndex(view_.num_atoms, view_.rules,
                [&](const GroundRule& r) { return view_.pos(r); },
                &pos_occ_offsets_, &pos_occ_rules_, &cursor);
  if (ctx_ != nullptr) ctx_->ReleaseU32(std::move(cursor));
  index_bytes_ = CsrBytes(pos_occ_offsets_, pos_occ_rules_);
}

void HornSolver::EnsureNegIndex() const {
  if (neg_index_built_) return;
  std::vector<std::uint32_t> cursor;
  if (ctx_ != nullptr) {
    neg_occ_offsets_ = ctx_->AcquireU32();
    neg_occ_rules_ = ctx_->AcquireU32();
    cursor = ctx_->AcquireU32();
  }
  BuildCsrIndex(view_.num_atoms, view_.rules,
                [&](const GroundRule& r) { return view_.neg(r); },
                &neg_occ_offsets_, &neg_occ_rules_, &cursor);
  if (ctx_ != nullptr) ctx_->ReleaseU32(std::move(cursor));
  index_bytes_ += CsrBytes(neg_occ_offsets_, neg_occ_rules_);
  neg_index_built_ = true;
}

void HornSolver::EnsureHeadIndex() const {
  if (head_index_built_) return;
  std::vector<std::uint32_t> cursor;
  if (ctx_ != nullptr) {
    head_offsets_ = ctx_->AcquireU32();
    head_rules_ = ctx_->AcquireU32();
    cursor = ctx_->AcquireU32();
  }
  BuildCsrIndex(
      view_.num_atoms, view_.rules,
      [](const GroundRule& r) { return std::span<const AtomId>(&r.head, 1); },
      &head_offsets_, &head_rules_, &cursor);
  if (ctx_ != nullptr) ctx_->ReleaseU32(std::move(cursor));
  index_bytes_ += CsrBytes(head_offsets_, head_rules_);
  head_index_built_ = true;
}

HornSolver::~HornSolver() { ReleaseIndexes(); }

HornSolver::HornSolver(HornSolver&& o) noexcept
    : view_(o.view_),
      ctx_(std::exchange(o.ctx_, nullptr)),
      scratch_ctx_(std::move(o.scratch_ctx_)),
      pos_occ_offsets_(std::move(o.pos_occ_offsets_)),
      pos_occ_rules_(std::move(o.pos_occ_rules_)),
      neg_index_built_(std::exchange(o.neg_index_built_, false)),
      neg_occ_offsets_(std::move(o.neg_occ_offsets_)),
      neg_occ_rules_(std::move(o.neg_occ_rules_)),
      head_index_built_(std::exchange(o.head_index_built_, false)),
      head_offsets_(std::move(o.head_offsets_)),
      head_rules_(std::move(o.head_rules_)),
      index_bytes_(std::exchange(o.index_bytes_, 0)) {}

HornSolver& HornSolver::operator=(HornSolver&& o) noexcept {
  if (this != &o) {
    ReleaseIndexes();
    view_ = o.view_;
    ctx_ = std::exchange(o.ctx_, nullptr);
    scratch_ctx_ = std::move(o.scratch_ctx_);
    pos_occ_offsets_ = std::move(o.pos_occ_offsets_);
    pos_occ_rules_ = std::move(o.pos_occ_rules_);
    neg_index_built_ = std::exchange(o.neg_index_built_, false);
    neg_occ_offsets_ = std::move(o.neg_occ_offsets_);
    neg_occ_rules_ = std::move(o.neg_occ_rules_);
    head_index_built_ = std::exchange(o.head_index_built_, false);
    head_offsets_ = std::move(o.head_offsets_);
    head_rules_ = std::move(o.head_rules_);
    index_bytes_ = std::exchange(o.index_bytes_, 0);
  }
  return *this;
}

void HornSolver::ReleaseIndexes() {
  if (ctx_ == nullptr) return;
  ctx_->ReleaseU32(std::move(pos_occ_offsets_));
  ctx_->ReleaseU32(std::move(pos_occ_rules_));
  if (neg_index_built_) {
    ctx_->ReleaseU32(std::move(neg_occ_offsets_));
    ctx_->ReleaseU32(std::move(neg_occ_rules_));
  }
  if (head_index_built_) {
    ctx_->ReleaseU32(std::move(head_offsets_));
    ctx_->ReleaseU32(std::move(head_rules_));
  }
  ctx_ = nullptr;
}

Bitset HornSolver::EventualConsequences(const Bitset& assumed_false) const {
  // One-shot wrapper over the shared Dowling–Gallier propagation in
  // SpEvaluator (a fresh evaluator: prime the enablement counters,
  // propagate, discard) — the single implementation of the counting loop.
  // A solver built over an engine's context charges the work there (and
  // borrows its pooled scratch); a standalone solver keeps a private
  // context so repeated calls still recycle their buffers.
  if (ctx_ == nullptr && scratch_ctx_ == nullptr) {
    scratch_ctx_ = std::make_unique<EvalContext>();
  }
  EvalContext& ctx = ctx_ != nullptr ? *ctx_ : *scratch_ctx_;
  SpEvaluator sp(*this, ctx);
  Bitset derived;
  sp.Eval(assumed_false, &derived);
  return derived;
}

}  // namespace afp
