#include "wfs/unfounded.h"

#include <cassert>
#include <utility>
#include <vector>

namespace afp {

GusEvaluator::GusEvaluator(const HornSolver& solver, EvalContext& ctx)
    : solver_(&solver),
      ctx_(ctx),
      witness_(ctx.AcquireU32()),
      missing_(ctx.AcquireU32()),
      x_(ctx.AcquireBitset(0)),
      last_true_(ctx.AcquireBitset(0)),
      last_false_(ctx.AcquireBitset(0)),
      rule_stamp_(ctx.AcquireU32()),
      queue_(ctx.AcquireU32()),
      touched_(ctx.AcquireU32()),
      removed_(ctx.AcquireU32()) {}

GusEvaluator::~GusEvaluator() {
  ctx_.ReleaseU32(std::move(witness_));
  ctx_.ReleaseU32(std::move(missing_));
  ctx_.ReleaseBitset(std::move(x_));
  ctx_.ReleaseBitset(std::move(last_true_));
  ctx_.ReleaseBitset(std::move(last_false_));
  ctx_.ReleaseU32(std::move(rule_stamp_));
  ctx_.ReleaseU32(std::move(queue_));
  ctx_.ReleaseU32(std::move(touched_));
  ctx_.ReleaseU32(std::move(removed_));
}

void GusEvaluator::Eval(const PartialModel& I, Bitset* out) {
  out->AssignComplementOf(EvalSupported(I));
}

const Bitset& GusEvaluator::EvalSupported(const PartialModel& I) {
  const std::size_t n = solver_->view().num_atoms;
  assert(I.true_atoms().universe_size() == n);
  assert(I.false_atoms().universe_size() == n);
  ++ctx_.stats().gus_calls;
  // A bound sentinel has no occurrence entries: when its value moves, the
  // counters it feeds are recounted (the W_P iteration never moves it).
  const bool sentinel_moved =
      primed_ && binding_ != nullptr && binding_->sentinel &&
      (I.true_atoms().Test(n - 1) != last_true_.Test(n - 1) ||
       I.false_atoms().Test(n - 1) != last_false_.Test(n - 1));
  if (!primed_ || sentinel_moved) {
    Prime(I);
  } else {
    ApplyDelta(I);
  }
  return x_;
}

void GusEvaluator::Prime(const PartialModel& I) {
  const RuleView& view = solver_->view();
  const std::size_t nrules = view.rules.size();
  witness_.assign(nrules, 0);
  if (!(I.true_atoms().None() && I.false_atoms().None())) {
    for (std::uint32_t ri = 0; ri < nrules; ++ri) {
      const GroundRule& r = view.rules[ri];
      for (AtomId a : view.pos(r)) {
        if (I.false_atoms().Test(a)) ++witness_[ri];
      }
      for (AtomId a : view.neg(r)) {
        if (I.true_atoms().Test(a)) ++witness_[ri];
      }
    }
    ctx_.stats().gus_rules_rescanned += nrules;
  }
  // The all-undefined interpretation — every engine's first call — leaves
  // every witness counter at zero without touching a single body literal.
  if (binding_ != nullptr) {
    // A capped body's sentinel copy is a witness iff s is false.
    const AtomId s = static_cast<AtomId>(view.num_atoms - 1);
    const std::uint32_t copy = I.false_atoms().Test(s) ? 1 : 0;
    for (std::uint32_t ri = 0; ri < nrules; ++ri) {
      if (binding_->dead(ri)) witness_[ri] += RuleBinding::kDeadBias;
      if (binding_->capped(ri)) witness_[ri] += copy;
    }
  }

  rule_stamp_.assign(nrules, 0);
  epoch_ = 0;
  last_true_ = I.true_atoms();
  last_false_ = I.false_atoms();
  FullSolve();
  primed_ = true;
}

void GusEvaluator::FullSolve() {
  const RuleView& view = solver_->view();
  x_.Resize(view.num_atoms);
  missing_.resize(view.rules.size());
  queue_.clear();
  auto support = [&](AtomId h) {
    if (!x_.Test(h)) {
      x_.Set(h);
      queue_.push_back(h);
    }
  };
  // A bound sentinel is supported iff `s :- not s` is usable (s not true);
  // its copies in capped bodies are then in X from the start. Facts are
  // always supported, and nothing ever removes them: their atoms' own
  // rules are dead.
  std::uint32_t copy = 0;
  if (binding_ != nullptr) {
    const AtomId s = static_cast<AtomId>(view.num_atoms - 1);
    if (binding_->sentinel && !last_true_.Test(s)) {
      support(s);
    } else {
      copy = 1;
    }
    for (AtomId f : binding_->facts) support(f);
  }
  for (std::uint32_t ri = 0; ri < view.rules.size(); ++ri) {
    const GroundRule& r = view.rules[ri];
    // `missing_` counts down for every rule — usable or not — so a rule
    // re-enabled by a later delta resumes with an accurate positive-body
    // countdown.
    missing_[ri] = r.pos_len;
    if (binding_ != nullptr && binding_->capped(ri)) missing_[ri] += copy;
    if (witness_[ri] == 0 && missing_[ri] == 0) support(r.head);
  }
  const auto& off = solver_->pos_occ_offsets();
  const auto& occ = solver_->pos_occ_rules();
  while (!queue_.empty()) {
    AtomId a = queue_.back();
    queue_.pop_back();
    for (std::uint32_t k = off[a]; k < off[a + 1]; ++k) {
      std::uint32_t ri = occ[k];
      if (--missing_[ri] == 0 && witness_[ri] == 0) support(view.rules[ri].head);
    }
  }
}

void GusEvaluator::ApplyDelta(const PartialModel& I) {
  const RuleView& view = solver_->view();
  if (epoch_ == UINT32_MAX) {  // stamp wrap: restart the epoch space
    rule_stamp_.assign(view.rules.size(), 0);
    epoch_ = 0;
  }
  ++epoch_;
  touched_.clear();
  std::size_t flipped = 0;
  std::size_t scans = 0;

  // Record each touched rule once, with its pre-delta usability, so the
  // worklist phases below see clean before/after states even when several
  // flipped atoms hit the same rule.
  auto touch = [&](std::uint32_t ri) {
    if (rule_stamp_[ri] != epoch_) {
      rule_stamp_[ri] = epoch_;
      touched_.push_back((ri << 1) | (witness_[ri] == 0 ? 1u : 0u));
    }
  };

  const auto& poff = solver_->pos_occ_offsets();
  const auto& pocc = solver_->pos_occ_rules();
  Bitset::ForEachChanged(
      last_false_, I.false_atoms(), [&](std::size_t a, bool now_false) {
        ++flipped;
        for (std::uint32_t k = poff[a]; k < poff[a + 1]; ++k) {
          ++scans;
          std::uint32_t ri = pocc[k];
          touch(ri);
          if (now_false) {
            ++witness_[ri];  // positive literal a became false in I
          } else {
            --witness_[ri];
          }
        }
      });
  const auto& noff = solver_->neg_occ_offsets();
  const auto& nocc = solver_->neg_occ_rules();
  Bitset::ForEachChanged(
      last_true_, I.true_atoms(), [&](std::size_t a, bool now_true) {
        ++flipped;
        for (std::uint32_t k = noff[a]; k < noff[a + 1]; ++k) {
          ++scans;
          std::uint32_t ri = nocc[k];
          touch(ri);
          if (now_true) {
            ++witness_[ri];  // negative literal `not a` became false in I
          } else {
            --witness_[ri];
          }
        }
      });
  last_false_ = I.false_atoms();
  last_true_ = I.true_atoms();
  ctx_.stats().delta_atoms += flipped;

  // Phase 1 — over-delete (the DRed half): any counted support that passed
  // through a rule which lost its witness-freedom is tentatively retracted,
  // cascading through the positive-occurrence index. Over-deletion is what
  // keeps cyclic support honest: a "surviving" support count could itself
  // rest on atoms that are about to fall out of X.
  queue_.clear();
  removed_.clear();
  auto remove_atom = [&](AtomId a) {
    if (x_.Test(a)) {
      x_.Reset(a);
      removed_.push_back(a);
      queue_.push_back(a);
    }
  };
  for (std::uint32_t rec : touched_) {
    const std::uint32_t ri = rec >> 1;
    const bool was_usable = (rec & 1u) != 0;
    if (was_usable && witness_[ri] != 0 && missing_[ri] == 0) {
      remove_atom(view.rules[ri].head);  // a firing rule became unusable
    }
  }
  while (!queue_.empty()) {
    AtomId a = queue_.back();
    queue_.pop_back();
    for (std::uint32_t k = poff[a]; k < poff[a + 1]; ++k) {
      std::uint32_t ri = pocc[k];
      if (++missing_[ri] == 1 && witness_[ri] == 0) {
        remove_atom(view.rules[ri].head);  // rule stopped firing
      }
    }
  }

  // Phase 2 — re-derive: seed with rules that became usable while fully
  // supported, probe each over-deleted atom's defining rules through the
  // head index, and propagate additions by counting.
  auto add_atom = [&](AtomId a) {
    if (!x_.Test(a)) {
      x_.Set(a);
      queue_.push_back(a);
    }
  };
  for (std::uint32_t rec : touched_) {
    const std::uint32_t ri = rec >> 1;
    const bool was_usable = (rec & 1u) != 0;
    if (!was_usable && witness_[ri] == 0 && missing_[ri] == 0) {
      add_atom(view.rules[ri].head);  // newly usable and fully supported
    }
  }
  const auto& hoff = solver_->head_offsets();
  const auto& hrules = solver_->head_rules();
  for (AtomId a : removed_) {
    if (x_.Test(a)) continue;  // already re-derived
    for (std::uint32_t k = hoff[a]; k < hoff[a + 1]; ++k) {
      ++scans;
      std::uint32_t ri = hrules[k];
      if (witness_[ri] == 0 && missing_[ri] == 0) {
        add_atom(a);
        break;
      }
    }
  }
  while (!queue_.empty()) {
    AtomId a = queue_.back();
    queue_.pop_back();
    for (std::uint32_t k = poff[a]; k < poff[a + 1]; ++k) {
      std::uint32_t ri = pocc[k];
      if (--missing_[ri] == 0 && witness_[ri] == 0) {
        add_atom(view.rules[ri].head);
      }
    }
  }
  ctx_.stats().gus_rules_rescanned += scans;
}

}  // namespace afp
