#include "wfs/wp_engine.h"

#include <cassert>
#include <utility>

#include "core/horn_solver.h"
#include "wfs/unfounded.h"

namespace afp {

TpEvaluator::TpEvaluator(const HornSolver& solver, EvalContext& ctx)
    : solver_(&solver),
      ctx_(ctx),
      unsat_(ctx.AcquireU32()),
      support_(ctx.AcquireU32()),
      heads_(ctx.AcquireBitset(0)),
      last_true_(ctx.AcquireBitset(0)),
      last_false_(ctx.AcquireBitset(0)) {}

TpEvaluator::~TpEvaluator() {
  ctx_.ReleaseU32(std::move(unsat_));
  ctx_.ReleaseU32(std::move(support_));
  ctx_.ReleaseBitset(std::move(heads_));
  ctx_.ReleaseBitset(std::move(last_true_));
  ctx_.ReleaseBitset(std::move(last_false_));
}

void TpEvaluator::Eval(const PartialModel& I, Bitset* out) {
  const std::size_t n = solver_->view().num_atoms;
  assert(I.true_atoms().universe_size() == n);
  assert(I.false_atoms().universe_size() == n);
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
  *out = heads_;
}

void TpEvaluator::Prime(const PartialModel& I) {
  const RuleView& view = solver_->view();
  const std::size_t nrules = view.rules.size();
  unsat_.resize(nrules);
  if (I.true_atoms().None() && I.false_atoms().None()) {
    // The all-undefined interpretation satisfies no literal: the countdown
    // is the full body length, with no body scan at all. This is every
    // W_P run's first call (I_0 = ∅), so priming there is free.
    for (std::uint32_t ri = 0; ri < nrules; ++ri) {
      const GroundRule& r = view.rules[ri];
      unsat_[ri] = r.pos_len + r.neg_len;
    }
  } else {
    for (std::uint32_t ri = 0; ri < nrules; ++ri) {
      const GroundRule& r = view.rules[ri];
      std::uint32_t u = 0;
      for (AtomId a : view.pos(r)) {
        if (!I.true_atoms().Test(a)) ++u;
      }
      for (AtomId a : view.neg(r)) {
        if (!I.false_atoms().Test(a)) ++u;
      }
      unsat_[ri] = u;
    }
    ctx_.stats().rules_rescanned += nrules;
  }
  support_.assign(view.num_atoms, 0);
  heads_.Resize(view.num_atoms);
  auto support = [&](AtomId h) {
    if (++support_[h] == 1) heads_.Set(h);
  };
  if (binding_ != nullptr) {
    // The sentinel copy of a capped body is true only if s is; `s :- not
    // s` fires iff s is false; facts always fire.
    const AtomId s = static_cast<AtomId>(view.num_atoms - 1);
    const std::uint32_t copy = I.true_atoms().Test(s) ? 0 : 1;
    for (std::uint32_t ri = 0; ri < nrules; ++ri) {
      if (binding_->dead(ri)) unsat_[ri] += RuleBinding::kDeadBias;
      if (binding_->capped(ri)) unsat_[ri] += copy;
    }
    if (binding_->sentinel && I.false_atoms().Test(s)) support(s);
    for (AtomId f : binding_->facts) support(f);
  }
  for (std::uint32_t ri = 0; ri < nrules; ++ri) {
    if (unsat_[ri] == 0) support(view.rules[ri].head);
  }
  last_true_ = I.true_atoms();
  last_false_ = I.false_atoms();
  primed_ = true;
}

void TpEvaluator::ApplyDelta(const PartialModel& I) {
  const RuleView& view = solver_->view();
  std::size_t flipped = 0;
  std::size_t scans = 0;
  auto satisfy = [&](std::uint32_t ri) {
    if (--unsat_[ri] == 0) {
      AtomId h = view.rules[ri].head;
      if (++support_[h] == 1) heads_.Set(h);
    }
  };
  auto unsatisfy = [&](std::uint32_t ri) {
    if (unsat_[ri]++ == 0) {
      AtomId h = view.rules[ri].head;
      if (--support_[h] == 0) heads_.Reset(h);
    }
  };

  const auto& poff = solver_->pos_occ_offsets();
  const auto& pocc = solver_->pos_occ_rules();
  Bitset::ForEachChanged(
      last_true_, I.true_atoms(), [&](std::size_t a, bool now_true) {
        ++flipped;
        for (std::uint32_t k = poff[a]; k < poff[a + 1]; ++k) {
          ++scans;
          if (now_true) {
            satisfy(pocc[k]);  // positive literal a became true in I
          } else {
            unsatisfy(pocc[k]);
          }
        }
      });
  const auto& noff = solver_->neg_occ_offsets();
  const auto& nocc = solver_->neg_occ_rules();
  Bitset::ForEachChanged(
      last_false_, I.false_atoms(), [&](std::size_t a, bool now_false) {
        ++flipped;
        for (std::uint32_t k = noff[a]; k < noff[a + 1]; ++k) {
          ++scans;
          if (now_false) {
            satisfy(nocc[k]);  // negative literal `not a` became true in I
          } else {
            unsatisfy(nocc[k]);
          }
        }
      });
  last_true_ = I.true_atoms();
  last_false_ = I.false_atoms();
  ctx_.stats().delta_atoms += flipped;
  ctx_.stats().rules_rescanned += scans;
}

std::size_t WellFoundedViaWpOnEvaluators(TpEvaluator& tp, GusEvaluator& gus,
                                         std::size_t n, WpBuffers& b) {
  PartialModel& I = b.interp;
  I.true_atoms().Resize(n);  // I_0 = ∅: every atom undefined
  I.false_atoms().Resize(n);
  std::size_t rounds = 0;
  while (true) {
    ++rounds;
    tp.Eval(I, &b.new_true);
    // Borrowed view of the supported set X = H − U_P(I): the new false
    // set is ¬X, consumed here by complement-compare / complement-assign
    // instead of materializing U_P into a fourth buffer each round.
    const Bitset& x = gus.EvalSupported(I);
    if (b.new_true == I.true_atoms() && x.IsComplementOf(I.false_atoms())) {
      break;
    }
    std::swap(I.true_atoms(), b.new_true);
    I.false_atoms().AssignComplementOf(x);
  }
  return rounds;
}

WpResult WellFoundedViaWpWithContext(EvalContext& ctx,
                                     const GroundProgram& gp) {
  // The solver provides the shared occurrence indexes (built into pooled
  // storage). One evaluator per half of the W_P transformation; both see
  // the same monotone I_0 ⊆ I_1 ⊆ ... stream, so every atom flips at most
  // once per polarity across the whole run.
  HornSolver solver(gp.View(), &ctx);
  TpEvaluator tp(solver, ctx);
  GusEvaluator gus(solver, ctx);
  const std::size_t n = solver.view().num_atoms;
  const EvalStats start = ctx.stats();
  WpBuffers b{PartialModel(ctx.AcquireBitset(n), ctx.AcquireBitset(n)),
              ctx.AcquireBitset(n)};
  WpResult result;
  result.iterations = WellFoundedViaWpOnEvaluators(tp, gus, n, b);
  ctx.ReleaseBitset(std::move(b.new_true));
  ctx.NoteEscapedBytes(b.interp.true_atoms().CapacityBytes() +
                       b.interp.false_atoms().CapacityBytes());
  result.model = std::move(b.interp);
  result.eval = ctx.stats().Since(start);
  return result;
}

WpResult WellFoundedViaWp(const GroundProgram& gp) {
  EvalContext ctx;
  return WellFoundedViaWpWithContext(ctx, gp);
}

}  // namespace afp
