#include "reference/reference.h"

#include <utility>

namespace afp::reference {

namespace {

bool AllIn(std::span<const AtomId> atoms, const Bitset& set) {
  for (AtomId a : atoms) {
    if (!set.Test(a)) return false;
  }
  return true;
}

bool AnyIn(std::span<const AtomId> atoms, const Bitset& set) {
  for (AtomId a : atoms) {
    if (set.Test(a)) return true;
  }
  return false;
}

}  // namespace

Bitset NaiveEventualConsequences(const RuleView& view,
                                 const Bitset& assumed_false) {
  Bitset derived(view.num_atoms);
  bool changed = true;
  while (changed) {
    changed = false;
    for (const GroundRule& r : view.rules) {
      if (derived.Test(r.head)) continue;
      if (AllIn(view.pos(r), derived) && AllIn(view.neg(r), assumed_false)) {
        derived.Set(r.head);
        changed = true;
      }
    }
  }
  return derived;
}

Bitset ImmediateConsequences(const RuleView& view, const PartialModel& I) {
  Bitset out(view.num_atoms);
  for (const GroundRule& r : view.rules) {
    if (AllIn(view.pos(r), I.true_atoms()) &&
        AllIn(view.neg(r), I.false_atoms())) {
      out.Set(r.head);
    }
  }
  return out;
}

Bitset ExternallySupportedSet(const RuleView& view, const PartialModel& I) {
  Bitset x(view.num_atoms);
  bool changed = true;
  while (changed) {
    changed = false;
    for (const GroundRule& r : view.rules) {
      if (x.Test(r.head)) continue;
      if (!AnyIn(view.pos(r), I.false_atoms()) &&
          !AnyIn(view.neg(r), I.true_atoms()) && AllIn(view.pos(r), x)) {
        x.Set(r.head);
        changed = true;
      }
    }
  }
  return x;
}

Bitset GreatestUnfoundedSet(const RuleView& view, const PartialModel& I) {
  return Bitset::ComplementOf(ExternallySupportedSet(view, I));
}

bool IsUnfoundedSet(const RuleView& view, const PartialModel& I,
                    const Bitset& candidate) {
  for (const GroundRule& r : view.rules) {
    if (!candidate.Test(r.head)) continue;
    const bool witness = AnyIn(view.pos(r), I.false_atoms()) ||
                         AnyIn(view.pos(r), candidate) ||
                         AnyIn(view.neg(r), I.true_atoms());
    if (!witness) return false;
  }
  return true;
}

AfpResult ScratchAlternatingFixpoint(const GroundProgram& gp,
                                     const AfpOptions& options) {
  const RuleView view = gp.View();
  AfpResult result;
  auto sp = [&](const Bitset& neg) {
    ++result.eval.sp_calls;
    if (!neg.None()) result.eval.rules_rescanned += view.rules.size();
    Bitset pos = NaiveEventualConsequences(view, neg);
    if (options.record_trace) result.trace.push_back({neg, pos});
    return pos;
  };
  Bitset under_neg(gp.num_atoms());  // Ĩ_0 = ∅
  Bitset under_pos;
  while (true) {
    ++result.outer_iterations;
    under_pos = sp(under_neg);
    const Bitset over_neg = Bitset::ComplementOf(under_pos);
    const Bitset over_pos = sp(over_neg);
    Bitset next_under_neg = Bitset::ComplementOf(over_pos);
    if (next_under_neg == over_neg) {  // total: Ĩ is a fixpoint of S̃_P
      if (options.record_trace) result.trace.push_back({over_neg, over_pos});
      under_neg = std::move(next_under_neg);
      under_pos = over_pos;
      break;
    }
    if (next_under_neg == under_neg) {  // the even subsequence repeated
      if (options.record_trace) result.trace.push_back({under_neg, under_pos});
      break;
    }
    under_neg = std::move(next_under_neg);
  }
  result.model = PartialModel(std::move(under_pos), std::move(under_neg));
  result.sp_calls = result.eval.sp_calls;
  return result;
}

WpResult ScratchWellFoundedViaWp(const GroundProgram& gp) {
  const RuleView view = gp.View();
  WpResult result;
  PartialModel I = PartialModel::AllUndefined(gp.num_atoms());
  while (true) {
    ++result.iterations;
    Bitset new_true = ImmediateConsequences(view, I);
    result.eval.rules_rescanned += view.rules.size();
    Bitset new_false = GreatestUnfoundedSet(view, I);
    ++result.eval.gus_calls;
    result.eval.gus_rules_rescanned += view.rules.size();
    if (new_true == I.true_atoms() && new_false == I.false_atoms()) break;
    I = PartialModel(std::move(new_true), std::move(new_false));
  }
  result.model = std::move(I);
  return result;
}

}  // namespace afp::reference
