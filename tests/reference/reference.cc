#include "reference/reference.h"

#include <algorithm>
#include <span>
#include <utility>
#include <vector>

#include "analysis/atom_graph.h"
#include "ground/owned_rules.h"

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

AfpResult ScratchAlternatingFixpoint(const RuleView& view,
                                     const AfpOptions& options) {
  AfpResult result;
  auto sp = [&](const Bitset& neg) {
    ++result.eval.sp_calls;
    if (!neg.None()) result.eval.rules_rescanned += view.rules.size();
    Bitset pos = NaiveEventualConsequences(view, neg);
    if (options.record_trace) result.trace.push_back({neg, pos});
    return pos;
  };
  Bitset under_neg(view.num_atoms);  // Ĩ_0 = ∅
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

WpResult ScratchWellFoundedViaWp(const RuleView& view) {
  WpResult result;
  PartialModel I = PartialModel::AllUndefined(view.num_atoms);
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

SccReference ScratchWellFoundedScc(const GroundProgram& gp,
                                   SccInnerEngine inner) {
  const RuleView view = gp.View();
  const AtomDependencyGraph graph(view);
  const std::vector<std::uint32_t>& comp = graph.component_of();
  std::vector<std::vector<std::uint32_t>> rules_of(graph.num_components());
  for (std::uint32_t ri = 0; ri < view.rules.size(); ++ri) {
    rules_of[comp[view.rules[ri].head]].push_back(ri);
  }
  SccReference out;
  PartialModel& m = out.model;
  m = PartialModel::AllUndefined(view.num_atoms);
  auto value = [&](AtomId a) { return m.Value(a); };
  auto set = [&](AtomId a, TruthValue v) {
    if (v == TruthValue::kTrue) m.true_atoms().Set(a);
    if (v == TruthValue::kFalse) m.false_atoms().Set(a);
  };

  for (std::uint32_t c = 0; c < graph.num_components(); ++c) {
    const std::span<const AtomId> members = graph.members(c);
    bool self_dependent = members.size() > 1;
    for (std::uint32_t ri : rules_of[c]) {
      const GroundRule& r = view.rules[ri];
      for (AtomId q : view.pos(r)) self_dependent |= comp[q] == c;
      for (AtomId q : view.neg(r)) self_dependent |= comp[q] == c;
    }
    if (!self_dependent) {
      // Head value: the best body value, a body's value its worst literal.
      TruthValue head = TruthValue::kFalse;
      for (std::uint32_t ri : rules_of[c]) {
        const GroundRule& r = view.rules[ri];
        TruthValue body = TruthValue::kTrue;
        for (AtomId q : view.pos(r)) body = std::min(body, value(q));
        for (AtomId q : view.neg(r)) {
          const TruthValue v = value(q);
          body = std::min(body, v == TruthValue::kTrue    ? TruthValue::kFalse
                                : v == TruthValue::kFalse ? TruthValue::kTrue
                                                          : v);
        }
        head = std::max(head, body);
      }
      set(members[0], head);
      out.component_iterations.push_back(1);
      continue;
    }

    // Lower the component into a fresh local program.
    const AtomId u = static_cast<AtomId>(members.size());
    auto local = [&](AtomId a) {
      return static_cast<AtomId>(
          std::find(members.begin(), members.end(), a) - members.begin());
    };
    OwnedRules lowered;
    lowered.num_atoms = members.size() + 1;
    bool sentinel = false;
    for (std::uint32_t ri : rules_of[c]) {
      const GroundRule& r = view.rules[ri];
      std::vector<AtomId> pos, neg;
      bool dead = false;
      for (AtomId q : view.pos(r)) {
        if (comp[q] == c) {
          pos.push_back(local(q));
        } else if (value(q) == TruthValue::kFalse) {
          dead = true;
          break;
        } else if (value(q) == TruthValue::kUndefined) {
          pos.push_back(u);
          sentinel = true;
        }
      }
      for (AtomId q : view.neg(r)) {
        if (dead) break;
        if (comp[q] == c) {
          neg.push_back(local(q));
        } else if (value(q) == TruthValue::kTrue) {
          dead = true;
        } else if (value(q) == TruthValue::kUndefined) {
          pos.push_back(u);
          sentinel = true;
        }
      }
      if (!dead) lowered.Add(local(r.head), pos, neg);
    }
    if (sentinel) lowered.Add(u, {}, std::span<const AtomId>(&u, 1));

    PartialModel local_model;
    std::uint32_t rounds = 0;
    if (inner == SccInnerEngine::kWp) {
      WpResult r = ScratchWellFoundedViaWp(lowered.View());
      local_model = std::move(r.model);
      rounds = static_cast<std::uint32_t>(r.iterations);
    } else {
      AfpResult r = ScratchAlternatingFixpoint(lowered.View());
      local_model = std::move(r.model);
      rounds = static_cast<std::uint32_t>(r.outer_iterations);
    }
    for (std::uint32_t i = 0; i < members.size(); ++i) {
      set(members[i], local_model.Value(i));
    }
    out.component_iterations.push_back(rounds);
  }
  return out;
}

}  // namespace afp::reference
