#ifndef AFP_GROUND_OWNED_RULES_H_
#define AFP_GROUND_OWNED_RULES_H_

#include <vector>

#include "ground/ground_program.h"

namespace afp {

/// An owned, rewritable rule set over an existing atom universe. Used
/// wherever a transformed program (a component's local subprogram,
/// conditioning on assumptions) must be solved without mutating the
/// source GroundProgram.
struct OwnedRules {
  std::vector<GroundRule> rules;
  std::vector<AtomId> pool;
  std::size_t num_atoms = 0;

  RuleView View() const { return RuleView{num_atoms, rules, pool}; }

  /// Appends a rule, copying the body atoms into the local pool.
  void Add(AtomId head, std::span<const AtomId> pos,
           std::span<const AtomId> neg) {
    GroundRule r;
    r.head = head;
    r.pos_offset = static_cast<std::uint32_t>(pool.size());
    pool.insert(pool.end(), pos.begin(), pos.end());
    r.pos_len = static_cast<std::uint32_t>(pos.size());
    r.neg_offset = static_cast<std::uint32_t>(pool.size());
    pool.insert(pool.end(), neg.begin(), neg.end());
    r.neg_len = static_cast<std::uint32_t>(neg.size());
    rules.push_back(r);
  }
};

}  // namespace afp

#endif  // AFP_GROUND_OWNED_RULES_H_
