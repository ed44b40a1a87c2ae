#include "ground/ground_program.h"

#include <cassert>

namespace afp {

void GroundProgram::AddRule(AtomId head, std::span<const AtomId> pos,
                            std::span<const AtomId> neg) {
  GroundRule r;
  r.head = head;
  r.pos_offset = static_cast<std::uint32_t>(body_pool_.size());
  r.pos_len = static_cast<std::uint32_t>(pos.size());
  body_pool_.insert(body_pool_.end(), pos.begin(), pos.end());
  r.neg_offset = static_cast<std::uint32_t>(body_pool_.size());
  r.neg_len = static_cast<std::uint32_t>(neg.size());
  body_pool_.insert(body_pool_.end(), neg.begin(), neg.end());
  rules_.push_back(r);
  // A lazily built fact index must track every fact rule appended after it
  // exists, whichever entry point appends it — AddRule with an empty body
  // IS AddFact's mutation, and leaving the index stale here made HasFact
  // lie after an AddRule. emplace keeps the first rule id when a duplicate
  // fact is force-appended, matching EnsureFactIndex's scan.
  if (fact_index_built_ && pos.empty() && neg.empty()) {
    fact_index_.emplace(r.head,
                        static_cast<std::uint32_t>(rules_.size() - 1));
  }
  ++mutation_epoch_;
}

void GroundProgram::EnsureFactIndex() const {
  if (fact_index_built_) return;
  for (std::uint32_t ri = 0; ri < rules_.size(); ++ri) {
    const GroundRule& r = rules_[ri];
    if (r.pos_len == 0 && r.neg_len == 0) fact_index_.emplace(r.head, ri);
  }
  fact_index_built_ = true;
}

bool GroundProgram::HasFact(AtomId atom) const {
  EnsureFactIndex();
  return fact_index_.count(atom) > 0;
}

bool GroundProgram::AddFact(AtomId atom) {
  EnsureFactIndex();
  if (fact_index_.count(atom) > 0) return false;
  AddRule(atom, {}, {});  // maintains the built index
  return true;
}

GroundProgram::FactRemoval GroundProgram::RemoveFact(AtomId atom) {
  EnsureFactIndex();
  auto it = fact_index_.find(atom);
  if (it == fact_index_.end()) return FactRemoval{};
  FactRemoval out;
  out.removed = true;
  out.erased_rule = it->second;
  out.moved_rule = static_cast<std::uint32_t>(rules_.size() - 1);
  fact_index_.erase(it);
  if (out.erased_rule != out.moved_rule) {
    const GroundRule moved = rules_.back();
    rules_[out.erased_rule] = moved;
    if (moved.pos_len == 0 && moved.neg_len == 0) {
      fact_index_[moved.head] = out.erased_rule;
    }
  }
  rules_.pop_back();
  ++mutation_epoch_;
  return out;
}

GroundProgram::FactRemoval GroundProgram::RemoveRuleAt(std::uint32_t rule) {
  assert(rule < rules_.size());
  FactRemoval out;
  out.removed = true;
  out.erased_rule = rule;
  out.moved_rule = static_cast<std::uint32_t>(rules_.size() - 1);
  const GroundRule& erased = rules_[rule];
  if (fact_index_built_ && erased.pos_len == 0 && erased.neg_len == 0) {
    auto it = fact_index_.find(erased.head);
    if (it != fact_index_.end() && it->second == rule) fact_index_.erase(it);
  }
  if (out.erased_rule != out.moved_rule) {
    const GroundRule moved = rules_.back();
    rules_[out.erased_rule] = moved;
    if (fact_index_built_ && moved.pos_len == 0 && moved.neg_len == 0) {
      auto it = fact_index_.find(moved.head);
      if (it != fact_index_.end() && it->second == out.moved_rule) {
        it->second = out.erased_rule;
      }
    }
  }
  rules_.pop_back();
  ++mutation_epoch_;
  return out;
}

std::string GroundProgram::RuleToString(std::size_t i) const {
  const GroundRule& r = rules_[i];
  std::string out = AtomName(r.head);
  if (r.pos_len + r.neg_len > 0) {
    out += " :- ";
    bool first = true;
    for (AtomId a : pos(r)) {
      if (!first) out += ", ";
      first = false;
      out += AtomName(a);
    }
    for (AtomId a : neg(r)) {
      if (!first) out += ", ";
      first = false;
      out += "not " + AtomName(a);
    }
  }
  out += '.';
  return out;
}

std::string GroundProgram::ToString() const {
  std::string out;
  for (std::size_t i = 0; i < rules_.size(); ++i) {
    out += RuleToString(i);
    out += '\n';
  }
  return out;
}

}  // namespace afp
