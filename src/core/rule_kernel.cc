#include "core/rule_kernel.h"

#include <algorithm>
#include <utility>

namespace afp {

CompiledBucket::CompiledBucket(const RuleView& view,
                               const AtomDependencyGraph& graph,
                               std::uint32_t c,
                               std::span<const std::uint32_t> rule_ids,
                               std::uint32_t* local_id) {
  const std::span<const AtomId> members = graph.members(c);
  members_.assign(members.begin(), members.end());
  for (std::uint32_t i = 0; i < members.size(); ++i) local_id[members[i]] = i;
  const std::vector<std::uint32_t>& comp_of = graph.component_of();
  auto internal = [&](AtomId q) { return comp_of[q] == c; };

  // Size every array exactly before filling it.
  std::size_t num_internal = 0, num_external = 0;
  for (std::uint32_t ri : rule_ids) {
    const GroundRule& r = view.rules[ri];
    for (AtomId q : view.pos(r)) internal(q) ? ++num_internal : ++num_external;
    for (AtomId q : view.neg(r)) internal(q) ? ++num_internal : ++num_external;
  }
  local_.num_atoms = members_.size() + 1;
  local_.rules.reserve(rule_ids.size());
  local_.pool.reserve(num_internal);
  ext_.reserve(num_external);
  ext_offsets_.reserve(2 * rule_ids.size() + 1);
  ext_offsets_.push_back(0);
  for (std::uint32_t ri : rule_ids) {
    const GroundRule& r = view.rules[ri];
    GroundRule lr;
    lr.head = local_id[r.head];
    lr.pos_offset = static_cast<std::uint32_t>(local_.pool.size());
    for (AtomId q : view.pos(r)) {
      if (internal(q)) {
        local_.pool.push_back(local_id[q]);
      } else {
        ext_.push_back(q);
      }
    }
    lr.pos_len = static_cast<std::uint32_t>(local_.pool.size()) - lr.pos_offset;
    ext_offsets_.push_back(static_cast<std::uint32_t>(ext_.size()));
    lr.neg_offset = static_cast<std::uint32_t>(local_.pool.size());
    for (AtomId q : view.neg(r)) {
      if (internal(q)) {
        local_.pool.push_back(local_id[q]);
      } else {
        ext_.push_back(q);
      }
    }
    lr.neg_len = static_cast<std::uint32_t>(local_.pool.size()) - lr.neg_offset;
    ext_offsets_.push_back(static_cast<std::uint32_t>(ext_.size()));
    local_.rules.push_back(lr);
  }
  program_.emplace(local_.View());
}

RuleBinding CompiledBucket::Bind(const GlobalModel& gm,
                                 AssumptionPair assumptions,
                                 std::vector<std::uint8_t>* state,
                                 std::vector<std::uint32_t>* live,
                                 std::vector<AtomId>* facts,
                                 std::size_t* local_size) const {
  const std::size_t n = local_.rules.size();
  state->resize(n);
  live->clear();
  facts->clear();
  RuleBinding b;
  std::size_t size = 0;
  const bool assuming = assumptions.true_atoms != nullptr;
  for (std::uint32_t r = 0; r < n; ++r) {
    const GroundRule& lr = local_.rules[r];
    if (assuming && assumptions.false_atoms->Test(members_[lr.head])) {
      (*state)[r] = RuleBinding::kDead;
      continue;
    }
    std::uint32_t undef = 0;
    bool dead = false;
    for (std::uint32_t k = ext_offsets_[2 * r]; k < ext_offsets_[2 * r + 1];
         ++k) {
      const AtomId q = ext_[k];
      if (gm.IsTrue(q)) continue;  // erased: satisfied
      if (gm.IsFalse(q)) {
        dead = true;
        break;
      }
      ++undef;  // undefined external: a sentinel copy
    }
    if (!dead) {
      for (std::uint32_t k = ext_offsets_[2 * r + 1];
           k < ext_offsets_[2 * r + 2]; ++k) {
        const AtomId q = ext_[k];
        if (gm.IsFalse(q)) continue;  // erased: not q holds
        if (gm.IsTrue(q)) {
          dead = true;
          break;
        }
        ++undef;  // undefined external: a sentinel copy
      }
    }
    if (undef > 0) b.sentinel = true;
    if (dead) {
      (*state)[r] = RuleBinding::kDead;
      continue;
    }
    size += 1 + lr.pos_len + lr.neg_len + undef;
    if (assuming && assumptions.true_atoms->Test(members_[lr.head])) {
      (*state)[r] = RuleBinding::kDead;  // the member's fact decides it
    } else {
      (*state)[r] = undef > 0 ? RuleBinding::kCapped : RuleBinding::kLive;
      live->push_back(r);
    }
  }
  if (assuming) {
    for (std::uint32_t i = 0; i < members_.size(); ++i) {
      if (assumptions.true_atoms->Test(members_[i])) facts->push_back(i);
    }
    size += facts->size();
  }
  if (b.sentinel) size += 2;  // s :- not s
  b.state = *state;
  b.live = *live;
  b.facts = *facts;
  *local_size = size;
  return b;
}

std::size_t CompiledBucket::bytes() const {
  return sizeof(CompiledBucket) + members_.capacity() * sizeof(AtomId) +
         local_.rules.capacity() * sizeof(GroundRule) +
         local_.pool.capacity() * sizeof(AtomId) +
         ext_offsets_.capacity() * sizeof(std::uint32_t) +
         ext_.capacity() * sizeof(AtomId) + program_->IndexBytes();
}

const CompiledBucket& BucketCache::Get(std::uint32_t c, const RuleView& view,
                                       const AtomDependencyGraph& graph,
                                       const RuleBuckets& comp_rules) {
  if (c >= buckets_.size()) buckets_.resize(graph.num_components());
  std::unique_ptr<CompiledBucket>& b = buckets_[c];
  if (b == nullptr) {
    if (local_id_.size() < graph.num_atoms()) {
      local_id_.resize(graph.num_atoms());
    }
    b = std::make_unique<CompiledBucket>(view, graph, c, comp_rules[c],
                                         local_id_.data());
    ++num_buckets_;
    bytes_ += b->bytes();
  }
  return *b;
}

bool BucketCache::Invalidate(std::uint32_t c) {
  if (c >= buckets_.size() || buckets_[c] == nullptr) return false;
  bytes_ -= buckets_[c]->bytes();
  buckets_[c].reset();
  --num_buckets_;
  return true;
}

void BucketCache::Clear() {
  buckets_.clear();
  num_buckets_ = 0;
  bytes_ = 0;
}

bool BucketCache::SyncEpoch(std::uint64_t epoch) {
  if (epoch == expected_epoch_) return false;
  Clear();
  expected_epoch_ = epoch;
  return true;
}

}  // namespace afp
