#include "core/rule_kernel.h"

#include <algorithm>
#include <chrono>
#include <utility>

namespace afp {

KernelCache::KernelCache(
    const GroundProgram& ground, const AtomDependencyGraph& graph,
    const RuleBuckets& comp_rules, std::uint32_t hot_threshold,
    std::uint64_t initial_epoch)
    : ground_(ground),
      graph_(graph),
      comp_rules_(comp_rules),
      hot_threshold_(hot_threshold),
      expected_epoch_(initial_epoch),
      buckets_(graph.num_components()),
      heat_(graph.num_components(), 0),
      local_id_(graph.num_atoms(), 0) {}

void KernelCache::NoteInterpretedSolve(std::uint32_t c,
                                       std::uint32_t iterations) {
  // iterations + 1 so even zero-round solves register; the crossing test
  // fires exactly once per heat-up.
  const std::uint32_t prev = heat_[c];
  heat_[c] += iterations + 1;
  if (prev < hot_threshold_ && heat_[c] >= hot_threshold_) {
    pending_.push_back(c);
  }
}

std::size_t KernelCache::CompileAllEligible() {
  EnsureEligibility();
  invalidated_.clear();  // a full sweep subsumes the precise queue
  if (compiled_count_ == num_eligible_) return 0;  // steady state: O(1)
  std::size_t compiled = 0;
  for (std::uint32_t c = 0; c < buckets_.size(); ++c) {
    if (buckets_[c] == nullptr && eligible_[c]) {
      buckets_[c] = Compile(c);
      ++compiled_count_;
      ++compiled;
    }
  }
  return compiled;
}

std::size_t KernelCache::CompilePending() {
  invalidated_.clear();
  std::vector<std::uint32_t> drained;
  drained.swap(pending_);
  std::size_t compiled = 0;
  for (std::uint32_t c : drained) {
    // Re-check under current state: an invalidation may have reset the
    // heat since the crossing was queued, and ineligible components heat
    // up too (their crossings are recorded but never acted on).
    if (buckets_[c] == nullptr && Eligible(c) &&
        heat_[c] >= hot_threshold_) {
      buckets_[c] = Compile(c);
      ++compiled_count_;
      ++compiled;
    }
  }
  return compiled;
}

std::size_t KernelCache::CompileInvalidated() {
  std::size_t compiled = 0;
  for (std::uint32_t c : invalidated_) {
    if (buckets_[c] == nullptr && Eligible(c)) {
      buckets_[c] = Compile(c);
      ++compiled_count_;
      ++compiled;
    }
  }
  invalidated_.clear();
  return compiled;
}

void KernelCache::InvalidateComponent(std::uint32_t c) {
  if (buckets_[c] != nullptr) --compiled_count_;
  buckets_[c].reset();
  heat_[c] = 0;
  invalidated_.push_back(c);
}

void KernelCache::InvalidateAll() {
  for (std::unique_ptr<CompiledBucket>& b : buckets_) b.reset();
  compiled_count_ = 0;
  invalidated_.clear();
  // The rule set changed in an unexplained way; eligibility (a pure
  // function of it) must be re-derived too.
  eligibility_valid_ = false;
  std::fill(heat_.begin(), heat_.end(), 0);
  pending_.clear();
}

void KernelCache::GrowToComponents() {
  const std::size_t old_nc = buckets_.size();
  const std::size_t nc = graph_.num_components();
  if (nc > old_nc) {
    buckets_.resize(nc);
    heat_.resize(nc, 0);
    if (eligibility_valid_) {
      eligible_.resize(nc, 0);
      for (std::size_t c = old_nc; c < nc; ++c) {
        if (ComputeEligible(static_cast<std::uint32_t>(c))) {
          eligible_[c] = 1;
          ++num_eligible_;
        }
      }
    }
  }
  local_id_.resize(graph_.num_atoms(), 0);
}

void KernelCache::RecomputeEligibility(std::uint32_t c) {
  if (!eligibility_valid_) return;
  const std::uint8_t now = ComputeEligible(c) ? 1 : 0;
  if (eligible_[c] == now) return;
  eligible_[c] = now;
  if (now) {
    ++num_eligible_;
  } else {
    --num_eligible_;
  }
}

bool KernelCache::SyncEpoch(std::uint64_t epoch) {
  if (epoch == expected_epoch_) return false;
  InvalidateAll();
  expected_epoch_ = epoch;
  return true;
}

std::size_t KernelCache::kernel_bytes() const {
  std::size_t bytes = 0;
  for (const std::unique_ptr<CompiledBucket>& b : buckets_) {
    if (b != nullptr) {
      bytes += sizeof(CompiledBucket) +
               b->storage.capacity() * sizeof(std::uint32_t);
    }
  }
  return bytes;
}

bool KernelCache::Eligible(std::uint32_t c) const {
  EnsureEligibility();
  return eligible_[c] != 0;
}

bool KernelCache::ComputeEligible(std::uint32_t c) const {
  const std::span<const std::uint32_t> bucket = comp_rules_[c];
  if (bucket.empty()) return false;
  const std::span<const AtomId> members = graph_.members(c);
  if (members.size() > 1) return true;
  // A self-dependency-free singleton is decided by the fast path without
  // ever lowering a subprogram; compiling it would be dead weight.
  const AtomId self = members[0];
  for (std::uint32_t ri : bucket) {
    const GroundRule& r = ground_.rule(ri);
    for (AtomId q : ground_.pos(r)) {
      if (q == self) return true;
    }
    for (AtomId q : ground_.neg(r)) {
      if (q == self) return true;
    }
  }
  return false;
}

void KernelCache::EnsureEligibility() const {
  if (eligibility_valid_) return;
  eligible_.assign(buckets_.size(), 0);
  num_eligible_ = 0;
  for (std::uint32_t c = 0; c < buckets_.size(); ++c) {
    if (ComputeEligible(c)) {
      eligible_[c] = 1;
      ++num_eligible_;
    }
  }
  eligibility_valid_ = true;
}

std::unique_ptr<CompiledBucket> KernelCache::Compile(std::uint32_t c) {
  const auto start = std::chrono::steady_clock::now();
  const std::span<const std::uint32_t> bucket = comp_rules_[c];
  const std::span<const AtomId> members = graph_.members(c);
  const std::uint32_t n = static_cast<std::uint32_t>(bucket.size());
  const std::uint32_t m = static_cast<std::uint32_t>(members.size());

  for (std::uint32_t i = 0; i < m; ++i) local_id_[members[i]] = i;
  const std::vector<std::uint32_t>& component_of = graph_.component_of();
  auto internal = [&](AtomId q) { return component_of[q] == c; };

  // Sizing pass: split every body literal by locality.
  std::uint32_t int_pos_total = 0, int_neg_total = 0;
  std::uint32_t ext_pos_total = 0, ext_neg_total = 0;
  for (std::uint32_t ri : bucket) {
    const GroundRule& r = ground_.rule(ri);
    for (AtomId q : ground_.pos(r)) {
      internal(q) ? ++int_pos_total : ++ext_pos_total;
    }
    for (AtomId q : ground_.neg(r)) {
      internal(q) ? ++int_neg_total : ++ext_neg_total;
    }
  }

  auto b = std::make_unique<CompiledBucket>();
  b->num_rules = n;
  b->num_members = m;
  // Members, heads, four offset arrays, the four literal arrays, and the
  // occurrence CSR (zero-filled: its offsets are counted in place).
  b->storage.assign(std::size_t{m} + n + 4 * (std::size_t{n} + 1) +
                        std::size_t{int_pos_total} + int_neg_total +
                        ext_pos_total + ext_neg_total +
                        (std::size_t{m} + 2) + int_pos_total,
                    0);
  std::uint32_t* next = b->storage.data();
  auto carve = [&next](std::size_t len) {
    std::uint32_t* out = next;
    next += len;
    return out;
  };
  AtomId* own_members = carve(m);
  std::copy(members.begin(), members.end(), own_members);
  b->members = own_members;
  std::uint32_t* head = carve(n);
  std::uint32_t* ipo = carve(n + 1);
  std::uint32_t* ip = carve(int_pos_total);
  std::uint32_t* ino = carve(n + 1);
  std::uint32_t* in = carve(int_neg_total);
  std::uint32_t* epo = carve(n + 1);
  AtomId* ep = carve(ext_pos_total);
  std::uint32_t* eno = carve(n + 1);
  AtomId* en = carve(ext_neg_total);

  std::uint32_t ipn = 0, inn = 0, epn = 0, enn = 0;
  for (std::uint32_t r = 0; r < n; ++r) {
    const GroundRule& gr = ground_.rule(bucket[r]);
    head[r] = local_id_[gr.head];
    ipo[r] = ipn;
    ino[r] = inn;
    epo[r] = epn;
    eno[r] = enn;
    for (AtomId q : ground_.pos(gr)) {
      if (internal(q)) {
        ip[ipn++] = local_id_[q];
      } else {
        ep[epn++] = q;
      }
    }
    for (AtomId q : ground_.neg(gr)) {
      if (internal(q)) {
        in[inn++] = local_id_[q];
      } else {
        en[enn++] = q;
      }
    }
  }
  ipo[n] = ipn;
  ino[n] = inn;
  epo[n] = epn;
  eno[n] = enn;

  // Occurrence CSR of int_pos over the local universe (counting sort;
  // sentinel row m stays empty — its occurrences are bind-dynamic).
  std::uint32_t* occ_off = carve(m + 2);
  std::uint32_t* occ = carve(int_pos_total);
  for (std::uint32_t k = 0; k < int_pos_total; ++k) ++occ_off[ip[k] + 1];
  for (std::uint32_t a = 0; a < m + 1; ++a) occ_off[a + 1] += occ_off[a];
  {
    std::vector<std::uint32_t> cursor(occ_off, occ_off + m + 1);
    for (std::uint32_t r = 0; r < n; ++r) {
      for (std::uint32_t k = ipo[r]; k < ipo[r + 1]; ++k) {
        occ[cursor[ip[k]]++] = r;
      }
    }
  }

  b->head = head;
  b->int_pos_offsets = ipo;
  b->int_pos = ip;
  b->int_neg_offsets = ino;
  b->int_neg = in;
  b->ext_pos_offsets = epo;
  b->ext_pos = ep;
  b->ext_neg_offsets = eno;
  b->ext_neg = en;
  b->pos_occ_offsets = occ_off;
  b->pos_occ = occ;

  compile_ns_ += static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - start)
          .count());
  return b;
}

KernelEvaluator::KernelEvaluator(EvalContext& ctx, SccInnerEngine inner)
    : ctx_(ctx),
      inner_(inner),
      undef_(ctx.AcquireU32()),
      undef_rules_(ctx.AcquireU32()),
      remaining_(ctx.AcquireU32()),
      queue_(ctx.AcquireU32()) {}

KernelEvaluator::~KernelEvaluator() {
  ctx_.ReleaseU32(std::move(undef_));
  ctx_.ReleaseU32(std::move(undef_rules_));
  ctx_.ReleaseU32(std::move(remaining_));
  ctx_.ReleaseU32(std::move(queue_));
}

KernelOutcome KernelEvaluator::Solve(const CompiledBucket& b,
                                     GlobalModel& gm) {
  Bind(b, gm);
  KernelOutcome out;
  out.local_size = local_size_;
  PartialModel local;
  out.iterations = inner_ == SccInnerEngine::kWp ? RunWp(b, &local)
                                                 : RunAfp(b, &local);
  gm.Publish(std::span<const AtomId>(b.members, b.num_members), local);
  ++ctx_.stats().kernel_components;
  ctx_.stats().kernel_rounds += out.iterations;
  ctx_.ReleaseBitset(std::move(local.true_atoms()));
  ctx_.ReleaseBitset(std::move(local.false_atoms()));
  return out;
}

void KernelEvaluator::Bind(const CompiledBucket& b, const GlobalModel& gm) {
  undef_.resize(b.num_rules);
  undef_rules_.clear();
  sentinel_used_ = false;
  local_size_ = 0;
  for (std::uint32_t r = 0; r < b.num_rules; ++r) {
    std::uint32_t undef = 0;
    bool dead = false;
    for (std::uint32_t k = b.ext_pos_offsets[r];
         k < b.ext_pos_offsets[r + 1]; ++k) {
      const AtomId q = b.ext_pos[k];
      if (gm.IsTrue(q)) continue;  // erased: satisfied
      if (gm.IsFalse(q)) {
        dead = true;
        break;
      }
      ++undef;  // undefined external -> sentinel copy
    }
    if (!dead) {
      for (std::uint32_t k = b.ext_neg_offsets[r];
           k < b.ext_neg_offsets[r + 1]; ++k) {
        const AtomId q = b.ext_neg[k];
        if (gm.IsFalse(q)) continue;  // erased: not q holds
        if (gm.IsTrue(q)) {
          dead = true;
          break;
        }
        ++undef;  // undefined external caps body (positive sentinel)
      }
    }
    // The interpreted lowering materializes the sentinel as soon as any
    // undefined external is pushed — including into a body that later
    // turns out dead — so the flag must not be gated on liveness.
    if (undef > 0) sentinel_used_ = true;
    if (dead) {
      undef_[r] = kDead;
      continue;
    }
    undef_[r] = undef;
    if (undef > 0) undef_rules_.push_back(r);
    local_size_ += (b.int_pos_offsets[r + 1] - b.int_pos_offsets[r]) +
                   (b.int_neg_offsets[r + 1] - b.int_neg_offsets[r]) +
                   undef + 1;
  }
  // `u :- not u` adds one rule and one body literal.
  if (sentinel_used_) local_size_ += 2;
}

void KernelEvaluator::Propagate(const CompiledBucket& b, Bitset* out) {
  const std::uint32_t s = b.num_members;
  auto fire = [&](std::uint32_t r) {
    const std::uint32_t h = b.head[r];
    if (!out->Test(h)) {
      out->Set(h);
      queue_.push_back(h);
    }
  };
  while (!queue_.empty()) {
    const std::uint32_t a = queue_.back();
    queue_.pop_back();
    if (a == s) {
      // The sentinel's occurrence list is bind-dynamic: every alive rule
      // holding undef_[r] sentinel copies loses them all at once.
      for (std::uint32_t r : undef_rules_) {
        if (remaining_[r] == kDisabled) continue;
        if ((remaining_[r] -= undef_[r]) == 0) fire(r);
      }
      continue;
    }
    for (std::uint32_t k = b.pos_occ_offsets[a]; k < b.pos_occ_offsets[a + 1];
         ++k) {
      const std::uint32_t r = b.pos_occ[k];
      if (remaining_[r] == kDisabled) continue;
      if (--remaining_[r] == 0) fire(r);
    }
  }
}

void KernelEvaluator::EvalSp(const CompiledBucket& b,
                             const Bitset& assumed_false, Bitset* out) {
  ++ctx_.stats().sp_calls;
  const std::uint32_t s = b.num_members;
  out->Resize(s + 1);
  remaining_.resize(b.num_rules);
  queue_.clear();
  for (std::uint32_t r = 0; r < b.num_rules; ++r) {
    if (undef_[r] == kDead) {
      remaining_[r] = kDisabled;
      continue;
    }
    // Enabled iff the (internal) negative body is contained in the
    // assumed-false set; sentinel copies all live in the positive body.
    bool enabled = true;
    for (std::uint32_t k = b.int_neg_offsets[r]; k < b.int_neg_offsets[r + 1];
         ++k) {
      if (!assumed_false.Test(b.int_neg[k])) {
        enabled = false;
        break;
      }
    }
    if (!enabled) {
      remaining_[r] = kDisabled;
      continue;
    }
    const std::uint32_t rem =
        (b.int_pos_offsets[r + 1] - b.int_pos_offsets[r]) + undef_[r];
    remaining_[r] = rem;
    if (rem == 0) {
      const std::uint32_t h = b.head[r];
      if (!out->Test(h)) {
        out->Set(h);
        queue_.push_back(h);
      }
    }
  }
  // `u :- not u`: enabled iff the sentinel is assumed false; empty
  // positive body, so it seeds immediately.
  if (sentinel_used_ && assumed_false.Test(s) && !out->Test(s)) {
    out->Set(s);
    queue_.push_back(s);
  }
  Propagate(b, out);
}

void KernelEvaluator::EvalTp(const CompiledBucket& b, const PartialModel& I,
                             Bitset* out) {
  const std::uint32_t s = b.num_members;
  out->Resize(s + 1);
  for (std::uint32_t r = 0; r < b.num_rules; ++r) {
    if (undef_[r] == kDead) continue;
    if (out->Test(b.head[r])) continue;
    // Sentinel copies are positive body literals; the sentinel is never
    // true, so a rule capped by one can only fire in the (vacuous) case
    // that it is.
    if (undef_[r] > 0 && !I.true_atoms().Test(s)) continue;
    bool body_true = true;
    for (std::uint32_t k = b.int_pos_offsets[r]; k < b.int_pos_offsets[r + 1];
         ++k) {
      if (!I.true_atoms().Test(b.int_pos[k])) {
        body_true = false;
        break;
      }
    }
    if (body_true) {
      for (std::uint32_t k = b.int_neg_offsets[r];
           k < b.int_neg_offsets[r + 1]; ++k) {
        if (!I.false_atoms().Test(b.int_neg[k])) {
          body_true = false;
          break;
        }
      }
    }
    if (body_true) out->Set(b.head[r]);
  }
  // `u :- not u` fires iff the sentinel is false in I (never happens —
  // kept for literal faithfulness to the interpreted rule set).
  if (sentinel_used_ && I.false_atoms().Test(s)) out->Set(s);
}

void KernelEvaluator::EvalX(const CompiledBucket& b, const PartialModel& I,
                            Bitset* out) {
  ++ctx_.stats().gus_calls;
  const std::uint32_t s = b.num_members;
  out->Resize(s + 1);
  remaining_.resize(b.num_rules);
  queue_.clear();
  for (std::uint32_t r = 0; r < b.num_rules; ++r) {
    if (undef_[r] == kDead) {
      remaining_[r] = kDisabled;
      continue;
    }
    // Usable iff no positive literal is false in I (internal or sentinel
    // copy) and no negative literal's atom is true in I.
    bool usable = true;
    for (std::uint32_t k = b.int_pos_offsets[r]; k < b.int_pos_offsets[r + 1];
         ++k) {
      if (I.false_atoms().Test(b.int_pos[k])) {
        usable = false;
        break;
      }
    }
    if (usable && undef_[r] > 0 && I.false_atoms().Test(s)) usable = false;
    if (usable) {
      for (std::uint32_t k = b.int_neg_offsets[r];
           k < b.int_neg_offsets[r + 1]; ++k) {
        if (I.true_atoms().Test(b.int_neg[k])) {
          usable = false;
          break;
        }
      }
    }
    if (!usable) {
      remaining_[r] = kDisabled;
      continue;
    }
    const std::uint32_t rem =
        (b.int_pos_offsets[r + 1] - b.int_pos_offsets[r]) + undef_[r];
    remaining_[r] = rem;
    if (rem == 0) {
      const std::uint32_t h = b.head[r];
      if (!out->Test(h)) {
        out->Set(h);
        queue_.push_back(h);
      }
    }
  }
  // `u :- not u` is usable iff the sentinel is not true in I; its empty
  // positive body puts the sentinel straight into X.
  if (sentinel_used_ && !I.true_atoms().Test(s) && !out->Test(s)) {
    out->Set(s);
    queue_.push_back(s);
  }
  Propagate(b, out);
}

std::uint32_t KernelEvaluator::RunAfp(const CompiledBucket& b,
                                      PartialModel* local) {
  // AlternatingFixpointOnEvaluators, specialized to the component case:
  // empty seed (the seed-union steps vanish), the same double-half-step
  // body and the same two termination tests, so iteration counts match
  // the interpreted trajectory exactly.
  const std::size_t n = b.num_members + 1;
  Bitset under_neg = ctx_.AcquireBitset(n);
  Bitset under_pos = ctx_.AcquireBitset(n);
  Bitset over_neg = ctx_.AcquireBitset(n);
  Bitset over_pos = ctx_.AcquireBitset(n);
  Bitset next_under_neg = ctx_.AcquireBitset(n);
  std::uint32_t iterations = 0;
  while (true) {
    ++iterations;
    EvalSp(b, under_neg, &under_pos);
    over_neg = under_pos;
    over_neg.Complement();
    EvalSp(b, over_neg, &over_pos);
    next_under_neg = over_pos;
    next_under_neg.Complement();
    if (next_under_neg == over_neg) {
      std::swap(under_neg, next_under_neg);
      std::swap(under_pos, over_pos);
      break;
    }
    if (next_under_neg == under_neg) break;
    std::swap(under_neg, next_under_neg);
  }
  *local = PartialModel(std::move(under_pos), std::move(under_neg));
  ctx_.ReleaseBitset(std::move(over_neg));
  ctx_.ReleaseBitset(std::move(over_pos));
  ctx_.ReleaseBitset(std::move(next_under_neg));
  return iterations;
}

std::uint32_t KernelEvaluator::RunWp(const CompiledBucket& b,
                                     PartialModel* local) {
  // WellFoundedViaWpOnEvaluators with the borrowed supported-set view
  // replaced by a pooled buffer; same round body, same termination test.
  const std::size_t n = b.num_members + 1;
  PartialModel I(ctx_.AcquireBitset(n), ctx_.AcquireBitset(n));
  Bitset new_true = ctx_.AcquireBitset(n);
  Bitset x = ctx_.AcquireBitset(n);
  std::uint32_t iterations = 0;
  while (true) {
    ++iterations;
    EvalTp(b, I, &new_true);
    EvalX(b, I, &x);
    if (new_true == I.true_atoms() && x.IsComplementOf(I.false_atoms())) {
      break;
    }
    std::swap(I.true_atoms(), new_true);
    I.false_atoms().AssignComplementOf(x);
  }
  ctx_.ReleaseBitset(std::move(new_true));
  ctx_.ReleaseBitset(std::move(x));
  *local = std::move(I);
  return iterations;
}

}  // namespace afp
