#include "ground/grounder.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <new>
#include <numeric>
#include <type_traits>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include "util/span_hash.h"

namespace afp {

namespace {

/// Structural equivalence of two terms up to a bijective variable renaming
/// (`ab`/`ba` accumulate the two directions of the bijection). Constants and
/// compounds are hash-consed, so ground subterms compare by id.
bool TermEquiv(const TermTable& tt, TermId a, TermId b,
               std::unordered_map<SymbolId, SymbolId>& ab,
               std::unordered_map<SymbolId, SymbolId>& ba) {
  if (tt.kind(a) != tt.kind(b)) return false;
  switch (tt.kind(a)) {
    case TermKind::kVariable: {
      SymbolId va = tt.symbol(a), vb = tt.symbol(b);
      auto [ita, insa] = ab.emplace(va, vb);
      auto [itb, insb] = ba.emplace(vb, va);
      return ita->second == vb && itb->second == va && insa == insb;
    }
    case TermKind::kConstant:
      return a == b;
    case TermKind::kCompound: {
      if (tt.symbol(a) != tt.symbol(b)) return false;
      auto aa = tt.args(a), bb = tt.args(b);
      if (aa.size() != bb.size()) return false;
      for (std::size_t i = 0; i < aa.size(); ++i) {
        if (!TermEquiv(tt, aa[i], bb[i], ab, ba)) return false;
      }
      return true;
    }
  }
  return false;
}

bool AtomEquiv(const TermTable& tt, const Atom& a, const Atom& b,
               std::unordered_map<SymbolId, SymbolId>& ab,
               std::unordered_map<SymbolId, SymbolId>& ba) {
  if (a.predicate != b.predicate || a.args.size() != b.args.size()) {
    return false;
  }
  for (std::size_t i = 0; i < a.args.size(); ++i) {
    if (!TermEquiv(tt, a.args[i], b.args[i], ab, ba)) return false;
  }
  return true;
}

/// Rule equivalence up to variable renaming; body literal order is
/// significant (the removal API matches the rule as written).
bool RuleEquiv(const TermTable& tt, const Rule& a, const Rule& b) {
  if (a.body.size() != b.body.size()) return false;
  std::unordered_map<SymbolId, SymbolId> ab, ba;
  if (!AtomEquiv(tt, a.head, b.head, ab, ba)) return false;
  for (std::size_t i = 0; i < a.body.size(); ++i) {
    if (a.body[i].positive != b.body[i].positive) return false;
    if (!AtomEquiv(tt, a.body[i].atom, b.body[i].atom, ab, ba)) return false;
  }
  return true;
}

/// Hash of the ground rule `head :- pos, not neg` that ignores body order:
/// each body is hashed as a multiset (a sum of avalanched ids). Both rule
/// dedupes — of emitted instances, and of the rules simplification made
/// equal at assembly — treat rules equal up to body reordering, pairing
/// this hash with SameAtomMultiset. MarkEmitOnce hashes a plan's
/// predicates the same way.
std::uint64_t HashGroundRule(AtomId head, std::span<const AtomId> pos,
                             std::span<const AtomId> neg) {
  auto bag = [](std::span<const AtomId> body) {
    std::uint64_t sum = 0;
    for (AtomId a : body) sum += HashAvalanche(a + kSpanHashSeed);
    return sum;
  };
  std::uint64_t h = HashMixWord(kSpanHashSeed, head);
  h = HashMixWord(HashMixWord(h, bag(pos)), pos.size());
  h = HashMixWord(HashMixWord(h, bag(neg)), neg.size());
  return HashAvalanche(h);
}

/// True iff `a` and `b` hold the same atoms with the same multiplicities.
/// Compares in order first (the common case); sorts copies only when that
/// fails.
bool SameAtomMultiset(std::span<const AtomId> a, std::span<const AtomId> b) {
  if (a.size() != b.size()) return false;
  if (std::equal(a.begin(), a.end(), b.begin())) return true;
  std::vector<AtomId> sa(a.begin(), a.end()), sb(b.begin(), b.end());
  std::sort(sa.begin(), sa.end());
  std::sort(sb.begin(), sb.end());
  return sa == sb;
}

std::uint64_t PostingHash(SymbolId pred, std::uint32_t pos, TermId term) {
  return HashAvalanche(
      HashMixWord(HashMixWord(HashMixWord(kSpanHashSeed, pred), pos), term));
}

}  // namespace

/// Binds the patched program, its atom table and the receipt for one rule
/// op, and unbinds them on every exit path.
class Grounder::OpScope {
 public:
  OpScope(Grounder& g, GroundProgram& gp, Delta* delta) : g_(g) {
    g_.gp_ = &gp;
    g_.atoms_ = &gp.atoms();
    g_.delta_ = delta;
  }
  ~OpScope() {
    g_.gp_ = nullptr;
    g_.atoms_ = nullptr;
    g_.delta_ = nullptr;
    g_.retiring_ = kNoRule;
  }

 private:
  Grounder& g_;
};

StatusOr<GroundProgram> Grounder::Ground(Program& program,
                                         const GroundOptions& options,
                                         std::unique_ptr<Grounder>* keep,
                                         GroundStats* receipt) {
  if (receipt != nullptr) *receipt = GroundStats();
  AFP_RETURN_IF_ERROR(program.Validate());
  const bool kept = keep != nullptr && SupportsRuleOps(options);
  std::unique_ptr<Grounder> g(new Grounder(program, options));
  StatusOr<GroundProgram> gp = g->Build(kept);
  if (!gp.ok()) {
    // The same tables as a completed run's receipt: the scratch
    // structures, not the atom table (which a completed run hands on to
    // the program, counters included).
    if (receipt != nullptr) {
      g->FillReceipt(*receipt);
      receipt->atoms = g->atoms_->size();
      receipt->rules = g->fact_atoms_.size() + g->instances_.size();
    }
    return gp.status();
  }
  if (receipt != nullptr) *receipt = gp->grounding_stats();
  if (keep != nullptr) *keep = kept ? std::move(g) : nullptr;
  return gp;
}

StatusOr<GroundProgram> Grounder::Build(bool keep) {
  atoms_ = &scratch_atoms_;
  // Facts are the EDB: derived in round 0, in program order.
  for (const Rule& r : program_.rules()) {
    if (!r.IsFact(program_.terms())) continue;
    AFP_ASSIGN_OR_RETURN(AtomId id, InternAtom(r.head.predicate, r.head.args));
    if (!derived_[id]) MarkDerived(id, 0);
    fact_atoms_.push_back(id);
  }
  if (opts_.mode == GroundMode::kFull) {
    AFP_RETURN_IF_ERROR(FullInstantiation());
  } else {
    AFP_RETURN_IF_ERROR(AddRules(/*one_shot=*/!keep));
  }
  // Take the receipt before a one-shot grounding releases the structures
  // that assembling the program no longer needs.
  GroundStats receipt;
  FillReceipt(receipt);
  if (!keep) ReleaseJoinState();
  atoms_ = nullptr;
  return Assemble(keep, receipt);
}

// --- atom bookkeeping -----------------------------------------------------

StatusOr<AtomId> Grounder::InternAtom(SymbolId pred,
                                      std::span<const TermId> args) {
  AtomId id = atoms_->Intern(pred, args);
  if (id >= derived_.size()) {
    if (atoms_->size() > opts_.max_atoms) {
      return Status::ResourceExhausted(
          "grounding exceeded max_atoms=" + std::to_string(opts_.max_atoms) +
          " (infinite Herbrand universe? raise GroundOptions::max_atoms)");
    }
    derived_.push_back(false);
    round_.push_back(0);
  }
  return id;
}

void Grounder::MarkDerived(AtomId id, std::uint32_t round) {
  derived_[id] = true;
  round_[id] = round;
  derived_log_.push_back(id);
  const SymbolId pred = atoms_->predicate(id);
  if (pred < pred_lists_.size()) IndexAtom(id, pred_lists_[pred]);
}

void Grounder::IndexAtom(AtomId id, const PredLists& which) {
  if (which.list != kNone) Append(lists_[which.list], id);
  if (which.positions == 0) return;
  const SymbolId pred = atoms_->predicate(id);
  const auto args = atoms_->args(id);
  for (std::uint64_t m = which.positions; m != 0; m &= m - 1) {
    const auto pos = static_cast<std::uint32_t>(std::countr_zero(m));
    if (pos < args.size()) Append(PostingList(pred, pos, args[pos]), id);
  }
}

Grounder::CandList& Grounder::PostingList(SymbolId pred, std::uint32_t pos,
                                          TermId term) {
  const auto next = static_cast<std::uint32_t>(posting_keys_.size());
  const std::uint32_t got = posting_index_.FindOrInsert(
      PostingHash(pred, pos, term), next, [&](std::uint32_t id) {
        const PostingKey& k = posting_keys_[id];
        return k.pred == pred && k.pos == pos && k.term == term;
      });
  if (got == next) {
    posting_keys_.push_back(
        {pred, pos, term, static_cast<std::uint32_t>(lists_.size())});
    lists_.emplace_back();
  }
  return lists_[posting_keys_[got].list];
}

void Grounder::Append(CandList& list, AtomId id) {
  CandChunk* tail = list.tail;
  if (tail == nullptr || tail->count == tail->cap) {
    const std::uint32_t cap =
        tail == nullptr ? 4u : std::min(tail->cap * 2u, 4096u);
    void* mem = cand_arena_.Allocate(sizeof(CandChunk) + cap * sizeof(AtomId),
                                     alignof(CandChunk));
    CandChunk* c = new (mem) CandChunk{nullptr, 0, cap};
    if (tail == nullptr) {
      list.head = c;
    } else {
      tail->next = c;
    }
    list.tail = tail = c;
  }
  const std::uint32_t round = round_[id];
  if (round != list.last.round) {
    list.prev = list.last;
    list.last = {tail, tail->count, round};
  }
  tail->items()[tail->count++] = id;
}

const Grounder::CandList* Grounder::StepList(const JoinStep& step) const {
  if (step.access == JoinStep::kScan) {
    return &lists_[pred_lists_[step.pred].list];
  }
  const TermId term = step.key_kind == TermOp::kGround
                          ? step.key_value
                          : slots_[step.key_value];
  const std::uint32_t id = posting_index_.Find(
      PostingHash(step.pred, step.key_pos, term), [&](std::uint32_t i) {
        const PostingKey& k = posting_keys_[i];
        return k.pred == step.pred && k.pos == step.key_pos && k.term == term;
      });
  return id == FlatIndex::kNotFound ? nullptr : &lists_[posting_keys_[id].list];
}

// --- source rules ---------------------------------------------------------

StatusOr<Grounder::RulePlan> Grounder::CompileRule(const Rule& r) {
  const TermTable& tt = program_.terms();
  RulePlan plan{};
  plan.vars_begin = static_cast<std::uint32_t>(slot_vars_.size());
  std::vector<std::uint8_t> bound;  // per slot
  auto find_slot = [&](SymbolId v) -> std::uint32_t {
    for (std::uint32_t s = 0; s < plan.num_slots; ++s) {
      if (slot_vars_[plan.vars_begin + s] == v) return s;
    }
    return kNone;
  };
  auto slot_of = [&](SymbolId v) -> std::uint32_t {
    std::uint32_t s = find_slot(v);
    if (s == kNone) {
      s = plan.num_slots++;
      slot_vars_.push_back(v);
      bound.push_back(0);
    }
    return s;
  };
  // Matching visits a literal's terms in preorder; a variable's first
  // occurrence in join order binds its slot, later ones compare.
  auto match_ops = [&](auto&& self, TermId t) -> void {
    if (tt.IsGround(t)) {
      plan_ops_.push_back({TermOp::kGround, 0, t});
    } else if (tt.kind(t) == TermKind::kVariable) {
      const std::uint32_t s = slot_of(tt.symbol(t));
      plan_ops_.push_back({bound[s] ? TermOp::kSlot : TermOp::kBind, 0, s});
      bound[s] = 1;
    } else {
      const auto args = tt.args(t);
      plan_ops_.push_back({TermOp::kCompound,
                           static_cast<std::uint32_t>(args.size()),
                           tt.symbol(t)});
      for (TermId a : args) self(self, a);
    }
  };
  // Building pushes terms in postfix; every variable is bound by then.
  bool unbound = false;
  auto build_ops = [&](auto&& self, TermId t) -> void {
    if (tt.IsGround(t)) {
      plan_ops_.push_back({TermOp::kGround, 0, t});
    } else if (tt.kind(t) == TermKind::kVariable) {
      const std::uint32_t s = find_slot(tt.symbol(t));
      unbound = unbound || s == kNone;
      plan_ops_.push_back({TermOp::kSlot, 0, s});
    } else {
      const auto args = tt.args(t);
      for (TermId a : args) self(self, a);
      plan_ops_.push_back({TermOp::kCompound,
                           static_cast<std::uint32_t>(args.size()),
                           tt.symbol(t)});
    }
  };

  plan.steps_begin = static_cast<std::uint32_t>(steps_.size());
  for (const Literal& l : r.body) {
    if (!l.positive) continue;
    JoinStep step{};
    step.pred = l.atom.predicate;
    step.arity = static_cast<std::uint32_t>(l.atom.args.size());
    step.key_pos = kNone;
    std::uint32_t num_bound = 0;
    for (std::uint32_t pos = 0; pos < step.arity; ++pos) {
      const TermId t = l.atom.args[pos];
      std::uint32_t s = kNone;
      if (!tt.IsGround(t)) {
        if (tt.kind(t) != TermKind::kVariable) continue;
        s = find_slot(tt.symbol(t));
        if (s == kNone || !bound[s]) continue;
      }
      ++num_bound;
      if (step.key_pos == kNone && pos < kMaxKeyPosition) {
        step.key_pos = pos;
        step.key_kind = s == kNone ? TermOp::kGround : TermOp::kSlot;
        step.key_value = s == kNone ? t : s;
      }
    }
    step.access = num_bound == step.arity ? JoinStep::kProbe
                  : step.key_pos != kNone ? JoinStep::kPosting
                                          : JoinStep::kScan;
    step.ops_begin = static_cast<std::uint32_t>(plan_ops_.size());
    for (TermId t : l.atom.args) match_ops(match_ops, t);
    step.ops_end = static_cast<std::uint32_t>(plan_ops_.size());
    steps_.push_back(step);
  }
  plan.steps_end = static_cast<std::uint32_t>(steps_.size());

  plan.atoms_begin = static_cast<std::uint32_t>(plan_atoms_.size());
  auto add_atom = [&](const Atom& a, bool positive) {
    AtomPlan ap{a.predicate, static_cast<std::uint32_t>(plan_ops_.size()), 0,
                positive};
    for (TermId t : a.args) build_ops(build_ops, t);
    ap.ops_end = static_cast<std::uint32_t>(plan_ops_.size());
    plan_atoms_.push_back(ap);
  };
  add_atom(r.head, true);
  for (const Literal& l : r.body) add_atom(l.atom, l.positive);
  plan.atoms_end = static_cast<std::uint32_t>(plan_atoms_.size());
  if (unbound) {
    // Program::Validate rejects unsafe rules before they get here.
    return Status::Internal("unsafe rule reached the grounder: '" +
                            program_.RuleToString(r) + "'");
  }
  return plan;
}

Status Grounder::RegisterSourceRules() {
  const auto& rules = program_.rules();
  // The lists this call creates, one predicate list or one position's
  // posting lists per entry: the atoms derived so far are back-filled into
  // them (in derivation order, as if appended all along).
  std::vector<std::pair<SymbolId, PredLists>> fresh;
  for (; registered_rules_ < rules.size(); ++registered_rules_) {
    const Rule& r = rules[registered_rules_];
    if (r.IsFact(program_.terms())) continue;  // EDB facts are not rules
    AFP_ASSIGN_OR_RETURN(RulePlan plan, CompileRule(r));
    plan.rule = static_cast<std::uint32_t>(registered_rules_);
    plan.alive = true;
    plan.emit_once = false;
    const auto plan_index = static_cast<std::uint32_t>(plans_.size());
    plans_.push_back(plan);
    slots_.resize(std::max<std::size_t>(slots_.size(), plan.num_slots));
    matched_.resize(std::max<std::size_t>(matched_.size(),
                                          plan.steps_end - plan.steps_begin));
    for (std::uint32_t s = plan.steps_begin; s < plan.steps_end; ++s) {
      const JoinStep& step = steps_[s];
      const SymbolId pred = step.pred;
      if (pred >= triggers_.size()) triggers_.resize(pred + 1);
      triggers_[pred].push_back({plan_index, s - plan.steps_begin});
      if (step.access == JoinStep::kProbe) continue;
      if (pred >= pred_lists_.size()) pred_lists_.resize(pred + 1);
      PredLists& have = pred_lists_[pred];
      PredLists created;
      if (step.access == JoinStep::kScan) {
        if (have.list != kNone) continue;
        have.list = created.list = static_cast<std::uint32_t>(lists_.size());
        lists_.emplace_back();
      } else {
        const std::uint64_t bit = std::uint64_t{1} << step.key_pos;
        if (have.positions & bit) continue;
        have.positions |= bit;
        created.positions = bit;
      }
      fresh.push_back({pred, created});
    }
  }
  if (fresh.empty()) return Status::Ok();
  auto by_pred = [](const auto& a, const auto& b) { return a.first < b.first; };
  std::sort(fresh.begin(), fresh.end(), by_pred);
  for (AtomId a : derived_log_) {
    const std::pair<SymbolId, PredLists> key{atoms_->predicate(a), {}};
    const auto [lo, hi] =
        std::equal_range(fresh.begin(), fresh.end(), key, by_pred);
    for (auto it = lo; it != hi; ++it) IndexAtom(a, it->second);
  }
  return Status::Ok();
}

Status Grounder::AddRules(bool one_shot) {
  const std::size_t first_plan = plans_.size();
  AFP_RETURN_IF_ERROR(RegisterSourceRules());
  if (one_shot) MarkEmitOnce();
  // New rules join in trigger order — rules without a positive literal
  // first, then by the predicate of the first positive literal — which is
  // the order the cascade would fire them in if every derived atom were
  // new. For the initial grounding every derived atom IS new (the EDB), so
  // this is exactly the first semi-naive round.
  std::vector<std::pair<std::int64_t, std::size_t>> order;
  for (std::size_t pi = first_plan; pi < plans_.size(); ++pi) {
    const RulePlan& plan = plans_[pi];
    order.push_back({plan.steps_begin == plan.steps_end
                         ? -1
                         : std::int64_t{steps_[plan.steps_begin].pred},
                     pi});
  }
  std::stable_sort(order.begin(), order.end(),
                   [](const auto& a, const auto& b) {
                     return a.first < b.first;
                   });
  const std::size_t log_before = derived_log_.size();
  ++current_round_;
  for (const auto& [pred, pi] : order) {
    if (delta_ != nullptr) ++delta_->rules_reground;
    AFP_RETURN_IF_ERROR(Join(plans_[pi], 0, kFullJoin, current_round_));
  }
  return CascadeFrom(log_before);
}

void Grounder::MarkEmitOnce() {
  // The join emits each binding of a plan once. Two bindings that differ
  // in a slot emit different instances when the slot occurs in the head,
  // or in a body literal whose predicate no other literal of its sign
  // has: bodies compare as multisets, and that literal's atom is the only
  // one of its predicate there. Per predicate: the plans heading it, and
  // its literals of the current plan, positive at 2p and negative at
  // 2p + 1 (undone before the next plan).
  const std::size_t num_symbols = program_.symbols().size();
  std::vector<std::uint32_t> heads(num_symbols, 0);
  std::vector<std::uint32_t> uses(2 * num_symbols, 0);
  std::vector<std::uint8_t> keyed(slots_.size(), 0);
  auto uses_of = [&](const AtomPlan& a) -> std::uint32_t& {
    return uses[2 * a.pred + (a.positive ? 0 : 1)];
  };
  for (RulePlan& plan : plans_) {
    const AtomPlan* atoms = plan_atoms_.data() + plan.atoms_begin;
    const std::uint32_t num_atoms = plan.atoms_end - plan.atoms_begin;
    ++heads[atoms[0].pred];
    for (std::uint32_t i = 1; i < num_atoms; ++i) ++uses_of(atoms[i]);
    std::fill_n(keyed.begin(), plan.num_slots, 0);
    std::uint32_t num_keyed = 0;
    for (std::uint32_t i = 0; i < num_atoms; ++i) {
      if (i > 0 && uses_of(atoms[i]) > 1) continue;
      for (std::uint32_t k = atoms[i].ops_begin; k < atoms[i].ops_end; ++k) {
        const TermOp& op = plan_ops_[k];
        if (op.kind == TermOp::kSlot && !keyed[op.value]) {
          keyed[op.value] = 1;
          ++num_keyed;
        }
      }
    }
    for (std::uint32_t i = 1; i < num_atoms; ++i) --uses_of(atoms[i]);
    plan.emit_once = num_keyed == plan.num_slots;
  }
  // Two plans can emit one instance only if they have the same head
  // predicate and the same multisets of positive and of negative body
  // predicates: the rule shape HashGroundRule hashes, over predicates
  // instead of atoms (collected in the emission scratch, unused until
  // the joins). Only plans sharing a head predicate are hashed, and equal
  // hashes count as equal signatures: a collision costs only lookups.
  FlatIndex signatures;
  for (std::uint32_t pi = 0; pi < plans_.size(); ++pi) {
    const AtomPlan* atoms = plan_atoms_.data() + plans_[pi].atoms_begin;
    const std::uint32_t num_atoms =
        plans_[pi].atoms_end - plans_[pi].atoms_begin;
    if (heads[atoms[0].pred] < 2) continue;
    emit_pos_.clear();
    emit_neg_.clear();
    for (std::uint32_t i = 1; i < num_atoms; ++i) {
      (atoms[i].positive ? emit_pos_ : emit_neg_).push_back(atoms[i].pred);
    }
    const std::uint32_t got = signatures.FindOrInsert(
        HashGroundRule(atoms[0].pred, emit_pos_, emit_neg_), pi,
        [](std::uint32_t) { return true; });
    if (got != pi) plans_[got].emit_once = plans_[pi].emit_once = false;
  }
}

Status Grounder::FoldAsserted() {
  if (asserted_.empty()) return Status::Ok();
  const std::size_t log_before = derived_log_.size();
  ++current_round_;
  for (AtomId a : asserted_) {
    if (!derived_[a]) MarkDerived(a, current_round_);
  }
  asserted_.clear();
  return CascadeFrom(log_before);
}

Status Grounder::CascadeFrom(std::size_t delta_begin) {
  std::size_t delta_end = derived_log_.size();
  while (delta_begin < delta_end) {
    ++current_round_;
    // Fire only the rules whose bodies mention a predicate that gained
    // atoms in the previous round, at that delta position, in ascending
    // SymbolId order (rule firing order fixes atom and rule ids).
    delta_preds_.clear();
    for (std::size_t i = delta_begin; i < delta_end; ++i) {
      delta_preds_.push_back(atoms_->predicate(derived_log_[i]));
    }
    std::sort(delta_preds_.begin(), delta_preds_.end());
    delta_preds_.erase(std::unique(delta_preds_.begin(), delta_preds_.end()),
                       delta_preds_.end());
    for (SymbolId pred : delta_preds_) {
      if (pred >= triggers_.size()) continue;
      for (const Trigger& t : triggers_[pred]) {
        if (!plans_[t.plan].alive) continue;
        if (delta_ != nullptr) ++delta_->rules_reground;
        AFP_RETURN_IF_ERROR(Join(plans_[t.plan], 0, t.pos, current_round_));
      }
    }
    delta_begin = delta_end;
    delta_end = derived_log_.size();
  }
  return Status::Ok();
}

Status Grounder::FullInstantiation() {
  AFP_RETURN_IF_ERROR(RegisterSourceRules());
  // Active domain: every constant occurring anywhere in the program.
  std::vector<TermId> domain;
  {
    std::unordered_set<TermId> seen;
    auto visit_term = [&](auto&& self, TermId t) -> void {
      const TermTable& tt = program_.terms();
      if (tt.kind(t) == TermKind::kConstant) {
        if (seen.insert(t).second) domain.push_back(t);
      }
      for (TermId a : tt.args(t)) self(self, a);
    };
    for (const Rule& r : program_.rules()) {
      for (TermId t : r.head.args) visit_term(visit_term, t);
      for (const Literal& l : r.body) {
        for (TermId t : l.atom.args) visit_term(visit_term, t);
      }
    }
  }

  std::vector<std::uint32_t> order;
  for (const RulePlan& plan : plans_) {
    // Assign the rule's variables in ascending symbol order.
    order.resize(plan.num_slots);
    std::iota(order.begin(), order.end(), 0u);
    const SymbolId* vars = slot_vars_.data() + plan.vars_begin;
    std::sort(order.begin(), order.end(),
              [&](std::uint32_t a, std::uint32_t b) {
                return vars[a] < vars[b];
              });
    AFP_RETURN_IF_ERROR(EnumerateAssignments(plan, order, 0, domain));
  }
  // In full mode every interned atom belongs to the base; mark everything
  // derived so no simplification drops it.
  for (std::size_t i = 0; i < derived_.size(); ++i) derived_[i] = true;
  return Status::Ok();
}

Status Grounder::EnumerateAssignments(const RulePlan& plan,
                                      std::span<const std::uint32_t> order,
                                      std::size_t i,
                                      const std::vector<TermId>& domain) {
  if (i == order.size()) return EmitInstance(plan, /*joined=*/false);
  for (TermId c : domain) {
    slots_[order[i]] = c;
    AFP_RETURN_IF_ERROR(EnumerateAssignments(plan, order, i + 1, domain));
  }
  return Status::Ok();
}

// --- the join -------------------------------------------------------------

Status Grounder::Join(const RulePlan& plan, std::uint32_t step,
                      std::size_t delta_pos, std::uint32_t round) {
  if (step == plan.steps_end - plan.steps_begin) {
    return EmitInstance(plan, /*joined=*/true);
  }
  const JoinStep& js = steps_[plan.steps_begin + step];
  const RoundFilter filter = delta_pos == kFullJoin ? RoundFilter::kUpTo
                             : step < delta_pos     ? RoundFilter::kOld
                             : step == delta_pos    ? RoundFilter::kDelta
                                                    : RoundFilter::kUpTo;
  if (js.access == JoinStep::kProbe) {
    // Every argument is bound: at most one atom can match, found by its
    // arguments (emit_args_ is free until the instance is emitted).
    emit_args_.clear();
    for (std::uint32_t k = js.ops_begin; k < js.ops_end; ++k) {
      const TermOp& op = plan_ops_[k];
      emit_args_.push_back(op.kind == TermOp::kGround ? op.value
                                                      : slots_[op.value]);
    }
    const AtomId cand = atoms_->Find(js.pred, emit_args_);
    if (cand >= derived_.size() || !derived_[cand]) return Status::Ok();
    ++join_candidates_;
    const std::uint32_t cr = round_[cand];
    const bool visible = filter == RoundFilter::kOld     ? cr < round - 1
                         : filter == RoundFilter::kDelta ? cr == round - 1
                                                         : cr <= round - 1;
    if (!visible) return Status::Ok();
    matched_[step] = cand;
    return Join(plan, step + 1, delta_pos, round);
  }
  const CandList* list = StepList(js);
  if (list == nullptr) return Status::Ok();
  // Lists are sorted by round: a delta walk starts at the previous
  // round's first atom, and every walk stops at the first atom this step
  // may not see. EmitInstance may append to the very list being walked
  // (atoms derived this round, which end the walk) or create lists
  // (moving lists_), so the walk holds chunk pointers only.
  const CandChunk* c = list->head;
  std::uint32_t i = 0;
  if (filter == RoundFilter::kDelta) {
    const RoundMark& m = list->last.round == round - 1 ? list->last
                                                       : list->prev;
    if (m.round != round - 1) return Status::Ok();
    c = m.chunk;
    i = m.index;
  }
  for (; c != nullptr; c = c->next, i = 0) {
    for (; i < c->count; ++i) {
      ++join_candidates_;
      const AtomId cand = c->items()[i];
      const std::uint32_t cr = round_[cand];
      if (cr > round - 1 ||  // derived this round; not visible yet
          (filter == RoundFilter::kOld && cr >= round - 1)) {
        return Status::Ok();
      }
      if (!Match(js, cand)) continue;
      matched_[step] = cand;
      AFP_RETURN_IF_ERROR(Join(plan, step + 1, delta_pos, round));
    }
  }
  return Status::Ok();
}

bool Grounder::Match(const JoinStep& step, AtomId cand) {
  const auto args = atoms_->args(cand);
  if (args.size() != step.arity) return false;
  const TermTable& tt = program_.terms();
  // Terms are consumed in preorder: the inner arguments of an opened
  // compound (pending_) before the candidate's next argument.
  std::size_t next_arg = 0;
  pending_.clear();
  for (std::uint32_t k = step.ops_begin; k < step.ops_end; ++k) {
    const TermOp& op = plan_ops_[k];
    TermId g;
    if (pending_.empty()) {
      g = args[next_arg++];
    } else {
      g = pending_.back();
      pending_.pop_back();
    }
    switch (op.kind) {
      case TermOp::kGround:
        if (g != op.value) return false;
        break;
      case TermOp::kBind:
        slots_[op.value] = g;
        break;
      case TermOp::kSlot:
        if (slots_[op.value] != g) return false;
        break;
      case TermOp::kCompound: {
        if (tt.kind(g) != TermKind::kCompound || tt.symbol(g) != op.value) {
          return false;
        }
        const auto sub = tt.args(g);
        if (sub.size() != op.arity) return false;
        pending_.insert(pending_.end(), sub.rbegin(), sub.rend());
        break;
      }
    }
  }
  return true;
}

// --- instance emission ----------------------------------------------------

void Grounder::BuildArgs(const AtomPlan& a) {
  TermTable& tt = program_.terms();
  emit_args_.clear();
  for (std::uint32_t k = a.ops_begin; k < a.ops_end; ++k) {
    const TermOp& op = plan_ops_[k];
    switch (op.kind) {
      case TermOp::kGround:
        emit_args_.push_back(op.value);
        break;
      case TermOp::kSlot:
        emit_args_.push_back(slots_[op.value]);
        break;
      case TermOp::kCompound: {
        const std::size_t first = emit_args_.size() - op.arity;
        const TermId t = tt.MakeCompound(
            op.value, std::span<const TermId>(emit_args_).subspan(first));
        emit_args_.resize(first);
        emit_args_.push_back(t);
        break;
      }
      case TermOp::kBind:
        break;  // matching only
    }
  }
}

bool Grounder::InstanceEquals(std::uint32_t id, AtomId head,
                              std::span<const AtomId> pos,
                              std::span<const AtomId> neg) const {
  const Instance& in = instances_[id];
  if (in.head != head) return false;
  const AtomId* pool = instance_pool_.data();
  return SameAtomMultiset({pool + in.pos_offset, in.pos_len}, pos) &&
         SameAtomMultiset({pool + in.pos_offset + in.pos_len, in.neg_len},
                          neg);
}

Status Grounder::EmitInstance(const RulePlan& plan, bool joined) {
  const AtomPlan* atoms = plan_atoms_.data() + plan.atoms_begin;
  const std::uint32_t num_atoms = plan.atoms_end - plan.atoms_begin;
  BuildArgs(atoms[0]);
  AtomId head;
  AFP_ASSIGN_OR_RETURN(head, InternAtom(atoms[0].pred, emit_args_));
  emit_pos_.clear();
  emit_neg_.clear();
  if (joined) {
    emit_pos_.assign(matched_.begin(),
                     matched_.begin() + (plan.steps_end - plan.steps_begin));
  }
  for (std::uint32_t i = 1; i < num_atoms; ++i) {
    if (joined && atoms[i].positive) continue;
    BuildArgs(atoms[i]);
    AFP_ASSIGN_OR_RETURN(AtomId id, InternAtom(atoms[i].pred, emit_args_));
    (atoms[i].positive ? emit_pos_ : emit_neg_).push_back(id);
  }

  const std::uint32_t next = static_cast<std::uint32_t>(instances_.size());
  std::uint32_t got = next;
  if (!plan.emit_once) {
    const std::uint64_t h = HashGroundRule(head, emit_pos_, emit_neg_);
    if (retiring_ != kNoRule) return RetireInstance(h, head);
    ++instance_probes_;
    got = instance_index_.FindOrInsert(h, next, [&](std::uint32_t id) {
      return InstanceEquals(id, head, emit_pos_, emit_neg_);
    });
  }
  if (got == next) {
    if (instances_.size() >= opts_.max_rules) {
      return Status::ResourceExhausted(
          "grounding exceeded max_rules=" + std::to_string(opts_.max_rules));
    }
    Instance in;
    in.head = head;
    in.pos_offset = static_cast<std::uint32_t>(instance_pool_.size());
    in.pos_len = static_cast<std::uint32_t>(emit_pos_.size());
    instance_pool_.insert(instance_pool_.end(), emit_pos_.begin(),
                          emit_pos_.end());
    in.neg_len = static_cast<std::uint32_t>(emit_neg_.size());
    instance_pool_.insert(instance_pool_.end(), emit_neg_.begin(),
                          emit_neg_.end());
    in.count = 0;
    instances_.push_back(in);
  }
  // An instance several live bindings emit (or one emitted again) only
  // gains provenance.
  if (instances_[got].count++ > 0) return Status::Ok();
  if (!derived_[head]) MarkDerived(head, current_round_);
  if (gp_ != nullptr) {
    // A rule op splices the newly live instance in right away.
    gp_->AddRule(head, emit_pos_, emit_neg_);
    const std::uint32_t rule =
        static_cast<std::uint32_t>(gp_->num_rules() - 1);
    if (got >= instance_rule_.size()) instance_rule_.resize(got + 1, kNoRule);
    instance_rule_[got] = rule;
    delta_->added_rules.push_back(rule);
    delta_->added_heads.push_back(head);
  }
  return Status::Ok();
}

Status Grounder::RetireInstance(std::uint64_t hash, AtomId head) {
  const std::uint32_t got =
      instance_index_.Find(hash, [&](std::uint32_t id) {
        return InstanceEquals(id, head, emit_pos_, emit_neg_);
      });
  if (got == FlatIndex::kNotFound || instances_[got].count == 0) {
    return Status::Internal(
        "rule removal found an instance with no provenance (invariant "
        "breach): " + program_.RuleToString(program_.rules()[retiring_]));
  }
  if (--instances_[got].count > 0) return Status::Ok();
  // The last binding emitting it is gone: drop the instance's rule.
  const std::uint32_t rule = instance_rule_[got];
  instance_rule_[got] = kNoRule;
  GroundProgram::FactRemoval rem = gp_->RemoveRuleAt(rule);
  AtomId moved_head = kInvalidAtom;
  if (rem.moved_rule != rem.erased_rule) {
    moved_head = gp_->rule(rem.erased_rule).head;
    NoteRuleMoved(*gp_, rem.erased_rule);
  }
  delta_->removals.push_back({rem.erased_rule, rem.moved_rule, head,
                              moved_head, emit_pos_, emit_neg_});
  return Status::Ok();
}

void Grounder::NoteRuleMoved(const GroundProgram& gp, std::uint32_t rule) {
  const GroundRule& gr = gp.rule(rule);
  if (gr.pos_len + gr.neg_len == 0) return;  // an EDB fact, no instance
  const auto pos = gp.pos(gr);
  const auto neg = gp.neg(gr);
  const std::uint32_t id = instance_index_.Find(
      HashGroundRule(gr.head, pos, neg), [&](std::uint32_t i) {
        return InstanceEquals(i, gr.head, pos, neg);
      });
  // Not found: a rule appended behind the grounder's back, which no
  // provenance covers.
  if (id != FlatIndex::kNotFound) instance_rule_[id] = rule;
}

// --- rule ops ---------------------------------------------------------------

Status Grounder::AddSourceRules(GroundProgram& gp, std::size_t first_rule,
                                Delta* delta) {
  if (first_rule != registered_rules_) {
    return Status::InvalidArgument(
        "AddSourceRules: rules before " + std::to_string(first_rule) +
        " were never added");
  }
  OpScope scope(*this, gp, delta);
  AFP_RETURN_IF_ERROR(FoldAsserted());
  return AddRules(/*one_shot=*/false);
}

Status Grounder::RemoveSourceRule(GroundProgram& gp, std::size_t rule_index,
                                  Delta* delta) {
  OpScope scope(*this, gp, delta);
  AFP_RETURN_IF_ERROR(FoldAsserted());
  const auto it = std::lower_bound(
      plans_.begin(), plans_.end(), rule_index,
      [](const RulePlan& p, std::size_t ri) { return p.rule < ri; });
  if (it == plans_.end() || it->rule != rule_index || !it->alive) {
    return Status::InvalidArgument("rule is not live");
  }
  it->alive = false;
  // Re-enumerate the rule's bindings over the derived set — by the
  // emission invariant exactly the bindings it has emitted — and take
  // their provenance away. Nothing is derived meanwhile.
  ++current_round_;
  ++delta->rules_reground;
  retiring_ = it->rule;
  return Join(*it, 0, kFullJoin, current_round_);
}

std::optional<std::size_t> Grounder::FindLiveRule(const Rule& r) const {
  for (const RulePlan& plan : plans_) {
    if (plan.alive &&
        RuleEquiv(program_.terms(), program_.rules()[plan.rule], r)) {
      return plan.rule;
    }
  }
  return std::nullopt;
}

// --- final assembly ---------------------------------------------------------

/// The counters of the scratch structures: the instance-dedupe and posting
/// indexes, the candidate arena and the join. The atom table is not among
/// them: it lives on in the program, counters included.
void Grounder::FillReceipt(GroundStats& gs) const {
  gs.Absorb(instance_index_.stats());
  gs.Absorb(posting_index_.stats());
  gs.arena_bytes = cand_arena_.total_allocated();
  gs.join_candidates = join_candidates_;
  gs.instance_probes = instance_probes_;
}

void Grounder::ReleaseJoinState() {
  auto release = [](auto& v) {
    std::remove_reference_t<decltype(v)>().swap(v);
  };
  release(round_);
  release(derived_log_);
  release(pred_lists_);
  release(lists_);
  release(posting_keys_);
  posting_index_.Release();
  release(triggers_);
  release(plans_);
  release(steps_);
  release(plan_atoms_);
  release(plan_ops_);
  release(slot_vars_);
  instance_index_.Release();
}

GroundProgram Grounder::Assemble(bool keep, GroundStats receipt) {
  // Simplification keeps only the derivable atoms: the others are
  // certainly false, so negative literals on them are certainly true and
  // are erased from the bodies below. A kept atom's id is its rank among
  // the kept atoms; with nothing dropped the table is used as is.
  const bool simplify = opts_.simplify && opts_.mode != GroundMode::kFull;
  const std::size_t num_scratch = scratch_atoms_.size();
  std::vector<AtomId> remap(num_scratch);
  AtomId kept = 0;
  for (AtomId a = 0; a < num_scratch; ++a) {
    remap[a] = !simplify || derived_[a] ? kept++ : kInvalidAtom;
  }
  if (kept < num_scratch) scratch_atoms_.Compact(remap, kept);

  // Emitted instances are distinct as body multisets and the remap is
  // injective, so two rules can only become equal where simplification
  // erased a literal: a fact and an instance left with no body, or two
  // instances of one head, one of them simplified. Only those are probed.
  enum : std::uint8_t {
    kFact = 1,        // the fact rule on this atom is emitted
    kInstance = 2,    // heads an instance
    kInstances = 4,   // heads two or more
    kSimplified = 8,  // heads an instance that lost a literal
  };
  constexpr std::uint8_t kProbed = kInstances | kSimplified;
  std::vector<std::uint8_t> marks(kept, 0);
  if (kept < num_scratch) {
    for (const Instance& in : instances_) {
      std::uint8_t& m = marks[remap[in.head]];
      m |= (m & kInstance) ? kInstances : kInstance;
      const AtomId* neg = instance_pool_.data() + in.pos_offset + in.pos_len;
      if (std::any_of(neg, neg + in.neg_len,
                      [&](AtomId a) { return remap[a] == kInvalidAtom; })) {
        m |= kSimplified;
      }
    }
  }

  std::vector<GroundRule> rules;
  rules.reserve(fact_atoms_.size() + instances_.size());
  for (AtomId f : fact_atoms_) {
    const AtomId head = remap[f];
    if (marks[head] & kFact) continue;  // a repeated fact
    marks[head] |= kFact;
    rules.push_back({head, 0, 0, 0, 0});
  }
  const auto first_instance_rule = static_cast<std::uint32_t>(rules.size());

  // A one-shot grounding hands its instance pool over as the body pool,
  // remapped and compacted in place by one forward pass (a rule's body
  // never moves up). A kept grounder still reads its pool, so the program
  // gets a copy.
  std::vector<AtomId> pool;
  if (keep) {
    pool = instance_pool_;
  } else {
    pool.swap(instance_pool_);
  }
  FlatIndex probed;  // (hash, rule id) of the probed rules
  std::uint32_t w = 0;
  for (const Instance& in : instances_) {
    GroundRule r;
    r.head = remap[in.head];
    std::uint32_t i = in.pos_offset;
    r.pos_offset = w;
    for (const std::uint32_t end = i + in.pos_len; i < end; ++i) {
      pool[w++] = remap[pool[i]];
    }
    r.pos_len = w - r.pos_offset;
    r.neg_offset = w;
    for (const std::uint32_t end = i + in.neg_len; i < end; ++i) {
      if (remap[pool[i]] != kInvalidAtom) pool[w++] = remap[pool[i]];
    }
    r.neg_len = w - r.neg_offset;
    if (r.pos_len + r.neg_len == 0) {
      if (marks[r.head] & kFact) continue;
      marks[r.head] |= kFact;
    } else if ((marks[r.head] & kProbed) == kProbed) {
      const std::span<const AtomId> pos(pool.data() + r.pos_offset, r.pos_len);
      const std::span<const AtomId> neg(pool.data() + r.neg_offset, r.neg_len);
      const auto next = static_cast<std::uint32_t>(rules.size());
      const std::uint32_t got = probed.FindOrInsert(
          HashGroundRule(r.head, pos, neg), next, [&](std::uint32_t id) {
            const GroundRule& o = rules[id];
            return o.head == r.head &&
                   SameAtomMultiset({pool.data() + o.pos_offset, o.pos_len},
                                    pos) &&
                   SameAtomMultiset({pool.data() + o.neg_offset, o.neg_len},
                                    neg);
          });
      if (got != next) {
        w = r.pos_offset;  // a duplicate: its body is overwritten
        continue;
      }
    }
    rules.push_back(r);
  }
  pool.resize(w);

  receipt.Absorb(probed.stats());
  receipt.atoms = kept;
  receipt.rules = rules.size();
  if (keep) {
    // Unsimplified: atom ids are the scratch ids, and no instance was
    // dropped (none lost a literal or has an empty body), so instance i is
    // rule first_instance_rule + i. From here on the program's own atom
    // table is the one rule ops intern into.
    assert(rules.size() == first_instance_rule + instances_.size());
    instance_rule_.resize(instances_.size());
    for (std::uint32_t i = 0; i < instances_.size(); ++i) {
      instance_rule_[i] = first_instance_rule + i;
    }
    std::vector<AtomId>().swap(fact_atoms_);
  }
  return GroundProgram(&program_, std::move(scratch_atoms_), std::move(rules),
                       std::move(pool), receipt);
}

}  // namespace afp
