#include "ground/grounder.h"

#include <algorithm>
#include <cassert>
#include <new>
#include <unordered_set>
#include <utility>

namespace afp {

namespace {

/// One-way matching of a rule-body pattern (terms with variables) against
/// an interned ground term, extending `binding`. Newly bound variables are
/// appended to `trail` so the caller can undo the extension on backtrack.
/// Ground instantiation is plain matching, never full unification —
/// candidate atoms carry no variables.
bool MatchTerm(const TermTable& tt, TermId pattern, TermId ground,
               std::unordered_map<SymbolId, TermId>& binding,
               std::vector<SymbolId>& trail) {
  switch (tt.kind(pattern)) {
    case TermKind::kVariable: {
      SymbolId v = tt.symbol(pattern);
      auto [it, inserted] = binding.emplace(v, ground);
      if (inserted) {
        trail.push_back(v);
        return true;
      }
      return it->second == ground;
    }
    case TermKind::kConstant:
      return pattern == ground;
    case TermKind::kCompound: {
      if (tt.kind(ground) != TermKind::kCompound ||
          tt.symbol(ground) != tt.symbol(pattern) ||
          tt.args(ground).size() != tt.args(pattern).size()) {
        return false;
      }
      auto pa = tt.args(pattern);
      auto ga = tt.args(ground);
      for (std::size_t i = 0; i < pa.size(); ++i) {
        if (!MatchTerm(tt, pa[i], ga[i], binding, trail)) return false;
      }
      return true;
    }
  }
  return false;
}

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

/// The predicate of a rule's first positive literal, or nullopt for a rule
/// without one.
std::optional<SymbolId> FirstPositivePredicate(const Rule& r) {
  for (const Literal& l : r.body) {
    if (l.positive) return l.atom.predicate;
  }
  return std::nullopt;
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
    g_.retiring_ = false;
  }

 private:
  Grounder& g_;
};

StatusOr<GroundProgram> Grounder::Ground(Program& program,
                                         const GroundOptions& options,
                                         std::unique_ptr<Grounder>* keep) {
  AFP_RETURN_IF_ERROR(program.Validate());
  const bool kept = keep != nullptr && SupportsRuleOps(options);
  std::unique_ptr<Grounder> g(new Grounder(program, options));
  AFP_ASSIGN_OR_RETURN(GroundProgram gp, g->Build(kept));
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
  } else if (opts_.semi_naive) {
    AFP_RETURN_IF_ERROR(AddRules(0));
  } else {
    AFP_RETURN_IF_ERROR(NaiveInstantiation());
  }
  AFP_ASSIGN_OR_RETURN(GroundProgram gp, Assemble(keep));
  atoms_ = nullptr;
  return gp;
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
  const SymbolId pred = atoms_->predicate(id);
  if (pred >= by_pred_.size()) by_pred_.resize(pred + 1);
  PredAppend(by_pred_[pred], id);
  derived_log_.push_back(id);
}

void Grounder::PredAppend(PredList& pl, AtomId id) {
  if (pl.tail == nullptr || pl.tail->count == pl.tail->cap) {
    const std::uint32_t cap =
        pl.tail == nullptr ? 8u : std::min(pl.tail->cap * 2u, 4096u);
    void* mem = cand_arena_.Allocate(sizeof(CandChunk) + cap * sizeof(AtomId),
                                     alignof(CandChunk));
    CandChunk* c = new (mem) CandChunk{nullptr, 0, cap};
    if (pl.tail == nullptr) {
      pl.head = c;
    } else {
      pl.tail->next = c;
    }
    pl.tail = c;
  }
  pl.tail->items()[pl.tail->count++] = id;
}

// --- source rules ---------------------------------------------------------

void Grounder::RegisterSourceRules() {
  const auto& rules = program_.rules();
  for (std::size_t ri = alive_.size(); ri < rules.size(); ++ri) {
    const Rule& r = rules[ri];
    const bool fact = r.IsFact(program_.terms());
    alive_.push_back(fact ? 0 : 1);  // EDB facts are not source rules
    if (fact) continue;
    std::uint32_t num_pos = 0;
    for (const Literal& l : r.body) {
      if (!l.positive) continue;
      const SymbolId pred = l.atom.predicate;
      if (pred >= triggers_.size()) triggers_.resize(pred + 1);
      triggers_[pred].push_back({static_cast<std::uint32_t>(ri), num_pos++});
    }
  }
}

Status Grounder::AddRules(std::size_t first) {
  assert(first == alive_.size());
  RegisterSourceRules();
  // New rules join in trigger order — rules without a positive literal
  // first, then by the predicate of the first positive literal — which is
  // the order the cascade would fire them in if every derived atom were
  // new. For the initial grounding every derived atom IS new (the EDB), so
  // this is exactly the first semi-naive round.
  std::vector<std::pair<std::int64_t, std::size_t>> order;
  for (std::size_t ri = first; ri < alive_.size(); ++ri) {
    if (!alive_[ri]) continue;
    const std::optional<SymbolId> pred =
        FirstPositivePredicate(program_.rules()[ri]);
    order.push_back({pred.has_value() ? std::int64_t{*pred} : -1, ri});
  }
  std::stable_sort(order.begin(), order.end(),
                   [](const auto& a, const auto& b) {
                     return a.first < b.first;
                   });
  const std::size_t log_before = derived_log_.size();
  ++current_round_;
  Binding binding;
  for (const auto& [pred, ri] : order) {
    if (delta_ != nullptr) ++delta_->rules_reground;
    binding.clear();
    AFP_RETURN_IF_ERROR(
        Join(program_.rules()[ri], kFullJoin, 0, current_round_, binding));
  }
  return CascadeFrom(log_before);
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
  Binding binding;
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
        if (!alive_[t.rule]) continue;
        if (delta_ != nullptr) ++delta_->rules_reground;
        binding.clear();
        AFP_RETURN_IF_ERROR(Join(program_.rules()[t.rule], t.pos, 0,
                                 current_round_, binding));
      }
    }
    delta_begin = delta_end;
    delta_end = derived_log_.size();
  }
  return Status::Ok();
}

Status Grounder::NaiveInstantiation() {
  // The ablation baseline: every round re-joins every rule against
  // everything derived so far, in rule order; rules without a positive
  // literal emit once, first.
  RegisterSourceRules();
  Binding binding;
  while (true) {
    ++current_round_;
    const std::size_t log_before = derived_log_.size();
    for (const bool body_free : {true, false}) {
      if (body_free && current_round_ > 1) continue;
      for (std::size_t ri = 0; ri < alive_.size(); ++ri) {
        const Rule& r = program_.rules()[ri];
        if (!alive_[ri] || FirstPositivePredicate(r).has_value() == body_free) {
          continue;
        }
        binding.clear();
        AFP_RETURN_IF_ERROR(Join(r, kFullJoin, 0, current_round_, binding));
      }
    }
    if (derived_log_.size() == log_before) return Status::Ok();
  }
}

Status Grounder::FullInstantiation() {
  RegisterSourceRules();
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

  for (std::size_t ri = 0; ri < alive_.size(); ++ri) {
    if (!alive_[ri]) continue;
    const Rule& r = program_.rules()[ri];
    std::vector<SymbolId> vars;
    auto collect_atom = [&](const Atom& a) {
      for (TermId t : a.args) program_.terms().CollectVariables(t, vars);
    };
    collect_atom(r.head);
    for (const Literal& l : r.body) collect_atom(l.atom);
    std::sort(vars.begin(), vars.end());
    vars.erase(std::unique(vars.begin(), vars.end()), vars.end());

    Binding binding;
    AFP_RETURN_IF_ERROR(EnumerateAssignments(r, vars, 0, domain, binding));
  }
  // In full mode every interned atom belongs to the base; mark everything
  // derived so no simplification drops it.
  for (std::size_t i = 0; i < derived_.size(); ++i) derived_[i] = true;
  return Status::Ok();
}

Status Grounder::EnumerateAssignments(const Rule& r,
                                      const std::vector<SymbolId>& vars,
                                      std::size_t i,
                                      const std::vector<TermId>& domain,
                                      Binding& binding) {
  if (i == vars.size()) return EmitInstance(r, binding);
  for (TermId c : domain) {
    binding[vars[i]] = c;
    AFP_RETURN_IF_ERROR(EnumerateAssignments(r, vars, i + 1, domain, binding));
  }
  binding.erase(vars[i]);
  return Status::Ok();
}

// --- the join -------------------------------------------------------------

Status Grounder::Join(const Rule& r, std::size_t delta_pos,
                      std::size_t pos_index, std::uint32_t round,
                      Binding& binding) {
  // Find the pos_index-th positive literal.
  std::size_t seen = 0;
  const Literal* lit = nullptr;
  for (const Literal& l : r.body) {
    if (!l.positive) continue;
    if (seen == pos_index) {
      lit = &l;
      break;
    }
    ++seen;
  }
  if (lit == nullptr) return EmitInstance(r, binding);  // all joined

  const RoundFilter filter = delta_pos == kFullJoin  ? RoundFilter::kUpTo
                             : pos_index < delta_pos  ? RoundFilter::kOld
                             : pos_index == delta_pos ? RoundFilter::kDelta
                                                      : RoundFilter::kUpTo;
  const SymbolId pred = lit->atom.predicate;
  if (pred >= by_pred_.size()) return Status::Ok();
  // Candidates are appended in derivation order, so each list is sorted by
  // round: filter, and stop at the first atom this position may not see.
  // EmitInstance may append to the very list being walked (atoms derived
  // this round, which the filter then rejects); chunks never relocate.
  // This scan is the grounder's hottest loop; matching and recursion live
  // in Descend so the loop's own state stays in registers.
  for (const CandChunk* c = by_pred_[pred].head; c != nullptr; c = c->next) {
    for (std::uint32_t i = 0; i < c->count; ++i) {
      const AtomId cand = c->items()[i];
      const std::uint32_t cr = round_[cand];
      if (cr > round - 1 ||  // derived this round; not visible yet
          (filter == RoundFilter::kOld && cr >= round - 1)) {
        return Status::Ok();
      }
      if (filter == RoundFilter::kDelta && cr != round - 1) continue;
      AFP_RETURN_IF_ERROR(
          Descend(r, lit->atom, cand, delta_pos, pos_index, round, binding));
    }
  }
  return Status::Ok();
}

Status Grounder::Descend(const Rule& r, const Atom& pattern, AtomId cand,
                         std::size_t delta_pos, std::size_t pos_index,
                         std::uint32_t round, Binding& binding) {
  const TermTable& tt = program_.terms();
  const auto cand_args = atoms_->args(cand);
  std::vector<SymbolId> trail;
  bool match = cand_args.size() == pattern.args.size();
  for (std::size_t a = 0; match && a < cand_args.size(); ++a) {
    match = MatchTerm(tt, pattern.args[a], cand_args[a], binding, trail);
  }
  Status st = Status::Ok();
  if (match) st = Join(r, delta_pos, pos_index + 1, round, binding);
  for (SymbolId v : trail) binding.erase(v);
  return st;
}

// --- instance emission ----------------------------------------------------

/// Substitutes `binding` into `a`'s arguments; every result must be ground
/// (guaranteed by rule safety for head and body alike).
Status Grounder::SubstArgs(const Rule& r, const Atom& a,
                           const Binding& binding, const char* what,
                           std::vector<TermId>& out) {
  out.clear();
  out.reserve(a.args.size());
  for (TermId t : a.args) {
    TermId g = program_.terms().Substitute(t, binding);
    if (!program_.terms().IsGround(g)) {
      return Status::Internal(std::string("non-ground ") + what +
                              " after substitution in '" +
                              program_.RuleToString(r) + "'");
    }
    out.push_back(g);
  }
  return Status::Ok();
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

Status Grounder::EmitInstance(const Rule& r, const Binding& binding) {
  AFP_RETURN_IF_ERROR(SubstArgs(r, r.head, binding, "head", emit_args_));
  AtomId head;
  AFP_ASSIGN_OR_RETURN(head, InternAtom(r.head.predicate, emit_args_));
  emit_pos_.clear();
  emit_neg_.clear();
  for (const Literal& l : r.body) {
    AFP_RETURN_IF_ERROR(
        SubstArgs(r, l.atom, binding, "body literal", emit_args_));
    AFP_ASSIGN_OR_RETURN(AtomId id, InternAtom(l.atom.predicate, emit_args_));
    (l.positive ? emit_pos_ : emit_neg_).push_back(id);
  }

  const std::uint64_t h = HashGroundRule(head, emit_pos_, emit_neg_);
  if (retiring_) return RetireInstance(r, h, head);
  const std::uint32_t next = static_cast<std::uint32_t>(instances_.size());
  const std::uint32_t got =
      instance_index_.FindOrInsert(h, next, [&](std::uint32_t id) {
        return InstanceEquals(id, head, emit_pos_, emit_neg_);
      });
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
    gp_->AddRule(head, emit_pos_, emit_neg_, /*dedupe=*/false);
    const std::uint32_t rule =
        static_cast<std::uint32_t>(gp_->num_rules() - 1);
    if (got >= instance_rule_.size()) instance_rule_.resize(got + 1, kNoRule);
    instance_rule_[got] = rule;
    delta_->added_rules.push_back(rule);
    delta_->added_heads.push_back(head);
  }
  return Status::Ok();
}

Status Grounder::RetireInstance(const Rule& r, std::uint64_t hash,
                                AtomId head) {
  const std::uint32_t got =
      instance_index_.Find(hash, [&](std::uint32_t id) {
        return InstanceEquals(id, head, emit_pos_, emit_neg_);
      });
  if (got == FlatIndex::kNotFound || instances_[got].count == 0) {
    return Status::Internal(
        "rule removal found an instance with no provenance (invariant "
        "breach): " + program_.RuleToString(r));
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
  OpScope scope(*this, gp, delta);
  AFP_RETURN_IF_ERROR(FoldAsserted());
  return AddRules(first_rule);
}

Status Grounder::RemoveSourceRule(GroundProgram& gp, std::size_t rule_index,
                                  Delta* delta) {
  OpScope scope(*this, gp, delta);
  AFP_RETURN_IF_ERROR(FoldAsserted());
  if (rule_index >= alive_.size() || !alive_[rule_index]) {
    return Status::InvalidArgument("rule is not live");
  }
  alive_[rule_index] = 0;
  // Re-enumerate the rule's bindings over the derived set — by the
  // emission invariant exactly the bindings it has emitted — and take
  // their provenance away. Nothing is derived meanwhile.
  ++current_round_;
  ++delta->rules_reground;
  retiring_ = true;
  Binding binding;
  return Join(program_.rules()[rule_index], kFullJoin, 0, current_round_,
              binding);
}

std::optional<std::size_t> Grounder::FindLiveRule(const Rule& r) const {
  for (std::size_t ri = 0; ri < alive_.size(); ++ri) {
    if (!alive_[ri]) continue;
    if (RuleEquiv(program_.terms(), program_.rules()[ri], r)) return ri;
  }
  return std::nullopt;
}

// --- final assembly ---------------------------------------------------------

StatusOr<GroundProgram> Grounder::Assemble(bool keep) {
  const bool simplify = opts_.simplify && opts_.mode != GroundMode::kFull;
  GroundProgram gp(&program_);

  // Compact the atom table: in simplify mode, only derivable atoms remain
  // in the base (everything else is certainly false and gets erased from
  // rule bodies below).
  std::vector<AtomId> remap(atoms_->size(), kInvalidAtom);
  for (AtomId a = 0; a < atoms_->size(); ++a) {
    if (!simplify || derived_[a]) {
      remap[a] = gp.atoms().Intern(atoms_->predicate(a), atoms_->args(a));
    }
  }

  for (AtomId f : fact_atoms_) {
    gp.AddRule(remap[f], {}, {});
  }
  const std::uint32_t first_instance_rule =
      static_cast<std::uint32_t>(gp.num_rules());
  std::vector<AtomId> pos, neg;
  for (const Instance& in : instances_) {
    pos.clear();
    neg.clear();
    for (std::uint32_t i = 0; i < in.pos_len; ++i) {
      pos.push_back(remap[instance_pool_[in.pos_offset + i]]);
    }
    for (std::uint32_t i = 0; i < in.neg_len; ++i) {
      const AtomId a = instance_pool_[in.pos_offset + in.pos_len + i];
      if (simplify && !derived_[a]) continue;  // certainly-true literal
      neg.push_back(remap[a]);
    }
    gp.AddRule(remap[in.head], pos, neg);
  }

  // The grounding receipt: fold in the counters of the scratch structures
  // (the scratch atom table, the instance-dedupe index, the candidate
  // arena). The live tables the program keeps (gp.atoms(),
  // program_.terms()) are read separately by Solver::Stats so their
  // counters keep accumulating.
  GroundStats& gs = gp.grounding_stats_mutable();
  gs.Absorb(atoms_->index_stats());
  gs.Absorb(instance_index_.stats());
  gs.arena_bytes = cand_arena_.total_allocated();
  gp.SealRules();
  gs.atoms = gp.num_atoms();
  gs.rules = gp.num_rules();

  if (keep) {
    // Unsimplified: atom ids carried over unchanged, and no instance was
    // dropped as a duplicate (their bodies are never empty, and the
    // instance dedupe already merged reorderings), so instance i is rule
    // first_instance_rule + i. From here on the program's own atom table
    // is the one rule ops intern into.
    assert(gp.num_rules() == first_instance_rule + instances_.size());
    instance_rule_.resize(instances_.size());
    for (std::uint32_t i = 0; i < instances_.size(); ++i) {
      instance_rule_[i] = first_instance_rule + i;
    }
    scratch_atoms_ = AtomTable();
    std::vector<AtomId>().swap(fact_atoms_);
  }
  return gp;
}

}  // namespace afp
