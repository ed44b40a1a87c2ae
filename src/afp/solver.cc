#include "afp/solver.h"

#include <algorithm>
#include <utility>

#include "core/component_solver.h"
#include "parser/parser.h"
#include "util/rss.h"

namespace afp {

StatusOr<Solver> Solver::FromText(std::string_view program_text,
                                  SolverOptions options) {
  AFP_ASSIGN_OR_RETURN(Program parsed, ParseProgram(program_text));
  return FromProgram(std::move(parsed), std::move(options));
}

StatusOr<Solver> Solver::FromProgram(Program program, SolverOptions options) {
  auto owned = std::make_unique<Program>(std::move(program));
  std::unique_ptr<Grounder> grounder;
  AFP_ASSIGN_OR_RETURN(GroundProgram ground,
                       Grounder::Ground(*owned, options.ground, &grounder));
  return Solver(std::move(owned), std::move(ground), std::move(grounder),
                std::move(options));
}

Solver::Solver(std::unique_ptr<Program> program, GroundProgram ground,
               std::unique_ptr<Grounder> grounder, SolverOptions options)
    : options_(std::move(options)),
      program_(std::move(program)),
      ground_(std::move(ground)),
      ctx_(std::make_unique<EvalContext>()),
      grounder_(std::move(grounder)) {
  stats_.num_atoms = ground_.num_atoms();
  stats_.num_rules = ground_.num_rules();
  stats_.ground_size = ground_.TotalSize();
  RefreshGroundStats();
}

void Solver::RefreshGroundStats() {
  // Grounding-time receipt (scratch structures the grounder destroyed),
  // plus the live tables' counters as of now. The live counters keep
  // growing as queries/mutations intern, so this recomposes from the
  // stored receipt each time rather than accumulating in place.
  GroundStats g = ground_.grounding_stats();
  g.Absorb(ground_.atoms().index_stats());
  g.Absorb(program_->terms().index_stats());
  g.atoms = ground_.num_atoms();
  g.rules = ground_.num_rules();
  g.peak_rss_bytes = PeakRssBytes();
  stats_.ground = g;
}

void Solver::EnsureGraph() {
  if (!graph_) {
    graph_ = std::make_unique<AtomDependencyGraph>(ground_.View());
    comp_rules_ = RuleBuckets(ground_.View(), *graph_);
  }
  // Any mutation epoch this session did not itself produce means someone
  // appended rules behind the buckets' back — drop them all before
  // solving or touching the program further.
  buckets_.SyncEpoch(ground_.mutation_epoch());
}

SccOptions Solver::SccOptionsFromSession() {
  SccOptions o;
  o.inner = options_.inner;
  o.buckets = &buckets_;
  return o;
}

const PartialModel& Solver::Solve() {
  if (solved_) return model_;
  stats_.num_rules = ground_.num_rules();
  stats_.ground_size = ground_.TotalSize();
  RefreshGroundStats();
  EnsureGraph();
  SccWfsResult r = WellFoundedSccOnGraph(*ctx_, ground_.View(), *graph_,
                                         comp_rules_, SccOptionsFromSession());
  model_ = std::move(r.model);
  component_iterations_ = std::move(r.component_iterations);
  stats_.num_components = r.num_components;
  stats_.total_local_size = r.total_local_size;
  stats_.locally_stratified = r.locally_stratified;
  RefreshBucketStats();
  stats_.eval = r.eval;
  solved_ = true;
  ++stats_.full_solves;
  return model_;
}

StatusOr<TruthValue> Solver::Query(const std::string& atom_text) {
  return std::move(QueryBatch({&atom_text, 1})[0]);
}

std::vector<StatusOr<TruthValue>> Solver::QueryBatch(
    std::span<const std::string> atom_texts) {
  std::vector<StatusOr<TruthValue>> out;
  out.reserve(atom_texts.size());
  if (solved_) {
    for (const std::string& text : atom_texts) {
      out.push_back(QueryAtom(ground_, model_, text));
    }
    return out;
  }
  // Resolve every text; an atom outside the base is false and joins no
  // cone, a text that does not parse fails only its own slot.
  std::vector<AtomId> atoms;
  std::vector<std::size_t> slots;
  for (const std::string& text : atom_texts) {
    StatusOr<AtomId> id = ResolveAtom(ground_, text);
    if (!id.ok()) {
      out.push_back(id.status());
      continue;
    }
    if (*id != kInvalidAtom) {
      atoms.push_back(*id);
      slots.push_back(out.size());
    }
    out.push_back(TruthValue::kFalse);
  }
  SccConeStats r;
  EvalStats eval;
  if (!atoms.empty()) {
    EnsureGraph();
    cone_true_.GrowTo(ground_.num_atoms());
    cone_false_.GrowTo(ground_.num_atoms());
    const RuleView view = ground_.View();
    ComponentSolver solver(*ctx_, SccOptionsFromSession(), view, *graph_,
                           comp_rules_);
    GlobalModel gm{&cone_true_, &cone_false_};
    const EvalStats start = ctx_->stats();
    r = SccSolveUpstream(solver, atoms, gm, update_scratch_);
    eval = ctx_->stats().Since(start);
    for (std::size_t k = 0; k < atoms.size(); ++k) {
      out[slots[k]] = gm.Value(atoms[k]);
    }
  }
  stats_.cone_components = r.components;
  stats_.cone_local_size = r.local_size;
  stats_.eval = eval;
  RefreshBucketStats();
  return out;
}

StatusOr<std::vector<QueryMatch>> Solver::Select(const std::string& pattern,
                                                 QueryFilter filter) {
  return afp::Select(ground_, Solve(), pattern, filter);
}

StatusOr<Justification> Solver::Explain(const std::string& atom_text) {
  return afp::Explain(ground_, Solve(), atom_text);
}

StableSearch& Solver::EnsureSearch() {
  if (search_ != nullptr &&
      (&search_->ground() != &ground_ ||
       search_epoch_ != ground_.mutation_epoch())) {
    search_.reset();
  }
  if (search_ == nullptr) {
    search_ = std::make_unique<StableSearch>(ground_);
    search_epoch_ = ground_.mutation_epoch();
  }
  // The seed must be THE well-founded model of the CURRENT program: a
  // session that mutated since its last solve has solved_ == false (or a
  // repaired-in-place model_, which is exactly current), so this re-arms
  // or disarms the seed on every call.
  if (solved_) {
    search_->SeedRoot(model_.true_atoms(), model_.false_atoms());
  } else {
    search_->ClearSeed();
  }
  return *search_;
}

StableResult Solver::StableModels(std::size_t max_models) {
  StableSearchControl control;
  control.max_models = max_models;
  return StableModels(control);
}

StableResult Solver::StableModels(const StableSearchControl& control) {
  StableResult r = EnsureSearch().Enumerate(control);
  stats_.search = r.search;
  return r;
}

std::size_t Solver::CountStableModels(std::size_t max_models) {
  StableSearchControl control;
  control.max_models = max_models;
  return CountStableModels(control);
}

std::size_t Solver::CountStableModels(const StableSearchControl& control) {
  StableResult r = EnsureSearch().Count(control);
  stats_.search = std::move(r.search);
  return stats_.search.models;
}

std::string Solver::ModelText(const ModelPrintOptions& opts) {
  return ModelToString(ground_, Solve(), opts);
}

std::string Solver::ModelJson(const ModelPrintOptions& opts) {
  return ModelToJson(ground_, Solve(), opts);
}

StatusOr<UpdateStats> Solver::AssertFacts(
    const std::vector<std::string>& atoms) {
  return MutateFacts(atoms, /*add=*/true);
}

StatusOr<UpdateStats> Solver::RetractFacts(
    const std::vector<std::string>& atoms) {
  return MutateFacts(atoms, /*add=*/false);
}

StatusOr<UpdateStats> Solver::AssertFact(const std::string& atom) {
  return MutateFacts({atom}, /*add=*/true);
}

StatusOr<UpdateStats> Solver::RetractFact(const std::string& atom) {
  return MutateFacts({atom}, /*add=*/false);
}

namespace {

/// Resolves a fact batch, failing the whole call on any unknown atom so
/// the caller mutates nothing (atomic failure).
StatusOr<std::vector<AtomId>> ResolveFactBatch(
    const GroundProgram& ground, const std::vector<std::string>& atoms,
    const char* verb) {
  std::vector<AtomId> ids;
  ids.reserve(atoms.size());
  for (const std::string& text : atoms) {
    AFP_ASSIGN_OR_RETURN(AtomId id, ResolveAtom(ground, text));
    if (id == kInvalidAtom) {
      return Status::NotFound(
          std::string("cannot ") + verb + " '" + text +
          "': atom is outside the grounded base (the universe is fixed at "
          "construction — ground with GroundMode::kFull or mention the "
          "atom in the initial program)");
    }
    ids.push_back(id);
  }
  return ids;
}

}  // namespace

StatusOr<UpdateStats> Solver::MutateFacts(
    const std::vector<std::string>& atoms, bool add) {
  AFP_ASSIGN_OR_RETURN(
      std::vector<AtomId> ids,
      ResolveFactBatch(ground_, atoms, add ? "assert" : "retract"));
  if (add) return UpdateFactsById(ids, {});
  return UpdateFactsById({}, ids);
}

StatusOr<UpdateStats> Solver::UpdateFacts(
    const std::vector<std::string>& asserts,
    const std::vector<std::string>& retracts) {
  AFP_ASSIGN_OR_RETURN(std::vector<AtomId> assert_ids,
                       ResolveFactBatch(ground_, asserts, "assert"));
  AFP_ASSIGN_OR_RETURN(std::vector<AtomId> retract_ids,
                       ResolveFactBatch(ground_, retracts, "retract"));
  return UpdateFactsById(assert_ids, retract_ids);
}

UpdateStats Solver::UpdateFactsById(std::span<const AtomId> asserts,
                                    std::span<const AtomId> retracts) {
  EnsureGraph();
  const std::vector<std::uint32_t>& comp_of = graph_->component_of();
  UpdateStats up;
  std::vector<AtomId> touched;
  // Retracts first so an atom appearing in both lists ends up asserted.
  for (AtomId id : retracts) {
    GroundProgram::FactRemoval rem = ground_.RemoveFact(id);
    if (!rem.removed) continue;
    // The grounder tracks which rule each instance occupies; the swap may
    // have moved one.
    if (grounder_ && rem.moved_rule != rem.erased_rule) {
      grounder_->NoteRuleMoved(ground_, rem.erased_rule);
    }
    // The touched component's bucket copies a rule set that just changed.
    // The moved rule's component needs nothing: buckets copy rule
    // content, not ids, and its content is untouched.
    buckets_.Invalidate(comp_of[id]);
    // Erase the fact rule's id, and move the swapped-in (previously
    // last) rule's id down to its new slot.
    comp_rules_.Erase(comp_of[id], rem.erased_rule);
    if (rem.moved_rule != rem.erased_rule) {
      comp_rules_.Renumber(comp_of[ground_.rule(rem.erased_rule).head],
                           rem.moved_rule, rem.erased_rule);
    }
    touched.push_back(id);
  }
  for (AtomId id : asserts) {
    if (!ground_.AddFact(id)) continue;
    // An atom never derived before joins the grounder's derived set at the
    // next rule op (the deferred-extension contract: asserts never extend
    // the grounding mid-update; see docs/API.md).
    if (grounder_) grounder_->NoteFactAsserted(id);
    comp_rules_.Append(comp_of[id],
                       static_cast<std::uint32_t>(ground_.num_rules() - 1));
    buckets_.Invalidate(comp_of[id]);
    touched.push_back(id);
  }
  // Every epoch bump above is explained: the touched components were
  // invalidated precisely, and the repair rebuilds their buckets.
  buckets_.AcknowledgeEpoch(ground_.mutation_epoch());
  up.facts_changed = touched.size();
  stats_.num_rules = ground_.num_rules();
  stats_.ground_size = ground_.TotalSize();
  RefreshGroundStats();
  RefreshBucketStats();
  if (touched.empty() || !solved_) {
    // Nothing changed, or no model exists yet (the first Solve() will be
    // full and sees the mutated program).
    return up;
  }

  const SccUpdateStats r = RepairDownstream(touched);
  up.components_downstream = r.components_downstream;
  up.components_resolved = r.components_resolved;
  up.components_skipped = r.components_skipped;
  up.components_reused = graph_->num_components() - r.components_downstream;
  up.model_changed = r.model_changed;
  up.eval = stats_.eval;
  return up;
}

SccUpdateStats Solver::RepairDownstream(std::span<const AtomId> touched) {
  std::vector<std::uint32_t>* iters =
      component_iterations_.empty() ? nullptr : &component_iterations_;
  const RuleView view = ground_.View();
  ComponentSolver solver(*ctx_, SccOptionsFromSession(), view, *graph_,
                         comp_rules_);
  GlobalModel gm{&model_.true_atoms(), &model_.false_atoms()};
  const EvalStats start = ctx_->stats();
  SccUpdateStats r =
      SccResolveDownstream(solver, touched, gm, iters, update_scratch_);
  stats_.eval = ctx_->stats().Since(start);
  ++stats_.incremental_updates;
  RefreshBucketStats();
  return r;
}

Status Solver::RuleOpsAvailable() const {
  if (grounder_) return Status::Ok();
  if (!Grounder::SupportsRuleOps(options_.ground)) {
    return Status::FailedPrecondition(
        "rule mutations need the exact instance provenance of kSmart, "
        "unsimplified grounding; construct the session with "
        "options.ground = {mode = kSmart, simplify = false}");
  }
  return Status::FailedPrecondition(
      "an earlier rule mutation failed mid-grounding, so the session's "
      "grounding no longer covers its rules; rebuild the session");
}

Status Solver::PoisonRuleMutation(Status st) {
  grounder_.reset();
  graph_ = std::make_unique<AtomDependencyGraph>(ground_.View());
  comp_rules_ = RuleBuckets(ground_.View(), *graph_);
  buckets_.Clear();
  buckets_.AcknowledgeEpoch(ground_.mutation_epoch());
  RefreshBucketStats();
  InvalidateModel();
  return st;
}

StatusOr<RuleUpdateStats> Solver::AddRule(std::string_view rule_text) {
  AFP_RETURN_IF_ERROR(RuleOpsAvailable());
  const std::size_t atoms_before = ground_.num_atoms();
  // Parse first: a parse error must leave the session untouched, and the
  // fact check must run before the grounder ever sees the appended rules
  // (ParseRulesInto rolls the program back on error itself).
  AFP_ASSIGN_OR_RETURN(std::size_t first,
                       Parser::ParseRulesInto(*program_, rule_text));
  const std::size_t num_added = program_->rules().size() - first;
  if (num_added == 0) {
    return Status::InvalidArgument("AddRule: no rule in input");
  }
  for (std::size_t ri = first; ri < program_->rules().size(); ++ri) {
    if (program_->rules()[ri].IsFact(program_->terms())) {
      const std::string text = program_->RuleToString(program_->rules()[ri]);
      program_->TruncateRules(first);
      return Status::InvalidArgument("AddRule: '" + text +
                                     "' is a fact — facts are EDB state, "
                                     "use AssertFacts");
    }
  }
  // The graph must describe the PRE-mutation program: the splice patches
  // it in place, and the append fast path needs the old adjacency intact.
  EnsureGraph();
  Grounder::Delta delta;
  Status st = grounder_->AddSourceRules(ground_, first, &delta);
  if (!st.ok()) return PoisonRuleMutation(std::move(st));
  return FinishRuleMutation(delta, atoms_before, num_added);
}

StatusOr<RuleUpdateStats> Solver::RemoveRule(std::string_view rule_text) {
  AFP_RETURN_IF_ERROR(RuleOpsAvailable());
  const std::size_t atoms_before = ground_.num_atoms();
  // Parse the pattern into the live program — structural matching
  // compares hash-consed term ids, so the pattern must share the
  // session's interner — then find each live counterpart and drop the
  // parsed copies again (the grounder only ever registered the rules
  // before them). Nothing is mutated until every pattern matched.
  AFP_ASSIGN_OR_RETURN(std::size_t first,
                       Parser::ParseRulesInto(*program_, rule_text));
  std::vector<std::size_t> targets;
  Status find_st = Status::Ok();
  if (first == program_->rules().size()) {
    find_st = Status::InvalidArgument("RemoveRule: no rule in input");
  }
  for (std::size_t ri = first;
       find_st.ok() && ri < program_->rules().size(); ++ri) {
    const Rule& r = program_->rules()[ri];
    if (r.IsFact(program_->terms())) {
      find_st = Status::InvalidArgument(
          "RemoveRule: '" + program_->RuleToString(r) +
          "' is a fact — facts are EDB state, use RetractFacts");
      break;
    }
    std::optional<std::size_t> live = grounder_->FindLiveRule(r);
    if (!live.has_value() ||
        std::find(targets.begin(), targets.end(), *live) != targets.end()) {
      find_st = Status::NotFound("RemoveRule: no live rule matches '" +
                                 program_->RuleToString(r) + "'");
      break;
    }
    targets.push_back(*live);
  }
  program_->TruncateRules(first);
  AFP_RETURN_IF_ERROR(find_st);
  EnsureGraph();
  Grounder::Delta delta;
  for (std::size_t t : targets) {
    Status st = grounder_->RemoveSourceRule(ground_, t, &delta);
    if (!st.ok()) return PoisonRuleMutation(std::move(st));
  }
  return FinishRuleMutation(delta, atoms_before, targets.size());
}

RuleUpdateStats Solver::FinishRuleMutation(const Grounder::Delta& delta,
                                           std::size_t atoms_before,
                                           std::size_t source_rules_changed) {
  RuleUpdateStats out;
  out.source_rules_changed = source_rules_changed;
  out.ground_rules_added = delta.added_rules.size();
  out.ground_rules_removed = delta.removals.size();
  out.atoms_added = ground_.num_atoms() - atoms_before;
  out.rules_reground = delta.rules_reground;
  stats_.num_atoms = ground_.num_atoms();
  stats_.num_rules = ground_.num_rules();
  stats_.ground_size = ground_.TotalSize();
  RefreshGroundStats();

  // Every epoch bump of the delta is explained below: the touched
  // components' buckets are dropped, or all of them with the analysis.
  buckets_.AcknowledgeEpoch(ground_.mutation_epoch());
  RefreshBucketStats();
  if (delta.added_rules.empty() && delta.removals.empty()) return out;

  // --- Patch (or rebuild) the cached analysis --------------------------
  //
  // Fast paths: a pure append splices new trailing components into the
  // cached numbering (TryAppendDelta), a pure removal needs no graph work
  // at all as long as no removed edge was intra-component (dropping
  // cross-component edges cannot merge or reorder, and the stale
  // condensation edges only over-approximate downstream closures). A
  // MIXED delta rebuilds: later swap-removes re-aim the recorded added
  // rule ids, so the splice could read the wrong rule bodies.
  std::vector<std::uint32_t> dirty;
  std::uint32_t first_new_comp =
      static_cast<std::uint32_t>(graph_->num_components());
  bool fast = delta.added_rules.empty() || delta.removals.empty();
  if (fast && !delta.removals.empty()) {
    const std::vector<std::uint32_t>& comp_of = graph_->component_of();
    for (const auto& rem : delta.removals) {
      const std::uint32_t hc = comp_of[rem.head];
      for (AtomId b : rem.pos) {
        if (comp_of[b] == hc) fast = false;
      }
      for (AtomId b : rem.neg) {
        if (comp_of[b] == hc) fast = false;
      }
      if (!fast) break;
    }
  } else if (fast) {
    AtomDependencyGraph::DeltaAppendResult res = graph_->TryAppendDelta(
        ground_.View(), delta.added_rules, atoms_before);
    fast = res.applied;
    if (fast) first_new_comp = res.first_new_component;
  }

  if (fast) {
    const std::vector<std::uint32_t>& comp_of = graph_->component_of();
    const std::size_t nc = graph_->num_components();
    comp_rules_.Resize(nc);
    // Additions: appended gp ids ascend, so each Append lands at the end
    // of its row.
    for (std::size_t i = 0; i < delta.added_rules.size(); ++i) {
      const std::uint32_t c = comp_of[delta.added_heads[i]];
      comp_rules_.Append(c, delta.added_rules[i]);
      dirty.push_back(c);
    }
    // Removals, replayed in application order: the same swap-erase patch
    // as UpdateFactsById.
    for (const auto& rem : delta.removals) {
      const std::uint32_t c = comp_of[rem.head];
      comp_rules_.Erase(c, rem.erased_rule);
      if (rem.moved_rule != rem.erased_rule) {
        comp_rules_.Renumber(comp_of[rem.moved_head], rem.moved_rule,
                             rem.erased_rule);
      }
      dirty.push_back(c);
    }
    for (std::uint32_t c = first_new_comp; c < nc; ++c) dirty.push_back(c);
    out.components_added = nc - first_new_comp;
    std::sort(dirty.begin(), dirty.end());
    dirty.erase(std::unique(dirty.begin(), dirty.end()), dirty.end());
    for (std::uint32_t c : dirty) {
      if (buckets_.Invalidate(c)) ++out.buckets_invalidated;
    }
  } else {
    out.graph_rebuilt = true;
    const std::size_t old_nc = graph_->num_components();
    std::unique_ptr<AtomDependencyGraph> old_graph = std::move(graph_);
    std::vector<std::uint32_t> old_iters = std::move(component_iterations_);
    component_iterations_.clear();
    graph_ = std::make_unique<AtomDependencyGraph>(ground_.View());
    comp_rules_ = RuleBuckets(ground_.View(), *graph_);
    out.buckets_invalidated = buckets_.num_buckets();
    buckets_.Clear();
    const std::vector<std::uint32_t>& comp_of = graph_->component_of();
    const std::size_t nc = graph_->num_components();
    out.components_added = nc > old_nc ? nc - old_nc : 0;
    // Trajectories survive the renumbering only for components whose
    // membership is exactly an old component's; everything else re-seeds.
    if (!old_iters.empty() && solved_) {
      component_iterations_.assign(nc, 0);
      const std::vector<std::uint32_t>& old_comp = old_graph->component_of();
      for (std::uint32_t c = 0; c < nc; ++c) {
        const std::span<const AtomId> m = graph_->members(c);
        bool same = m[0] < old_comp.size();
        if (same) {
          const std::uint32_t oc = old_comp[m[0]];
          same = old_graph->members(oc).size() == m.size();
          for (std::size_t i = 0; same && i < m.size(); ++i) {
            same = m[i] < old_comp.size() && old_comp[m[i]] == oc;
          }
          if (same) component_iterations_[c] = old_iters[oc];
        }
        if (!same) dirty.push_back(c);
      }
    }
    // Semantic seeds: every component holding a touched head, and every
    // component of a new atom (new atoms start undefined and must be
    // decided even when no rule derives them).
    for (AtomId h : delta.added_heads) dirty.push_back(comp_of[h]);
    for (const auto& rem : delta.removals) dirty.push_back(comp_of[rem.head]);
    for (AtomId a = static_cast<AtomId>(atoms_before);
         a < ground_.num_atoms(); ++a) {
      dirty.push_back(comp_of[a]);
    }
    std::sort(dirty.begin(), dirty.end());
    dirty.erase(std::unique(dirty.begin(), dirty.end()), dirty.end());
  }

  // --- Repair the model ------------------------------------------------
  RefreshBucketStats();
  if (!solved_ || dirty.empty()) return out;
  model_.true_atoms().GrowTo(ground_.num_atoms());
  model_.false_atoms().GrowTo(ground_.num_atoms());
  if (!component_iterations_.empty()) {
    component_iterations_.resize(graph_->num_components(), 0);
  }
  std::vector<AtomId> touched;
  touched.reserve(dirty.size());
  for (std::uint32_t c : dirty) {
    touched.push_back(graph_->members(c)[0]);
  }
  const SccUpdateStats r = RepairDownstream(touched);
  out.components_downstream = r.components_downstream;
  out.components_resolved = r.components_resolved;
  out.components_skipped = r.components_skipped;
  out.components_reused = graph_->num_components() - r.components_downstream;
  out.model_changed = r.model_changed;
  out.eval = stats_.eval;
  return out;
}

PartialModel Solver::SnapshotModel() {
  PartialModel copy = Solve();
  // Warm the mutable count cache on this (the writer's) thread; readers
  // of the copy then see const methods that are physically const.
  copy.num_true();
  return copy;
}

Status Solver::AdoptModel(PartialModel model) {
  if (model.true_atoms().universe_size() != ground_.num_atoms() ||
      model.false_atoms().universe_size() != ground_.num_atoms()) {
    return Status::InvalidArgument(
        "adopted model's universe size does not match the ground program");
  }
  if (!model.IsConsistent()) {
    return Status::InvalidArgument(
        "adopted model is inconsistent (true and false sets intersect)");
  }
  if (!Satisfies(ground_, model)) {
    return Status::FailedPrecondition(
        "adopted model does not satisfy the ground program's rules (was "
        "the state saved from a different program?)");
  }
  model_ = std::move(model);
  model_.num_true();  // warm the count cache (see SnapshotModel)
  solved_ = true;
  component_iterations_.clear();
  return Status::Ok();
}

bool Solver::ValidateRuleBuckets() {
  // EnsureGraph doubles as a bucket-cache sync point: a caller poking the
  // ground program directly (tests, tools) can re-validate and thereby
  // guarantee no stale bucket survives the poke.
  EnsureGraph();
  RefreshBucketStats();
  return comp_rules_ == RuleBuckets(ground_.View(), *graph_);
}

}  // namespace afp
