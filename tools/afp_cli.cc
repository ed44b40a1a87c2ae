// afp — command-line solver for normal logic programs with negation.
//
// Usage:
//   afp [options] [file.lp]            (stdin if no file)
//
// Options:
//   --semantics=wfs|stable|fitting|stratified|ifp   (default wfs); the
//                                      whole wfs/stable path runs through
//                                      one afp::Solver session, which
//                                      solves component by component
//   --assert=ATOM / --retract=ATOM     EDB fact mutations applied AFTER the
//                                      initial solve, each repaired by the
//                                      Solver's incremental re-solve
//                                      (repeat the flag for several facts;
//                                      --stats prints the update receipt)
//   --add-rule=RULE / --remove-rule=RULE
//                                      rule-level mutations over the live
//                                      session, interleaved with
//                                      --assert/--retract in command-line
//                                      order; new rules are delta-grounded
//                                      against the session's derived set
//                                      (the universe may grow) and the
//                                      repair is component-wise. Rule flags
//                                      force simplification off so source
//                                      rules stay addressable; --stats
//                                      prints the RuleUpdateStats receipt
//   --inner=afp|wp                     per-component engine (default afp)
//   --query=ATOM                       point query (repeatable via commas)
//   --select=PATTERN                   enumerate matches, e.g. wins(X)
//   --trace                            print the Table-I style trace of
//                                      the monolithic alternating fixpoint
//                                      (--semantics=wfs)
//   --json                             print the model as JSON (with the
//                                      --query/--select answers in the
//                                      same object)
//   --max-models=N                     cap stable-model enumeration
//                                      (N is a whole decimal number;
//                                      anything else exits 1)
//   --ground                           print the ground program and exit
//   --stats                            print sizes and work counters
//
// Exit status: 0 on success, 1 on input errors. Unknown flags, flag
// values and a second input path are rejected before any input is read.

#include <charconv>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "afp/afp.h"

namespace {

/// One session mutation in command-line order.
struct Mutation {
  enum class Kind { kAssert, kRetract, kAddRule, kRemoveRule };
  Kind kind;
  std::string text;  // atom for fact ops, rule text for rule ops
  bool is_rule() const {
    return kind == Kind::kAddRule || kind == Kind::kRemoveRule;
  }
  const char* Name() const {
    switch (kind) {
      case Kind::kAssert: return "assert";
      case Kind::kRetract: return "retract";
      case Kind::kAddRule: return "add-rule";
      case Kind::kRemoveRule: return "remove-rule";
    }
    return "?";
  }
};

struct Options {
  std::string semantics = "wfs";
  std::string inner = "afp";
  bool inner_given = false;
  std::vector<std::string> queries;
  std::vector<std::string> selects;
  /// Session mutations (facts and rules) in command-line order.
  std::vector<Mutation> mutations;
  bool has_rule_ops = false;
  bool trace = false;
  bool ground_only = false;
  bool stats = false;
  bool json = false;
  std::size_t max_models = static_cast<std::size_t>(-1);
  std::string file;
};

bool ParseFlag(const std::string& arg, const std::string& name,
               std::string* value) {
  std::string prefix = "--" + name + "=";
  if (arg.rfind(prefix, 0) != 0) return false;
  *value = arg.substr(prefix.size());
  return true;
}

void SplitCommas(const std::string& s, std::vector<std::string>* out) {
  std::stringstream ss(s);
  std::string item;
  while (std::getline(ss, item, ',')) {
    if (!item.empty()) out->push_back(item);
  }
}

/// Parses `text` as a whole decimal number in [lo, hi]: no sign, no
/// whitespace, nothing trailing.
bool ParseNumber(const std::string& text, std::uint64_t lo, std::uint64_t hi,
                 std::uint64_t* out) {
  const char* end = text.data() + text.size();
  std::uint64_t v = 0;
  const auto [ptr, ec] = std::from_chars(text.data(), end, v);
  if (ec != std::errc() || ptr != end || v < lo || v > hi) return false;
  *out = v;
  return true;
}

int BadValue(const std::string& flag, const std::string& value) {
  std::cerr << "afp: bad --" << flag << " value '" << value << "'\n";
  return 1;
}

int Fail(const afp::Status& status) {
  std::cerr << "afp: " << status.ToString() << "\n";
  return 1;
}

void PrintModel(const afp::GroundProgram& gp, const afp::PartialModel& model,
                const Options& opts) {
  afp::ModelPrintOptions popts;
  if (opts.json) {
    // The --query and --select answers go into the model's object.
    afp::JsonWriter w;
    w.BeginObject();
    afp::WriteModelJson(w, gp, model, popts);
    if (!opts.queries.empty()) {
      w.BeginArray("queries");
      for (const std::string& q : opts.queries) {
        w.BeginObject().KeyValue("atom", q);
        auto v = afp::QueryAtom(gp, model, q);
        if (!v.ok()) {
          w.KeyValue("error", v.status().message());
        } else {
          w.KeyValue("value", afp::TruthValueName(*v));
        }
        w.EndObject();
      }
      w.EndArray();
    }
    if (!opts.selects.empty()) {
      w.BeginArray("selects");
      for (const std::string& pattern : opts.selects) {
        w.BeginObject().KeyValue("pattern", pattern);
        auto matches = afp::Select(gp, model, pattern, afp::QueryFilter::kAll);
        if (!matches.ok()) {
          w.KeyValue("error", matches.status().message());
        } else {
          w.BeginArray("matches");
          for (const auto& m : *matches) {
            w.BeginObject()
                .KeyValue("atom", m.atom)
                .KeyValue("value", afp::TruthValueName(m.value))
                .EndObject();
          }
          w.EndArray();
        }
        w.EndObject();
      }
      w.EndArray();
    }
    w.EndObject();
    std::cout << w.str() << "\n";
    return;
  }
  std::cout << afp::ModelToString(gp, model, popts);
  for (const std::string& q : opts.queries) {
    auto v = afp::QueryAtom(gp, model, q);
    if (!v.ok()) {
      std::cout << q << " = error: " << v.status().message() << "\n";
    } else {
      std::cout << q << " = " << afp::TruthValueName(*v) << "\n";
    }
  }
  for (const std::string& pattern : opts.selects) {
    auto matches = afp::Select(gp, model, pattern, afp::QueryFilter::kAll);
    if (!matches.ok()) {
      std::cout << pattern << " = error: " << matches.status().message()
                << "\n";
      continue;
    }
    std::cout << pattern << ":\n";
    for (const auto& m : *matches) {
      std::cout << "  " << m.atom << " = " << afp::TruthValueName(m.value)
                << "\n";
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  Options opts;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    std::string value;
    std::uint64_t number = 0;
    if (ParseFlag(arg, "semantics", &opts.semantics)) continue;
    if (ParseFlag(arg, "inner", &opts.inner)) {
      opts.inner_given = true;
      continue;
    }
    if (ParseFlag(arg, "query", &value)) {
      SplitCommas(value, &opts.queries);
      continue;
    }
    if (ParseFlag(arg, "select", &value)) {
      SplitCommas(value, &opts.selects);
      continue;
    }
    if (ParseFlag(arg, "assert", &value)) {
      // No comma-splitting: atom arguments contain commas. Repeat the
      // flag to mutate several facts; flags apply in command-line order.
      opts.mutations.push_back({Mutation::Kind::kAssert, value});
      continue;
    }
    if (ParseFlag(arg, "retract", &value)) {
      opts.mutations.push_back({Mutation::Kind::kRetract, value});
      continue;
    }
    if (ParseFlag(arg, "add-rule", &value)) {
      opts.mutations.push_back({Mutation::Kind::kAddRule, value});
      opts.has_rule_ops = true;
      continue;
    }
    if (ParseFlag(arg, "remove-rule", &value)) {
      opts.mutations.push_back({Mutation::Kind::kRemoveRule, value});
      opts.has_rule_ops = true;
      continue;
    }
    if (ParseFlag(arg, "max-models", &value)) {
      if (!ParseNumber(value, 0, SIZE_MAX, &number)) {
        return BadValue("max-models", value);
      }
      opts.max_models = static_cast<std::size_t>(number);
      continue;
    }
    if (arg == "--trace") {
      opts.trace = true;
      continue;
    }
    if (arg == "--json") {
      opts.json = true;
      continue;
    }
    if (arg == "--ground") {
      opts.ground_only = true;
      continue;
    }
    if (arg == "--stats") {
      opts.stats = true;
      continue;
    }
    if (arg.rfind("--", 0) == 0) {
      std::cerr << "afp: unknown option " << arg << "\n";
      return 1;
    }
    if (!opts.file.empty()) {
      std::cerr << "afp: more than one input file\n";
      return 1;
    }
    opts.file = arg;
  }
  if (opts.semantics != "wfs" && opts.semantics != "stable" &&
      opts.semantics != "fitting" && opts.semantics != "stratified" &&
      opts.semantics != "ifp") {
    return BadValue("semantics", opts.semantics);
  }
  if (opts.inner != "afp" && opts.inner != "wp") {
    return BadValue("inner", opts.inner);
  }
  const afp::SccInnerEngine inner_engine = opts.inner == "wp"
                                               ? afp::SccInnerEngine::kWp
                                               : afp::SccInnerEngine::kAfp;
  // Flags that apply to only some semantics note the mismatch instead of
  // being silently ignored: the Table-I trace is a well-founded one, and
  // --inner configures the session's component-wise solve, which
  // only the wfs and stable branches run.
  if (opts.trace && opts.semantics != "wfs") {
    std::cerr << "afp: note: --trace has no effect for --semantics="
              << opts.semantics << "\n";
  }
  // The stable branch prints the models it enumerates and nothing else.
  if (opts.semantics == "stable") {
    auto note = [](const char* flag) {
      std::cerr << "afp: note: " << flag
                << " has no effect for --semantics=stable\n";
    };
    if (!opts.queries.empty()) note("--query");
    if (!opts.selects.empty()) note("--select");
    if (opts.json) note("--json");
  }
  const bool session_solves =
      opts.semantics == "wfs" || opts.semantics == "stable";
  if (opts.inner_given && !session_solves) {
    std::cerr << "afp: note: --inner has no effect for --semantics="
              << opts.semantics << "\n";
  }

  std::string text;
  if (opts.file.empty()) {
    std::ostringstream ss;
    ss << std::cin.rdbuf();
    text = ss.str();
  } else {
    std::ifstream in(opts.file);
    if (!in) {
      std::cerr << "afp: cannot open " << opts.file << "\n";
      return 1;
    }
    std::ostringstream ss;
    ss << in.rdbuf();
    text = ss.str();
  }

  auto parsed = afp::ParseProgram(text);
  if (!parsed.ok()) return Fail(parsed.status());

  // One Solver session serves the whole wfs/stable surface; the remaining
  // semantics (Fitting, stratified, IFP) read its ground program.
  afp::SolverOptions sopts;
  sopts.inner = inner_engine;
  // Fitting/IFP need the rule instances whose positive bodies are
  // underivable (see GroundMode documentation).
  if (opts.semantics == "fitting" || opts.semantics == "ifp") {
    sopts.ground.mode = afp::GroundMode::kFull;
  }
  // Rule-level mutations need every source rule addressable in the ground
  // program; grounding-time simplification folds rules away and the Solver
  // rejects AddRule/RemoveRule on simplified sessions.
  if (opts.has_rule_ops) sopts.ground.simplify = false;
  auto session = afp::Solver::FromProgram(std::move(parsed).value(), sopts);
  if (!session.ok()) return Fail(session.status());
  afp::Solver& solver = *session;
  const afp::GroundProgram& gp = solver.ground();

  if (opts.ground_only) {
    std::cout << gp.ToString();
    return 0;
  }
  if (opts.stats) {
    std::cout << "% atoms: " << gp.num_atoms()
              << "  rules: " << gp.num_rules()
              << "  size: " << gp.TotalSize() << "\n";
    const afp::GroundStats& g = solver.Stats().ground;
    std::cout << "% intern probes: " << g.intern_probes
              << "  intern collisions: " << g.intern_collisions
              << "  intern grow allocs: " << g.intern_allocs << "\n";
    std::cout << "% arena bytes: " << g.arena_bytes
              << "  index bytes: " << g.index_bytes
              << "  peak rss bytes: " << g.peak_rss_bytes << "\n";
    std::cout << "% join candidates: " << g.join_candidates
              << "  instance probes: " << g.instance_probes << "\n";
  }
  if (!opts.mutations.empty() && opts.semantics != "wfs") {
    std::cerr << "afp: note: --assert/--retract/--add-rule/--remove-rule "
                 "apply only to --semantics=wfs\n";
  }

  if (opts.semantics == "wfs") {
    if (opts.trace) {
      // The trace is the paper's monolithic sequence, so it comes from the
      // alternating fixpoint itself, not from the session's solve.
      const afp::AfpResult traced =
          afp::AlternatingFixpoint(gp, {.record_trace = true});
      afp::TablePrinter table({"k", "neg I_k", "S_P(I_k)"});
      for (std::size_t k = 0; k < traced.trace.size(); ++k) {
        table.AddRow({std::to_string(k),
                      afp::AtomSetToString(gp, traced.trace[k].neg_set),
                      afp::AtomSetToString(gp, traced.trace[k].sp_result)});
      }
      table.Print(std::cout);
    }
    solver.Solve();
    if (opts.stats) {
      const afp::SolverStats& st = solver.Stats();
      std::cout << "% components: " << st.num_components
                << "  local size: " << st.total_local_size << "\n";
    }
    // Session mutations in command-line order: fact edits repaired by the
    // incremental downstream re-solve, rule edits delta-grounded and
    // repaired component-wise.
    for (const Mutation& m : opts.mutations) {
      if (m.is_rule()) {
        auto up = m.kind == Mutation::Kind::kAddRule
                      ? solver.AddRule(m.text)
                      : solver.RemoveRule(m.text);
        if (!up.ok()) return Fail(up.status());
        if (opts.stats) {
          std::cout << "% " << m.Name() << " " << m.text << ": rules "
                    << up->source_rules_changed << "  ground +"
                    << up->ground_rules_added << "/-"
                    << up->ground_rules_removed << "  atoms +"
                    << up->atoms_added << "  reground " << up->rules_reground
                    << (up->graph_rebuilt ? "  (graph rebuilt)" : "")
                    << "\n";
          std::cout << "%   buckets invalidated "
                    << up->buckets_invalidated << "  built "
                    << up->eval.buckets_built << "  downstream "
                    << up->components_downstream << "  re-solved "
                    << up->components_resolved << "  skipped "
                    << up->components_skipped << "  reused "
                    << up->components_reused
                    << (up->model_changed ? "  (model changed)" : "")
                    << "\n";
        }
        continue;
      }
      const bool add = m.kind == Mutation::Kind::kAssert;
      auto up = add ? solver.AssertFact(m.text) : solver.RetractFact(m.text);
      if (!up.ok()) return Fail(up.status());
      if (opts.stats) {
        std::cout << "% " << m.Name() << " " << m.text
                  << ": facts " << up->facts_changed << "  downstream "
                  << up->components_downstream << "  re-solved "
                  << up->components_resolved << "  skipped "
                  << up->components_skipped << "  reused "
                  << up->components_reused
                  << (up->model_changed ? "  (model changed)" : "") << "\n";
      }
    }
    if (opts.stats) {
      const afp::EvalStats& eval = solver.Stats().eval;
      std::cout << "% S_P calls: " << eval.sp_calls
                << "  rules rescanned: " << eval.rules_rescanned
                << "  delta atoms: " << eval.delta_atoms
                << "  peak scratch bytes: " << eval.peak_scratch_bytes
                << "\n";
      std::cout << "% GUS calls: " << eval.gus_calls
                << "  GUS rules rescanned: " << eval.gus_rules_rescanned
                << "\n";
      std::cout << "% bucket solves: " << eval.bucket_solves
                << "  buckets built: " << eval.buckets_built << "\n";
    }
    PrintModel(gp, solver.model(), opts);
    return 0;
  }
  if (opts.semantics == "stable") {
    // Solve first: the session's well-founded model seeds the search's
    // root node, so enumeration starts from the partial model this
    // session already paid for.
    solver.Solve();
    afp::StableResult r = solver.StableModels(opts.max_models);
    std::cout << "% " << r.models.size() << " stable model(s)\n";
    for (std::size_t i = 0; i < r.models.size(); ++i) {
      std::cout << "model " << (i + 1) << ": "
                << afp::AtomSetToString(gp, r.models[i]) << "\n";
    }
    if (opts.stats) {
      std::cout << "% search nodes: " << r.search.nodes
                << "  afp calls: " << r.search.afp_calls
                << "  implied atoms: " << r.search.implied_atoms
                << "  candidates checked: " << r.search.stable_checks
                << "  leaf rules checked: " << r.search.leaf_rules_checked
                << "\n";
      std::cout << "% components re-solved: "
                << r.search.components_resolved
                << "  seeded: " << (r.search.seeded ? "yes" : "no")
                << "  complete: " << (r.search.complete ? "yes" : "no")
                << "\n";
      std::cout << "% S_P calls: " << r.eval.sp_calls
                << "  rules rescanned: " << r.eval.rules_rescanned
                << "  peak scratch bytes: " << r.eval.peak_scratch_bytes
                << "\n";
      std::cout << "% bucket solves: " << r.eval.bucket_solves
                << "  buckets built: " << r.eval.buckets_built << "\n";
    }
    return 0;
  }
  if (opts.semantics == "fitting") {
    afp::FittingResult r = afp::FittingFixpoint(gp);
    PrintModel(gp, r.model, opts);
    return 0;
  }
  if (opts.semantics == "stratified") {
    auto r = afp::StratifiedEvaluate(gp);
    if (!r.ok()) return Fail(r.status());
    PrintModel(gp, r->model, opts);
    return 0;
  }
  // --semantics=ifp (validated above).
  afp::InflationaryResult r = afp::InflationaryFixpoint(gp);
  afp::PartialModel model(r.true_atoms,
                          afp::Bitset::ComplementOf(r.true_atoms));
  PrintModel(gp, model, opts);
  return 0;
}
