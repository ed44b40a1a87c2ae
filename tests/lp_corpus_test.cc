// Corpus test: every .lp file under examples/programs/ is solved through
// the full pipeline and checked against the expected verdicts embedded in
// the file itself. Directive syntax (inside % comments, so the files stay
// valid programs):
//
//   %! <ground atom> = true|false|undef    point query on the WFS model
//   %! total = yes|no                      totality of the partial model
//
// Files may additionally script a session-mutation replay (rule-level
// incremental view maintenance, including universe growth):
//
//   %! step: add-rule <rule>               Solver::AddRule (delta-grounded)
//   %! step: remove-rule <rule>            Solver::RemoveRule
//   %! step: assert <atom>                 Solver::AssertFact
//   %! step: retract <atom>                Solver::RetractFact
//   %! after: <ground atom> = verdict      point query AFTER all steps
//
// Plain `%!` verdicts always describe the pre-mutation model, so the
// static engines keep using mutation fixtures as ordinary programs.
//
// Each file is additionally cross-checked across the three well-founded
// engines and the from-scratch W_P reference loop (tests/reference/), so
// the corpus doubles as a differential fixture.

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "afp/afp.h"
#include "afp/solver.h"
#include "analysis/atom_graph.h"
#include "core/eval_context.h"
#include "core/scc_engine.h"
#include "reference/reference.h"

#ifndef AFP_LP_CORPUS_DIR
#error "AFP_LP_CORPUS_DIR must point at the .lp corpus directory"
#endif

namespace afp {
namespace {

struct QueryDirective {
  std::string atom;
  TruthValue expected;
};

struct MutationStep {
  enum class Kind { kAssert, kRetract, kAddRule, kRemoveRule };
  Kind kind;
  std::string text;  // atom for fact ops, rule text for rule ops
};

struct Directives {
  std::vector<QueryDirective> queries;
  std::vector<MutationStep> steps;
  std::vector<QueryDirective> after;
  bool has_total = false;
  bool expect_total = false;
};

/// Strips leading/trailing whitespace.
std::string Trim(const std::string& s) {
  auto b = s.find_first_not_of(" \t\r");
  if (b == std::string::npos) return "";
  auto e = s.find_last_not_of(" \t\r");
  return s.substr(b, e - b + 1);
}

/// Parses the `%!` directive lines of a corpus file. Malformed directives
/// record a test failure and are skipped.
Directives ParseDirectives(const std::string& text) {
  Directives d;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    line = Trim(line);
    if (line.rfind("%!", 0) != 0) continue;
    std::string body = Trim(line.substr(2));
    if (body.rfind("step:", 0) == 0) {
      std::string rest = Trim(body.substr(5));
      auto sp = rest.find(' ');
      EXPECT_NE(sp, std::string::npos) << "malformed step: " << line;
      if (sp == std::string::npos) continue;
      std::string op = rest.substr(0, sp);
      std::string arg = Trim(rest.substr(sp + 1));
      if (op == "add-rule") {
        d.steps.push_back({MutationStep::Kind::kAddRule, arg});
      } else if (op == "remove-rule") {
        d.steps.push_back({MutationStep::Kind::kRemoveRule, arg});
      } else if (op == "assert") {
        d.steps.push_back({MutationStep::Kind::kAssert, arg});
      } else if (op == "retract") {
        d.steps.push_back({MutationStep::Kind::kRetract, arg});
      } else {
        ADD_FAILURE() << "unknown step op '" << op << "' in: " << line;
      }
      continue;
    }
    std::vector<QueryDirective>* sink = &d.queries;
    if (body.rfind("after:", 0) == 0) {
      body = Trim(body.substr(6));
      sink = &d.after;
    }
    auto eq = body.rfind('=');
    EXPECT_NE(eq, std::string::npos) << "malformed directive: " << line;
    if (eq == std::string::npos) continue;
    std::string lhs = Trim(body.substr(0, eq));
    std::string rhs = Trim(body.substr(eq + 1));
    if (lhs == "total") {
      d.has_total = true;
      d.expect_total = (rhs == "yes");
      EXPECT_TRUE(rhs == "yes" || rhs == "no")
          << "bad totality '" << rhs << "' in: " << line;
      continue;
    }
    TruthValue v = TruthValue::kUndefined;
    if (rhs == "true") {
      v = TruthValue::kTrue;
    } else if (rhs == "false") {
      v = TruthValue::kFalse;
    } else {
      EXPECT_EQ(rhs, "undef") << "bad verdict '" << rhs << "' in: " << line;
    }
    sink->push_back({lhs, v});
  }
  return d;
}

std::string ReadFile(const std::filesystem::path& path) {
  std::ifstream in(path);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

std::vector<std::filesystem::path> CorpusFiles() {
  std::vector<std::filesystem::path> files;
  for (const auto& entry :
       std::filesystem::directory_iterator(AFP_LP_CORPUS_DIR)) {
    if (entry.path().extension() == ".lp") files.push_back(entry.path());
  }
  return files;
}

TEST(LpCorpus, EveryFileMatchesItsEmbeddedVerdicts) {
  const auto files = CorpusFiles();
  ASSERT_FALSE(files.empty())
      << "no .lp files under " << AFP_LP_CORPUS_DIR;

  for (const auto& path : files) {
    SCOPED_TRACE(path.filename().string());
    const std::string text = ReadFile(path);
    Directives d = ParseDirectives(text);
    // A corpus file without expectations is a rotting fixture.
    EXPECT_TRUE(d.has_total || !d.queries.empty())
        << "no %! directives in " << path;

    auto solution = SolveWellFounded(text);
    ASSERT_TRUE(solution.ok()) << solution.status().ToString();
    EXPECT_TRUE(solution->afp.model.IsConsistent());
    EXPECT_TRUE(Satisfies(solution->ground, solution->afp.model));
    if (d.has_total) {
      EXPECT_EQ(solution->afp.model.IsTotal(), d.expect_total);
    }
    for (const auto& q : d.queries) {
      auto v = solution->Query(q.atom);
      ASSERT_TRUE(v.ok()) << q.atom << ": " << v.status().ToString();
      EXPECT_EQ(*v, q.expected)
          << q.atom << " expected " << TruthValueName(q.expected)
          << " got " << TruthValueName(*v);
    }
  }
}

TEST(LpCorpus, AllFourEnginesAgreeOnEveryFile) {
  for (const auto& path : CorpusFiles()) {
    SCOPED_TRACE(path.filename().string());
    auto parsed = ParseProgram(ReadFile(path));
    ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
    Program p = std::move(parsed).value();
    auto ground = Grounder::Ground(p);
    ASSERT_TRUE(ground.ok()) << ground.status().ToString();
    PartialModel afp_model = AlternatingFixpoint(*ground).model;
    EXPECT_EQ(afp_model, WellFoundedViaWp(*ground).model);
    EXPECT_EQ(afp_model, WellFoundedScc(*ground).model);
    EXPECT_EQ(afp_model, reference::ScratchWellFoundedViaWp(*ground).model);
  }
}

// Mutation scripts: files with `%! step:` directives replay against a
// live Solver session (rule edits delta-grounded against the session's
// derived set, so the atom universe may grow mid-session). The `after:`
// verdicts pin the final model, and a from-scratch component-wise solve
// of the session's spliced ground program must reproduce it bit for bit.
TEST(LpCorpus, MutationScriptsReplayAndAgreeWithFromScratch) {
  bool found_script = false;
  for (const auto& path : CorpusFiles()) {
    const std::string text = ReadFile(path);
    Directives d = ParseDirectives(text);
    if (d.steps.empty()) continue;
    found_script = true;
    SCOPED_TRACE(path.filename().string());
    EXPECT_FALSE(d.after.empty())
        << "mutation script without %! after: verdicts in " << path;

    SolverOptions opts;
    // Rule ops need every source rule addressable in the ground program.
    opts.ground.simplify = false;
    auto session = Solver::FromText(text, opts);
    ASSERT_TRUE(session.ok()) << session.status().ToString();
    Solver& solver = *session;
    solver.Solve();

    for (std::size_t i = 0; i < d.steps.size(); ++i) {
      const MutationStep& step = d.steps[i];
      Status st;
      switch (step.kind) {
        case MutationStep::Kind::kAssert:
          st = solver.AssertFact(step.text).status();
          break;
        case MutationStep::Kind::kRetract:
          st = solver.RetractFact(step.text).status();
          break;
        case MutationStep::Kind::kAddRule:
          st = solver.AddRule(step.text).status();
          break;
        case MutationStep::Kind::kRemoveRule:
          st = solver.RemoveRule(step.text).status();
          break;
      }
      ASSERT_TRUE(st.ok())
          << "step " << i << " (" << step.text << "): " << st.ToString();
      ASSERT_TRUE(solver.ValidateRuleBuckets()) << "after step " << i;
    }

    // From-scratch differential on the spliced ground program.
    const PartialModel& inc = solver.Solve();
    EvalContext ctx;
    const RuleView view = solver.ground().View();
    AtomDependencyGraph fresh_graph(view);
    const RuleBuckets fresh_buckets(view, fresh_graph);
    SccWfsResult fresh =
        WellFoundedSccOnGraph(ctx, view, fresh_graph, fresh_buckets, {});
    EXPECT_EQ(fresh.model.true_atoms(), inc.true_atoms());
    EXPECT_EQ(fresh.model.false_atoms(), inc.false_atoms());

    for (const auto& q : d.after) {
      auto v = solver.Query(q.atom);
      ASSERT_TRUE(v.ok()) << q.atom << ": " << v.status().ToString();
      EXPECT_EQ(*v, q.expected)
          << q.atom << " expected " << TruthValueName(q.expected)
          << " got " << TruthValueName(*v);
    }
  }
  EXPECT_TRUE(found_script)
      << "no mutation-script fixtures (growth_*.lp) in the corpus";
}

}  // namespace
}  // namespace afp
