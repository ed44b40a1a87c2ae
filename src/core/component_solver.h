#ifndef AFP_CORE_COMPONENT_SOLVER_H_
#define AFP_CORE_COMPONENT_SOLVER_H_

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "analysis/atom_graph.h"
#include "core/eval_context.h"
#include "core/interpretation.h"
#include "core/rule_kernel.h"
#include "core/scc_engine.h"
#include "ground/ground_program.h"
#include "wfs/unfounded.h"
#include "wfs/wp_engine.h"

namespace afp {

/// The per-component half of the SCC engine, shared by the full solve and
/// the incremental repair (core/scc_engine.cc). A ComponentSolver keeps
/// ONE evaluator pair per inner engine, Rebind-ed to every component it
/// solves, so per-component solves pay no evaluator construction and no
/// pool round-trips.
///
/// `Solve(c, gm)` decides component c against the global model `gm`
/// (exact for every component solved before c; never consulted for other
/// atoms) and publishes the members' verdicts back through `gm` exactly
/// once. A singleton that does not depend on itself takes the fast path
/// below. Every other component runs on its CompiledBucket
/// (core/rule_kernel.h), built at its first general-path solve into the
/// caller's BucketCache (SccOptions::buckets) or, without one, into a
/// cache that lives as long as the solver: the bucket is bound against
/// `gm` and the configured inner fixpoint runs the delta evaluators on it.
/// A ComponentSolver is single-threaded and bound to one EvalContext.
///
/// With an assumption pair (the stable search, search/stable_search.h)
/// every solve runs on the CONDITIONED program: an assumed-true atom gets
/// a fact, rules whose head is assumed false are dropped. Conditioning
/// only removes dependency arcs, so the base program's condensation stays
/// a valid bottom-up order for it. The pair is read at every Solve, so
/// the caller flips bits between solves.
class ComponentSolver {
 public:
  /// Everything referenced must outlive the solver; `comp_rules` is the
  /// rule-ids-by-head-component bucketing the engine computes up front.
  /// Sessions pass no assumptions.
  ComponentSolver(EvalContext& ctx, const SccOptions& options,
                  const RuleView& view, const AtomDependencyGraph& graph,
                  const RuleBuckets& comp_rules,
                  AssumptionPair assumptions = {});
  ~ComponentSolver();

  ComponentSolver(const ComponentSolver&) = delete;
  ComponentSolver& operator=(const ComponentSolver&) = delete;

  EvalContext& ctx() { return ctx_; }
  const RuleView& view() const { return view_; }
  const AtomDependencyGraph& graph() const { return graph_; }
  const RuleBuckets& comp_rules() const { return comp_rules_; }

  struct Outcome {
    /// Inner fixpoint rounds (A_P applications under kAfp, W_P rounds
    /// under kWp) — the per-component trajectory entry.
    std::uint32_t iterations = 0;
    /// Local subprogram size solved (rules + body literals).
    std::size_t local_size = 0;
  };

  Outcome Solve(std::uint32_t c, GlobalModel& gm);

 private:
  /// The trivial-component fast path: a singleton component with no
  /// self-dependency is decided by one three-valued evaluation of its rule
  /// bodies over the (completed) externals — no bucket and no evaluator.
  /// Most components of a typical condensation are singleton EDB facts,
  /// so this skips the per-component machinery for the bulk of the DAG.
  /// Returns true (and publishes through gm.PublishOne) unless a
  /// self-dependent rule forces the general path. It reads the same
  /// completed externals the general path would bind; fast-path components
  /// report 1 iteration. An assumed atom is published as assumed, without
  /// looking at its rules.
  bool SolveSingleton(std::uint32_t c, GlobalModel& gm, Outcome* out);

  bool AssumedTrue(AtomId a) const {
    return assumptions_.true_atoms != nullptr &&
           assumptions_.true_atoms->Test(a);
  }
  bool AssumedFalse(AtomId a) const {
    return assumptions_.false_atoms != nullptr &&
           assumptions_.false_atoms->Test(a);
  }

  EvalContext& ctx_;
  SccOptions options_;
  const RuleView& view_;
  const AtomDependencyGraph& graph_;
  const RuleBuckets& comp_rules_;
  AssumptionPair assumptions_;
  /// The buckets when the caller keeps none (options.buckets null).
  BucketCache own_buckets_;
  BucketCache& buckets_;
  /// The current solve's binding (CompiledBucket::Bind), recycled.
  std::vector<std::uint8_t> state_;
  std::vector<std::uint32_t> live_;
  std::vector<AtomId> facts_;
  /// The persistent evaluator pairs (constructed on first use, Rebind-ed
  /// each component). kAfp uses even_/odd_, kWp uses tp_/gus_.
  std::optional<SpEvaluator> even_, odd_;
  std::optional<TpEvaluator> tp_;
  std::optional<GusEvaluator> gus_;
};

}  // namespace afp

#endif  // AFP_CORE_COMPONENT_SOLVER_H_
