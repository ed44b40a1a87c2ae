#ifndef AFP_CORE_COMPONENT_SOLVER_H_
#define AFP_CORE_COMPONENT_SOLVER_H_

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "analysis/atom_graph.h"
#include "core/alternating.h"
#include "core/eval_context.h"
#include "core/horn_solver.h"
#include "core/interpretation.h"
#include "core/rule_kernel.h"
#include "core/scc_engine.h"
#include "ground/ground_program.h"
#include "ground/owned_rules.h"
#include "wfs/unfounded.h"
#include "wfs/wp_engine.h"

namespace afp {

/// The per-component half of the SCC engine, shared by the full solve and
/// the incremental repair (core/scc_engine.cc). A ComponentSolver owns the
/// local rule buffer, the atom-id remap scratch, and — the piece that
/// closes the kWp wall-clock gap — ONE evaluator pair per inner engine,
/// kept alive and Rebind-ed across every component it solves, so
/// per-component solves pay zero evaluator construction, zero pool
/// round-trips, and reuse the retained head-index capacity instead of
/// re-growing it.
///
/// `Solve(c, gm)` builds component c's local subprogram by substituting
/// decided externals read from the global model `gm` (exact for every
/// component solved before c; never consulted for other atoms), runs the
/// configured inner fixpoint, and publishes the members' verdicts back
/// through `gm` exactly once. A ComponentSolver is single-threaded and
/// bound to one EvalContext.
class ComponentSolver {
 public:
  /// Everything referenced must outlive the solver; `comp_rules` is the
  /// rule-ids-by-head-component bucketing the engine computes up front.
  ComponentSolver(EvalContext& ctx, const SccOptions& options,
                  const RuleView& view, const AtomDependencyGraph& graph,
                  const std::vector<std::vector<std::uint32_t>>& comp_rules);
  ~ComponentSolver();

  ComponentSolver(const ComponentSolver&) = delete;
  ComponentSolver& operator=(const ComponentSolver&) = delete;

  struct Outcome {
    /// Inner fixpoint rounds (A_P applications under kAfp, W_P rounds
    /// under kWp) — the per-component trajectory entry.
    std::uint32_t iterations = 0;
    /// Local subprogram size solved (rules + body pool).
    std::size_t local_size = 0;
  };

  Outcome Solve(std::uint32_t c, GlobalModel& gm);

 private:
  /// The trivial-component fast path: a singleton component with no
  /// self-dependency is decided by one three-valued evaluation of its rule
  /// bodies over the (completed) externals — no local subprogram, no
  /// HornSolver, no evaluator Rebind. Most components of a typical
  /// condensation are singleton EDB facts, so this skips the per-component
  /// machinery for the bulk of the DAG. Returns true (and publishes
  /// through gm.PublishOne) unless a self-dependent rule forces the
  /// general path. It reads the same completed externals the general path
  /// would substitute; fast-path components report 1 iteration.
  bool SolveSingleton(std::uint32_t c, GlobalModel& gm, Outcome* out);

  EvalContext& ctx_;
  SccOptions options_;
  const RuleView& view_;
  const AtomDependencyGraph& graph_;
  const std::vector<std::vector<std::uint32_t>>& comp_rules_;
  AfpOptions afp_opts_;
  /// Local rule buffer recycled across components (pooled).
  OwnedRules local_;
  /// Scratch map AtomId -> local id, versioned by component id to avoid
  /// O(n) clears (pooled).
  std::vector<std::uint32_t> local_id_;
  std::vector<std::uint32_t> stamp_;
  std::vector<AtomId> pos_buf_, neg_buf_;
  /// The persistent evaluator pairs (constructed on first use, Rebind-ed
  /// each component). kAfp uses even_/odd_, kWp uses tp_/gus_.
  std::optional<SpEvaluator> even_, odd_;
  std::optional<TpEvaluator> tp_;
  std::optional<GusEvaluator> gus_;
  /// Packed-kernel executor for components SccOptions::kernels has
  /// compiled (constructed on first compiled component, reused across the
  /// rest — the kernel-side analogue of the evaluator pairs above).
  std::optional<KernelEvaluator> kernel_;
};

}  // namespace afp

#endif  // AFP_CORE_COMPONENT_SOLVER_H_
