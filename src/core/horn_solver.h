#ifndef AFP_CORE_HORN_SOLVER_H_
#define AFP_CORE_HORN_SOLVER_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "ground/ground_program.h"
#include "util/bitset.h"

namespace afp {

class EvalContext;

/// Computes the eventual consequence mapping S_P (Definition 4.2): the least
/// fixpoint of T_{P∪Ĩ}, where a fixed set Ĩ of negative facts is treated
/// like additional EDB facts (Fig. 3 of the paper). A negative body literal
/// `not q` is satisfied iff q ∈ assumed_false.
///
/// The solver precomputes the positive-occurrence index once per RuleView
/// (the negative one lazily on first use), so it can be applied to many
/// different Ĩ arguments cheaply — exactly the access pattern of the
/// alternating fixpoint. Fixpoints are computed by Dowling–Gallier
/// counting propagation, linear in the size of the ground program per
/// call. For incremental re-evaluation between nearby Ĩ arguments, see
/// SpEvaluator (core/eval_context.h), which drives rule enablement from
/// the negative-occurrence index and the Ĩ delta alone.
///
/// Like the rest of the evaluation core, a solver is NOT thread-safe, even
/// through const methods: EventualConsequences cycles pooled scratch and
/// the negative index is built lazily. One solver (and one EvalContext)
/// per thread.
class HornSolver {
 public:
  /// Builds indexes over `view`. The view's storage must outlive the
  /// solver. When `ctx` is non-null, the index arrays are drawn from (and
  /// on destruction returned to) the context's scratch pool, so rebuilding
  /// a solver per component — the SCC engine's pattern — reuses
  /// the previous round's capacity instead of reallocating.
  explicit HornSolver(RuleView view, EvalContext* ctx = nullptr);
  ~HornSolver();

  HornSolver(const HornSolver&) = delete;
  HornSolver& operator=(const HornSolver&) = delete;
  HornSolver(HornSolver&& o) noexcept;
  HornSolver& operator=(HornSolver&& o) noexcept;

  /// Returns S_P(assumed_false) (Definition 4.2): the least Herbrand
  /// model of P ∪ Ĩ restricted to positive atoms, where Ĩ = the atoms of
  /// `assumed_false` taken as negative facts. Precondition:
  /// `assumed_false` has the view's atom universe size. Postcondition:
  /// the result is the unique least fixpoint of T_{P∪Ĩ} (pinned against
  /// the naive T_P iteration of tests/reference/ by the property tests).
  Bitset EventualConsequences(const Bitset& assumed_false) const;

  const RuleView& view() const { return view_; }

  /// For each atom, the rules in which it occurs positively (CSR layout);
  /// drives S_P/U_P counting propagation and the delta updates of
  /// TpEvaluator (flips into I+) and GusEvaluator (flips into I−).
  const std::vector<std::uint32_t>& pos_occ_offsets() const {
    return pos_occ_offsets_;
  }
  const std::vector<std::uint32_t>& pos_occ_rules() const {
    return pos_occ_rules_;
  }

  /// For each atom, the rules in which it occurs negatively (CSR layout);
  /// drives the delta-driven enablement updates of SpEvaluator and the
  /// witness updates of TpEvaluator (flips into I−) and GusEvaluator
  /// (flips into I+). Built lazily on first access — one-shot
  /// EventualConsequences calls never pay for it. (Like the rest of the
  /// evaluation core, not thread-safe.)
  const std::vector<std::uint32_t>& neg_occ_offsets() const {
    EnsureNegIndex();
    return neg_occ_offsets_;
  }
  const std::vector<std::uint32_t>& neg_occ_rules() const {
    EnsureNegIndex();
    return neg_occ_rules_;
  }

  /// For each atom, the rules with that head (CSR layout); drives
  /// GusEvaluator's re-derivation probes. Built lazily on first access,
  /// like the negative index, and kept with the solver, so a component
  /// bucket (core/rule_kernel.h) builds it once for all its solves.
  const std::vector<std::uint32_t>& head_offsets() const {
    EnsureHeadIndex();
    return head_offsets_;
  }
  const std::vector<std::uint32_t>& head_rules() const {
    EnsureHeadIndex();
    return head_rules_;
  }

  /// Capacity of the index arrays built so far.
  std::size_t IndexBytes() const;

 private:
  void EnsureNegIndex() const;
  void EnsureHeadIndex() const;
  void ReleaseIndexes();

  RuleView view_;
  EvalContext* ctx_ = nullptr;
  /// Lazily created for context-less solvers, so repeated
  /// EventualConsequences calls reuse their scratch instead of
  /// reallocating per call.
  mutable std::unique_ptr<EvalContext> scratch_ctx_;
  std::vector<std::uint32_t> pos_occ_offsets_;  // num_atoms + 1
  std::vector<std::uint32_t> pos_occ_rules_;
  mutable bool neg_index_built_ = false;
  mutable std::vector<std::uint32_t> neg_occ_offsets_;  // num_atoms + 1
  mutable std::vector<std::uint32_t> neg_occ_rules_;
  mutable bool head_index_built_ = false;
  mutable std::vector<std::uint32_t> head_offsets_;  // num_atoms + 1
  mutable std::vector<std::uint32_t> head_rules_;
};

}  // namespace afp

#endif  // AFP_CORE_HORN_SOLVER_H_
