#ifndef AFP_CORE_RULE_KERNEL_H_
#define AFP_CORE_RULE_KERNEL_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "analysis/atom_graph.h"
#include "core/eval_context.h"
#include "core/horn_solver.h"
#include "core/scc_engine.h"
#include "ground/ground_program.h"
#include "ground/owned_rules.h"
#include "util/bitset.h"

namespace afp {

/// Atoms a ComponentSolver assumes true / false (the stable search's
/// branch assumptions); both bitsets span the program's atoms and must
/// outlive the solver.
struct AssumptionPair {
  const Bitset* true_atoms = nullptr;
  const Bitset* false_atoms = nullptr;
};

/// One general-path component lowered once: the form the component-wise
/// engine solves a component with more than one atom, or a singleton that
/// depends on itself, in. Everything that does not depend on the global
/// model is built here, at the component's first general-path solve:
///
///   * local atom i is members()[i], and local atom num_members() is the
///     sentinel s (the local universe has num_members() + 1 atoms);
///   * the local program keeps every rule of the bucket, in bucket order,
///     with its head and its internal body literals as local ids (body
///     order and duplicates kept);
///   * the external body literals stay global AtomIds, in body order, for
///     Bind;
///   * program() indexes the local program for the delta evaluators,
///     once: positive occurrences here, negative occurrences and heads on
///     first use.
///
/// Bind is the per-solve half: it reads the externals against the global
/// model and the assumptions and yields the RuleBinding the evaluators
/// read (core/eval_context.h). A bucket copies rule content, not rule
/// ids, so GroundProgram's swap-erase moving an unrelated rule never
/// stales it; only a change of this component's own rule set does
/// (BucketCache's invalidation contract).
class CompiledBucket {
 public:
  /// Lowers component c of `graph`, whose rules are `rule_ids` of `view`.
  /// `local_id` is scratch over the graph's atoms: the members' entries
  /// are overwritten with their local ids and read back (a literal is
  /// internal iff its atom is in c), so it never needs clearing.
  CompiledBucket(const RuleView& view, const AtomDependencyGraph& graph,
                 std::uint32_t c, std::span<const std::uint32_t> rule_ids,
                 std::uint32_t* local_id);

  /// The local program and its indexes point into this object.
  CompiledBucket(const CompiledBucket&) = delete;
  CompiledBucket& operator=(const CompiledBucket&) = delete;

  std::span<const AtomId> members() const { return members_; }
  const HornSolver& program() const { return *program_; }

  /// Binds the bucket for one solve, into `state`, `live` and `facts`
  /// (filled here) and the returned binding over them, exactly as lowering the
  /// bucket into a fresh local program would:
  ///
  ///   * a rule whose head is assumed false is dropped (dead);
  ///   * an external literal that holds is erased; one that fails kills
  ///     its rule, and the scan of that body stops there;
  ///   * an undefined external caps its rule with the sentinel, and any
  ///     such literal scanned — even in a body that then dies — brings in
  ///     `s :- not s`;
  ///   * an assumed-true member becomes a fact, and its own rules die (the
  ///     fact decides it; no operator result changes).
  ///
  /// `*local_size` receives the size (rules plus body literals) of the
  /// local program the binding stands for.
  RuleBinding Bind(const GlobalModel& gm, AssumptionPair assumptions,
                   std::vector<std::uint8_t>* state,
                   std::vector<std::uint32_t>* live,
                   std::vector<AtomId>* facts, std::size_t* local_size) const;

  /// Bytes held by the bucket, its indexes included.
  std::size_t bytes() const;

 private:
  std::vector<AtomId> members_;
  OwnedRules local_;
  /// Rule r's external positive literals are ext_[ext_offsets_[2r] ..
  /// ext_offsets_[2r+1]), its external negative ones run on to
  /// ext_offsets_[2r+2].
  std::vector<std::uint32_t> ext_offsets_;
  std::vector<AtomId> ext_;
  std::optional<HornSolver> program_;
};

/// The compiled buckets of one dependency analysis, by component id, kept
/// by whoever keeps the analysis: the Solver session across solves,
/// repairs, rule ops and unsolved queries, the stable search across
/// nodes, and a run-local cache for WellFoundedScc. A bucket is built at
/// its component's first general-path solve (Get) and lives until its
/// component's rules change.
///
/// Epoch protocol: the cache records the GroundProgram::mutation_epoch()
/// its buckets describe. A caller that mutates the program through the
/// cache-aware paths (the session's fact repairs and rule ops)
/// invalidates exactly the touched components and then
/// AcknowledgeEpoch()s the new counter; SyncEpoch() at every entry point
/// drops ALL buckets on any unexplained change, so a bare
/// GroundProgram::AddRule is never evaluated against a stale bucket.
class BucketCache {
 public:
  explicit BucketCache(std::uint64_t epoch = 0) : expected_epoch_(epoch) {}

  BucketCache(BucketCache&&) = default;
  BucketCache& operator=(BucketCache&&) = default;

  /// Component c's bucket, or null if none is built.
  const CompiledBucket* Find(std::uint32_t c) const {
    return c < buckets_.size() ? buckets_[c].get() : nullptr;
  }

  /// Component c's bucket, built from `comp_rules[c]` of `view` on first
  /// use (the arguments must describe the analysis the cache is for).
  const CompiledBucket& Get(std::uint32_t c, const RuleView& view,
                            const AtomDependencyGraph& graph,
                            const RuleBuckets& comp_rules);

  /// Adds `bytes` that a solve grew a cached bucket by (a lazily built
  /// index of its HornSolver) to the running total.
  void NoteGrowth(std::size_t bytes) { bytes_ += bytes; }

  /// Drops component c's bucket (its rules changed); returns whether one
  /// was built.
  bool Invalidate(std::uint32_t c);
  /// Drops every bucket (the analysis was rebuilt or the program changed
  /// behind the cache's back).
  void Clear();

  /// Entry-point check against the program's current mutation epoch: any
  /// change not explained by an AcknowledgeEpoch drops everything.
  /// Returns true if the cache was dropped.
  bool SyncEpoch(std::uint64_t epoch);
  /// Records `epoch` as explained (call after the cache-aware mutations
  /// have invalidated their touched components).
  void AcknowledgeEpoch(std::uint64_t epoch) { expected_epoch_ = epoch; }

  /// Live buckets, and the bytes they hold: a running total, added at
  /// each build and NoteGrowth, subtracted at each drop.
  std::size_t num_buckets() const { return num_buckets_; }
  std::size_t bytes() const { return bytes_; }

 private:
  std::vector<std::unique_ptr<CompiledBucket>> buckets_;
  std::size_t num_buckets_ = 0;
  std::size_t bytes_ = 0;
  std::uint64_t expected_epoch_;
  /// Build scratch: atom -> local id (see the CompiledBucket constructor),
  /// sized to the graph's atoms at the first build.
  std::vector<std::uint32_t> local_id_;
};

}  // namespace afp

#endif  // AFP_CORE_RULE_KERNEL_H_
