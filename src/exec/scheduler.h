#ifndef AFP_EXEC_SCHEDULER_H_
#define AFP_EXEC_SCHEDULER_H_

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <mutex>
#include <span>
#include <vector>

namespace afp {

/// Hard cap on a pool's worker count: keeps an absurd request from
/// aborting in std::thread construction. Callers that size per-worker
/// state (EvalContextRegistry slots) clamp to the same bound.
inline constexpr int kMaxPoolWorkers = 256;

/// What one work-pool run looked like (RunWorkPool). Tasks may create
/// tasks, so these counters describe the tree the run actually grew
/// rather than a shape known up front.
struct WorkPoolStats {
  std::size_t num_workers = 0;
  std::size_t items_run = 0;
  /// Items executed by a different worker than the one that submitted them
  /// (roots count as submitted by the caller, so every root a worker runs
  /// is a steal). Zero in inline mode.
  std::size_t steals = 0;
  /// Times a worker found the deque empty and parked while items were
  /// still in flight on other workers (in-flight items may submit more).
  std::size_t idle_waits = 0;
  /// Deepest the shared deque ever got.
  std::size_t max_queue = 0;
  /// True when Cancel() stopped the run before the deque drained.
  bool cancelled = false;
  std::vector<std::size_t> per_worker_items;
  std::vector<std::size_t> per_worker_steals;
  std::vector<std::size_t> per_worker_idle_waits;
};

class WorkPool;

/// Runs a dynamic work-sharing pool until the deque drains (and no item is
/// still executing) or the pool is cancelled. `roots` seeds the deque; the
/// task receives the pool handle so it can Submit the items it discovers
/// (tree-shaped work) and check cancellation. Workers are indexed
/// 0..num_workers-1, so tasks address per-thread state (an
/// EvalContextRegistry slot) by worker index without locking. The pool
/// has min(max(num_threads, 1), kMaxPoolWorkers) workers; one worker runs
/// everything inline on the calling thread as worker 0 — the exact order
/// a one-worker pool would use, with no threads spawned. Tasks must not
/// throw.
///
/// The library's user is the relevance query batch on an unsolved
/// session (independent roots, no submits).
///
/// Determinism contract: the pool guarantees nothing about execution
/// order across workers (LIFO claiming is a locality heuristic, not a
/// promise). A caller that needs a deterministic RESULT must make its
/// task outputs order-independent — the query batch writes each answer
/// to its own slot.
WorkPoolStats RunWorkPool(std::span<const std::uint64_t> roots,
                          int num_threads,
                          const std::function<void(WorkPool& pool,
                                                   std::uint64_t item,
                                                   std::uint32_t worker)>& task);

/// A mutex-protected LIFO deque of caller-defined 64-bit work items, with
/// condition-variable parking, cancellation, and steal accounting.
/// Construction is private — a pool only exists inside a RunWorkPool
/// call, which hands it to the task by reference.
class WorkPool {
 public:
  /// Submitter id for items not enqueued by a worker (RunWorkPool tags the
  /// roots with this; the steal counters treat such items as stolen).
  static constexpr std::uint32_t kExternalSubmitter = 0xFFFFFFFFu;

  /// Enqueues an item. LIFO claiming means the most recently submitted
  /// item is picked up next, so with tree-shaped work each worker dives
  /// depth-first and the deque stays shallow. `submitter` is the calling
  /// worker's index (steal accounting only). No-op after Cancel.
  void Submit(std::uint64_t item, std::uint32_t submitter);

  /// Stops the run: drops every queued item and wakes all workers. Items
  /// already executing finish normally; their Submits are dropped.
  /// Idempotent; callable from any task or from outside the pool.
  void Cancel();

  /// Relaxed peek, cheap enough for a per-item check inside tasks.
  bool cancelled() const {
    return cancelled_.load(std::memory_order_relaxed);
  }

 private:
  friend WorkPoolStats RunWorkPool(
      std::span<const std::uint64_t> roots, int num_threads,
      const std::function<void(WorkPool&, std::uint64_t, std::uint32_t)>&
          task);

  WorkPool() = default;

  struct Item {
    std::uint64_t payload = 0;
    std::uint32_t submitter = 0;
  };

  std::mutex mu_;
  std::condition_variable cv_;
  std::vector<Item> deque_;
  std::size_t in_flight_ = 0;
  std::atomic<bool> cancelled_{false};
  WorkPoolStats stats_;
};

}  // namespace afp

#endif  // AFP_EXEC_SCHEDULER_H_
