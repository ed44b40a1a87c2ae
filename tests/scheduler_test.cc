// The work-sharing pool (RunWorkPool): exactly-once execution at every
// thread count, cancellation, and the wide-antichain stress test the
// ThreadSanitizer CI lane runs (the relevance query batch's shape: many
// independent roots, no submits).

#include "exec/scheduler.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <mutex>
#include <vector>

namespace afp {
namespace {

// Tree-shaped workload: item i submits 2i+1 and 2i+2 while they are < n.
// Every item must run exactly once at any thread count.
void RunBinaryTreePool(std::size_t n, int threads, WorkPoolStats* stats,
                       std::vector<int>* run_counts) {
  run_counts->assign(n, 0);
  std::mutex mu;
  const std::uint64_t roots[] = {0};
  *stats = RunWorkPool(
      roots, threads,
      [&](WorkPool& pool, std::uint64_t item, std::uint32_t worker) {
        {
          std::lock_guard<std::mutex> lk(mu);
          ++(*run_counts)[item];
        }
        (void)worker;
        if (2 * item + 1 < n) pool.Submit(2 * item + 1, worker);
        if (2 * item + 2 < n) pool.Submit(2 * item + 2, worker);
      });
}

TEST(SchedulerWorkPool, InlineModeRunsEveryItemOnce) {
  WorkPoolStats stats;
  std::vector<int> counts;
  RunBinaryTreePool(31, /*threads=*/1, &stats, &counts);
  for (std::size_t i = 0; i < counts.size(); ++i) {
    EXPECT_EQ(counts[i], 1) << "item " << i;
  }
  EXPECT_EQ(stats.num_workers, 1u);
  EXPECT_EQ(stats.items_run, 31u);
  EXPECT_EQ(stats.steals, 0u);  // inline mode never steals
  EXPECT_FALSE(stats.cancelled);
}

TEST(SchedulerWorkPool, ParallelRunsEveryItemOnceAtEveryThreadCount) {
  for (int threads : {2, 4, 8}) {
    WorkPoolStats stats;
    std::vector<int> counts;
    RunBinaryTreePool(127, threads, &stats, &counts);
    for (std::size_t i = 0; i < counts.size(); ++i) {
      EXPECT_EQ(counts[i], 1) << "threads " << threads << " item " << i;
    }
    EXPECT_EQ(stats.num_workers, static_cast<std::size_t>(threads));
    EXPECT_EQ(stats.items_run, 127u);
    std::size_t per_worker_total = 0;
    for (std::size_t c : stats.per_worker_items) per_worker_total += c;
    EXPECT_EQ(per_worker_total, stats.items_run);
    std::size_t per_worker_steals = 0;
    for (std::size_t s : stats.per_worker_steals) per_worker_steals += s;
    EXPECT_EQ(per_worker_steals, stats.steals);
  }
}

TEST(SchedulerWorkPool, CancelDropsQueuedItems) {
  for (int threads : {1, 4}) {
    std::atomic<std::size_t> ran{0};
    const std::uint64_t roots[] = {0};
    WorkPoolStats stats = RunWorkPool(
        roots, threads,
        [&](WorkPool& pool, std::uint64_t item, std::uint32_t worker) {
          if (ran.fetch_add(1, std::memory_order_relaxed) >= 10) {
            pool.Cancel();
            return;
          }
          pool.Submit(2 * item + 1, worker);
          pool.Submit(2 * item + 2, worker);
        });
    EXPECT_TRUE(stats.cancelled) << "threads " << threads;
    // In-flight items finish but nothing queued survives Cancel; the run
    // stops close to the threshold instead of growing forever.
    EXPECT_LT(stats.items_run, 10u + 2u * stats.num_workers + 2u)
        << "threads " << threads;
  }
}

TEST(SchedulerWorkPool, SubmitAfterCancelIsDropped) {
  std::atomic<std::size_t> ran{0};
  const std::uint64_t roots[] = {0};
  WorkPoolStats stats = RunWorkPool(
      roots, /*num_threads=*/1,
      [&](WorkPool& pool, std::uint64_t item, std::uint32_t worker) {
        ++ran;
        pool.Cancel();
        pool.Submit(item + 1, worker);  // must be ignored
      });
  EXPECT_EQ(ran.load(), 1u);
  EXPECT_EQ(stats.items_run, 1u);
  EXPECT_TRUE(stats.cancelled);
}

TEST(SchedulerWorkPool, EmptyRootsIsANoop) {
  WorkPoolStats stats = RunWorkPool(
      {}, /*num_threads=*/4,
      [&](WorkPool&, std::uint64_t, std::uint32_t) { ADD_FAILURE(); });
  EXPECT_EQ(stats.items_run, 0u);
  EXPECT_FALSE(stats.cancelled);
}

// 256 independent roots, no submits, 8 workers — the relevance query
// batch's shape. Every item must run exactly once, on a valid worker.
TEST(SchedulerStress, WideAntichainManyWorkers) {
  std::vector<std::uint64_t> roots(256);
  for (std::uint64_t i = 0; i < roots.size(); ++i) roots[i] = i;
  for (int round = 0; round < 4; ++round) {
    std::vector<std::atomic<int>> run_count(roots.size());  // all zero
    WorkPoolStats stats = RunWorkPool(
        roots, /*num_threads=*/8,
        [&](WorkPool&, std::uint64_t item, std::uint32_t worker) {
          EXPECT_LT(worker, 8u);
          ++run_count[item];
        });
    for (std::size_t i = 0; i < run_count.size(); ++i) {
      EXPECT_EQ(run_count[i].load(), 1) << "item " << i;
    }
    EXPECT_EQ(stats.num_workers, 8u);
    EXPECT_EQ(stats.items_run, roots.size());
    EXPECT_FALSE(stats.cancelled);
  }
}

}  // namespace
}  // namespace afp
