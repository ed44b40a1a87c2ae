#include "exec/scheduler.h"

#include <algorithm>
#include <condition_variable>
#include <mutex>
#include <thread>
#include <vector>

namespace afp {

void WorkPool::Submit(std::uint64_t item, std::uint32_t submitter) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (cancelled_.load(std::memory_order_relaxed)) return;
    deque_.push_back(Item{item, submitter});
    if (deque_.size() > stats_.max_queue) stats_.max_queue = deque_.size();
  }
  cv_.notify_one();
}

void WorkPool::Cancel() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    cancelled_.store(true, std::memory_order_relaxed);
    deque_.clear();
    stats_.cancelled = true;
  }
  cv_.notify_all();
}

WorkPoolStats RunWorkPool(
    std::span<const std::uint64_t> roots, int num_threads,
    const std::function<void(WorkPool&, std::uint64_t, std::uint32_t)>&
        task) {
  // No bound by the root count: tasks may submit more work, so the work
  // set is discovered dynamically.
  const int num_workers = std::clamp(num_threads, 1, kMaxPoolWorkers);

  WorkPool pool;
  WorkPoolStats& stats = pool.stats_;
  stats.num_workers = static_cast<std::size_t>(num_workers);
  stats.per_worker_items.assign(stats.num_workers, 0);
  stats.per_worker_steals.assign(stats.num_workers, 0);
  stats.per_worker_idle_waits.assign(stats.num_workers, 0);
  for (std::uint64_t r : roots) pool.Submit(r, WorkPool::kExternalSubmitter);

  if (num_workers == 1) {
    // Inline path: LIFO on the calling thread — exactly the order a lone
    // pool worker would use, no threads spawned, no steals counted.
    while (true) {
      WorkPool::Item it;
      {
        std::lock_guard<std::mutex> lock(pool.mu_);
        if (pool.deque_.empty() ||
            pool.cancelled_.load(std::memory_order_relaxed)) {
          break;
        }
        it = pool.deque_.back();
        pool.deque_.pop_back();
      }
      task(pool, it.payload, 0);
      ++stats.items_run;
      ++stats.per_worker_items[0];
    }
    return stats;
  }

  auto worker = [&pool, &task, &stats](std::uint32_t me) {
    std::unique_lock<std::mutex> lock(pool.mu_);
    while (true) {
      while (pool.deque_.empty() && pool.in_flight_ > 0 &&
             !pool.cancelled_.load(std::memory_order_relaxed)) {
        ++stats.idle_waits;
        ++stats.per_worker_idle_waits[me];
        pool.cv_.wait(lock);
      }
      if (pool.deque_.empty() ||
          pool.cancelled_.load(std::memory_order_relaxed)) {
        // Drained (nothing queued, nothing in flight) or cancelled;
        // in-flight tasks on other workers finish on their own threads.
        return;
      }
      WorkPool::Item it = pool.deque_.back();
      pool.deque_.pop_back();
      if (it.submitter != me) {
        ++stats.steals;
        ++stats.per_worker_steals[me];
      }
      ++pool.in_flight_;
      lock.unlock();

      task(pool, it.payload, me);

      lock.lock();
      --pool.in_flight_;
      ++stats.items_run;
      ++stats.per_worker_items[me];
      if (pool.in_flight_ == 0 && pool.deque_.empty()) {
        // Nothing left anywhere: wake parked workers so they can exit.
        pool.cv_.notify_all();
      }
    }
  };

  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(num_workers));
  for (int w = 0; w < num_workers; ++w) {
    threads.emplace_back(worker, static_cast<std::uint32_t>(w));
  }
  for (std::thread& t : threads) t.join();
  return stats;
}

}  // namespace afp
