// Work-stealing scheduler for one phase of index-addressed tasks (the
// map or reduce phase of a JobRunner job).
//
// The static task→thread assignment this replaces handed task t to thread
// t % W up front, so one straggler shard serialized the phase. Here the
// task list is presplit into one contiguous shard per worker (the
// per-thread deque); each worker claims the next task of its own shard
// with an atomic fetch_add — the lock-free fast path — and a worker whose
// shard drains steals from the shard with the most remaining tasks using
// the same claim counter. Every task index is claimed exactly once, and
// callers store results per task index, so execution order (and therefore
// stealing) never affects job output. The only blocking is the submitting
// thread's completion wait, which goes through the annotated
// erlb::Mutex/CondVar slow path.
#ifndef ERLB_MR_TASK_SCHEDULER_H_
#define ERLB_MR_TASK_SCHEDULER_H_

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "common/annotations.h"
#include "common/logging.h"
#include "common/mutex.h"
#include "common/thread_pool.h"

namespace erlb {
namespace mr {

/// Runs one batch of tasks over a ThreadPool with work stealing.
///
/// Single-shot: construct with the task indices of the phase, call Run()
/// once. `fn(task_index)` is invoked exactly once per index, from pool
/// worker threads; distinct indices may run concurrently, so `fn` must
/// only touch per-index state (plus internally synchronized sinks).
/// Run() blocks until every task has finished and every worker closure
/// has exited, so `fn` and the scheduler may live on the caller's stack.
class WorkStealingScheduler {
 public:
  /// \param task_indices the phase's pending task indices (any order;
  ///        shards preserve it, so workers start in list order)
  /// \param num_workers  worker closures to span (>= 1); capped at the
  ///        task count so every shard starts non-empty
  WorkStealingScheduler(std::vector<uint32_t> task_indices,
                        size_t num_workers)
      : tasks_(std::move(task_indices)),
        shards_(tasks_.empty()
                    ? 0
                    : std::min(std::max<size_t>(num_workers, 1),
                               tasks_.size())) {
    const size_t w = shards_.size();
    for (size_t s = 0; s < w; ++s) {
      shards_[s].begin = tasks_.size() * s / w;
      shards_[s].end = tasks_.size() * (s + 1) / w;
    }
  }

  WorkStealingScheduler(const WorkStealingScheduler&) = delete;
  WorkStealingScheduler& operator=(const WorkStealingScheduler&) = delete;

  /// Executes all tasks; returns when the phase is fully drained.
  void Run(ThreadPool* pool, const std::function<void(uint32_t)>& fn)
      ERLB_EXCLUDES(mu_) {
    const size_t w = shards_.size();
    if (w == 0) return;
    for (size_t s = 0; s < w; ++s) {
      pool->Submit([this, s, &fn] { WorkerLoop(s, fn); });
    }
    MutexLock lock(&mu_);
    while (exited_workers_ < w) all_exited_.Wait(&mu_);
  }

  /// Tasks a worker claimed from a shard other than its own. Valid after
  /// Run(); informational (bench/tests), never part of job output.
  uint64_t tasks_stolen() const {
    return tasks_stolen_.load(std::memory_order_relaxed);
  }

 private:
  /// One worker's claimable range of `tasks_` plus its claim cursor.
  /// Padded so claim traffic on neighboring shards never shares a line.
  struct alignas(64) Shard {
    size_t begin = 0;
    size_t end = 0;
    std::atomic<size_t> next{0};

    size_t size() const { return end - begin; }
    size_t remaining() const {
      size_t n = next.load(std::memory_order_relaxed);
      size_t sz = size();
      return n >= sz ? 0 : sz - n;
    }
  };

  void WorkerLoop(size_t home, const std::function<void(uint32_t)>& fn)
      ERLB_EXCLUDES(mu_) {
    size_t shard = home;
    for (;;) {
      // Fast path: claim-and-run until the current shard is drained.
      Shard& cur = shards_[shard];
      for (;;) {
        const size_t i = cur.next.fetch_add(1, std::memory_order_relaxed);
        if (i >= cur.size()) break;
        fn(tasks_[cur.begin + i]);
        if (shard != home) {
          tasks_stolen_.fetch_add(1, std::memory_order_relaxed);
        }
      }
      // Steal: move to the shard with the most unclaimed tasks. No shard
      // ever gains tasks, so an empty scan means the phase is drained
      // (tasks may still be running on other workers — they joined the
      // phase through their own claims and finish on their own).
      size_t best = shards_.size();
      size_t best_remaining = 0;
      for (size_t s = 0; s < shards_.size(); ++s) {
        const size_t remaining = shards_[s].remaining();
        if (remaining > best_remaining) {
          best = s;
          best_remaining = remaining;
        }
      }
      if (best == shards_.size()) break;
      shard = best;
    }
    MutexLock lock(&mu_);
    if (++exited_workers_ == shards_.size()) all_exited_.NotifyAll();
  }

  std::vector<uint32_t> tasks_;
  std::vector<Shard> shards_;
  std::atomic<uint64_t> tasks_stolen_{0};
  Mutex mu_;
  CondVar all_exited_;
  size_t exited_workers_ ERLB_GUARDED_BY(mu_) = 0;
};

}  // namespace mr
}  // namespace erlb

#endif  // ERLB_MR_TASK_SCHEDULER_H_
