// Fixed-size worker pool used by the MapReduce runtime to emulate a set of
// map/reduce processes executing tasks in FIFO order.
#ifndef ERLB_COMMON_THREAD_POOL_H_
#define ERLB_COMMON_THREAD_POOL_H_

#include <deque>
#include <functional>
#include <thread>
#include <vector>

#include "common/annotations.h"
#include "common/mutex.h"

namespace erlb {

/// A minimal FIFO thread pool.
///
/// Tasks submitted via Submit() are executed by `num_threads` workers in
/// submission order (the order a Hadoop scheduler would hand queued tasks
/// to freed process slots). Wait() blocks until the queue is drained and
/// all running tasks have finished.
class ThreadPool {
 public:
  /// Spawns `num_threads` workers (>= 1) and returns once all of them
  /// have started, so a fork() after construction never copies a worker
  /// mid-startup.
  explicit ThreadPool(size_t num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueues a task. Thread-safe.
  void Submit(std::function<void()> task) ERLB_EXCLUDES(mu_);

  /// Blocks until all submitted tasks have completed.
  void Wait() ERLB_EXCLUDES(mu_);

  size_t num_threads() const { return workers_.size(); }

 private:
  void WorkerLoop() ERLB_EXCLUDES(mu_);

  Mutex mu_;
  CondVar task_available_;
  CondVar all_done_;
  CondVar all_started_;
  std::deque<std::function<void()>> queue_ ERLB_GUARDED_BY(mu_);
  size_t in_flight_ ERLB_GUARDED_BY(mu_) = 0;
  size_t started_ ERLB_GUARDED_BY(mu_) = 0;  // workers inside WorkerLoop
  bool shutdown_ ERLB_GUARDED_BY(mu_) = false;
  // Written only by the constructor and joined by the destructor; no
  // worker touches it, so it needs no guard.
  std::vector<std::thread> workers_;
};

}  // namespace erlb

#endif  // ERLB_COMMON_THREAD_POOL_H_
