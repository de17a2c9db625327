#include "common/thread_pool.h"

#include "common/logging.h"
#include "common/mutex.h"

namespace erlb {

ThreadPool::ThreadPool(size_t num_threads) {
  ERLB_CHECK(num_threads >= 1);
  workers_.reserve(num_threads);
  for (size_t i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
  // Return only once every worker is inside WorkerLoop. A thread still
  // starting up may hold a libc or sanitizer allocator lock, and a caller
  // that forks right after (multi-process jobs) would hand that lock,
  // held forever, to the child.
  MutexLock lock(&mu_);
  while (started_ < num_threads) all_started_.Wait(&mu_);
}

ThreadPool::~ThreadPool() {
  {
    MutexLock lock(&mu_);
    shutdown_ = true;
  }
  task_available_.NotifyAll();
  for (auto& w : workers_) w.join();
}

void ThreadPool::Submit(std::function<void()> task) {
  {
    MutexLock lock(&mu_);
    queue_.push_back(std::move(task));
  }
  task_available_.NotifyOne();
}

void ThreadPool::Wait() {
  MutexLock lock(&mu_);
  while (!(queue_.empty() && in_flight_ == 0)) {
    all_done_.Wait(&mu_);
  }
}

void ThreadPool::WorkerLoop() {
  {
    MutexLock lock(&mu_);
    ++started_;
  }
  all_started_.NotifyOne();
  for (;;) {
    std::function<void()> task;
    {
      MutexLock lock(&mu_);
      while (!shutdown_ && queue_.empty()) {
        task_available_.Wait(&mu_);
      }
      if (queue_.empty()) {
        if (shutdown_) return;
        continue;
      }
      task = std::move(queue_.front());
      queue_.pop_front();
      ++in_flight_;
    }
    task();
    {
      MutexLock lock(&mu_);
      --in_flight_;
      if (queue_.empty() && in_flight_ == 0) all_done_.NotifyAll();
    }
  }
}

}  // namespace erlb
