// Shared-nothing multi-process execution: a Coordinator forks N worker
// processes and drives phases of tasks over the proc/wire.h frame
// protocol, one full-duplex socketpair per worker.
//
// Division of labor (modeled on the Metis scheduler's phase loop, with
// processes instead of cores):
//
//   coordinator (parent)                     worker (forked child)
//   ├─ shards tasks contiguously      ───►   runs phase.run(task) with
//   │  and streams ASSIGN frames             its copy-on-write image of
//   ├─ polls all workers, drains             the parent's job state
//   │  HEARTBEAT / DONE / FAILED      ◄───   reports status; the actual
//   ├─ validates every DONE against          result is committed to the
//   │  the on-disk commit record             shared job directory first
//   └─ waitpid() notices deaths; the
//      dead worker's unacknowledged
//      tasks are adopted (if their
//      commit record validates) or
//      reassigned to survivors
//
// The data plane never crosses the control channel: workers publish spill
// runs and per-task commit records into a shared job directory, and the
// parent re-reads them through `try_collect`. That keeps frames tiny and
// makes worker death recoverable by construction — a committed task is a
// committed task no matter how its worker exited.
//
// Workers are forked without exec: the child inherits the phase closures
// (and through them the templated job spec) copy-on-write, exactly like a
// fork-based MapReduce runner. Children never run the parent's
// destructors — every child exit path is _exit(2).
//
// Shared state rule (ROADMAP concurrency ground rule): everything
// mutated by Run() and readable from other threads (the stats snapshot)
// sits behind the annotated erlb::Mutex and stays clean under
// -Wthread-safety -Werror.
#ifndef ERLB_PROC_COORDINATOR_H_
#define ERLB_PROC_COORDINATOR_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/annotations.h"
#include "common/mutex.h"
#include "common/status.h"

namespace erlb {
namespace proc {

/// One phase of independent tasks; phases run strictly in order with a
/// barrier between them (reduce never starts before every map task is
/// collected). `assignment_payload` and `try_collect` run in the parent,
/// `run` in the workers. (mr::JobRunner drives the same description on
/// its thread pool when it runs in a single process.)
struct TaskPhase {
  std::string name;
  uint32_t num_tasks = 0;

  /// Parent side, optional: opaque bytes shipped inside the ASSIGN frame
  /// for `task` — the only way to hand workers state that did not exist
  /// when they were forked (e.g. reduce-input extent tables).
  std::function<std::string(uint32_t task)> assignment_payload;

  /// Worker side: execute `task`. Must durably publish the task's result
  /// (spill run + commit record) before returning OK; the DONE frame
  /// carries no data.
  std::function<Status(uint32_t task, const std::string& payload)> run;

  /// Parent side: load + validate `task`'s published result; false means
  /// "not (validly) committed" and the task runs again elsewhere.
  /// `adopted` is true when the result was collected without a live DONE
  /// report — found during the initial resume scan, or left behind by a
  /// worker that died after committing.
  std::function<bool(uint32_t task, bool adopted)> try_collect;
};

struct CoordinatorOptions {
  uint32_t num_workers = 1;
  /// Scan for already-committed tasks before assigning anything (resume
  /// over a durable checkpoint directory from a previous process).
  bool collect_existing = false;
  /// Abort the job after this many worker deaths. 0 = auto: workers +
  /// total tasks + 2, enough that every task can lose one worker and
  /// still finish, while repeat-crash loops terminate deterministically.
  uint32_t max_worker_deaths = 0;
  /// Give up on a task after this many failed attempts across all
  /// workers (FAILED frames with a retryable code are reassigned until
  /// this budget runs out; non-retryable codes fail the job at once).
  uint32_t max_task_failovers = 3;
};

struct PhaseStats {
  /// Committed results collected without a live DONE report.
  uint32_t tasks_adopted = 0;
  /// Assignments re-issued after a worker death or retryable failure.
  uint32_t tasks_reassigned = 0;
  /// Parent-side wall clock for the phase.
  int64_t duration_nanos = 0;
};

struct CoordinatorStats {
  uint32_t workers_spawned = 0;
  uint32_t worker_deaths = 0;
  uint64_t heartbeats = 0;
  std::vector<PhaseStats> phases;
};

/// Forks and supervises the worker pool for one job. Single-shot.
class Coordinator {
 public:
  explicit Coordinator(CoordinatorOptions options);

  Coordinator(const Coordinator&) = delete;
  Coordinator& operator=(const Coordinator&) = delete;

  /// Forks the workers, runs every phase to completion, and shuts the
  /// pool down (also on error). Must be called at most once. A non-OK
  /// return means the job did not complete; partial results remain
  /// wherever the phases committed them.
  [[nodiscard]] Status Run(const std::vector<TaskPhase>& phases);

  /// Thread-safe snapshot, valid during and after Run().
  [[nodiscard]] CoordinatorStats stats() const;

 private:
  struct Worker;  // parent-side connection state, defined in the .cc

  // The single-threaded event loop behind Run(); factored out so Run can
  // centralize worker teardown on every exit path.
  [[nodiscard]] Status RunLoop(const std::vector<TaskPhase>& phases,
                               std::vector<Worker>* workers);

  CoordinatorOptions options_;
  bool ran_ = false;

  mutable Mutex mu_;
  CoordinatorStats stats_ ERLB_GUARDED_BY(mu_);
};

}  // namespace proc
}  // namespace erlb

#endif  // ERLB_PROC_COORDINATOR_H_
