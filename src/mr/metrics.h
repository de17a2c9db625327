// Per-task and per-job execution metrics collected by the runtime. The
// cluster simulator consumes the per-task workload numbers; tests and
// benches consume the aggregate ones.
#ifndef ERLB_MR_METRICS_H_
#define ERLB_MR_METRICS_H_

#include <cstdint>
#include <vector>

#include "mr/counters.h"

namespace erlb {
namespace mr {

/// Workload and timing of a single map or reduce task.
struct TaskMetrics {
  uint32_t task_index = 0;
  int64_t input_records = 0;
  int64_t output_records = 0;
  /// Reduce only: number of reduce() invocations (groups).
  int64_t groups = 0;
  /// Wall-clock nanoseconds spent executing the task body.
  int64_t duration_nanos = 0;
  /// External mode: bytes this task spilled to disk (map tasks) or
  /// streamed back from disk (reduce tasks). 0 in in-memory mode.
  int64_t spill_bytes = 0;
  /// Execution attempts consumed (1 = first try succeeded; >1 means the
  /// task was retried after a retryable failure or blown deadline).
  int64_t attempts = 1;
  /// True iff the task was not executed by this job: its committed
  /// output was restored from a commit record (a previous process's
  /// checkpoint, or a worker that died after committing).
  bool resumed = false;
  /// Task-local user counters.
  Counters counters;
};

/// Metrics for one executed MR job.
struct JobMetrics {
  std::vector<TaskMetrics> map_tasks;
  std::vector<TaskMetrics> reduce_tasks;
  /// Wall-clock nanoseconds for the whole job (map + shuffle + reduce).
  int64_t total_duration_nanos = 0;
  int64_t map_phase_nanos = 0;
  int64_t reduce_phase_nanos = 0;
  /// True iff the job ran the out-of-core (spill-to-disk) shuffle.
  bool external = false;
  /// External mode: total bytes of sorted runs written to spill files by
  /// the map phase (0 in in-memory mode).
  int64_t spill_bytes_written = 0;
  /// Total extra attempts across all tasks (sum of attempts - 1).
  int64_t task_retries = 0;
  /// Map tasks skipped because a commit record already held their
  /// committed spill output — including tasks adopted from a dead worker
  /// process that committed before dying.
  int64_t map_tasks_resumed = 0;
  /// Reduce tasks restored from committed output runs the same way
  /// (jobs whose output types are spillable).
  int64_t reduce_tasks_resumed = 0;
  /// True iff the job ran with a durable checkpoint directory.
  bool checkpointed = false;
  /// True iff the job sharded its tasks across forked worker processes.
  bool multi_process = false;
  /// Multi-process mode: worker processes forked over the job's lifetime
  /// (respawns after worker deaths included), and deaths observed.
  uint32_t worker_processes = 0;
  uint32_t worker_deaths = 0;
  /// Job-level merged counters.
  Counters counters;

  /// Total KV pairs emitted by all map tasks (the paper's Figure 12 metric).
  int64_t TotalMapOutputPairs() const {
    int64_t n = 0;
    for (const auto& t : map_tasks) n += t.output_records;
    return n;
  }

  /// Total input records across map tasks.
  int64_t TotalMapInputRecords() const {
    int64_t n = 0;
    for (const auto& t : map_tasks) n += t.input_records;
    return n;
  }
};

}  // namespace mr
}  // namespace erlb

#endif  // ERLB_MR_METRICS_H_
