// In-memory and out-of-core MapReduce runtime with Hadoop-fidelity
// semantics.
//
// The paper's algorithms rely on four user-pluggable functions beyond
// map/reduce (Section II):
//   part  — assigns a map output key to one of r reduce tasks,
//   comp  — total order used to sort each reduce task's input,
//   group — equivalence deciding which consecutive sorted keys share one
//           reduce() invocation,
// plus composite keys and map-side "additional output" files. This runtime
// reproduces those semantics exactly:
//
//  * One map task per input partition (m = #partitions), as assumed by the
//    paper's BDM ("the same number of map tasks and the same partitioning
//    of the input data" across both jobs).
//  * Merge-based shuffle, as in Hadoop: each map task stable-sorts its
//    output by comp (one "spill"), scatters it in order into one sorted
//    run per reduce task, and each reduce task k-way merges its m runs
//    (mr/merge.h) — O(N log m) instead of re-sorting the concatenation.
//    Cross-run ties break on map-task index, so pairs
//    with equal keys stay contiguous per origin map task in map-task
//    order — the property Hadoop's merge of per-map sorted runs provides
//    and Algorithm 1's streaming reduce for k.i×j match tasks depends on.
//    The merged sequence is byte-identical to the engine's previous
//    concatenate-then-stable-sort shuffle (differential-tested).
//  * Optional combiner per map task (the BDM job's counting optimization).
//  * Hadoop's zero-reducer job shape: a spec with num_reduce_tasks == 0
//    runs its map phase only, and its output is each map task's sorted,
//    combined run — one run per map task, in map-task order. The BDM job
//    runs this way: each of its keys comes from one map task, so the
//    combined runs already hold the final counts.
//  * Tasks run on a fixed-size worker pool (work-stealing scheduler,
//    mr/task_scheduler.h), emulating a cluster with a fixed number of
//    processes.
//
// Execution modes. One job driver (JobRunner::RunJob) runs every mode,
// selected by ExecutionOptions (per JobRunner) and producing
// byte-identical output:
//
//  * kInMemory — every map task's sorted runs stay in RAM until the
//    reduce phase merges them (the engine's original behavior). Peak
//    memory grows with the whole intermediate data set.
//  * kExternal — each map task writes its sorted, partitioned output to a
//    length-prefixed spill file (mr/spill.h) and frees it; each reduce
//    task streams its m file-backed runs through the loser-tree k-way
//    merge (mr/merge.h) with one bounded I/O buffer per run. Peak memory
//    is O(largest map-task output + workers × m × io_buffer) instead of
//    O(total intermediate data). Requires SpillCodec specializations for
//    the intermediate key/value types.
//  * kMultiProcess — kExternal's spill-file shuffle, with tasks sharded
//    across forked worker processes (proc/coordinator.h).
//  * kAuto (default) picks kExternal when a sampled estimate of the input
//    size exceeds spill_threshold_bytes and the types are spillable,
//    kInMemory otherwise.
//
// With ExecutionOptions::checkpoint.dir set, a spilling job commits
// every task durably (mr/task_commit.h) and a restarted job resumes from
// the committed map tasks — and reduce tasks, when the output types are
// spillable.
//
// Job wiring is one `TypedJobSpec`: it takes the comparator, grouping
// predicate, and partitioner as compile-time functor types, letting the
// sort/merge/group loops inline them.
#ifndef ERLB_MR_JOB_H_
#define ERLB_MR_JOB_H_

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/fault.h"
#include "common/hash.h"
#include "common/io_buffer.h"
#include "common/logging.h"
#include "common/status.h"
#include "common/stopwatch.h"
#include "common/thread_pool.h"
#include "mr/counters.h"
#include "mr/merge.h"
#include "mr/metrics.h"
#include "mr/spill.h"
#include "mr/task_commit.h"
#include "mr/task_scheduler.h"
#include "proc/coordinator.h"
#include "proc/wire.h"

namespace erlb {
namespace mr {

/// How the shuffle moves intermediate data (see the file comment).
enum class ExecutionMode {
  /// Estimate the input size and spill only when it exceeds the
  /// threshold (and the intermediate types are spillable).
  kAuto = 0,
  /// Keep every run in RAM (the classic path).
  kInMemory,
  /// Spill sorted runs to disk and stream the reduce-side merge.
  kExternal,
  /// Shard tasks across forked worker processes that shuffle through
  /// spill files in a shared job directory (proc/coordinator.h). Never
  /// chosen by kAuto — shared-nothing execution is an explicit opt-in.
  kMultiProcess,
};

/// Returns "auto", "in_memory", "external" or "multi_process".
const char* ExecutionModeName(ExecutionMode mode);

/// Out-of-core knobs of a JobRunner; defaults preserve the historical
/// in-memory behavior for everything below 256 MiB of estimated input.
struct ExecutionOptions {
  ExecutionMode mode = ExecutionMode::kAuto;
  /// kAuto switches to the external path above this estimated input size.
  uint64_t spill_threshold_bytes = uint64_t{256} << 20;
  /// Spill directory root; empty uses the system temp directory. Each
  /// Run() creates (and scopes) its own unique subdirectory.
  std::string temp_dir;
  /// Buffer size for every spill writer and every run cursor.
  size_t io_buffer_bytes = size_t{1} << 17;
  /// Test seam: each map task's spill writer fails once it would exceed
  /// this many bytes (emulated ENOSPC). 0 disables.
  uint64_t fail_writer_after_bytes = 0;
  /// Per-task attempt budget: a task whose attempt fails with a
  /// retryable Status (IsRetryableStatus: IOError, Unavailable,
  /// DeadlineExceeded) is re-executed up to this many times in total.
  /// 1 (the default) preserves the historical fail-fast behavior; logic
  /// errors are never retried regardless of the budget.
  uint32_t max_task_attempts = 1;
  /// Sleep before the first re-attempt, doubling per further attempt
  /// (exponential backoff). 0 retries immediately.
  uint64_t retry_backoff_ms = 0;
  /// Per-attempt wall-clock budget. Task threads cannot be preempted, so
  /// this is enforced post hoc: an attempt that finishes past the
  /// deadline has its result discarded and counts as a DeadlineExceeded
  /// failure (retryable). 0 disables.
  uint64_t task_attempt_timeout_ms = 0;
  /// Durable checkpoint configuration (mr/task_commit.h). Only spilling
  /// jobs checkpoint; the in-memory fast path is unaffected.
  CheckpointOptions checkpoint;
  /// kMultiProcess: number of worker processes to fork (>= 1). Leaving
  /// this 0 in multi-process mode is an InvalidArgument at Run() —
  /// callers that want "as many processes as worker threads" resolve
  /// that explicitly, as core::Dataflow does.
  uint32_t num_worker_processes = 0;

  /// Rejects knob combinations no execution path can honor — zero
  /// buffers or attempt budgets, a missing process count in
  /// multi-process mode, a checkpoint directory on the in-memory path.
  /// JobRunner::Run calls this on entry, so invalid options surface as
  /// InvalidArgument on the job result instead of ad-hoc fallbacks or
  /// CHECK failures deep in a phase.
  [[nodiscard]] Status Validate() const;
};

/// Identity of a running task, passed to mapper/reducer factories so user
/// code can read the configuration (the paper's `map_configure(m, r,
/// partitionIndex)`).
struct TaskContext {
  uint32_t num_map_tasks = 0;
  uint32_t num_reduce_tasks = 0;
  /// Map: the input partition index. Reduce: the reduce task index.
  uint32_t task_index = 0;
};

/// Emission interface handed to Mapper::Map.
template <typename K, typename V>
class MapContext {
 public:
  virtual ~MapContext() = default;
  /// Emits one intermediate key-value pair.
  virtual void Emit(K key, V value) = 0;
  /// Task-local counters, merged into job counters after the task.
  virtual Counters* counters() = 0;
};

/// Emission interface handed to Reducer::Reduce.
template <typename K, typename V>
class ReduceContext {
 public:
  virtual ~ReduceContext() = default;
  /// Emits one output key-value pair.
  virtual void Emit(K key, V value) = 0;
  virtual Counters* counters() = 0;
};

/// User map function. A fresh instance is created per map task (so
/// instances may hold per-task state, e.g. the BDM or entity-index
/// counters).
template <typename InK, typename InV, typename MidK, typename MidV>
class Mapper {
 public:
  virtual ~Mapper() = default;
  /// Called once per input record.
  virtual void Map(const InK& key, const InV& value,
                   MapContext<MidK, MidV>* ctx) = 0;
  /// Called after the last record of the task.
  virtual void Close(MapContext<MidK, MidV>* ctx) { (void)ctx; }
};

/// User reduce function; fresh instance per reduce task.
///
/// Reduce() receives the whole group as (key, value) pairs in sort order —
/// this mirrors Hadoop, where the key object advances alongside the value
/// iterator under a coarser grouping comparator (secondary sort).
template <typename MidK, typename MidV, typename OutK, typename OutV>
class Reducer {
 public:
  virtual ~Reducer() = default;
  virtual void Reduce(std::span<const std::pair<MidK, MidV>> group,
                      ReduceContext<OutK, OutV>* ctx) = 0;
  virtual void Close(ReduceContext<OutK, OutV>* ctx) { (void)ctx; }
};

/// The partitioner of a map-only job (num_reduce_tasks == 0), which
/// routes no key; JobRunner::Run rejects it for a job with reduce tasks.
struct NoPartitioner {
  template <typename K>
  uint32_t operator()(const K& /*key*/, uint32_t /*r*/) const {
    return 0;
  }
};

/// Full specification of an MR job. `KeyLess`, `GroupEqual` and
/// `Partitioner` are functor types invoked on every key comparison /
/// routing decision of the sort, merge and group loops; stateless structs
/// here devirtualize the hottest calls of the engine.
///
/// With num_reduce_tasks == 0 the job is map-only: reducer_factory and
/// the partitioner go unused, the output types must be the map output
/// types, and the result holds one run per map task.
template <typename InK, typename InV, typename MidK, typename MidV,
          typename OutK, typename OutV, typename KeyLess, typename GroupEqual,
          typename Partitioner = NoPartitioner>
struct TypedJobSpec {
  using MapperT = Mapper<InK, InV, MidK, MidV>;
  using ReducerT = Reducer<MidK, MidV, OutK, OutV>;
  using InKey = InK;
  using InValue = InV;
  using MidKey = MidK;
  using MidValue = MidV;
  using OutKey = OutK;
  using OutValue = OutV;

  /// Creates the mapper for one map task.
  std::function<std::unique_ptr<MapperT>(const TaskContext&)> mapper_factory;
  /// Creates the reducer for one reduce task.
  std::function<std::unique_ptr<ReducerT>(const TaskContext&)>
      reducer_factory;
  /// part: key -> reduce task in [0, r).
  Partitioner partitioner{};
  /// comp: strict weak order on intermediate keys.
  KeyLess key_less{};
  /// group: equivalence on intermediate keys; must be coarser than (or equal
  /// to) the sort order's equivalence, as in Hadoop.
  GroupEqual group_equal{};
  /// Optional combiner applied to each map task's sorted output run:
  /// receives one group (equal keys by group_equal within the task) and
  /// emits replacement pairs.
  std::function<void(std::span<const std::pair<MidK, MidV>>,
                     std::vector<std::pair<MidK, MidV>>*)>
      combiner;

  /// Optional durable "additional output" hooks for committing
  /// (checkpointed or multi-process) jobs. A mapper that writes outside
  /// the emitted KV stream (e.g. the BDM job's annotated partitions —
  /// Algorithm 3's extra DFS files) must provide both, or a resumed job
  /// would skip the side effect along with the task. `encode_side_output`
  /// is called after a map task's successful attempt; its bytes are
  /// committed (checksummed) with the task's spill file.
  /// `decode_side_output` is called instead of re-execution when a
  /// completed task is restored from its commit record; returning false
  /// (corrupt bytes) re-executes the task. Jobs without map-side effects
  /// leave both unset. The factory should also reset any side state for
  /// its task, keeping retried attempts self-contained.
  std::function<std::string(uint32_t task_index)> encode_side_output;
  std::function<bool(uint32_t task_index, std::string_view bytes)>
      decode_side_output;

  uint32_t num_reduce_tasks = 1;
};

/// Result of running a job: output pairs per reduce task (per map task
/// for a map-only job) plus metrics. `status` is non-OK when the external
/// shuffle hit an I/O error (spill write, temp-dir creation, run
/// read-back); outputs are then incomplete and must not be consumed.
template <typename OutK, typename OutV>
struct JobResult {
  std::vector<std::vector<std::pair<OutK, OutV>>> outputs_per_reduce_task;
  JobMetrics metrics;
  Status status = Status::OK();

  /// Concatenates all reduce task outputs (in reduce-task order).
  std::vector<std::pair<OutK, OutV>> MergedOutput() const {
    size_t total = 0;
    for (const auto& part : outputs_per_reduce_task) total += part.size();
    std::vector<std::pair<OutK, OutV>> all;
    all.reserve(total);
    for (const auto& part : outputs_per_reduce_task) {
      all.insert(all.end(), part.begin(), part.end());
    }
    return all;
  }
};

namespace internal {

template <typename K, typename V>
class VectorMapContext : public MapContext<K, V> {
 public:
  void Emit(K key, V value) override {
    out_.emplace_back(std::move(key), std::move(value));
  }
  Counters* counters() override { return &counters_; }
  std::vector<std::pair<K, V>>& out() { return out_; }
  Counters& counters_ref() { return counters_; }

 private:
  std::vector<std::pair<K, V>> out_;
  Counters counters_;
};

template <typename K, typename V>
class VectorReduceContext : public ReduceContext<K, V> {
 public:
  void Emit(K key, V value) override {
    out_.emplace_back(std::move(key), std::move(value));
  }
  Counters* counters() override { return &counters_; }
  std::vector<std::pair<K, V>>& out() { return out_; }
  Counters& counters_ref() { return counters_; }

 private:
  std::vector<std::pair<K, V>> out_;
  Counters counters_;
};

// Single definition points for the task-lifecycle fault sites: every map
// (reduce) attempt, in-memory and external alike, passes through exactly
// one ERLB_FAULT_POINT occurrence of its site (the lint requires site
// literals to be unique across the tree).
[[nodiscard]] inline Status MapTaskFaultPoint() {
  ERLB_FAULT_POINT("task.map");
  return Status::OK();
}

[[nodiscard]] inline Status ReduceTaskFaultPoint() {
  ERLB_FAULT_POINT("task.reduce");
  return Status::OK();
}

/// Runs `attempt` under the options' retry policy: up to
/// max_task_attempts tries, exponential backoff between them, retrying
/// only retryable codes. Attempts must be self-contained (clear their
/// outputs on entry) so a re-run is byte-identical to a first run.
/// `metrics->attempts` records the tries consumed.
template <typename Attempt>
[[nodiscard]] Status RunTaskWithRetry(const ExecutionOptions& options,
                                      TaskMetrics* metrics,
                                      Attempt&& attempt) {
  const uint32_t max_attempts =
      std::max<uint32_t>(1, options.max_task_attempts);
  uint64_t backoff_ms = options.retry_backoff_ms;
  Status last;
  for (uint32_t a = 1;; ++a) {
    metrics->attempts = a;
    Stopwatch attempt_watch;
    last = attempt();
    if (last.ok() && options.task_attempt_timeout_ms > 0 &&
        attempt_watch.ElapsedNanos() >
            static_cast<int64_t>(options.task_attempt_timeout_ms) *
                1'000'000) {
      // The thread cannot be interrupted mid-attempt; over-deadline
      // results are discarded after the fact. Deterministic tasks
      // produce the same bytes on the retry, so correctness is
      // unaffected — the budget bounds how long a straggler can pin a
      // worker slot before the scheduler gives up on the job.
      last = Status::DeadlineExceeded("task attempt exceeded " +
                                      std::to_string(
                                          options.task_attempt_timeout_ms) +
                                      "ms deadline");
    }
    if (last.ok()) return last;
    if (a >= max_attempts || !IsRetryableStatus(last)) return last;
    if (backoff_ms > 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(backoff_ms));
      backoff_ms *= 2;
    }
  }
}

}  // namespace internal

/// Executes MR jobs on a worker pool.
///
/// `num_workers` emulates the number of process slots available in the
/// cluster. Each phase's tasks run under the work-stealing scheduler
/// (per-worker shards with atomic claim counters, mr/task_scheduler.h);
/// outputs are stored per task index, so the schedule never affects job
/// bytes. By default one ThreadPool is constructed per Run() and reused
/// across the map and reduce phases; a runner built over a shared pool
/// (the dataflow-graph configuration, where one pool serves every job of
/// a multi-job graph) submits to that pool instead of creating its own.
class JobRunner {
 public:
  /// \param num_workers worker threads (process slots), >= 1.
  explicit JobRunner(size_t num_workers) : num_workers_(num_workers) {
    ERLB_CHECK(num_workers >= 1);
  }

  // Option values are not checked here: Run() validates them via
  // ExecutionOptions::Validate() and surfaces InvalidArgument in the
  // job result instead of aborting.
  JobRunner(size_t num_workers, ExecutionOptions options)
      : num_workers_(num_workers), options_(std::move(options)) {
    ERLB_CHECK(num_workers >= 1);
  }

  /// A runner that executes every Run() on `shared_pool` (non-owning; the
  /// pool must outlive the runner and is drained via Wait() between
  /// phases, so sequential jobs may share it, concurrent ones may not).
  /// The pool's thread count is the runner's process-slot count.
  JobRunner(ThreadPool* shared_pool, ExecutionOptions options)
      : num_workers_(shared_pool->num_threads()),
        options_(std::move(options)),
        shared_pool_(shared_pool) {
    ERLB_CHECK(num_workers_ >= 1);
  }

  size_t num_workers() const { return num_workers_; }
  const ExecutionOptions& execution_options() const { return options_; }
  /// The injected pool, or nullptr when each Run() owns its pool.
  ThreadPool* shared_pool() const { return shared_pool_; }

  /// Runs `spec` over `input_partitions` (one map task per partition).
  /// `Spec` is any TypedJobSpec instantiation. Check `result.status`
  /// before consuming outputs when the runner may take the external path.
  template <typename Spec>
  JobResult<typename Spec::OutKey, typename Spec::OutValue> Run(
      const Spec& spec,
      const std::vector<std::vector<
          std::pair<typename Spec::InKey, typename Spec::InValue>>>&
          input_partitions) const {
    using MidK = typename Spec::MidKey;
    using MidV = typename Spec::MidValue;
    ERLB_CHECK(spec.mapper_factory != nullptr);
    ERLB_CHECK(!IsUnset(spec.key_less));
    ERLB_CHECK(!IsUnset(spec.group_equal));
    if (spec.num_reduce_tasks > 0) {
      ERLB_CHECK(spec.reducer_factory != nullptr);
      ERLB_CHECK(!IsUnset(spec.partitioner));
    } else {
      ERLB_CHECK(kMapOnlyShape<Spec>)
          << "a map-only job's output types must be its map output types";
    }

    if (Status options_status = options_.Validate(); !options_status.ok()) {
      JobResult<typename Spec::OutKey, typename Spec::OutValue> result;
      result.status = std::move(options_status);
      return result;
    }

    constexpr bool kSpillableJob = Spillable<MidK> && Spillable<MidV>;
    // The multi-process path additionally ships reduce outputs through
    // spill files, so the output types must be spillable too.
    constexpr bool kMultiProcessJob =
        kSpillableJob && Spillable<typename Spec::OutKey> &&
        Spillable<typename Spec::OutValue>;
    bool external = false;
    if constexpr (kSpillableJob) {
      switch (options_.mode) {
        case ExecutionMode::kInMemory:
          break;
        case ExecutionMode::kExternal:
        case ExecutionMode::kMultiProcess:
          external = true;
          break;
        case ExecutionMode::kAuto:
          external = EstimateInputBytes<Spec>(input_partitions) >
                     options_.spill_threshold_bytes;
          break;
      }
    } else {
      // Requesting the external path for a job whose intermediate types
      // have no SpillCodec is a programming error; kAuto quietly stays in
      // memory.
      ERLB_CHECK(options_.mode != ExecutionMode::kExternal &&
                 options_.mode != ExecutionMode::kMultiProcess)
          << "ExecutionMode::" << ExecutionModeName(options_.mode)
          << " requires SpillCodec specializations for the intermediate "
             "key/value types";
    }

    if (options_.mode == ExecutionMode::kMultiProcess) {
      if constexpr (kMultiProcessJob) {
        return RunJob<Spec, /*kSpill=*/true, /*kProcs=*/true>(
            spec, input_partitions);
      } else {
        ERLB_CHECK(kMultiProcessJob)
            << "ExecutionMode::kMultiProcess requires SpillCodec "
               "specializations for the intermediate AND output key/value "
               "types (reduce outputs cross the process boundary as spill "
               "runs)";
      }
    }
    if constexpr (kSpillableJob) {
      if (external) {
        return RunJob<Spec, /*kSpill=*/true, /*kProcs=*/false>(
            spec, input_partitions);
      }
    }
    return RunJob<Spec, /*kSpill=*/false, /*kProcs=*/false>(
        spec, input_partitions);
  }

 private:
  template <typename Spec>
  using SpecInput = std::vector<std::vector<
      std::pair<typename Spec::InKey, typename Spec::InValue>>>;

  /// In-memory shuffle state: [map task][reduce task] -> run of
  /// intermediate pairs, sorted by comp within the run (as Hadoop sorts
  /// each spill).
  template <typename Spec>
  using Buckets = std::vector<std::vector<std::vector<
      std::pair<typename Spec::MidKey, typename Spec::MidValue>>>>;

  /// True iff `f` is an unset std::function (a spec may name
  /// std::function types) or NoPartitioner; other functors are set.
  template <typename F>
  static bool IsUnset(const F& f) {
    if constexpr (requires { f == nullptr; }) {
      return f == nullptr;
    } else {
      return std::is_same_v<F, NoPartitioner>;
    }
  }

  /// True iff `Spec` can run map-only: its map output is its job output.
  template <typename Spec>
  static constexpr bool kMapOnlyShape =
      std::is_same_v<typename Spec::MidKey, typename Spec::OutKey> &&
      std::is_same_v<typename Spec::MidValue, typename Spec::OutValue>;

  /// Sampled spill-size estimate of the input (kAuto's decision input):
  /// per partition, the first records are measured with ApproxSpillBytes
  /// and extrapolated to the partition's record count.
  template <typename Spec>
  static uint64_t EstimateInputBytes(const SpecInput<Spec>& input) {
    constexpr size_t kSampleRecords = 64;
    uint64_t total = 0;
    for (const auto& partition : input) {
      if (partition.empty()) continue;
      size_t sample = std::min(kSampleRecords, partition.size());
      uint64_t sampled_bytes = 0;
      for (size_t i = 0; i < sample; ++i) {
        sampled_bytes += ApproxSpillBytes(partition[i].first) +
                         ApproxSpillBytes(partition[i].second);
      }
      total += sampled_bytes * partition.size() / sample;
    }
    return total;
  }

  // ---- The job driver ---------------------------------------------------
  //
  // One map -> shuffle -> reduce skeleton behind every execution mode,
  // parameterized on where runs live (`kSpill`: in-memory buckets, or
  // spill files in a job directory) and who runs a task (`kProcs`: pool
  // threads under the work-stealing scheduler, or forked workers under a
  // proc::Coordinator). Each phase is a proc::TaskPhase whose `run`
  // executes one task under the retry policy and whose `try_collect`
  // restores a task committed by another process from its commit record.
  //
  // Tasks commit (mr/task_commit.h) whenever another process may read
  // their output — a durable checkpoint directory or a worker pool:
  //
  //   map task t    -> spill-<t>.run (+ side-<t>.dat) + map-<t>.done
  //   reduce task t -> out-<t>.run                     + reduce-<t>.done
  //
  // A map-only job's spill-<t>.run holds one run, the task's output. An
  // in-process task also keeps that run as the job output; a task run by
  // a worker or restored on resume is read back from its record.
  //
  // A scoped single-process spill directory dies with the job and
  // commits nothing. Workers inherit the spec and input copy-on-write at
  // fork time; the only parent state created after the fork that they
  // need — the map phase's spill extents — travels in the reduce ASSIGN
  // payload. The parent trusts nothing a worker says: DONE merely prompts
  // it to collect the task's record from disk, which is also how it
  // adopts work left behind by a dead worker, and how a restarted job
  // resumes.
  template <typename Spec, bool kSpill, bool kProcs>
  JobResult<typename Spec::OutKey, typename Spec::OutValue> RunJob(
      const Spec& spec, const SpecInput<Spec>& input) const {
    static_assert(kSpill || !kProcs, "workers shuffle through spill files");
    using MidK = typename Spec::MidKey;
    using MidV = typename Spec::MidValue;
    using OutK = typename Spec::OutKey;
    using OutV = typename Spec::OutValue;
    // Reduce outputs are committed (and restorable) only when they have
    // a spill codec; the multi-process path requires it.
    constexpr bool kCommitReduce = Spillable<OutK> && Spillable<OutV>;

    const uint32_t m = static_cast<uint32_t>(input.size());
    const uint32_t r = spec.num_reduce_tasks;

    JobResult<OutK, OutV> result;
    JobMetrics& metrics = result.metrics;
    metrics.external = kSpill;
    metrics.multi_process = kProcs;
    metrics.map_tasks.resize(m);
    metrics.reduce_tasks.resize(r);
    result.outputs_per_reduce_task.resize(r > 0 ? r : m);
    // A map-only job's output slot for map task t, or nullptr.
    const auto map_output =
        [&](uint32_t t) -> std::vector<std::pair<MidK, MidV>>* {
      if constexpr (kMapOnlyShape<Spec>) {
        if (r == 0) return &result.outputs_per_reduce_task[t];
      }
      return nullptr;
    };

    // The job directory: durable under <checkpoint.dir>/job-<seq>, where
    // it survives the process and a restarted job with the same input
    // resumes from it, or a scoped temp dir removed (with every spill
    // file) on success and error paths alike.
    const bool durable = kSpill && !options_.checkpoint.dir.empty();
    const bool commit = durable || kProcs;
    const bool resume = durable && options_.checkpoint.resume;
    std::optional<ScopedTempDir> scoped_dir;
    std::string dir;
    if constexpr (kSpill) {
      Status opened;
      if (durable) {
        metrics.checkpointed = true;
        dir = options_.checkpoint.dir + "/job-" +
              std::to_string(
                  checkpoint_seq_.fetch_add(1, std::memory_order_relaxed));
        opened = internal::EnsureDirectory(dir);
      } else {
        auto made = ScopedTempDir::Make(options_.temp_dir, "erlb-spill");
        if (made.ok()) {
          scoped_dir.emplace(std::move(*made));
          dir = scoped_dir->path();
          // The parent's claim keeps a concurrent SweepStaleTempDirs from
          // reaping a worker pool's dir; each worker adds its own per-pid
          // claim on first task so the protection also covers
          // parent-death windows.
          if constexpr (kProcs) static_cast<void>(ClaimTempDirForPid(dir));
        } else {
          opened = made.status();
        }
      }
      if (!opened.ok()) {
        result.status = std::move(opened);
        return result;
      }
    }
    const uint64_t signature =
        commit ? ComputeInputSignature<Spec>(input, r,
                                             options_.checkpoint.identity)
               : 0;
    const auto claim_in_worker = [&] {
      if (kProcs && !durable) static_cast<void>(ClaimTempDirForPid(dir));
    };

    // Shuffle state: in-memory runs, or one spill file of r runs (one
    // for a map-only job) per map task. Each task writes only its own
    // index, so pool threads never race; in a worker process every write
    // below lands in the worker's copy-on-write image, and the parent
    // collects from disk instead.
    Buckets<Spec> buckets(kSpill ? 0 : m,
                          typename Buckets<Spec>::value_type(r));
    std::vector<SpillFile> spill_files(kSpill ? m : 0);

    std::vector<proc::TaskPhase> phases(2);
    proc::TaskPhase& map_phase = phases[0];
    map_phase.name = "map";
    map_phase.num_tasks = m;
    map_phase.run = [&](uint32_t t, const std::string&) -> Status {
      claim_in_worker();
      TaskMetrics* tm = &metrics.map_tasks[t];
      return internal::RunTaskWithRetry(options_, tm, [&, t]() -> Status {
        if constexpr (kSpill) {
          // A worker's output reaches the parent through its spill file.
          return RunMapTaskSpill(spec, input[t], m, r, t, dir, signature,
                                 commit, durable, &spill_files[t],
                                 kProcs ? nullptr : map_output(t), tm);
        } else {
          return RunMapTask(spec, input[t], m, r, t, &buckets[t],
                            map_output(t), tm);
        }
      });
    };

    proc::TaskPhase& reduce_phase = phases[1];
    reduce_phase.name = "reduce";
    reduce_phase.num_tasks = r;
    reduce_phase.run = [&](uint32_t t, const std::string& payload) -> Status {
      TaskMetrics* tm = &metrics.reduce_tasks[t];
      auto* output = &result.outputs_per_reduce_task[t];
      if constexpr (!kSpill) {
        return RunReduceTaskWithRetry(spec, &buckets, m, r, t, output, tm);
      } else {
        claim_in_worker();
        if constexpr (kProcs) {
          ERLB_RETURN_NOT_OK(
              DecodeReduceAssignment(payload, dir, m, r, t, &spill_files));
        }
        ERLB_RETURN_NOT_OK(
            internal::RunTaskWithRetry(options_, tm, [&, t]() -> Status {
              ERLB_RETURN_NOT_OK(RunReduceTaskExternal(spec, spill_files, m,
                                                       r, t, output, tm));
              if constexpr (kCommitReduce) {
                if (commit) {
                  return CommitReduceTask(dir, t, signature, durable,
                                          *output, *tm);
                }
              }
              return Status::OK();
            }));
        if constexpr (kProcs) {
          // A worker's output reaches the parent through out-<t>.run.
          std::vector<std::pair<OutK, OutV>>().swap(*output);
        }
        return Status::OK();
      }
    };

    if constexpr (kSpill) {
      map_phase.try_collect = [&](uint32_t t, bool adopted) -> bool {
        auto record = ReadTaskCommitRecord(dir, "map", t, signature,
                                           /*expected_runs=*/r > 0 ? r : 1,
                                           options_.io_buffer_bytes);
        if (!record.ok()) return false;
        if (auto* output = map_output(t);
            output != nullptr && !ReadCommittedRun(record->file, output)) {
          return false;
        }
        if (spec.decode_side_output) {
          // Restoring a task must also replay its side output; a record
          // without (valid) side bytes is treated as uncommitted.
          if (record->side.path.empty()) return false;
          auto side_bytes = ReadSideOutputFile(record->side);
          if (!side_bytes.ok() || !spec.decode_side_output(t, *side_bytes)) {
            return false;
          }
        }
        spill_files[t] = std::move(record->file);
        CollectMetrics(std::move(record->metrics), adopted,
                       &metrics.map_tasks[t], &metrics.map_tasks_resumed);
        return true;
      };
    }
    if constexpr (kSpill && kCommitReduce) {
      reduce_phase.try_collect = [&](uint32_t t, bool adopted) -> bool {
        auto record = ReadTaskCommitRecord(dir, "reduce", t, signature,
                                           /*expected_runs=*/1,
                                           options_.io_buffer_bytes);
        if (!record.ok() ||
            !ReadCommittedRun(record->file,
                              &result.outputs_per_reduce_task[t])) {
          return false;
        }
        CollectMetrics(std::move(record->metrics), adopted,
                       &metrics.reduce_tasks[t],
                       &metrics.reduce_tasks_resumed);
        return true;
      };
    }

    Stopwatch job_watch;
    Status status;
    if constexpr (kProcs) {
      // Workers were forked before the map phase ran, so their images
      // predate `spill_files`; each reduce assignment carries the extent
      // of its run in every map task's spill file. The coordinator's
      // event loop is single-threaded, so the parent-side closures
      // mutate `result` and `spill_files` without locking.
      reduce_phase.assignment_payload = [&](uint32_t t) -> std::string {
        std::string payload;
        proc::PutU32(m, &payload);
        for (uint32_t mt = 0; mt < m; ++mt) {
          const RunExtent& extent = spill_files[mt].runs[t];
          proc::PutU64(extent.offset, &payload);
          proc::PutU64(extent.bytes, &payload);
          proc::PutU64(extent.records, &payload);
        }
        return payload;
      };
      proc::CoordinatorOptions coord_options;
      coord_options.num_workers = std::max<uint32_t>(
          1, options_.num_worker_processes > 0
                 ? options_.num_worker_processes
                 : static_cast<uint32_t>(num_workers_));
      coord_options.collect_existing = resume;
      coord_options.max_task_failovers =
          std::max<uint32_t>(1, options_.max_task_attempts) + 2;
      proc::Coordinator coordinator(coord_options);
      status = coordinator.Run(phases);
      const proc::CoordinatorStats coord_stats = coordinator.stats();
      metrics.worker_processes = coord_stats.workers_spawned;
      metrics.worker_deaths = coord_stats.worker_deaths;
      if (coord_stats.phases.size() == 2) {
        metrics.map_phase_nanos = coord_stats.phases[0].duration_nanos;
        // A map-only job's reduce phase has no task and takes no time.
        if (r > 0) {
          metrics.reduce_phase_nanos = coord_stats.phases[1].duration_nanos;
        }
      }
    } else {
      std::optional<ThreadPool> owned_pool;
      ThreadPool& pool = shared_pool_ != nullptr
                             ? *shared_pool_
                             : owned_pool.emplace(num_workers_);
      status = RunPhaseOnPool(map_phase, resume, &pool,
                              &metrics.map_phase_nanos);
      if (status.ok() && r > 0) {
        status = RunPhaseOnPool(reduce_phase, resume, &pool,
                                &metrics.reduce_phase_nanos);
      }
    }
    metrics.total_duration_nanos = job_watch.ElapsedNanos();
    if (!status.ok()) {
      result.status = std::move(status);
      return result;
    }
    for (const TaskMetrics& tm : metrics.map_tasks) {
      metrics.spill_bytes_written += tm.spill_bytes;
    }
    MergeTaskCounters(&metrics);
    return result;
  }

  /// Runs one phase on the pool: when resuming, a pass first collects
  /// every task a previous process committed; the rest run under the
  /// work-stealing scheduler. Returns the first failed task's status.
  [[nodiscard]] Status RunPhaseOnPool(const proc::TaskPhase& phase,
                                      bool resume, ThreadPool* pool,
                                      int64_t* phase_nanos) const {
    Stopwatch watch;
    std::vector<uint32_t> pending;
    pending.reserve(phase.num_tasks);
    for (uint32_t t = 0; t < phase.num_tasks; ++t) {
      if (!resume || !phase.try_collect ||
          !phase.try_collect(t, /*adopted=*/true)) {
        pending.push_back(t);
      }
    }
    std::vector<Status> status(phase.num_tasks);
    const std::string no_payload;
    const auto run = [&](uint32_t t) { status[t] = phase.run(t, no_payload); };
    WorkStealingScheduler(std::move(pending), num_workers_).Run(pool, run);
    *phase_nanos = watch.ElapsedNanos();
    for (Status& s : status) {
      if (!s.ok()) return std::move(s);
    }
    return Status::OK();
  }

  /// Installs the committed metrics of a collected task. `adopted` (the
  /// task did not run in this job: restored on resume, or committed by a
  /// worker that died before reporting) marks it resumed.
  static void CollectMetrics(TaskMetrics committed, bool adopted,
                             TaskMetrics* slot, int64_t* resumed_count) {
    *slot = std::move(committed);
    if (adopted) {
      slot->resumed = true;
      ++*resumed_count;
    }
  }

  /// Reads the one run of a committed task's spill file into `out`;
  /// false if the run cannot be read back whole.
  template <typename K, typename V>
  bool ReadCommittedRun(const SpillFile& file,
                        std::vector<std::pair<K, V>>* out) const {
    const RunExtent& extent = file.runs[0];
    out->clear();
    // Every record takes at least one of the run's bytes, which the
    // footer check bounded by the file size: a damaged record count
    // cannot force a huge allocation.
    out->reserve(static_cast<size_t>(std::min(extent.records, extent.bytes)));
    RunCursor<K, V> cursor;
    size_t buffer = static_cast<size_t>(std::min<uint64_t>(
        std::max<uint64_t>(extent.bytes, 1), options_.io_buffer_bytes));
    if (!cursor.Open(file.path, extent, buffer).ok()) return false;
    while (!cursor.exhausted()) out->push_back(cursor.Pop());
    return cursor.status().ok();
  }

  /// Worker side: patches the worker's image of `spill_files` with the
  /// extents of reduce task `task`'s run in every map task's spill file,
  /// as shipped in the ASSIGN payload.
  [[nodiscard]] static Status DecodeReduceAssignment(
      const std::string& payload, const std::string& dir, uint32_t m,
      uint32_t r, uint32_t task, std::vector<SpillFile>* spill_files) {
    proc::PayloadReader reader(payload);
    uint32_t payload_m = 0;
    if (!reader.GetU32(&payload_m) || payload_m != m) {
      return Status::Internal("reduce assignment payload does not match "
                              "the job shape");
    }
    for (uint32_t mt = 0; mt < m; ++mt) {
      SpillFile& file = (*spill_files)[mt];
      file.path = SpillFilePath(dir, mt);
      file.runs.resize(r);
      RunExtent& extent = file.runs[task];
      if (!reader.GetU64(&extent.offset) || !reader.GetU64(&extent.bytes) ||
          !reader.GetU64(&extent.records)) {
        return Status::Internal("truncated reduce assignment payload");
      }
    }
    if (!reader.AtEnd()) {
      return Status::Internal("oversized reduce assignment payload");
    }
    return Status::OK();
  }

  /// Publishes a reduce task's output as a single-run spill file,
  /// out-<t>.run (pid temp + rename), then its reduce-<t>.done record.
  template <typename OutK, typename OutV>
  [[nodiscard]] Status CommitReduceTask(
      const std::string& dir, uint32_t task_index, uint64_t signature,
      bool durable, const std::vector<std::pair<OutK, OutV>>& output,
      const TaskMetrics& metrics) const {
    const std::string final_path =
        dir + "/out-" + std::to_string(task_index) + ".run";
    const std::string write_path = internal::PidTempPath(final_path);
    SpillFileWriter<OutK, OutV> writer;
    ERLB_RETURN_NOT_OK(writer.Open(write_path, options_.io_buffer_bytes));
    ERLB_RETURN_NOT_OK(writer.BeginRun());
    for (const auto& [key, value] : output) {
      ERLB_RETURN_NOT_OK(writer.Append(key, value));
    }
    TaskCommitRecord record;
    ERLB_ASSIGN_OR_RETURN(record.file, writer.Finish(/*sync=*/durable));
    record.file.path = final_path;
    ERLB_RETURN_NOT_OK(internal::PublishFile(write_path, final_path));
    record.metrics = metrics;
    return WriteTaskCommitRecord(dir, "reduce", task_index, signature,
                                 record, durable);
  }

  static void MergeTaskCounters(JobMetrics* metrics) {
    for (const auto& tm : metrics->map_tasks) {
      metrics->counters.Merge(tm.counters);
      metrics->task_retries += std::max<int64_t>(0, tm.attempts - 1);
    }
    for (const auto& tm : metrics->reduce_tasks) {
      metrics->counters.Merge(tm.counters);
      metrics->task_retries += std::max<int64_t>(0, tm.attempts - 1);
    }
  }

  /// Cheap input-identity fingerprint for the commit records: job
  /// shape (m, r), the caller-supplied identity string, every partition's
  /// record count, and — when the input types are spillable — the encoded
  /// first and last record of each partition. Collisions only matter if
  /// an operator points two different inputs at the same checkpoint dir
  /// AND they agree on all of the above; the per-run checksums still
  /// guard the actual bytes read back.
  template <typename Spec>
  static uint64_t ComputeInputSignature(const SpecInput<Spec>& input,
                                        uint32_t r,
                                        const std::string& identity) {
    using InK = typename Spec::InKey;
    using InV = typename Spec::InValue;
    uint64_t h = Fnv1aHashU64(input.size());
    h = Fnv1aHashU64(r, h);
    h = Fnv1aHash(identity, h);
    std::string scratch;
    for (const auto& partition : input) {
      h = Fnv1aHashU64(partition.size(), h);
      if constexpr (Spillable<InK> && Spillable<InV>) {
        if (!partition.empty()) {
          scratch.clear();
          SpillCodec<InK>::Encode(partition.front().first, &scratch);
          SpillCodec<InV>::Encode(partition.front().second, &scratch);
          SpillCodec<InK>::Encode(partition.back().first, &scratch);
          SpillCodec<InV>::Encode(partition.back().second, &scratch);
          h = Fnv1aHash(scratch, h);
        }
      }
    }
    return h;
  }

  /// Shared map-task front half: run the mapper over the partition,
  /// stable-sort the output by comp (one "spill"), apply the optional
  /// combiner. Fills every metric except duration/spill_bytes and returns
  /// the task's final sorted output.
  template <typename Spec>
  static std::vector<
      std::pair<typename Spec::MidKey, typename Spec::MidValue>>
  MapSortCombine(const Spec& spec,
                 const std::vector<std::pair<typename Spec::InKey,
                                             typename Spec::InValue>>&
                     partition,
                 uint32_t m, uint32_t r, uint32_t task_index,
                 TaskMetrics* metrics) {
    using MidK = typename Spec::MidKey;
    using MidV = typename Spec::MidValue;
    TaskContext ctx{m, r, task_index};
    auto mapper = spec.mapper_factory(ctx);
    ERLB_CHECK(mapper != nullptr);

    internal::VectorMapContext<MidK, MidV> map_ctx;
    for (const auto& [k, v] : partition) {
      mapper->Map(k, v, &map_ctx);
    }
    mapper->Close(&map_ctx);

    metrics->task_index = task_index;
    metrics->input_records = static_cast<int64_t>(partition.size());
    metrics->output_records = static_cast<int64_t>(map_ctx.out().size());
    metrics->counters = map_ctx.counters_ref();
    metrics->counters.Increment(kCounterMapOutputPairs,
                                static_cast<int64_t>(map_ctx.out().size()));

    // Sort the task's output (one "spill") by comp, stably so that emission
    // order breaks ties — then optionally combine.
    auto& out = map_ctx.out();
    const auto pair_less = [&spec](const std::pair<MidK, MidV>& a,
                                   const std::pair<MidK, MidV>& b) {
      return spec.key_less(a.first, b.first);
    };
    std::stable_sort(out.begin(), out.end(), pair_less);

    if (!spec.combiner) return std::move(out);

    std::vector<std::pair<MidK, MidV>> combined;
    size_t i = 0;
    while (i < out.size()) {
      size_t j = i + 1;
      while (j < out.size() && spec.group_equal(out[i].first, out[j].first)) {
        ++j;
      }
      spec.combiner(std::span<const std::pair<MidK, MidV>>(out.data() + i,
                                                           j - i),
                    &combined);
      i = j;
    }
    // The reduce side merges runs instead of re-sorting, so each run
    // must leave here sorted. A combiner normally re-emits its group's
    // key and keeps the order; guard against one that doesn't.
    if (!std::is_sorted(combined.begin(), combined.end(), pair_less)) {
      std::stable_sort(combined.begin(), combined.end(), pair_less);
    }
    return combined;
  }

  /// Routes every record of `final_out` to its reduce task, or all of
  /// them to one run for a map-only job (r == 0). Fills `dest`
  /// (per-record target) and `run_offsets` (prefix sums of run sizes).
  template <typename Spec>
  static void PartitionRecords(
      const Spec& spec,
      const std::vector<std::pair<typename Spec::MidKey,
                                  typename Spec::MidValue>>& final_out,
      uint32_t r, std::vector<uint32_t>* dest,
      std::vector<size_t>* run_offsets) {
    const size_t n_out = final_out.size();
    const uint32_t runs = std::max<uint32_t>(r, 1);
    dest->resize(n_out);
    run_offsets->assign(runs + 1, 0);
    for (size_t i = 0; i < n_out; ++i) {
      uint32_t p = r == 0 ? 0 : spec.partitioner(final_out[i].first, r);
      ERLB_CHECK(p < runs) << "partitioner returned " << p << " for r=" << r;
      (*dest)[i] = p;
      ++(*run_offsets)[p + 1];
    }
    for (uint32_t p = 0; p < runs; ++p) {
      (*run_offsets)[p + 1] += (*run_offsets)[p];
    }
  }

  template <typename Spec>
  [[nodiscard]] static Status RunMapTask(
      const Spec& spec,
      const std::vector<std::pair<typename Spec::InKey,
                                  typename Spec::InValue>>& partition,
      uint32_t m, uint32_t r, uint32_t task_index,
      std::vector<std::vector<
          std::pair<typename Spec::MidKey, typename Spec::MidValue>>>*
          out_buckets,
      std::vector<std::pair<typename Spec::MidKey, typename Spec::MidValue>>*
          map_output,
      TaskMetrics* metrics) {
    ERLB_RETURN_NOT_OK(internal::MapTaskFaultPoint());
    // Self-contained per attempt: a retry starts from empty runs.
    for (auto& run : *out_buckets) run.clear();
    Stopwatch watch;
    auto final_out =
        MapSortCombine(spec, partition, m, r, task_index, metrics);
    if (map_output != nullptr) {
      *map_output = std::move(final_out);
      metrics->duration_nanos = watch.ElapsedNanos();
      return Status::OK();
    }

    // Scatter: a counting pass sizes every run exactly, then pairs are
    // moved (not copied) into their runs. Order is preserved, so each run
    // stays sorted with emission order breaking ties.
    std::vector<uint32_t> dest;
    std::vector<size_t> run_offsets;
    PartitionRecords(spec, final_out, r, &dest, &run_offsets);
    for (uint32_t p = 0; p < r; ++p) {
      (*out_buckets)[p].reserve(run_offsets[p + 1] - run_offsets[p]);
    }
    for (size_t i = 0; i < final_out.size(); ++i) {
      (*out_buckets)[dest[i]].push_back(std::move(final_out[i]));
    }
    metrics->duration_nanos = watch.ElapsedNanos();
    return Status::OK();
  }

  /// Spilling map task: after sort/combine, writes the r runs to the
  /// task's spill file (in reduce-task order, preserving emission order
  /// within each run) instead of materializing them. With `commit` the
  /// file is staged under a pid temp name and published by rename, then
  /// the side output, and last the task's .done record — the commit
  /// point, which must never name a half-written file. `durable` fsyncs
  /// each of them. A map-only task (r == 0) keeps its run in
  /// `map_output` (null in a worker process) and writes it to disk only
  /// to commit it.
  template <typename Spec>
  [[nodiscard]] Status RunMapTaskSpill(
      const Spec& spec,
      const std::vector<std::pair<typename Spec::InKey,
                                  typename Spec::InValue>>& partition,
      uint32_t m, uint32_t r, uint32_t task_index, const std::string& dir,
      uint64_t signature, bool commit, bool durable, SpillFile* out_file,
      std::vector<std::pair<typename Spec::MidKey, typename Spec::MidValue>>*
          map_output,
      TaskMetrics* metrics) const {
    using MidK = typename Spec::MidKey;
    using MidV = typename Spec::MidValue;
    ERLB_RETURN_NOT_OK(internal::MapTaskFaultPoint());
    Stopwatch watch;
    auto final_out =
        MapSortCombine(spec, partition, m, r, task_index, metrics);
    if (map_output != nullptr && !commit) {
      *map_output = std::move(final_out);
      metrics->spill_bytes = 0;
      metrics->duration_nanos = watch.ElapsedNanos();
      return Status::OK();
    }

    std::vector<uint32_t> dest;
    std::vector<size_t> run_offsets;
    PartitionRecords(spec, final_out, r, &dest, &run_offsets);

    // Stable counting scatter into an index order: order[] lists record
    // indexes grouped by run, preserving sorted order within each run.
    const size_t n_out = final_out.size();
    std::vector<size_t> order(n_out);
    std::vector<size_t> fill(run_offsets.begin(), run_offsets.end() - 1);
    for (size_t i = 0; i < n_out; ++i) {
      order[fill[dest[i]]++] = i;
    }

    const std::string final_path = SpillFilePath(dir, task_index);
    const std::string write_path =
        commit ? internal::PidTempPath(final_path) : final_path;
    SpillFileWriter<MidK, MidV> writer;
    ERLB_RETURN_NOT_OK(writer.Open(write_path, options_.io_buffer_bytes,
                                   options_.fail_writer_after_bytes));
    for (uint32_t p = 0; p + 1 < run_offsets.size(); ++p) {
      ERLB_RETURN_NOT_OK(writer.BeginRun());
      for (size_t i = run_offsets[p]; i < run_offsets[p + 1]; ++i) {
        const auto& rec = final_out[order[i]];
        ERLB_RETURN_NOT_OK(writer.Append(rec.first, rec.second));
      }
    }
    ERLB_ASSIGN_OR_RETURN(*out_file, writer.Finish(/*sync=*/durable));
    out_file->path = final_path;
    // A map-only task's file commits its output, as out-<t>.run commits
    // a reduce task's: no shuffle data is spilled.
    metrics->spill_bytes =
        r == 0 ? 0 : static_cast<int64_t>(out_file->TotalBytes());
    metrics->duration_nanos = watch.ElapsedNanos();
    if (!commit) return Status::OK();

    ERLB_RETURN_NOT_OK(internal::PublishFile(write_path, final_path));
    TaskCommitRecord record;
    record.file = *out_file;
    record.metrics = *metrics;
    if (spec.encode_side_output) {
      // Side output ("additional output" written outside the KV stream)
      // is committed with the spill file so a collected task replays the
      // side effect without re-executing.
      const std::string side_bytes = spec.encode_side_output(task_index);
      record.side.path =
          dir + "/side-" + std::to_string(task_index) + ".dat";
      record.side.bytes = side_bytes.size();
      record.side.checksum = Fnv1aHash(side_bytes.data(), side_bytes.size());
      const std::string side_tmp = internal::PidTempPath(record.side.path);
      BufferedFileWriter side_writer;
      ERLB_RETURN_NOT_OK(side_writer.Open(side_tmp, options_.io_buffer_bytes));
      ERLB_RETURN_NOT_OK(
          side_writer.Append(side_bytes.data(), side_bytes.size()));
      if (durable) ERLB_RETURN_NOT_OK(side_writer.Sync());
      ERLB_RETURN_NOT_OK(side_writer.Close());
      ERLB_RETURN_NOT_OK(internal::PublishFile(side_tmp, record.side.path));
    }
    ERLB_RETURN_NOT_OK(WriteTaskCommitRecord(dir, "map", task_index,
                                             signature, record, durable));
    if (map_output != nullptr) *map_output = std::move(final_out);
    return Status::OK();
  }

  /// In-memory reduce task under the retry policy. The task's column of
  /// runs is moved out of `buckets` once; when the options allow more
  /// than one attempt, each attempt merges a copy so the inputs survive
  /// a failed try (byte-identical re-execution).
  template <typename Spec>
  [[nodiscard]] Status RunReduceTaskWithRetry(
      const Spec& spec,
      std::vector<std::vector<std::vector<
          std::pair<typename Spec::MidKey, typename Spec::MidValue>>>>*
          buckets,
      uint32_t m, uint32_t r, uint32_t task_index,
      std::vector<std::pair<typename Spec::OutKey, typename Spec::OutValue>>*
          output,
      TaskMetrics* metrics) const {
    using MidK = typename Spec::MidKey;
    using MidV = typename Spec::MidValue;
    std::vector<std::vector<std::pair<MidK, MidV>>> runs;
    runs.reserve(m);
    for (uint32_t mt = 0; mt < m; ++mt) {
      runs.push_back(std::move((*buckets)[mt][task_index]));
    }
    const bool single_shot = options_.max_task_attempts <= 1 &&
                             options_.task_attempt_timeout_ms == 0;
    return internal::RunTaskWithRetry(options_, metrics, [&]() -> Status {
      ERLB_RETURN_NOT_OK(internal::ReduceTaskFaultPoint());
      RunReduceTask(spec, single_shot ? std::move(runs) : runs, m, r,
                    task_index, output, metrics);
      return Status::OK();
    });
  }

  template <typename Spec>
  static void RunReduceTask(
      const Spec& spec,
      std::vector<std::vector<
          std::pair<typename Spec::MidKey, typename Spec::MidValue>>>
          runs,
      uint32_t m, uint32_t r, uint32_t task_index,
      std::vector<std::pair<typename Spec::OutKey, typename Spec::OutValue>>*
          output,
      TaskMetrics* metrics) {
    using MidK = typename Spec::MidKey;
    using MidV = typename Spec::MidValue;
    using OutK = typename Spec::OutKey;
    using OutV = typename Spec::OutValue;
    Stopwatch watch;
    TaskContext ctx{m, r, task_index};
    auto reducer = spec.reducer_factory(ctx);
    ERLB_CHECK(reducer != nullptr);

    // k-way merge this task's column of per-map-task runs (each sorted
    // by comp), breaking cross-run ties on map-task index: equal keys
    // remain grouped by origin map task (Hadoop merge contiguity; see
    // file comment), and the sequence is identical to stable-sorting the
    // concatenated runs.
    std::vector<std::pair<MidK, MidV>> run = MergeSortedRuns(
        std::span<std::vector<std::pair<MidK, MidV>>>(runs),
        [&spec](const std::pair<MidK, MidV>& a,
                const std::pair<MidK, MidV>& b) {
          return spec.key_less(a.first, b.first);
        });

    internal::VectorReduceContext<OutK, OutV> red_ctx;
    size_t i = 0;
    int64_t groups = 0;
    while (i < run.size()) {
      size_t j = i + 1;
      while (j < run.size() &&
             spec.group_equal(run[i].first, run[j].first)) {
        ++j;
      }
      reducer->Reduce(std::span<const std::pair<MidK, MidV>>(
                          run.data() + i, j - i),
                      &red_ctx);
      ++groups;
      i = j;
    }
    reducer->Close(&red_ctx);

    metrics->task_index = task_index;
    metrics->input_records = static_cast<int64_t>(run.size());
    metrics->groups = groups;
    metrics->output_records = static_cast<int64_t>(red_ctx.out().size());
    metrics->counters = red_ctx.counters_ref();
    metrics->duration_nanos = watch.ElapsedNanos();
    *output = std::move(red_ctx.out());
  }

  /// External reduce task: opens a RunCursor on this task's run in every
  /// map task's spill file and streams the loser-tree merge, buffering
  /// only the current group. Cursor order follows map-task order, so
  /// cross-run ties keep the same contiguity rule as the in-memory merge.
  template <typename Spec>
  [[nodiscard]] Status RunReduceTaskExternal(
      const Spec& spec, const std::vector<SpillFile>& spill_files,
      uint32_t m, uint32_t r, uint32_t task_index,
      std::vector<std::pair<typename Spec::OutKey, typename Spec::OutValue>>*
          output,
      TaskMetrics* metrics) const {
    using MidK = typename Spec::MidKey;
    using MidV = typename Spec::MidValue;
    using OutK = typename Spec::OutKey;
    using OutV = typename Spec::OutValue;
    ERLB_RETURN_NOT_OK(internal::ReduceTaskFaultPoint());
    Stopwatch watch;
    TaskContext ctx{m, r, task_index};
    auto reducer = spec.reducer_factory(ctx);
    ERLB_CHECK(reducer != nullptr);

    // Empty runs are skipped up front (like MergeSortedRuns); dropping
    // them preserves the relative order of the live cursors, so the
    // tie-break still follows map-task order.
    std::vector<RunCursor<MidK, MidV>> cursors;
    cursors.reserve(m);
    int64_t spill_bytes = 0;
    for (uint32_t mt = 0; mt < m; ++mt) {
      const RunExtent& extent = spill_files[mt].runs[task_index];
      if (extent.records == 0) continue;
      spill_bytes += static_cast<int64_t>(extent.bytes);
      size_t buffer = static_cast<size_t>(std::min<uint64_t>(
          std::max<uint64_t>(extent.bytes, 1), options_.io_buffer_bytes));
      cursors.emplace_back();
      ERLB_RETURN_NOT_OK(
          cursors.back().Open(spill_files[mt].path, extent, buffer));
    }

    internal::VectorReduceContext<OutK, OutV> red_ctx;
    std::vector<std::pair<MidK, MidV>> group;
    int64_t input_records = 0;
    int64_t groups = 0;
    auto flush_group = [&] {
      reducer->Reduce(std::span<const std::pair<MidK, MidV>>(group.data(),
                                                             group.size()),
                      &red_ctx);
      ++groups;
      group.clear();
    };
    LoserTreeMergeCursors(
        std::span<RunCursor<MidK, MidV>>(cursors),
        [&spec](const std::pair<MidK, MidV>& a,
                const std::pair<MidK, MidV>& b) {
          return spec.key_less(a.first, b.first);
        },
        [&](std::pair<MidK, MidV>&& rec) {
          ++input_records;
          if (!group.empty() &&
              !spec.group_equal(group.front().first, rec.first)) {
            flush_group();
          }
          group.push_back(std::move(rec));
        });
    // A cursor that failed mid-stream looks exhausted to the merge; the
    // job must fail, not silently reduce a truncated run.
    for (const auto& c : cursors) {
      ERLB_RETURN_NOT_OK(c.status());
    }
    if (!group.empty()) flush_group();
    reducer->Close(&red_ctx);

    metrics->task_index = task_index;
    metrics->input_records = input_records;
    metrics->groups = groups;
    metrics->output_records = static_cast<int64_t>(red_ctx.out().size());
    metrics->counters = red_ctx.counters_ref();
    metrics->spill_bytes = spill_bytes;
    metrics->duration_nanos = watch.ElapsedNanos();
    *output = std::move(red_ctx.out());
    return Status::OK();
  }

  size_t num_workers_;
  ExecutionOptions options_;
  ThreadPool* shared_pool_ = nullptr;
  /// Sequence number of checkpointed Run()s through this runner: job k
  /// checkpoints under `<checkpoint.dir>/job-<k>`. Jobs run sequentially
  /// in deterministic order, so a restarted process assigns the same
  /// directory to the same job and finds its own commit records.
  mutable std::atomic<uint32_t> checkpoint_seq_{0};
};

}  // namespace mr
}  // namespace erlb

#endif  // ERLB_MR_JOB_H_
