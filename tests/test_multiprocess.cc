// Differential and fault tests of the shared-nothing multi-process
// execution mode (proc/coordinator.h + mr/job.h RunMultiProcess):
//
//  1. kMultiProcess must be observationally identical to kInMemory and
//     kExternal — same outputs, counters, per-task workloads, serialized
//     plans — for all three strategies, one- and two-source, including
//     the 1-worker degenerate case and worker-count > task-count.
//  2. Worker crashes are recoverable: the worker.spawn / worker.run /
//     worker.result fault sites deterministically exercise spawn
//     failure, task failover, and the kill + adopt-committed-work path,
//     and the job's output stays byte-identical throughout.
//  3. A durable checkpoint directory makes a rerun adopt every committed
//     map AND reduce task (reduce outputs checkpoint only in this mode).
#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "common/fault.h"
#include "common/io_buffer.h"
#include "common/random.h"
#include "core/pipeline.h"
#include "er/blocking.h"
#include "er/matcher.h"
#include "gen/skew_gen.h"
#include "lb/plan_io.h"
#include "mr/job.h"

namespace erlb {

namespace {

struct Agg {
  int64_t sum = 0;
  int64_t count = 0;
  friend bool operator==(const Agg&, const Agg&) = default;
};

}  // namespace

// Reduce outputs cross the process boundary as spill runs, so the test
// job's output value needs a codec (the compile-time gate this mode
// adds on top of kExternal's intermediate-type requirement).
namespace mr {
template <>
struct SpillCodec<Agg> {
  static void Encode(const Agg& a, std::string* out) {
    SpillCodec<int64_t>::Encode(a.sum, out);
    SpillCodec<int64_t>::Encode(a.count, out);
  }
  static bool Decode(const char** p, const char* end, Agg* a) {
    return SpillCodec<int64_t>::Decode(p, end, &a->sum) &&
           SpillCodec<int64_t>::Decode(p, end, &a->count);
  }
  static size_t ApproxBytes(const Agg&) { return 2 * sizeof(int64_t); }
};
}  // namespace mr

namespace {

class IdentityMapper
    : public mr::Mapper<int, int64_t, std::string, int64_t> {
 public:
  void Map(const int& key, const int64_t& v,
           mr::MapContext<std::string, int64_t>* ctx) override {
    std::string k = "k";
    k += std::to_string(key);
    ctx->Emit(std::move(k), v);
    ctx->counters()->Increment("mapped", 1);
  }
};

class AggReducer
    : public mr::Reducer<std::string, int64_t, std::string, Agg> {
 public:
  void Reduce(std::span<const std::pair<std::string, int64_t>> group,
              mr::ReduceContext<std::string, Agg>* ctx) override {
    Agg agg;
    for (const auto& [k, v] : group) {
      agg.sum += v;
      agg.count += 1;
    }
    ctx->Emit(group.front().first, agg);
    ctx->counters()->Increment("groups_reduced", 1);
  }
};

/// FNV-1a of the key, mod r.
struct FnvPartitionFn {
  uint32_t operator()(const std::string& k, uint32_t r) const {
    uint32_t h = 2166136261u;
    for (char c : k) h = (h ^ static_cast<unsigned char>(c)) * 16777619u;
    return h % r;
  }
};

using AggSpecT =
    mr::TypedJobSpec<int, int64_t, std::string, int64_t, std::string, Agg,
                     std::less<>, std::equal_to<>, FnvPartitionFn>;

AggSpecT AggSpec(uint32_t r) {
  AggSpecT spec;
  spec.num_reduce_tasks = r;
  spec.mapper_factory = [](const mr::TaskContext&) {
    return std::make_unique<IdentityMapper>();
  };
  spec.reducer_factory = [](const mr::TaskContext&) {
    return std::make_unique<AggReducer>();
  };
  return spec;
}

std::vector<std::vector<std::pair<int, int64_t>>> RandomInput(uint32_t m,
                                                              uint64_t seed) {
  Pcg32 rng(seed);
  std::vector<std::vector<std::pair<int, int64_t>>> input(m);
  for (auto& part : input) {
    uint32_t records = rng.NextBounded(300);
    for (uint32_t i = 0; i < records; ++i) {
      part.push_back({static_cast<int>(rng.NextBounded(37)),
                      rng.NextInRange(-1000, 1000)});
    }
  }
  return input;
}

void ExpectTaskMetricsEqual(const mr::JobMetrics& a,
                            const mr::JobMetrics& b) {
  ASSERT_EQ(a.map_tasks.size(), b.map_tasks.size());
  for (size_t i = 0; i < a.map_tasks.size(); ++i) {
    EXPECT_EQ(a.map_tasks[i].input_records, b.map_tasks[i].input_records);
    EXPECT_EQ(a.map_tasks[i].output_records, b.map_tasks[i].output_records);
    EXPECT_EQ(a.map_tasks[i].counters.values(),
              b.map_tasks[i].counters.values());
  }
  ASSERT_EQ(a.reduce_tasks.size(), b.reduce_tasks.size());
  for (size_t i = 0; i < a.reduce_tasks.size(); ++i) {
    EXPECT_EQ(a.reduce_tasks[i].input_records,
              b.reduce_tasks[i].input_records);
    EXPECT_EQ(a.reduce_tasks[i].groups, b.reduce_tasks[i].groups);
    EXPECT_EQ(a.reduce_tasks[i].output_records,
              b.reduce_tasks[i].output_records);
    EXPECT_EQ(a.reduce_tasks[i].counters.values(),
              b.reduce_tasks[i].counters.values());
  }
  EXPECT_EQ(a.counters.values(), b.counters.values());
}

template <typename Result>
void ExpectOutputsEqual(const Result& a, const Result& b) {
  ASSERT_EQ(a.outputs_per_reduce_task.size(),
            b.outputs_per_reduce_task.size());
  for (size_t t = 0; t < a.outputs_per_reduce_task.size(); ++t) {
    EXPECT_EQ(a.outputs_per_reduce_task[t], b.outputs_per_reduce_task[t])
        << "reduce task " << t;
  }
}

// ---- Engine-level differential sweep ------------------------------------

// The sweep includes the 1-worker degenerate pool and pools wider than
// the task count (8 processes for as few as 1 map task).
class MultiProcessStressTest
    : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(MultiProcessStressTest, MultiProcessEqualsInMemoryAndExternal) {
  auto [m, r, workers] = GetParam();
  auto input = RandomInput(static_cast<uint32_t>(m),
                           static_cast<uint64_t>(m * 977 + r * 31 + workers));

  mr::ExecutionOptions in_memory;
  in_memory.mode = mr::ExecutionMode::kInMemory;
  mr::ExecutionOptions external;
  external.mode = mr::ExecutionMode::kExternal;
  external.io_buffer_bytes = 256;
  mr::ExecutionOptions multi_process;
  multi_process.mode = mr::ExecutionMode::kMultiProcess;
  multi_process.io_buffer_bytes = 256;  // tiny buffers: stress refills
  multi_process.num_worker_processes = static_cast<uint32_t>(workers);

  auto spec = AggSpec(static_cast<uint32_t>(r));
  auto mem = mr::JobRunner(1, in_memory).Run(spec, input);
  auto ext = mr::JobRunner(1, external).Run(spec, input);
  auto mp = mr::JobRunner(1, multi_process).Run(spec, input);
  ASSERT_TRUE(mem.status.ok());
  ASSERT_TRUE(ext.status.ok()) << ext.status.ToString();
  ASSERT_TRUE(mp.status.ok()) << mp.status.ToString();

  EXPECT_TRUE(mp.metrics.external);
  EXPECT_TRUE(mp.metrics.multi_process);
  EXPECT_FALSE(mem.metrics.multi_process);
  EXPECT_FALSE(ext.metrics.multi_process);
  EXPECT_GE(mp.metrics.worker_processes, 1u);
  EXPECT_EQ(mp.metrics.worker_deaths, 0u);

  ExpectOutputsEqual(mem, mp);
  ExpectOutputsEqual(ext, mp);
  ExpectTaskMetricsEqual(mem.metrics, mp.metrics);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, MultiProcessStressTest,
    ::testing::Combine(::testing::Values(1, 3, 8),   // m
                       ::testing::Values(1, 4, 13),  // r
                       ::testing::Values(1, 3, 8)),  // worker processes
    [](const auto& info) {
      return "m" + std::to_string(std::get<0>(info.param)) + "_r" +
             std::to_string(std::get<1>(info.param)) + "_w" +
             std::to_string(std::get<2>(info.param));
    });

// ---- Worker-crash recovery ----------------------------------------------

class MultiProcessFaultTest : public ::testing::Test {
 protected:
  void TearDown() override { FaultInjector::Global().Reset(); }

  mr::JobResult<std::string, Agg> RunWithWorkers(uint32_t workers,
                                                 uint32_t m = 6,
                                                 uint32_t r = 5) {
    mr::ExecutionOptions options;
    options.mode = mr::ExecutionMode::kMultiProcess;
    options.num_worker_processes = workers;
    options.io_buffer_bytes = 512;
    return mr::JobRunner(1, options).Run(AggSpec(r), RandomInput(m, 12345));
  }
};

// worker.result fires in the parent on DONE intake and kills that
// worker — a deterministic single crash *after* the task committed. The
// dead worker's committed task must be adopted from its commit record,
// never re-executed, and the job's output must not change.
TEST_F(MultiProcessFaultTest, KilledWorkerCommittedWorkIsAdopted) {
  auto reference = RunWithWorkers(3);
  ASSERT_TRUE(reference.status.ok());

  FaultSpec spec;
  spec.kind = FaultKind::kError;
  spec.trigger_hit = 1;
  ASSERT_TRUE(FaultInjector::Global().Arm("worker.result", spec).ok());
  auto crashed = RunWithWorkers(3);
  FaultInjector::Global().Reset();

  ASSERT_TRUE(crashed.status.ok()) << crashed.status.ToString();
  EXPECT_EQ(crashed.metrics.worker_deaths, 1u);
  EXPECT_GE(crashed.metrics.map_tasks_resumed, 1);
  ExpectOutputsEqual(reference, crashed);
  // Aggregate counters survive adoption (the adopted task's counters
  // come from its commit record, not from re-execution).
  EXPECT_EQ(reference.metrics.counters.values(),
            crashed.metrics.counters.values());
}

// worker.run fires inside each worker before its first assignment (hit
// counters are per-process after the fork): the FAILED frame's
// retryable code must fail the task over to another worker without
// failing the job. Two workers bound the per-task failure count under
// the default failover budget.
TEST_F(MultiProcessFaultTest, FailedTasksFailOverToSurvivors) {
  auto reference = RunWithWorkers(2);
  ASSERT_TRUE(reference.status.ok());

  FaultSpec spec;
  spec.kind = FaultKind::kError;
  spec.trigger_hit = 1;
  ASSERT_TRUE(FaultInjector::Global().Arm("worker.run", spec).ok());
  auto faulted = RunWithWorkers(2);
  FaultInjector::Global().Reset();

  ASSERT_TRUE(faulted.status.ok()) << faulted.status.ToString();
  EXPECT_EQ(faulted.metrics.worker_deaths, 0u);
  ExpectOutputsEqual(reference, faulted);
  ExpectTaskMetricsEqual(reference.metrics, faulted.metrics);
}

// worker.spawn fires in the parent on the first fork attempt: the pool
// starts degraded (3 of 4 workers) but the job must still finish with
// identical output.
TEST_F(MultiProcessFaultTest, SpawnFailureDegradesPoolButFinishes) {
  auto reference = RunWithWorkers(4);
  ASSERT_TRUE(reference.status.ok());
  EXPECT_EQ(reference.metrics.worker_processes, 4u);

  FaultSpec spec;
  spec.kind = FaultKind::kError;
  spec.trigger_hit = 1;
  ASSERT_TRUE(FaultInjector::Global().Arm("worker.spawn", spec).ok());
  auto degraded = RunWithWorkers(4);
  FaultInjector::Global().Reset();

  ASSERT_TRUE(degraded.status.ok()) << degraded.status.ToString();
  EXPECT_EQ(degraded.metrics.worker_processes, 3u);
  ExpectOutputsEqual(reference, degraded);
}

// ---- Durable checkpoint: rerun adopts everything ------------------------

TEST(MultiProcessCheckpointTest, RerunAdoptsCommittedMapAndReduceTasks) {
  auto base = ScopedTempDir::Make();
  ASSERT_TRUE(base.ok());
  const uint32_t m = 5;
  const uint32_t r = 4;
  auto input = RandomInput(m, 99);
  auto spec = AggSpec(r);

  mr::ExecutionOptions options;
  options.mode = mr::ExecutionMode::kMultiProcess;
  options.num_worker_processes = 3;
  options.checkpoint.dir = base->path() + "/ck";

  auto first = mr::JobRunner(1, options).Run(spec, input);
  ASSERT_TRUE(first.status.ok()) << first.status.ToString();
  EXPECT_TRUE(first.metrics.checkpointed);
  EXPECT_EQ(first.metrics.map_tasks_resumed, 0);

  // A fresh runner over the same checkpoint dir re-derives job-0 and
  // adopts every committed task of BOTH phases — reduce outputs are
  // durable in this mode, unlike single-process external jobs.
  auto rerun = mr::JobRunner(1, options).Run(spec, input);
  ASSERT_TRUE(rerun.status.ok()) << rerun.status.ToString();
  EXPECT_EQ(rerun.metrics.map_tasks_resumed, static_cast<int64_t>(m));
  EXPECT_EQ(rerun.metrics.reduce_tasks_resumed, static_cast<int64_t>(r));
  ExpectOutputsEqual(first, rerun);
  EXPECT_EQ(first.metrics.counters.values(),
            rerun.metrics.counters.values());
}

// ---- Strategy-level differential (all three, one- and two-source) -------

core::ErPipeline MakePipeline(lb::StrategyKind kind,
                              mr::ExecutionMode mode,
                              uint32_t worker_processes = 0) {
  core::ErPipelineConfig config;
  config.strategy = kind;
  config.num_map_tasks = 5;
  config.num_reduce_tasks = 7;
  config.num_workers = 4;
  config.execution.io_buffer_bytes = 512;
  if (worker_processes > 0) {
    config.execution.mode = mr::ExecutionMode::kMultiProcess;
    config.execution.num_worker_processes = worker_processes;
  } else {
    config.execution.mode = mode;
  }
  return core::ErPipeline(config);
}

std::vector<er::Entity> SkewedDataset(uint64_t seed, uint64_t n = 1200) {
  gen::SkewConfig config;
  config.num_entities = n;
  config.num_blocks = 25;
  config.skew = 1.0;
  config.duplicate_fraction = 0.2;
  config.seed = seed;
  auto data = gen::GenerateSkewed(config);
  EXPECT_TRUE(data.ok());
  return std::move(data).ValueOrDie();
}

void ExpectPipelineResultsEqual(const core::ErPipelineResult& reference,
                                const core::ErPipelineResult& mp) {
  EXPECT_TRUE(reference.matches.SameAs(mp.matches));
  EXPECT_EQ(reference.comparisons, mp.comparisons);
  ExpectTaskMetricsEqual(reference.match_metrics, mp.match_metrics);
  ExpectTaskMetricsEqual(reference.bdm_metrics, mp.bdm_metrics);
  ASSERT_EQ(reference.plan.has_value(), mp.plan.has_value());
  if (reference.plan.has_value()) {
    EXPECT_EQ(lb::MatchPlanToJson(*reference.plan),
              lb::MatchPlanToJson(*mp.plan));
  }
  EXPECT_TRUE(mp.match_metrics.multi_process);
  EXPECT_TRUE(mp.match_metrics.external);
  EXPECT_GT(mp.match_metrics.spill_bytes_written, 0);
}

class StrategyMultiProcessTest
    : public ::testing::TestWithParam<lb::StrategyKind> {};

TEST_P(StrategyMultiProcessTest, OneSourceDifferential) {
  auto entities = SkewedDataset(11);
  er::AttributeBlocking blocking(gen::kSkewBlockField);
  er::JaroWinklerMatcher matcher(0.85, gen::kSkewTitleField);

  auto mem = MakePipeline(GetParam(), mr::ExecutionMode::kInMemory)
                 .Deduplicate(entities, blocking, matcher);
  auto ext = MakePipeline(GetParam(), mr::ExecutionMode::kExternal)
                 .Deduplicate(entities, blocking, matcher);
  auto mp = MakePipeline(GetParam(), mr::ExecutionMode::kMultiProcess,
                         /*worker_processes=*/3)
                .Deduplicate(entities, blocking, matcher);
  ASSERT_TRUE(mem.ok()) << mem.status().ToString();
  ASSERT_TRUE(ext.ok()) << ext.status().ToString();
  ASSERT_TRUE(mp.ok()) << mp.status().ToString();
  EXPECT_GT(mem->matches.size(), 0u);
  ExpectPipelineResultsEqual(*mem, *mp);
  EXPECT_TRUE(ext->matches.SameAs(mp->matches));
}

TEST_P(StrategyMultiProcessTest, TwoSourceDifferential) {
  auto r_entities = SkewedDataset(21, 800);
  auto s_entities = SkewedDataset(22, 600);
  er::AttributeBlocking blocking(gen::kSkewBlockField);
  er::JaroWinklerMatcher matcher(0.85, gen::kSkewTitleField);

  auto mem = MakePipeline(GetParam(), mr::ExecutionMode::kInMemory)
                 .Link(r_entities, s_entities, blocking, matcher);
  auto mp = MakePipeline(GetParam(), mr::ExecutionMode::kMultiProcess,
                         /*worker_processes=*/3)
                .Link(r_entities, s_entities, blocking, matcher);
  ASSERT_TRUE(mem.ok()) << mem.status().ToString();
  ASSERT_TRUE(mp.ok()) << mp.status().ToString();
  EXPECT_GT(mem->matches.size(), 0u);
  ExpectPipelineResultsEqual(*mem, *mp);
}

INSTANTIATE_TEST_SUITE_P(AllStrategies, StrategyMultiProcessTest,
                         ::testing::Values(lb::StrategyKind::kBasic,
                                           lb::StrategyKind::kBlockSplit,
                                           lb::StrategyKind::kPairRange),
                         [](const auto& info) {
                           return lb::StrategyKindToName(info.param);
                         });

// One-worker degenerate pool through the full pipeline, plus a pool
// wider than any phase's task count: both must match the in-memory run.
TEST(StrategyMultiProcessTest, DegenerateWorkerCounts) {
  auto entities = SkewedDataset(31, 700);
  er::AttributeBlocking blocking(gen::kSkewBlockField);
  er::JaroWinklerMatcher matcher(0.85, gen::kSkewTitleField);

  auto mem = MakePipeline(lb::StrategyKind::kBlockSplit,
                          mr::ExecutionMode::kInMemory)
                 .Deduplicate(entities, blocking, matcher);
  ASSERT_TRUE(mem.ok());
  for (uint32_t workers : {1u, 16u}) {  // 16 > m=5 map tasks
    auto mp = MakePipeline(lb::StrategyKind::kBlockSplit,
                           mr::ExecutionMode::kMultiProcess, workers)
                  .Deduplicate(entities, blocking, matcher);
    ASSERT_TRUE(mp.ok()) << workers << ": " << mp.status().ToString();
    ExpectPipelineResultsEqual(*mem, *mp);
  }
}

}  // namespace
}  // namespace erlb
