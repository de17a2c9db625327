// Differential tests of the out-of-core execution path: the external
// (spill-to-disk) shuffle must be observationally identical to the
// in-memory shuffle — same match output, same counters, same per-task
// workloads, same PlanStats — for all three strategies, one- and
// two-source, plus a randomized engine-level stress sweep mirroring
// test_mr_stress.cc. Also covers ExecutionMode::kAuto's threshold
// selection and the chunked-CSV out-of-core entry point.
#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "common/io_buffer.h"
#include "common/random.h"
#include "core/pipeline.h"
#include "er/blocking.h"
#include "er/entity_io.h"
#include "er/matcher.h"
#include "gen/skew_gen.h"
#include "lb/plan_io.h"
#include "mr/job.h"

namespace erlb {
namespace {

// ---- Engine-level differential sweep (mirrors test_mr_stress.cc) --------

struct Agg {
  int64_t sum = 0;
  int64_t count = 0;
  friend bool operator==(const Agg&, const Agg&) = default;
};

class IdentityMapper
    : public mr::Mapper<int, int64_t, std::string, int64_t> {
 public:
  void Map(const int& key, const int64_t& v,
           mr::MapContext<std::string, int64_t>* ctx) override {
    // String keys so the spill codec does real variable-length work.
    std::string k = "k";
    k += std::to_string(key);
    ctx->Emit(std::move(k), v);
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

class ExternalModeStressTest
    : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(ExternalModeStressTest, ExternalEqualsInMemory) {
  auto [m, r, workers] = GetParam();
  Pcg32 rng(static_cast<uint64_t>(m * 977 + r * 31 + workers));
  std::vector<std::vector<std::pair<int, int64_t>>> input(m);
  for (auto& part : input) {
    uint32_t records = rng.NextBounded(300);
    for (uint32_t i = 0; i < records; ++i) {
      part.push_back({static_cast<int>(rng.NextBounded(37)),
                      rng.NextInRange(-1000, 1000)});
    }
  }

  mr::ExecutionOptions in_memory;
  in_memory.mode = mr::ExecutionMode::kInMemory;
  mr::ExecutionOptions external;
  external.mode = mr::ExecutionMode::kExternal;
  external.io_buffer_bytes = 256;  // tiny buffers: stress refill paths

  mr::JobRunner mem_runner(workers, in_memory);
  mr::JobRunner ext_runner(workers, external);
  auto spec = AggSpec(r);
  auto mem = mem_runner.Run(spec, input);
  auto ext = ext_runner.Run(spec, input);
  ASSERT_TRUE(mem.status.ok());
  ASSERT_TRUE(ext.status.ok()) << ext.status.ToString();
  EXPECT_FALSE(mem.metrics.external);
  EXPECT_TRUE(ext.metrics.external);

  // Byte-identical reduce outputs, per reduce task.
  ASSERT_EQ(mem.outputs_per_reduce_task.size(),
            ext.outputs_per_reduce_task.size());
  for (size_t t = 0; t < mem.outputs_per_reduce_task.size(); ++t) {
    EXPECT_EQ(mem.outputs_per_reduce_task[t],
              ext.outputs_per_reduce_task[t])
        << "reduce task " << t;
  }
  ExpectTaskMetricsEqual(mem.metrics, ext.metrics);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ExternalModeStressTest,
    ::testing::Combine(::testing::Values(1, 3, 8),   // m
                       ::testing::Values(1, 4, 13),  // r
                       ::testing::Values(1, 4)),     // workers
    [](const auto& info) {
      return "m" + std::to_string(std::get<0>(info.param)) + "_r" +
             std::to_string(std::get<1>(info.param)) + "_w" +
             std::to_string(std::get<2>(info.param));
    });

// ---- Auto mode ----------------------------------------------------------

TEST(ExecutionModeAutoTest, SmallInputStaysInMemory) {
  mr::ExecutionOptions options;  // defaults: kAuto, 256 MiB threshold
  mr::JobRunner runner(2, options);
  std::vector<std::vector<std::pair<int, int64_t>>> input{{{1, 1}, {2, 2}}};
  auto result = runner.Run(AggSpec(2), input);
  ASSERT_TRUE(result.status.ok());
  EXPECT_FALSE(result.metrics.external);
  EXPECT_EQ(result.metrics.spill_bytes_written, 0);
}

TEST(ExecutionModeAutoTest, ThresholdCrossedGoesExternal) {
  mr::ExecutionOptions options;
  options.spill_threshold_bytes = 0;  // any input exceeds it
  mr::JobRunner runner(2, options);
  std::vector<std::vector<std::pair<int, int64_t>>> input{{{1, 1}, {2, 2}}};
  auto result = runner.Run(AggSpec(2), input);
  ASSERT_TRUE(result.status.ok()) << result.status.ToString();
  EXPECT_TRUE(result.metrics.external);
  EXPECT_GT(result.metrics.spill_bytes_written, 0);
}

// ---- Strategy-level differential (all three, one- and two-source) -------

core::ErPipeline MakePipeline(lb::StrategyKind kind,
                              mr::ExecutionMode mode) {
  core::ErPipelineConfig config;
  config.strategy = kind;
  config.num_map_tasks = 5;
  config.num_reduce_tasks = 7;
  config.num_workers = 4;
  config.execution.mode = mode;
  config.execution.io_buffer_bytes = 512;
  return core::ErPipeline(config);
}

std::vector<er::Entity> SkewedDataset(uint64_t seed, uint64_t n = 1500) {
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

void ExpectPipelineResultsEqual(const core::ErPipelineResult& mem,
                                const core::ErPipelineResult& ext) {
  // Same matches.
  EXPECT_TRUE(mem.matches.SameAs(ext.matches));
  EXPECT_EQ(mem.comparisons, ext.comparisons);
  // Same per-task workloads and counters for both jobs.
  ExpectTaskMetricsEqual(mem.match_metrics, ext.match_metrics);
  ExpectTaskMetricsEqual(mem.bdm_metrics, ext.bdm_metrics);
  // Same plan, down to the serialized byte: PlanStats and the strategy
  // body are independent of the execution mode.
  ASSERT_EQ(mem.plan.has_value(), ext.plan.has_value());
  if (mem.plan.has_value()) {
    EXPECT_EQ(lb::MatchPlanToJson(*mem.plan), lb::MatchPlanToJson(*ext.plan));
    EXPECT_EQ(mem.plan->stats().total_comparisons,
              ext.plan->stats().total_comparisons);
  }
  // External mode really ran out-of-core.
  EXPECT_FALSE(mem.match_metrics.external);
  EXPECT_TRUE(ext.match_metrics.external);
  EXPECT_GT(ext.match_metrics.spill_bytes_written, 0);
}

class StrategyExternalTest
    : public ::testing::TestWithParam<lb::StrategyKind> {};

TEST_P(StrategyExternalTest, OneSourceDifferential) {
  auto entities = SkewedDataset(11);
  er::AttributeBlocking blocking(gen::kSkewBlockField);
  er::JaroWinklerMatcher matcher(0.85, gen::kSkewTitleField);

  auto mem = MakePipeline(GetParam(), mr::ExecutionMode::kInMemory)
                 .Deduplicate(entities, blocking, matcher);
  auto ext = MakePipeline(GetParam(), mr::ExecutionMode::kExternal)
                 .Deduplicate(entities, blocking, matcher);
  ASSERT_TRUE(mem.ok()) << mem.status().ToString();
  ASSERT_TRUE(ext.ok()) << ext.status().ToString();
  EXPECT_GT(mem->matches.size(), 0u);
  ExpectPipelineResultsEqual(*mem, *ext);
}

TEST_P(StrategyExternalTest, TwoSourceDifferential) {
  auto r_entities = SkewedDataset(21, 900);
  auto s_entities = SkewedDataset(22, 700);
  er::AttributeBlocking blocking(gen::kSkewBlockField);
  er::JaroWinklerMatcher matcher(0.85, gen::kSkewTitleField);

  auto mem = MakePipeline(GetParam(), mr::ExecutionMode::kInMemory)
                 .Link(r_entities, s_entities, blocking, matcher);
  auto ext = MakePipeline(GetParam(), mr::ExecutionMode::kExternal)
                 .Link(r_entities, s_entities, blocking, matcher);
  ASSERT_TRUE(mem.ok()) << mem.status().ToString();
  ASSERT_TRUE(ext.ok()) << ext.status().ToString();
  EXPECT_GT(mem->matches.size(), 0u);
  ExpectPipelineResultsEqual(*mem, *ext);
}

INSTANTIATE_TEST_SUITE_P(AllStrategies, StrategyExternalTest,
                         ::testing::Values(lb::StrategyKind::kBasic,
                                           lb::StrategyKind::kBlockSplit,
                                           lb::StrategyKind::kPairRange),
                         [](const auto& info) {
                           return lb::StrategyKindToName(info.param);
                         });

// Sub-splits exercise BlockSplit's composite-key spill in its general
// form.
TEST(StrategyExternalTest, BlockSplitSubSplitsDifferential) {
  auto entities = SkewedDataset(31);
  er::AttributeBlocking blocking(gen::kSkewBlockField);
  er::JaroWinklerMatcher matcher(0.85, gen::kSkewTitleField);
  auto build = [&](mr::ExecutionMode mode) {
    core::ErPipelineConfig config;
    config.strategy = lb::StrategyKind::kBlockSplit;
    config.num_map_tasks = 4;
    config.num_reduce_tasks = 6;
    config.num_workers = 4;
    config.sub_splits = 3;
    config.execution.mode = mode;
    return core::ErPipeline(config);
  };
  auto mem = build(mr::ExecutionMode::kInMemory)
                 .Deduplicate(entities, blocking, matcher);
  auto ext = build(mr::ExecutionMode::kExternal)
                 .Deduplicate(entities, blocking, matcher);
  ASSERT_TRUE(mem.ok());
  ASSERT_TRUE(ext.ok());
  ExpectPipelineResultsEqual(*mem, *ext);
}

// Auto mode through the pipeline: a zero threshold pushes both jobs
// out-of-core, a huge one keeps them in memory; results stay identical.
TEST(StrategyExternalTest, AutoThresholdSelectsPath) {
  auto entities = SkewedDataset(41, 800);
  er::AttributeBlocking blocking(gen::kSkewBlockField);
  er::JaroWinklerMatcher matcher(0.85, gen::kSkewTitleField);
  auto build = [&](uint64_t threshold) {
    core::ErPipelineConfig config;
    config.strategy = lb::StrategyKind::kBlockSplit;
    config.num_map_tasks = 3;
    config.num_reduce_tasks = 5;
    config.num_workers = 4;
    config.execution.spill_threshold_bytes = threshold;
    return core::ErPipeline(config);
  };
  auto spilled =
      build(0).Deduplicate(entities, blocking, matcher);
  auto in_memory =
      build(uint64_t{1} << 40).Deduplicate(entities, blocking, matcher);
  ASSERT_TRUE(spilled.ok()) << spilled.status().ToString();
  ASSERT_TRUE(in_memory.ok());
  EXPECT_TRUE(spilled->match_metrics.external);
  EXPECT_TRUE(spilled->bdm_metrics.external);
  EXPECT_FALSE(in_memory->match_metrics.external);
  EXPECT_TRUE(spilled->matches.SameAs(in_memory->matches));
}

// ---- Chunked CSV ingest + external mode end to end ----------------------

TEST(DeduplicateCsvTest, ChunkedIngestMatchesVectorPath) {
  auto entities = SkewedDataset(51, 600);
  auto base = ScopedTempDir::Make();
  ASSERT_TRUE(base.ok());
  const std::string csv_path = base->path() + "/entities.csv";
  ASSERT_TRUE(er::SaveEntitiesToCsv(csv_path, entities).ok());

  er::CsvSchema schema;
  schema.id_column = 0;
  schema.has_header = true;
  er::AttributeBlocking blocking(gen::kSkewBlockField);
  er::JaroWinklerMatcher matcher(0.85, gen::kSkewTitleField);

  // Tiny splits: the 600 entities become ceil(600/128) = 5 partitions,
  // each ingested as one bounded batch; external mode end to end.
  core::ErPipelineConfig config;
  config.strategy = lb::StrategyKind::kBlockSplit;
  config.num_reduce_tasks = 6;
  config.num_workers = 4;
  config.csv_split_records = 128;
  config.execution.mode = mr::ExecutionMode::kExternal;
  const core::ErPipeline pipeline(config);
  auto from_csv = pipeline.DeduplicateCsv(csv_path, schema, blocking,
                                          matcher);
  ASSERT_TRUE(from_csv.ok()) << from_csv.status().ToString();
  EXPECT_TRUE(from_csv->match_metrics.external);
  EXPECT_EQ(from_csv->match_metrics.TotalMapInputRecords(), 600);
  ASSERT_EQ(from_csv->bdm_metrics.map_tasks.size(), 5u);

  // Same result as the in-memory vector path over the same partitioning.
  core::ErPipelineConfig reference_config;
  reference_config.strategy = lb::StrategyKind::kBlockSplit;
  reference_config.num_map_tasks = 5;
  reference_config.num_reduce_tasks = 6;
  reference_config.num_workers = 4;
  const core::ErPipeline reference_pipeline(reference_config);
  auto reference =
      reference_pipeline.Deduplicate(entities, blocking, matcher);
  ASSERT_TRUE(reference.ok());
  EXPECT_GT(reference->matches.size(), 0u);
  EXPECT_TRUE(from_csv->matches.SameAs(reference->matches));
}

TEST(DeduplicateCsvTest, MissingFileIsIoError) {
  er::CsvSchema schema;
  const core::ErPipeline pipeline(core::ErPipelineConfig{});
  auto result = pipeline.DeduplicateCsv("/nonexistent/file.csv", schema,
                                        er::ConstantBlocking(),
                                        er::JaroWinklerMatcher());
  EXPECT_FALSE(result.ok());
}

}  // namespace
}  // namespace erlb
