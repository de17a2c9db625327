// Differential tests of the out-of-core execution path: the external
// (spill-to-disk) shuffle must be observationally identical to the
// in-memory shuffle — same match output, same counters, same per-task
// workloads, same PlanStats — for all three strategies, one- and
// two-source, plus a randomized engine-level stress sweep mirroring
// test_mr_stress.cc. Also covers map-only jobs in every mode and under
// resume, ExecutionMode::kAuto's threshold selection and the chunked-CSV
// out-of-core entry point.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "common/io_buffer.h"
#include "common/random.h"
#include "er/blocking.h"
#include "er/entity_io.h"
#include "er/matcher.h"
#include "gen/skew_gen.h"
#include "lb/plan_io.h"
#include "mr/job.h"
#include "strategy_test_util.h"

namespace erlb {
namespace {

using testing_util::ExpectTaskMetricsEqual;

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

// ---- Map-only jobs (num_reduce_tasks == 0) --------------------------------

using SumSpecT = mr::TypedJobSpec<int, int64_t, std::string, int64_t,
                                  std::string, int64_t, std::less<>,
                                  std::equal_to<>>;

/// Map-only: per map task, the sum of each key's values.
SumSpecT MapOnlySumSpec() {
  SumSpecT spec;
  spec.num_reduce_tasks = 0;
  spec.mapper_factory = [](const mr::TaskContext&) {
    return std::make_unique<IdentityMapper>();
  };
  spec.combiner = [](std::span<const std::pair<std::string, int64_t>> group,
                     std::vector<std::pair<std::string, int64_t>>* out) {
    int64_t sum = 0;
    for (const auto& [k, v] : group) sum += v;
    out->emplace_back(group.front().first, sum);
  };
  return spec;
}

TEST(MapOnlyJobTest, EachModeReturnsEveryTasksCombinedRun) {
  constexpr int kTasks = 5;
  Pcg32 rng(29);
  std::vector<std::vector<std::pair<int, int64_t>>> input(kTasks);
  std::vector<std::vector<std::pair<std::string, int64_t>>> want(kTasks);
  for (int t = 0; t < kTasks; ++t) {
    std::map<std::string, int64_t> sums;
    const uint32_t records = t == 2 ? 0 : 50 + rng.NextBounded(200);
    for (uint32_t i = 0; i < records; ++i) {
      const int key = static_cast<int>(rng.NextBounded(40));
      const int64_t value = rng.NextInRange(-1000, 1000);
      input[t].push_back({key, value});
      std::string k = "k";
      k += std::to_string(key);
      sums[k] += value;
    }
    want[t].assign(sums.begin(), sums.end());
  }

  auto dir = ScopedTempDir::Make("", "erlb-map-only");
  ASSERT_TRUE(dir.ok());
  std::vector<std::pair<std::string, mr::ExecutionOptions>> modes(4);
  modes[0].first = "in-memory";
  modes[0].second.mode = mr::ExecutionMode::kInMemory;
  modes[1].first = "external";
  modes[1].second.mode = mr::ExecutionMode::kExternal;
  modes[1].second.io_buffer_bytes = 64;
  modes[2].first = "multi-process";
  modes[2].second.mode = mr::ExecutionMode::kMultiProcess;
  modes[2].second.num_worker_processes = 2;
  modes[3].first = "checkpointed";
  modes[3].second.mode = mr::ExecutionMode::kExternal;
  modes[3].second.checkpoint.dir = dir->path() + "/ck";
  const SumSpecT spec = MapOnlySumSpec();
  for (const auto& [name, options] : modes) {
    auto result = mr::JobRunner(3, options).Run(spec, input);
    ASSERT_TRUE(result.status.ok()) << name << ": "
                                    << result.status.ToString();
    EXPECT_EQ(result.outputs_per_reduce_task, want) << name;
    EXPECT_TRUE(result.metrics.reduce_tasks.empty()) << name;
    EXPECT_EQ(result.metrics.reduce_phase_nanos, 0) << name;
    EXPECT_EQ(result.metrics.spill_bytes_written, 0) << name;
    EXPECT_EQ(result.metrics.map_tasks_resumed, 0) << name;
  }

  // A second run over the checkpoint restores every map task's run from
  // its commit record instead of running the task.
  SumSpecT counting = spec;
  auto mapper_calls = std::make_shared<std::atomic<int>>(0);
  counting.mapper_factory = [mapper_calls](const mr::TaskContext&) {
    ++*mapper_calls;
    return std::make_unique<IdentityMapper>();
  };
  auto resumed = mr::JobRunner(3, modes[3].second).Run(counting, input);
  ASSERT_TRUE(resumed.status.ok()) << resumed.status.ToString();
  EXPECT_EQ(resumed.outputs_per_reduce_task, want);
  EXPECT_EQ(resumed.metrics.map_tasks_resumed, kTasks);
  EXPECT_EQ(mapper_calls->load(), 0);
}

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

using testing_util::GraphRun;

/// One standard-graph run over `entities` (R×S when `s` is set): m=5,
/// r=7, 4 workers, 512-byte I/O buffers.
Result<GraphRun> RunInMode(lb::StrategyKind kind, mr::ExecutionMode mode,
                           const std::vector<er::Entity>& entities,
                           const er::BlockingFunction& blocking,
                           const er::Matcher& matcher,
                           const std::vector<er::Entity>* s = nullptr) {
  core::DataflowOptions resources;
  resources.num_workers = 4;
  resources.execution.mode = mode;
  resources.execution.io_buffer_bytes = 512;
  core::StandardGraphOptions graph;
  graph.strategy = kind;
  graph.num_reduce_tasks = 7;
  return testing_util::RunStandardGraph(resources, graph, 5, entities,
                                        blocking, matcher, s);
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

void ExpectPipelineResultsEqual(const GraphRun& mem, const GraphRun& ext) {
  testing_util::ExpectSameGraphRun(mem, ext);
  // External mode really ran out-of-core.
  const mr::JobMetrics& ext_match = *ext.report.Find("match")->job;
  EXPECT_FALSE(mem.report.Find("match")->job->external);
  EXPECT_TRUE(ext_match.external);
  EXPECT_GT(ext_match.spill_bytes_written, 0);
}

class StrategyExternalTest
    : public ::testing::TestWithParam<lb::StrategyKind> {};

TEST_P(StrategyExternalTest, OneSourceDifferential) {
  auto entities = SkewedDataset(11);
  er::AttributeBlocking blocking(gen::kSkewBlockField);
  er::JaroWinklerMatcher matcher(0.85, gen::kSkewTitleField);

  auto mem = RunInMode(GetParam(), mr::ExecutionMode::kInMemory, entities,
                       blocking, matcher);
  auto ext = RunInMode(GetParam(), mr::ExecutionMode::kExternal, entities,
                       blocking, matcher);
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

  auto mem = RunInMode(GetParam(), mr::ExecutionMode::kInMemory, r_entities,
                       blocking, matcher, &s_entities);
  auto ext = RunInMode(GetParam(), mr::ExecutionMode::kExternal, r_entities,
                       blocking, matcher, &s_entities);
  ASSERT_TRUE(mem.ok()) << mem.status().ToString();
  ASSERT_TRUE(ext.ok()) << ext.status().ToString();
  EXPECT_GT(mem->matches.size(), 0u);
  ExpectPipelineResultsEqual(*mem, *ext);
}

// A union-composed graph: both missing-key decompositions (dedup and
// link, up to three standard subgraphs each, joined by a union stage) in
// one graph must run stage by stage the same out of core as in memory.
TEST_P(StrategyExternalTest, MissingKeyGraphDifferential) {
  // Every seventh entity loses its block label, hence its blocking key.
  auto blank_some = [](std::vector<er::Entity> entities) {
    for (size_t i = 0; i < entities.size(); i += 7) {
      entities[i].fields[gen::kSkewBlockField] = "";
    }
    return entities;
  };
  const auto r = blank_some(SkewedDataset(51, 600));
  auto s = blank_some(SkewedDataset(52, 400));
  for (auto& e : s) e.id += 1000000;
  er::AttributeBlocking blocking(gen::kSkewBlockField);
  er::JaroWinklerMatcher matcher(0.85, gen::kSkewTitleField);

  auto run = [&](mr::ExecutionMode mode,
                 er::MatchResult* link) -> Result<GraphRun> {
    core::DataflowOptions resources;
    resources.num_workers = 4;
    resources.execution.mode = mode;
    resources.execution.io_buffer_bytes = 512;
    core::StandardGraphOptions graph;
    graph.strategy = GetParam();
    graph.num_reduce_tasks = 7;
    core::Dataflow df(resources);
    ERLB_RETURN_NOT_OK(core::AddMissingKeyGraph(&df, graph, 3, &r, nullptr,
                                                &blocking, &matcher,
                                                core::kDatasetMatches,
                                                "dedup/"));
    ERLB_RETURN_NOT_OK(core::AddMissingKeyGraph(
        &df, graph, 3, &r, &s, &blocking, &matcher, "link", "link/"));
    ERLB_ASSIGN_OR_RETURN(GraphRun out, testing_util::RunGraph(&df));
    ERLB_ASSIGN_OR_RETURN(*link, df.Take<er::MatchResult>("link"));
    return out;
  };
  er::MatchResult mem_link, ext_link;
  auto mem = run(mr::ExecutionMode::kInMemory, &mem_link);
  auto ext = run(mr::ExecutionMode::kExternal, &ext_link);
  ASSERT_TRUE(mem.ok()) << mem.status().ToString();
  ASSERT_TRUE(ext.ok()) << ext.status().ToString();
  ASSERT_NE(mem->report.Find("dedup/union"), nullptr);
  ASSERT_NE(mem->report.Find("link/union"), nullptr);
  EXPECT_GT(mem->matches.size(), 0u);
  EXPECT_GT(mem_link.size(), 0u);
  EXPECT_EQ(mem_link.pairs(), ext_link.pairs());
  testing_util::ExpectSameGraphRun(*mem, *ext);

  // Every MR stage of the external run really went out of core.
  bool spilled = false;
  for (const core::StageReport& stage : ext->report.stages) {
    if (!stage.job.has_value()) continue;
    EXPECT_TRUE(stage.job->external) << stage.stage;
    spilled |= stage.spill_bytes > 0;
  }
  EXPECT_TRUE(spilled);
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
  auto run = [&](mr::ExecutionMode mode) {
    core::DataflowOptions resources;
    resources.num_workers = 4;
    resources.execution.mode = mode;
    core::StandardGraphOptions graph;
    graph.num_reduce_tasks = 6;
    graph.sub_splits = 3;
    return testing_util::RunStandardGraph(resources, graph, 4, entities,
                                          blocking, matcher);
  };
  auto mem = run(mr::ExecutionMode::kInMemory);
  auto ext = run(mr::ExecutionMode::kExternal);
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
  auto run = [&](uint64_t threshold) {
    core::DataflowOptions resources;
    resources.num_workers = 4;
    resources.execution.spill_threshold_bytes = threshold;
    core::StandardGraphOptions graph;
    graph.num_reduce_tasks = 5;
    return testing_util::RunStandardGraph(resources, graph, 3, entities,
                                          blocking, matcher);
  };
  auto spilled = run(0);
  auto in_memory = run(uint64_t{1} << 40);
  ASSERT_TRUE(spilled.ok()) << spilled.status().ToString();
  ASSERT_TRUE(in_memory.ok());
  EXPECT_TRUE(spilled->report.Find("match")->job->external);
  EXPECT_TRUE(spilled->report.Find("bdm")->job->external);
  EXPECT_FALSE(in_memory->report.Find("match")->job->external);
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
  core::DataflowOptions resources;
  resources.num_workers = 4;
  resources.execution.mode = mr::ExecutionMode::kExternal;
  core::StandardGraphOptions graph;
  graph.num_reduce_tasks = 6;
  core::Dataflow df(resources);
  df.Emplace<core::CsvSourceStage>("source", core::kDatasetPartitions,
                                   csv_path, schema, 128);
  ASSERT_TRUE(core::AddStandardGraph(&df, graph, &blocking, &matcher).ok());
  auto report = df.Run();
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  const mr::JobMetrics& match = *report->Find("match")->job;
  EXPECT_TRUE(match.external);
  EXPECT_EQ(match.TotalMapInputRecords(), 600);
  EXPECT_EQ(report->Find("source")->output_records, 600u);
  ASSERT_EQ(report->Find("bdm")->job->map_tasks.size(), 5u);
  auto from_csv = df.Get<er::MatchResult>(core::kDatasetMatches);
  ASSERT_TRUE(from_csv.ok());

  // Same result as the in-memory vector path over the same partitioning.
  auto reference = testing_util::RunStandardGraph(
      {}, graph, 5, entities, blocking, matcher);
  ASSERT_TRUE(reference.ok());
  EXPECT_GT(reference->matches.size(), 0u);
  EXPECT_TRUE((*from_csv)->SameAs(reference->matches));
}

TEST(DeduplicateCsvTest, MissingFileIsIoError) {
  er::CsvSchema schema;
  er::ConstantBlocking blocking;
  er::JaroWinklerMatcher matcher;
  core::Dataflow df;
  df.Emplace<core::CsvSourceStage>("source", core::kDatasetPartitions,
                                   "/nonexistent/file.csv", schema, 64);
  ASSERT_TRUE(core::AddStandardGraph(&df, {}, &blocking, &matcher).ok());
  EXPECT_FALSE(df.Run().ok());
}

}  // namespace
}  // namespace erlb
