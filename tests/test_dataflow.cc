// The composable dataflow API (core/dataflow.h, core/stages.h).
//
// The heart of this file is the legacy differential: LegacyRunPartitioned
// below is a verbatim port of the pre-dataflow two-job pipeline body (one
// JobRunner, RunBdmJob + BuildPlan + ExecutePlan, or RunBasicSingleJob),
// and the standard stage graph must be byte-identical to it — matches,
// comparison counters, per-task metrics, serialized MatchPlan — for all
// three strategies, one- and two-source, in-memory and external. Plus
// structural tests of the graph itself: validation errors, typed dataset
// access, report contents, cluster/union stages, CSV sources.
#include <gtest/gtest.h>

#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "bdm/bdm_job.h"
#include "common/io_buffer.h"
#include "core/dataflow.h"
#include "core/report.h"
#include "core/stages.h"
#include "er/blocking.h"
#include "er/clustering.h"
#include "er/entity_io.h"
#include "er/matcher.h"
#include "gen/skew_gen.h"
#include "lb/basic.h"
#include "lb/plan_io.h"
#include "lb/strategy.h"
#include "strategy_test_util.h"

namespace erlb {
namespace {

using testing_util::ExpectTaskMetricsEqual;

std::vector<er::Entity> SkewedDataset(uint64_t seed, uint64_t n = 1200) {
  gen::SkewConfig config;
  config.num_entities = n;
  config.num_blocks = 20;
  config.skew = 0.9;
  config.duplicate_fraction = 0.25;
  config.seed = seed;
  auto data = gen::GenerateSkewed(config);
  EXPECT_TRUE(data.ok());
  return std::move(data).ValueOrDie();
}

// ---- Legacy pipeline body (pre-dataflow), ported verbatim ---------------

struct LegacyResult {
  er::MatchResult matches;
  bdm::Bdm bdm;
  std::optional<lb::MatchPlan> plan;
  mr::JobMetrics bdm_metrics;
  mr::JobMetrics match_metrics;
  int64_t comparisons = 0;
  uint64_t skipped_entities = 0;
};

Result<LegacyResult> LegacyRunPartitioned(
    const core::DataflowOptions& resources,
    const core::StandardGraphOptions& config,
    const er::Partitions& partitions,
    const std::vector<er::Source>* partition_sources,
    const er::BlockingFunction& blocking, const er::Matcher& matcher,
    const lb::MatchPlan* prebuilt_plan = nullptr) {
  const lb::StrategyKind strategy_kind = prebuilt_plan != nullptr
                                             ? prebuilt_plan->strategy()
                                             : config.strategy;
  mr::JobRunner runner(resources.EffectiveWorkers(), resources.execution);
  LegacyResult result;

  if (prebuilt_plan == nullptr &&
      strategy_kind == lb::StrategyKind::kBasic) {
    lb::MatchJobOptions match_options;
    match_options.num_reduce_tasks = config.num_reduce_tasks;
    ERLB_ASSIGN_OR_RETURN(
        lb::MatchJobOutput out,
        lb::RunBasicSingleJob(partitions, blocking, matcher, match_options,
                              runner, partition_sources));
    result.matches = std::move(out.matches);
    result.match_metrics = std::move(out.metrics);
    result.comparisons = out.comparisons;
    return result;
  }

  bdm::BdmJobOptions bdm_options;
  bdm_options.num_reduce_tasks = config.num_reduce_tasks;
  bdm_options.use_combiner = config.use_combiner;
  bdm_options.missing_key_policy = config.missing_key_policy;
  if (partition_sources != nullptr) {
    bdm_options.partition_sources = *partition_sources;
  }
  ERLB_ASSIGN_OR_RETURN(
      bdm::BdmJobOutput bdm_out,
      bdm::RunBdmJob(partitions, blocking, bdm_options, runner));
  result.bdm = std::move(bdm_out.bdm);
  result.bdm_metrics = std::move(bdm_out.metrics);
  result.skipped_entities = bdm_out.skipped_entities;

  auto strategy = lb::MakeStrategy(strategy_kind);
  const lb::MatchPlan* plan = prebuilt_plan;
  if (plan == nullptr) {
    lb::MatchJobOptions match_options;
    match_options.num_reduce_tasks = config.num_reduce_tasks;
    match_options.assignment = config.assignment;
    match_options.sub_splits = config.sub_splits;
    ERLB_ASSIGN_OR_RETURN(result.plan,
                          strategy->BuildPlan(result.bdm, match_options));
    plan = &*result.plan;
  }

  ERLB_ASSIGN_OR_RETURN(
      lb::MatchJobOutput out,
      strategy->ExecutePlan(*plan, *bdm_out.annotated, result.bdm, matcher,
                            runner));
  result.matches = std::move(out.matches);
  result.match_metrics = std::move(out.metrics);
  result.comparisons = out.comparisons;
  return result;
}

/// Byte-level equality between a standard-graph run and the legacy
/// two-job body.
void ExpectMatchesLegacy(const core::Dataflow& df,
                         const core::DataflowReport& report,
                         const LegacyResult& legacy) {
  // Identical matches, in identical order (same ExecutePlan, same task
  // order — not just the same set).
  auto matches = df.Get<er::MatchResult>(core::kDatasetMatches);
  ASSERT_TRUE(matches.ok());
  EXPECT_EQ((*matches)->pairs(), legacy.matches.pairs());
  EXPECT_EQ(report.TotalComparisons(), legacy.comparisons);
  ExpectTaskMetricsEqual(*report.Find("match")->job, legacy.match_metrics);
  const core::StageReport* bdm = report.Find("bdm");
  ASSERT_EQ(bdm != nullptr, legacy.bdm.num_blocks() > 0);
  if (bdm != nullptr) {
    EXPECT_EQ(bdm->skipped_entities, legacy.skipped_entities);
    ExpectTaskMetricsEqual(*bdm->job, legacy.bdm_metrics);
    auto graph_bdm = df.Get<bdm::Bdm>(core::kDatasetBdm);
    ASSERT_TRUE(graph_bdm.ok());
    EXPECT_EQ((*graph_bdm)->ContentHash(), legacy.bdm.ContentHash());
  }
  const core::StageReport* plan = report.Find("plan");
  ASSERT_EQ(plan != nullptr, legacy.plan.has_value());
  if (plan != nullptr) {
    EXPECT_EQ(lb::MatchPlanToJson(*plan->plan),
              lb::MatchPlanToJson(*legacy.plan));
  }
}

class DataflowDifferentialTest
    : public ::testing::TestWithParam<
          std::tuple<lb::StrategyKind, mr::ExecutionMode>> {
 protected:
  void SetUp() override {
    graph_.strategy = std::get<0>(GetParam());
    graph_.num_reduce_tasks = 7;
    resources_.num_workers = 4;
    resources_.execution.mode = std::get<1>(GetParam());
    resources_.execution.io_buffer_bytes = 512;
  }

  /// Runs `df` — its source already added — as the standard graph.
  void RunStandard(core::Dataflow* df, const er::BlockingFunction& blocking,
                   const er::Matcher& matcher, const LegacyResult& legacy,
                   const lb::MatchPlan* plan = nullptr) {
    ASSERT_TRUE(
        core::AddStandardGraph(df, graph_, &blocking, &matcher, "", plan)
            .ok());
    auto report = df->Run();
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    EXPECT_GT(report->Find("match")->output_records, 0u);
    ExpectMatchesLegacy(*df, *report, legacy);
    if (resources_.execution.mode == mr::ExecutionMode::kExternal) {
      EXPECT_TRUE(report->Find("match")->job->external);
      EXPECT_GT(report->Find("match")->job->spill_bytes_written, 0);
    }
  }

  core::DataflowOptions resources_;
  core::StandardGraphOptions graph_;
};

TEST_P(DataflowDifferentialTest, OneSourceMatchesLegacyByteForByte) {
  auto entities = SkewedDataset(11);
  er::AttributeBlocking blocking(gen::kSkewBlockField);
  er::JaroWinklerMatcher matcher(0.85, gen::kSkewTitleField);

  er::Partitions parts = er::SplitIntoPartitions(entities, 4);
  auto legacy = LegacyRunPartitioned(resources_, graph_, parts, nullptr,
                                     blocking, matcher);
  ASSERT_TRUE(legacy.ok()) << legacy.status().ToString();

  core::Dataflow df(resources_);
  df.Emplace<core::EntitySourceStage>("source", core::kDatasetPartitions,
                                      &entities, 4);
  RunStandard(&df, blocking, matcher, *legacy);
}

TEST_P(DataflowDifferentialTest, TwoSourceMatchesLegacyByteForByte) {
  auto r_entities = SkewedDataset(21, 700);
  auto s_entities = SkewedDataset(22, 500);
  er::AttributeBlocking blocking(gen::kSkewBlockField);
  er::JaroWinklerMatcher matcher(0.85, gen::kSkewTitleField);

  // The two-source layout by hand: tagged sources, R's partitions first.
  std::vector<er::Entity> tagged_r = r_entities;
  for (auto& e : tagged_r) e.source = er::Source::kR;
  std::vector<er::Entity> tagged_s = s_entities;
  for (auto& e : tagged_s) e.source = er::Source::kS;
  uint32_t mr_tasks = 2, ms_tasks = 2;  // 700:500 over m=4 splits 2/2
  er::Partitions parts = er::SplitIntoPartitions(tagged_r, mr_tasks);
  er::Partitions s_parts = er::SplitIntoPartitions(tagged_s, ms_tasks);
  std::vector<er::Source> sources(mr_tasks, er::Source::kR);
  for (auto& p : s_parts) {
    parts.push_back(std::move(p));
    sources.push_back(er::Source::kS);
  }
  auto legacy = LegacyRunPartitioned(resources_, graph_, parts, &sources,
                                     blocking, matcher);
  ASSERT_TRUE(legacy.ok()) << legacy.status().ToString();

  core::Dataflow df(resources_);
  df.Emplace<core::EntitySourceStage>("source", core::kDatasetPartitions,
                                      &r_entities, 4, nullptr, &s_entities);
  RunStandard(&df, blocking, matcher, *legacy);
}

TEST_P(DataflowDifferentialTest, PrebuiltPlanMatchesLegacyByteForByte) {
  auto entities = SkewedDataset(31, 800);
  er::AttributeBlocking blocking(gen::kSkewBlockField);
  er::JaroWinklerMatcher matcher(0.85, gen::kSkewTitleField);
  er::Partitions parts = er::SplitIntoPartitions(entities, 4);

  // Build the plan the legacy way, then feed it to both paths.
  mr::JobRunner runner(resources_.EffectiveWorkers(), resources_.execution);
  bdm::BdmJobOptions bdm_options;
  bdm_options.num_reduce_tasks = graph_.num_reduce_tasks;
  auto bdm_out = bdm::RunBdmJob(parts, blocking, bdm_options, runner);
  ASSERT_TRUE(bdm_out.ok());
  auto plan = lb::MakeStrategy(graph_.strategy)
                  ->BuildPlan(bdm_out->bdm, graph_.MatchOptions());
  ASSERT_TRUE(plan.ok());

  auto legacy = LegacyRunPartitioned(resources_, graph_, parts, nullptr,
                                     blocking, matcher, &*plan);
  ASSERT_TRUE(legacy.ok()) << legacy.status().ToString();
  core::Dataflow df(resources_);
  core::PartitionedEntities input;
  input.partitions = parts;
  ASSERT_TRUE(
      df.AddInput(core::kDatasetPartitions, core::Dataset(input)).ok());
  // The caller already holds the plan; neither path builds one.
  RunStandard(&df, blocking, matcher, *legacy, &*plan);
}

INSTANTIATE_TEST_SUITE_P(
    AllStrategiesBothModes, DataflowDifferentialTest,
    ::testing::Combine(
        ::testing::Values(lb::StrategyKind::kBasic,
                          lb::StrategyKind::kBlockSplit,
                          lb::StrategyKind::kPairRange),
        ::testing::Values(mr::ExecutionMode::kInMemory,
                          mr::ExecutionMode::kExternal)),
    [](const auto& info) {
      return std::string(lb::StrategyKindToName(std::get<0>(info.param))) +
             (std::get<1>(info.param) == mr::ExecutionMode::kExternal
                  ? "_external"
                  : "_in_memory");
    });

// ---- Graph structure validation -----------------------------------------

er::MatchResult TwoPairs() {
  er::MatchResult m;
  m.Add(1, 2);
  m.Add(2, 3);
  return m;
}

TEST(DataflowValidateTest, MissingInputRejected) {
  core::Dataflow df;
  df.Emplace<core::ClusterStage>("cluster", "matches", "clusters");
  Status status = df.Validate();
  EXPECT_TRUE(status.IsInvalidArgument());
  EXPECT_NE(status.ToString().find("never produced"), std::string::npos);
}

TEST(DataflowValidateTest, DuplicateOutputRejected) {
  core::Dataflow df;
  ASSERT_TRUE(df.AddInput("matches", core::Dataset(TwoPairs())).ok());
  df.Emplace<core::ClusterStage>("a", "matches", "clusters");
  df.Emplace<core::ClusterStage>("b", "matches", "clusters");
  Status status = df.Validate();
  EXPECT_TRUE(status.IsInvalidArgument());
  EXPECT_NE(status.ToString().find("produced more than once"),
            std::string::npos);
}

TEST(DataflowValidateTest, DuplicateStageNameRejected) {
  core::Dataflow df;
  ASSERT_TRUE(df.AddInput("matches", core::Dataset(TwoPairs())).ok());
  df.Emplace<core::ClusterStage>("same", "matches", "c1");
  df.Emplace<core::ClusterStage>("same", "matches", "c2");
  EXPECT_TRUE(df.Validate().IsInvalidArgument());
}

TEST(DataflowValidateTest, CycleRejected) {
  core::Dataflow df;
  // a consumes its own (transitive) output: u1 -> u2 -> u1.
  df.Emplace<core::UnionMatchesStage>(
      "u1", std::vector<std::string>{"m2"}, "m1");
  df.Emplace<core::UnionMatchesStage>(
      "u2", std::vector<std::string>{"m1"}, "m2");
  Status status = df.Validate();
  EXPECT_TRUE(status.IsInvalidArgument());
  EXPECT_NE(status.ToString().find("cycle"), std::string::npos);
}

TEST(DataflowValidateTest, RebindingExternalInputRejected) {
  core::Dataflow df;
  ASSERT_TRUE(df.AddInput("matches", core::Dataset(TwoPairs())).ok());
  Status status = df.AddInput("matches", core::Dataset(TwoPairs()));
  EXPECT_EQ(status.code(), StatusCode::kAlreadyExists);
}

TEST(DataflowRunTest, SingleShot) {
  core::Dataflow df;
  ASSERT_TRUE(df.AddInput("matches", core::Dataset(TwoPairs())).ok());
  df.Emplace<core::ClusterStage>("cluster", "matches", "clusters");
  ASSERT_TRUE(df.Run().ok());
  EXPECT_TRUE(df.Run().status().IsFailedPrecondition());
}

TEST(DataflowRunTest, TypedAccessAndMismatch) {
  core::Dataflow df;
  ASSERT_TRUE(df.AddInput("matches", core::Dataset(TwoPairs())).ok());
  df.Emplace<core::ClusterStage>("cluster", "matches", "clusters");
  ASSERT_TRUE(df.Run().ok());

  auto clusters = df.Get<er::Clusters>("clusters");
  ASSERT_TRUE(clusters.ok());
  ASSERT_EQ((*clusters)->size(), 1u);  // {1,2,3} is one component
  EXPECT_EQ((**clusters)[0], (std::vector<uint64_t>{1, 2, 3}));

  EXPECT_TRUE(df.Get<bdm::Bdm>("clusters").status().IsInvalidArgument());
  EXPECT_TRUE(df.Get<er::Clusters>("absent").status().IsInvalidArgument());
}

TEST(DataflowRunTest, StageErrorNamesTheStage) {
  core::Dataflow df;
  er::CsvSchema schema;
  df.Emplace<core::CsvSourceStage>("ingest", "partitions",
                                   "/nonexistent/input.csv", schema, 64);
  // Wire a full graph so the failure really interrupts a multi-stage run.
  er::ConstantBlocking blocking;
  er::JaroWinklerMatcher matcher;
  core::StandardGraphOptions graph;
  ASSERT_TRUE(core::AddStandardGraph(&df, graph, &blocking, &matcher).ok());
  auto report = df.Run();
  ASSERT_FALSE(report.ok());
  EXPECT_NE(report.status().ToString().find("ingest"), std::string::npos);
}

// ---- Report contents ----------------------------------------------------

TEST(DataflowReportTest, StandardGraphReportCarriesPlanAndMetrics) {
  auto entities = SkewedDataset(51, 600);
  er::AttributeBlocking blocking(gen::kSkewBlockField);
  er::JaroWinklerMatcher matcher(0.85, gen::kSkewTitleField);
  core::DataflowOptions resources;
  resources.num_workers = 2;
  resources.execution.mode = mr::ExecutionMode::kExternal;
  core::StandardGraphOptions graph;
  graph.num_reduce_tasks = 5;

  core::Dataflow df(resources);
  df.Emplace<core::EntitySourceStage>("source", core::kDatasetPartitions,
                                      &entities, 3);
  ASSERT_TRUE(core::AddStandardGraph(&df, graph, &blocking, &matcher).ok());
  df.Emplace<core::ClusterStage>("cluster", core::kDatasetMatches,
                                 core::kDatasetClusters);
  auto report = df.Run();
  ASSERT_TRUE(report.ok()) << report.status().ToString();

  // Execution order respects dependencies.
  ASSERT_EQ(report->stages.size(), 5u);
  EXPECT_EQ(report->stages[0].stage, "source");
  EXPECT_EQ(report->stages[1].stage, "bdm");
  EXPECT_EQ(report->stages[2].stage, "plan");
  EXPECT_EQ(report->stages[3].stage, "match");
  EXPECT_EQ(report->stages[4].stage, "cluster");

  const core::StageReport* plan = report->Find("plan");
  ASSERT_NE(plan->plan, nullptr);
  EXPECT_EQ(plan->plan->strategy(), lb::StrategyKind::kBlockSplit);
  const core::StageReport* match = report->Find("match");
  ASSERT_TRUE(match->job.has_value());
  EXPECT_TRUE(match->job->external);
  EXPECT_GT(match->comparisons, 0);
  EXPECT_EQ(match->plan, plan->plan);  // one shared plan, zero copies
  EXPECT_GT(report->TotalSpillBytes(), 0);
  EXPECT_GT(report->total_seconds, 0.0);

  // Both renderings cover every stage; the text adds each MR phase's
  // task time spread.
  std::string text = core::FormatDataflowReport(*report);
  std::string json = core::DataflowReportToJson(*report);
  for (const auto& s : report->stages) {
    EXPECT_NE(text.find(s.stage), std::string::npos) << s.stage;
    EXPECT_NE(json.find("\"" + s.stage + "\""), std::string::npos)
        << s.stage;
  }
  EXPECT_NE(text.find("    reduce: 5 tasks"), std::string::npos) << text;
  EXPECT_NE(text.find("straggler ratio"), std::string::npos);
  EXPECT_NE(json.find("\"plan_strategy\": \"BlockSplit\""),
            std::string::npos);
}

// ---- Shared resources ---------------------------------------------------

TEST(DataflowResourceTest, GraphTempDirIsRemovedAfterRun) {
  auto base = ScopedTempDir::Make();
  ASSERT_TRUE(base.ok());
  auto entities = SkewedDataset(61, 400);
  er::AttributeBlocking blocking(gen::kSkewBlockField);
  er::JaroWinklerMatcher matcher(0.85, gen::kSkewTitleField);

  core::DataflowOptions resources;
  resources.num_workers = 2;
  resources.execution.mode = mr::ExecutionMode::kExternal;
  resources.execution.temp_dir = base->path();
  core::StandardGraphOptions graph;
  graph.num_reduce_tasks = 4;

  {
    core::Dataflow df(resources);
    df.Emplace<core::EntitySourceStage>("source", core::kDatasetPartitions,
                                        &entities, 3);
    ASSERT_TRUE(core::AddStandardGraph(&df, graph, &blocking, &matcher).ok());
    auto report = df.Run();
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    EXPECT_GT(report->TotalSpillBytes(), 0);
  }
  // The graph-scoped spill root (and every per-job dir inside) is gone
  // once the Dataflow is destroyed.
  EXPECT_TRUE(std::filesystem::is_empty(base->path()))
      << "spill dirs leaked under " << base->path();
}

}  // namespace
}  // namespace erlb
