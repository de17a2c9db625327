// Shared helpers for strategy tests: run the standard dataflow graph (the
// two-job workflow, or single-job Basic) over given partitions or entity
// vectors and return the match result, or run the explicit plan-first
// path (BDM job → BuildPlan → ExecutePlan) and return the plan next to
// the per-task execution metrics so tests can check planned against
// executed workloads.
#ifndef ERLB_TESTS_STRATEGY_TEST_UTIL_H_
#define ERLB_TESTS_STRATEGY_TEST_UTIL_H_

#include <gtest/gtest.h>

#include <memory>
#include <utility>
#include <vector>

#include "bdm/bdm_job.h"
#include "core/dataflow.h"
#include "core/stages.h"
#include "er/match_result.h"
#include "lb/plan.h"
#include "lb/plan_io.h"
#include "lb/strategy.h"
#include "mr/job.h"

namespace erlb {
namespace testing_util {

/// One graph run: its matches and per-stage report.
struct GraphRun {
  er::MatchResult matches;
  core::DataflowReport report;
};

/// Runs a composed graph and takes its kDatasetMatches.
[[nodiscard]] inline Result<GraphRun> RunGraph(core::Dataflow* df) {
  GraphRun run;
  ERLB_ASSIGN_OR_RETURN(run.report, df->Run());
  ERLB_ASSIGN_OR_RETURN(run.matches,
                        df->Take<er::MatchResult>(core::kDatasetMatches));
  return run;
}

/// Two runs of one MR job did the same work: per-task records and
/// counters, and the job counters.
inline void ExpectTaskMetricsEqual(const mr::JobMetrics& a,
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

/// Two graph runs agree: the same matches and comparisons and, stage by
/// stage, the same per-task work of every job and the same plan down to
/// the serialized byte.
inline void ExpectSameGraphRun(const GraphRun& a, const GraphRun& b) {
  EXPECT_TRUE(a.matches.SameAs(b.matches));
  EXPECT_EQ(a.report.TotalComparisons(), b.report.TotalComparisons());
  ASSERT_EQ(a.report.stages.size(), b.report.stages.size());
  for (size_t i = 0; i < a.report.stages.size(); ++i) {
    const core::StageReport& x = a.report.stages[i];
    const core::StageReport& y = b.report.stages[i];
    EXPECT_EQ(x.stage, y.stage);
    ASSERT_EQ(x.job.has_value(), y.job.has_value()) << x.stage;
    if (x.job.has_value()) ExpectTaskMetricsEqual(*x.job, *y.job);
    ASSERT_EQ(x.plan != nullptr, y.plan != nullptr) << x.stage;
    if (x.plan != nullptr) {
      EXPECT_EQ(lb::MatchPlanToJson(*x.plan), lb::MatchPlanToJson(*y.plan));
    }
  }
}

struct StrategyRun {
  er::MatchResult matches;
  int64_t comparisons = 0;
  int64_t map_output_pairs = 0;  // matching job only
  bdm::Bdm bdm;
};

/// Runs `kind` end-to-end over `partitions` — the standard graph — and
/// returns matches plus workload counters. Asserts (via gtest) on
/// infrastructure failures.
inline StrategyRun RunStrategy(
    lb::StrategyKind kind, const er::Partitions& partitions,
    const er::BlockingFunction& blocking, const er::Matcher& matcher,
    uint32_t r, uint32_t workers = 4,
    const std::vector<er::Source>* partition_sources = nullptr,
    lb::TaskAssignment assignment = lb::TaskAssignment::kGreedyLpt) {
  core::DataflowOptions resources;
  resources.num_workers = workers;
  core::StandardGraphOptions graph;
  graph.strategy = kind;
  graph.num_reduce_tasks = r;
  graph.assignment = assignment;
  core::PartitionedEntities input;
  input.partitions = partitions;
  if (partition_sources != nullptr) input.sources = *partition_sources;
  core::Dataflow df(resources);
  EXPECT_TRUE(df.AddInput(core::kDatasetPartitions, core::Dataset(input)).ok());
  EXPECT_TRUE(core::AddStandardGraph(&df, graph, &blocking, &matcher).ok());
  StrategyRun run;
  auto out = RunGraph(&df);
  EXPECT_TRUE(out.ok()) << out.status().ToString();
  if (!out.ok()) return run;
  run.matches = std::move(out->matches);
  run.matches.Canonicalize();
  run.comparisons = out->report.TotalComparisons();
  run.map_output_pairs =
      out->report.Find("match")->job->TotalMapOutputPairs();
  if (auto bdm = df.Take<bdm::Bdm>(core::kDatasetBdm); bdm.ok()) {
    run.bdm = std::move(*bdm);
  }
  return run;
}

/// One plan-first run: the exact MatchPlan plus what execution actually
/// did, per task.
struct PlanExecutionRun {
  lb::MatchPlan plan;
  bdm::Bdm bdm;
  er::MatchResult matches;
  /// Full matching-job metrics (per-map/per-reduce task workloads).
  mr::JobMetrics metrics;
  int64_t comparisons = 0;

  /// Key-value pairs map task p emitted.
  std::vector<uint64_t> ExecutedMapOutputPairs() const {
    std::vector<uint64_t> out;
    out.reserve(metrics.map_tasks.size());
    for (const auto& t : metrics.map_tasks) {
      out.push_back(static_cast<uint64_t>(t.output_records));
    }
    return out;
  }
  /// Key-value pairs reduce task t received.
  std::vector<uint64_t> ExecutedReduceInputRecords() const {
    std::vector<uint64_t> out;
    out.reserve(metrics.reduce_tasks.size());
    for (const auto& t : metrics.reduce_tasks) {
      out.push_back(static_cast<uint64_t>(t.input_records));
    }
    return out;
  }
  /// Comparisons reduce task t evaluated.
  std::vector<uint64_t> ExecutedReduceComparisons() const {
    std::vector<uint64_t> out;
    out.reserve(metrics.reduce_tasks.size());
    for (const auto& t : metrics.reduce_tasks) {
      out.push_back(static_cast<uint64_t>(
          t.counters.Get(mr::kCounterComparisons)));
    }
    return out;
  }
};

/// Runs the explicit plan-first workflow — BDM job, BuildPlan,
/// ExecutePlan — for any strategy (Basic executes over the annotated
/// store here, not as the single job). Asserts (via gtest) on
/// infrastructure failures.
inline PlanExecutionRun RunWithPlan(
    lb::StrategyKind kind, const er::Partitions& partitions,
    const er::BlockingFunction& blocking, const er::Matcher& matcher,
    uint32_t r, uint32_t workers = 4,
    const std::vector<er::Source>* partition_sources = nullptr,
    lb::TaskAssignment assignment = lb::TaskAssignment::kGreedyLpt,
    uint32_t sub_splits = 1) {
  PlanExecutionRun run;
  mr::JobRunner runner(workers);

  bdm::BdmJobOptions bdm_options;
  if (partition_sources != nullptr) {
    bdm_options.partition_sources = *partition_sources;
  }
  auto bdm_out = bdm::RunBdmJob(partitions, blocking, bdm_options, runner);
  EXPECT_TRUE(bdm_out.ok()) << bdm_out.status().ToString();
  if (!bdm_out.ok()) return run;
  run.bdm = bdm_out->bdm;

  lb::MatchJobOptions options;
  options.num_reduce_tasks = r;
  options.assignment = assignment;
  options.sub_splits = sub_splits;
  auto strategy = lb::MakeStrategy(kind);
  auto plan = strategy->BuildPlan(run.bdm, options);
  EXPECT_TRUE(plan.ok()) << plan.status().ToString();
  if (!plan.ok()) return run;
  run.plan = std::move(plan).ValueOrDie();

  auto out = strategy->ExecutePlan(run.plan, *bdm_out->annotated, run.bdm,
                                   matcher, runner);
  EXPECT_TRUE(out.ok()) << out.status().ToString();
  if (!out.ok()) return run;
  run.matches = std::move(out->matches);
  run.metrics = std::move(out->metrics);
  run.comparisons = out->comparisons;
  run.matches.Canonicalize();
  return run;
}

/// The standard chain for a caller that already holds `plan`: BdmStage
/// over kDatasetPartitions, `plan` bound as kDatasetPlan, and MatchStage.
/// No plan stage runs, and the plan decides the matching strategy.
[[nodiscard]] inline Status AddHeldPlanGraph(
    core::Dataflow* df, const er::BlockingFunction* blocking, const er::Matcher* matcher,
    lb::MatchPlan plan) {
  df->Emplace<core::BdmStage>("bdm", core::kDatasetPartitions,
                              core::kDatasetBdm, core::kDatasetAnnotated,
                              blocking, core::BdmStageOptions{});
  ERLB_RETURN_NOT_OK(df->AddInput(
      core::kDatasetPlan,
      core::Dataset(std::make_shared<const lb::MatchPlan>(std::move(plan)))));
  df->Emplace<core::MatchStage>("match", core::kDatasetPlan,
                                core::kDatasetAnnotated, core::kDatasetBdm,
                                core::kDatasetMatches, matcher);
  return Status::OK();
}

/// Runs EntitySourceStage -> AddStandardGraph over `entities` split into
/// `m` map partitions — R×S linkage when `s_entities` is set.
[[nodiscard]] inline Result<GraphRun> RunStandardGraph(
    const core::DataflowOptions& resources,
    const core::StandardGraphOptions& graph, uint32_t m,
    const std::vector<er::Entity>& entities,
    const er::BlockingFunction& blocking, const er::Matcher& matcher,
    const std::vector<er::Entity>* s_entities = nullptr) {
  core::Dataflow df(resources);
  df.Emplace<core::EntitySourceStage>("source", core::kDatasetPartitions,
                                      &entities, m, nullptr, s_entities);
  ERLB_RETURN_NOT_OK(core::AddStandardGraph(&df, graph, &blocking, &matcher));
  return RunGraph(&df);
}

}  // namespace testing_util
}  // namespace erlb

#endif  // ERLB_TESTS_STRATEGY_TEST_UTIL_H_
