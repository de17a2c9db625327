// MatchPlan serialization and strategy-API tests: JSON round-trips must be
// lossless (serialize → parse → re-serialize byte-identical, stats and
// bodies equal), deserialized plans must execute to the same result as
// fresh ones, StrategyKindFromName must invert StrategyKindToName, and
// invalid MatchJobOptions must be rejected up front.
#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "bdm/bdm.h"
#include "common/random.h"
#include "er/matcher.h"
#include "gen/skew_gen.h"
#include "lb/basic.h"
#include "lb/plan_io.h"
#include "lb/strategy.h"
#include "paper_example.h"
#include "strategy_test_util.h"

namespace erlb {
namespace {

using lb::MatchJobOptions;
using lb::MatchPlan;
using lb::StrategyKind;
using testing_util::ExampleBlocking;
using testing_util::PaperExamplePartitions;
using testing_util::PaperTwoSourcePartitions;
using testing_util::PaperTwoSourceTags;

/// BDM of the paper's one-source running example.
bdm::Bdm PaperBdm() {
  auto parts = PaperExamplePartitions();
  auto blocking = ExampleBlocking();
  std::vector<std::vector<std::string>> keys(parts.size());
  for (size_t p = 0; p < parts.size(); ++p) {
    for (const auto& e : parts[p]) keys[p].push_back(blocking.Key(*e));
  }
  auto bdm = bdm::Bdm::FromKeys(keys);
  EXPECT_TRUE(bdm.ok());
  return std::move(bdm).ValueOrDie();
}

bdm::Bdm PaperTwoSourceBdm() {
  auto parts = PaperTwoSourcePartitions();
  auto blocking = ExampleBlocking();
  auto tags = PaperTwoSourceTags();
  std::vector<std::vector<std::string>> keys(parts.size());
  for (size_t p = 0; p < parts.size(); ++p) {
    for (const auto& e : parts[p]) keys[p].push_back(blocking.Key(*e));
  }
  auto bdm = bdm::Bdm::FromKeys(keys, &tags);
  EXPECT_TRUE(bdm.ok());
  return std::move(bdm).ValueOrDie();
}

void ExpectStatsEqual(const lb::PlanStats& a, const lb::PlanStats& b) {
  EXPECT_EQ(a.strategy, b.strategy);
  EXPECT_EQ(a.num_reduce_tasks, b.num_reduce_tasks);
  EXPECT_EQ(a.total_comparisons, b.total_comparisons);
  EXPECT_EQ(a.comparisons_per_reduce_task, b.comparisons_per_reduce_task);
  EXPECT_EQ(a.map_output_pairs_per_task, b.map_output_pairs_per_task);
  EXPECT_EQ(a.input_records_per_reduce_task,
            b.input_records_per_reduce_task);
}

class PlanRoundTripTest : public ::testing::TestWithParam<StrategyKind> {};

TEST_P(PlanRoundTripTest, JsonRoundTripIsLossless) {
  for (bool two_source : {false, true}) {
    bdm::Bdm bdm = two_source ? PaperTwoSourceBdm() : PaperBdm();
    MatchJobOptions options;
    options.num_reduce_tasks = 3;
    options.sub_splits = GetParam() == StrategyKind::kBlockSplit ? 2 : 1;
    auto plan = lb::MakeStrategy(GetParam())->BuildPlan(bdm, options);
    ASSERT_TRUE(plan.ok()) << plan.status().ToString();

    std::string json = lb::MatchPlanToJson(*plan);
    auto parsed = lb::MatchPlanFromJson(json);
    ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();

    // serialize → parse → re-serialize must be byte-identical.
    EXPECT_EQ(json, lb::MatchPlanToJson(*parsed));
    EXPECT_EQ(parsed->strategy(), GetParam());
    EXPECT_EQ(parsed->options().num_reduce_tasks,
              options.num_reduce_tasks);
    EXPECT_EQ(parsed->options().sub_splits, options.sub_splits);
    EXPECT_TRUE(parsed->bdm_fingerprint() == plan->bdm_fingerprint());
    ExpectStatsEqual(parsed->stats(), plan->stats());
    EXPECT_TRUE(parsed->ValidateFor(GetParam(), bdm).ok());
  }
}

TEST_P(PlanRoundTripTest, DeserializedPlanExecutesIdentically) {
  auto parts = PaperExamplePartitions();
  auto blocking = ExampleBlocking();
  er::LambdaMatcher matcher(
      [](const er::Entity&, const er::Entity&) { return true; },
      "accept-all");

  auto fresh = testing_util::RunWithPlan(GetParam(), parts, blocking,
                                         matcher, /*r=*/3);
  auto reloaded =
      lb::MatchPlanFromJson(lb::MatchPlanToJson(fresh.plan));
  ASSERT_TRUE(reloaded.ok()) << reloaded.status().ToString();

  mr::JobRunner runner(4);
  bdm::BdmJobOptions bdm_options;
  bdm_options.num_reduce_tasks = 3;
  auto bdm_out = bdm::RunBdmJob(parts, blocking, bdm_options, runner);
  ASSERT_TRUE(bdm_out.ok());
  auto out = lb::MakeStrategy(GetParam())
                 ->ExecutePlan(*reloaded, *bdm_out->annotated,
                               bdm_out->bdm, matcher, runner);
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  out->matches.Canonicalize();
  EXPECT_TRUE(out->matches.SameAs(fresh.matches));
  EXPECT_EQ(out->comparisons, fresh.comparisons);
}

TEST_P(PlanRoundTripTest, SaveAndLoadFile) {
  bdm::Bdm bdm = PaperBdm();
  MatchJobOptions options;
  options.num_reduce_tasks = 5;
  auto plan = lb::MakeStrategy(GetParam())->BuildPlan(bdm, options);
  ASSERT_TRUE(plan.ok());

  std::string path = ::testing::TempDir() + "plan_" +
                     lb::StrategyKindToName(GetParam()) + ".json";
  ASSERT_TRUE(lb::SaveMatchPlan(path, *plan).ok());
  auto loaded = lb::LoadMatchPlan(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ExpectStatsEqual(loaded->stats(), plan->stats());
  std::remove(path.c_str());
}

INSTANTIATE_TEST_SUITE_P(AllStrategies, PlanRoundTripTest,
                         ::testing::Values(StrategyKind::kBasic,
                                           StrategyKind::kBlockSplit,
                                           StrategyKind::kPairRange),
                         [](const auto& info) {
                           return lb::StrategyKindToName(info.param);
                         });

TEST(PlanValidationTest, RejectsWrongStrategyAndWrongBdm) {
  bdm::Bdm bdm = PaperBdm();
  MatchJobOptions options;
  options.num_reduce_tasks = 3;
  auto plan =
      lb::MakeStrategy(StrategyKind::kPairRange)->BuildPlan(bdm, options);
  ASSERT_TRUE(plan.ok());
  EXPECT_TRUE(
      plan->ValidateFor(StrategyKind::kBlockSplit, bdm).IsInvalidArgument());
  // A different dataset: the two-source example.
  bdm::Bdm other = PaperTwoSourceBdm();
  EXPECT_TRUE(
      plan->ValidateFor(StrategyKind::kPairRange, other).IsInvalidArgument());
}

TEST(PlanJsonErrorsTest, RejectsTamperedNumericFields) {
  bdm::Bdm bdm = PaperBdm();
  MatchJobOptions options;
  options.num_reduce_tasks = 3;
  auto plan =
      lb::MakeStrategy(StrategyKind::kBlockSplit)->BuildPlan(bdm, options);
  ASSERT_TRUE(plan.ok());
  std::string json = lb::MatchPlanToJson(*plan);

  auto tampered = [&json](const std::string& from, const std::string& to) {
    std::string doc = json;
    size_t pos = doc.find(from);
    EXPECT_NE(pos, std::string::npos) << from;
    doc.replace(pos, from.size(), to);
    return lb::MatchPlanFromJson(doc);
  };
  // A pi that a uint32 cast would silently alias to 0 must be rejected,
  // as must negative counts.
  EXPECT_TRUE(tampered("\"pi\": 0", "\"pi\": 4294967296")
                  .status()
                  .IsInvalidArgument());
  EXPECT_TRUE(tampered("\"total_comparisons\": 20",
                       "\"total_comparisons\": -1")
                  .status()
                  .IsInvalidArgument());
  // Fractional values must not be silently truncated to integers.
  EXPECT_TRUE(tampered("\"num_reduce_tasks\": 3",
                       "\"num_reduce_tasks\": 3.5")
                  .status()
                  .IsInvalidArgument());
}

TEST(PlanValidationTest, RejectsBodyOfDifferentStrategy) {
  // A programmatically mis-assembled plan (BlockSplit tag, PairRange
  // body) must fail validation before execution dereferences the body.
  bdm::Bdm bdm = PaperBdm();
  MatchJobOptions options;
  options.num_reduce_tasks = 3;
  auto source =
      lb::MakeStrategy(StrategyKind::kPairRange)->BuildPlan(bdm, options);
  ASSERT_TRUE(source.ok());
  MatchPlan franken(StrategyKind::kBlockSplit, options,
                    source->bdm_fingerprint(), source->stats(),
                    lb::MatchPlan::Body(*source->pair_range()));
  EXPECT_TRUE(
      franken.ValidateFor(StrategyKind::kBlockSplit, bdm).IsInvalidArgument());
}

TEST(PlanRestoreTest, RejectsVirtualPartitionCountPast16Bits) {
  // Key3 packs pi/pj into 16 bits each; Restore must enforce the same
  // m · sub_splits limit as Build.
  auto restored = lb::BlockSplitPlan::Restore(
      /*tasks=*/{}, /*split=*/{false}, /*block_comparisons=*/{0},
      /*avg=*/0, /*r=*/1, /*num_partitions=*/100000, /*sub_splits=*/1,
      /*two_source=*/false);
  EXPECT_TRUE(restored.status().IsInvalidArgument());
}

TEST(PlanJsonErrorsTest, ExecuteRejectsTamperedPairRangeBoundaries) {
  auto parts = PaperExamplePartitions();
  auto blocking = ExampleBlocking();
  er::LambdaMatcher matcher(
      [](const er::Entity&, const er::Entity&) { return true; },
      "accept-all");
  mr::JobRunner runner(2);
  bdm::BdmJobOptions bdm_options;
  bdm_options.num_reduce_tasks = 3;
  auto bdm_out = bdm::RunBdmJob(parts, blocking, bdm_options, runner);
  ASSERT_TRUE(bdm_out.ok());

  MatchJobOptions options;
  options.num_reduce_tasks = 3;
  auto plan = lb::MakeStrategy(StrategyKind::kPairRange)
                  ->BuildPlan(bdm_out->bdm, options);
  ASSERT_TRUE(plan.ok());
  std::string json = lb::MatchPlanToJson(*plan);
  // Move the first interior boundary of range_begin ([0, 7, 14, 20] →
  // [0, 1, 14, 20]); search from the body so the stats vectors, which
  // also contain a 7, stay intact.
  size_t body_pos = json.find("range_begin");
  ASSERT_NE(body_pos, std::string::npos);
  size_t pos = json.find("7,", body_pos);
  ASSERT_NE(pos, std::string::npos);
  json.replace(pos, 2, "1,");
  auto edited = lb::MatchPlanFromJson(json);
  ASSERT_TRUE(edited.ok()) << edited.status().ToString();
  auto out = lb::MakeStrategy(StrategyKind::kPairRange)
                 ->ExecutePlan(*edited, *bdm_out->annotated, bdm_out->bdm,
                               matcher, runner);
  EXPECT_TRUE(out.status().IsInvalidArgument());
}

TEST(PlanJsonErrorsTest, RejectsMalformedDocuments) {
  EXPECT_TRUE(lb::MatchPlanFromJson("").status().IsInvalidArgument());
  EXPECT_TRUE(lb::MatchPlanFromJson("{}").status().IsInvalidArgument());
  EXPECT_TRUE(lb::MatchPlanFromJson("{\"format\": \"bogus/9\"}")
                  .status()
                  .IsInvalidArgument());
  // Valid format but truncated document.
  EXPECT_TRUE(
      lb::MatchPlanFromJson("{\"format\": \"erlb.match_plan/1\"}")
          .status()
          .IsInvalidArgument());
}

// ---------------------------------------------------------------------
// StrategyKindFromName: the inverse of StrategyKindToName.
// ---------------------------------------------------------------------

TEST(StrategyNameTest, RoundTripsAllStrategies) {
  for (auto kind : lb::AllStrategyKinds()) {
    auto parsed = lb::StrategyKindFromName(lb::StrategyKindToName(kind));
    ASSERT_TRUE(parsed.ok());
    EXPECT_EQ(*parsed, kind);
  }
}

TEST(StrategyNameTest, ParsesCaseInsensitively) {
  auto parsed = lb::StrategyKindFromName("blocksplit");
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(*parsed, StrategyKind::kBlockSplit);
  parsed = lb::StrategyKindFromName("PAIRRANGE");
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(*parsed, StrategyKind::kPairRange);
}

TEST(StrategyNameTest, RejectsUnknownNames) {
  EXPECT_TRUE(lb::StrategyKindFromName("").status().IsInvalidArgument());
  EXPECT_TRUE(
      lb::StrategyKindFromName("BlockSplitter").status().IsInvalidArgument());
}

// ---------------------------------------------------------------------
// Up-front MatchJobOptions validation.
// ---------------------------------------------------------------------

class OptionValidationTest : public ::testing::TestWithParam<StrategyKind> {
};

TEST_P(OptionValidationTest, BuildPlanRejectsZeroReduceTasks) {
  bdm::Bdm bdm = PaperBdm();
  MatchJobOptions options;
  options.num_reduce_tasks = 0;
  auto plan = lb::MakeStrategy(GetParam())->BuildPlan(bdm, options);
  EXPECT_TRUE(plan.status().IsInvalidArgument());
}

TEST_P(OptionValidationTest, BuildPlanRejectsZeroSubSplits) {
  bdm::Bdm bdm = PaperBdm();
  MatchJobOptions options;
  options.num_reduce_tasks = 3;
  options.sub_splits = 0;
  auto plan = lb::MakeStrategy(GetParam())->BuildPlan(bdm, options);
  EXPECT_TRUE(plan.status().IsInvalidArgument());
}

TEST_P(OptionValidationTest, StandardGraphRejectsInvalidOptions) {
  auto blocking = ExampleBlocking();
  er::LambdaMatcher matcher(
      [](const er::Entity&, const er::Entity&) { return false; }, "none");
  auto run = [&](uint32_t r, uint32_t sub_splits) {
    core::StandardGraphOptions graph;
    graph.strategy = GetParam();
    graph.num_reduce_tasks = r;
    graph.sub_splits = sub_splits;
    core::Dataflow df;
    core::PartitionedEntities input;
    input.partitions = PaperExamplePartitions();
    EXPECT_TRUE(
        df.AddInput(core::kDatasetPartitions, core::Dataset(input)).ok());
    EXPECT_TRUE(core::AddStandardGraph(&df, graph, &blocking, &matcher).ok());
    return df.Run().status();
  };
  EXPECT_TRUE(run(0, 1).IsInvalidArgument());
  EXPECT_TRUE(run(2, 0).IsInvalidArgument());
}

INSTANTIATE_TEST_SUITE_P(AllStrategies, OptionValidationTest,
                         ::testing::Values(StrategyKind::kBasic,
                                           StrategyKind::kBlockSplit,
                                           StrategyKind::kPairRange),
                         [](const auto& info) {
                           return lb::StrategyKindToName(info.param);
                         });

TEST(OptionValidationTest, SingleJobBasicRejectsInvalidOptions) {
  auto parts = PaperExamplePartitions();
  auto blocking = ExampleBlocking();
  er::LambdaMatcher matcher(
      [](const er::Entity&, const er::Entity&) { return false; }, "none");
  mr::JobRunner runner(2);
  MatchJobOptions options;
  options.num_reduce_tasks = 0;
  EXPECT_TRUE(
      lb::RunBasicSingleJob(parts, blocking, matcher, options, runner)
          .status()
          .IsInvalidArgument());
  options.num_reduce_tasks = 1;
  options.sub_splits = 0;
  EXPECT_TRUE(
      lb::RunBasicSingleJob(parts, blocking, matcher, options, runner)
          .status()
          .IsInvalidArgument());
}

}  // namespace
}  // namespace erlb
