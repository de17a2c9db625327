// Plan-vs-execution differential tests: the MatchPlan built from the BDM
// alone must predict the executed matching job *exactly*, per task — the
// paper's central claim, checked for all three strategies, one- and
// two-source, across reduce task counts. Executed per-reduce-task
// comparison counts, per-reduce-task input records, and per-map-task
// emitted KV pairs must equal the plan's vectors element-wise.
#include <gtest/gtest.h>

#include <string>
#include <tuple>
#include <vector>

#include "er/matcher.h"
#include "gen/skew_gen.h"
#include "lb/strategy.h"
#include "paper_example.h"
#include "strategy_test_util.h"

namespace erlb {
namespace {

using lb::StrategyKind;
using testing_util::ExampleBlocking;
using testing_util::PaperExamplePartitions;
using testing_util::PaperTwoSourcePartitions;
using testing_util::PaperTwoSourceTags;
using testing_util::PlanExecutionRun;
using testing_util::RunWithPlan;

er::LambdaMatcher AcceptAll() {
  return er::LambdaMatcher(
      [](const er::Entity&, const er::Entity&) { return true; },
      "accept-all");
}

/// Every per-task planned vector must equal its executed counterpart.
void ExpectPlanMatchesExecution(const PlanExecutionRun& run,
                                const std::string& label) {
  const lb::PlanStats& stats = run.plan.stats();
  EXPECT_EQ(stats.comparisons_per_reduce_task,
            run.ExecutedReduceComparisons())
      << label << ": planned vs executed comparisons per reduce task";
  EXPECT_EQ(stats.input_records_per_reduce_task,
            run.ExecutedReduceInputRecords())
      << label << ": planned vs executed reduce input records";
  EXPECT_EQ(stats.map_output_pairs_per_task, run.ExecutedMapOutputPairs())
      << label << ": planned vs executed map output pairs";
  EXPECT_EQ(stats.total_comparisons,
            static_cast<uint64_t>(run.comparisons))
      << label << ": planned vs executed total comparisons";
}

struct DiffParam {
  StrategyKind strategy;
  uint32_t m;
  uint32_t r;
  double skew;
};

class OneSourceDifferentialTest
    : public ::testing::TestWithParam<DiffParam> {};

TEST_P(OneSourceDifferentialTest, ExecutionHonorsPlanExactly) {
  const auto& p = GetParam();
  gen::SkewConfig cfg;
  cfg.num_entities = 350;
  cfg.num_blocks = 11;
  cfg.skew = p.skew;
  cfg.duplicate_fraction = 0.25;
  cfg.seed = 4242;
  auto entities = gen::GenerateSkewed(cfg);
  ASSERT_TRUE(entities.ok());
  er::AttributeBlocking blocking(gen::kSkewBlockField);
  auto matcher = AcceptAll();

  er::Partitions parts = er::SplitIntoPartitions(*entities, p.m);
  auto run = RunWithPlan(p.strategy, parts, blocking, matcher, p.r);
  ExpectPlanMatchesExecution(
      run, std::string(lb::StrategyKindToName(p.strategy)) + " m=" +
               std::to_string(p.m) + " r=" + std::to_string(p.r));
}

std::vector<DiffParam> MakeDiffSweep() {
  std::vector<DiffParam> params;
  for (auto strategy : {StrategyKind::kBasic, StrategyKind::kBlockSplit,
                        StrategyKind::kPairRange}) {
    for (uint32_t m : {1u, 3u, 5u}) {
      for (uint32_t r : {1u, 4u, 13u}) {
        params.push_back({strategy, m, r, 0.5});
      }
    }
    params.push_back({strategy, 4, 7, 0.0});
  }
  return params;
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, OneSourceDifferentialTest, ::testing::ValuesIn(MakeDiffSweep()),
    [](const ::testing::TestParamInfo<DiffParam>& info) {
      const auto& p = info.param;
      return std::string(lb::StrategyKindToName(p.strategy)) + "_m" +
             std::to_string(p.m) + "_r" + std::to_string(p.r) + "_s" +
             std::to_string(static_cast<int>(p.skew * 10));
    });

class TwoSourceDifferentialTest
    : public ::testing::TestWithParam<std::tuple<StrategyKind, uint32_t>> {
};

TEST_P(TwoSourceDifferentialTest, PaperAppendixExample) {
  auto [kind, r] = GetParam();
  auto blocking = ExampleBlocking();
  auto matcher = AcceptAll();
  auto tags = PaperTwoSourceTags();
  auto run = RunWithPlan(kind, PaperTwoSourcePartitions(), blocking,
                         matcher, r, 4, &tags);
  ExpectPlanMatchesExecution(run, std::string(lb::StrategyKindToName(kind)) +
                                      " two-source r=" + std::to_string(r));
}

TEST_P(TwoSourceDifferentialTest, GeneratedLinkage) {
  auto [kind, r] = GetParam();
  gen::SkewConfig cfg_r, cfg_s;
  cfg_r.num_entities = 120;
  cfg_r.num_blocks = 7;
  cfg_r.skew = 0.6;
  cfg_r.seed = 31;
  cfg_s.num_entities = 180;
  cfg_s.num_blocks = 7;
  cfg_s.skew = 0.3;
  cfg_s.seed = 32;
  auto r_entities = gen::GenerateSkewed(cfg_r);
  auto s_entities = gen::GenerateSkewed(cfg_s);
  ASSERT_TRUE(r_entities.ok());
  ASSERT_TRUE(s_entities.ok());
  for (auto& e : *s_entities) {
    e.id += 1000000;
    e.source = er::Source::kS;
  }
  for (auto& e : *r_entities) e.source = er::Source::kR;

  er::AttributeBlocking blocking(gen::kSkewBlockField);
  auto matcher = AcceptAll();
  // R partitions first, then interleaved with S: PairRange's per-source
  // entity index offsets must skip the other source's partitions, or
  // the executed per-task counts drift from the plan.
  const std::vector<std::vector<er::Source>> layouts = {
      {er::Source::kR, er::Source::kR, er::Source::kS, er::Source::kS,
       er::Source::kS},
      {er::Source::kR, er::Source::kS, er::Source::kR, er::Source::kS,
       er::Source::kS}};
  for (const auto& tags : layouts) {
    auto r_parts = er::SplitIntoPartitions(*r_entities, 2);
    auto s_parts = er::SplitIntoPartitions(*s_entities, 3);
    er::Partitions parts;
    size_t next_r = 0, next_s = 0;
    std::string layout;
    for (er::Source src : tags) {
      const bool is_r = src == er::Source::kR;
      parts.push_back(std::move(is_r ? r_parts[next_r++] : s_parts[next_s++]));
      layout += is_r ? 'R' : 'S';
    }
    auto run = RunWithPlan(kind, parts, blocking, matcher, r, 4, &tags);
    ExpectPlanMatchesExecution(
        run, std::string(lb::StrategyKindToName(kind)) + " linkage r=" +
                 std::to_string(r) + " layout " + layout);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, TwoSourceDifferentialTest,
    ::testing::Combine(::testing::Values(StrategyKind::kBasic,
                                         StrategyKind::kBlockSplit,
                                         StrategyKind::kPairRange),
                       ::testing::Values(1u, 3u, 9u)),
    [](const auto& info) {
      return std::string(lb::StrategyKindToName(std::get<0>(info.param))) +
             "_r" + std::to_string(std::get<1>(info.param));
    });

// BlockSplit's sub-split extension must stay exactly plannable too.
TEST(SubSplitDifferentialTest, SubSplitsHonorPlanExactly) {
  auto blocking = ExampleBlocking();
  auto matcher = AcceptAll();
  for (uint32_t sub : {2u, 4u}) {
    auto run = RunWithPlan(StrategyKind::kBlockSplit,
                           PaperExamplePartitions(), blocking, matcher,
                           /*r=*/3, /*workers=*/4, nullptr,
                           lb::TaskAssignment::kGreedyLpt, sub);
    ExpectPlanMatchesExecution(run, "BlockSplit sub=" + std::to_string(sub));
  }
}

}  // namespace
}  // namespace erlb
