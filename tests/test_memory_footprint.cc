// Reproduces the paper's memory argument (Section III): "processing
// large blocks may also lead to serious memory problems because ... a
// reduce task must store all entities passed to a reduce call in main
// memory". Basic's reduce buffer peaks at the largest block size, while
// BlockSplit only ever buffers one sub-block side of a match task.
#include <gtest/gtest.h>

#include "er/matcher.h"
#include "gen/skew_gen.h"
#include "lb/reduce_helpers.h"
#include "strategy_test_util.h"

namespace erlb {
namespace {

using testing_util::RunWithPlan;

/// Max per-task buffer peak across a job's reduce tasks.
int64_t MaxBufferPeak(const mr::JobMetrics& metrics) {
  int64_t peak = 0;
  for (const auto& t : metrics.reduce_tasks) {
    peak = std::max(peak, t.counters.Get(lb::kCounterBufferPeak));
  }
  return peak;
}

TEST(MemoryFootprintTest, BasicBuffersWholeBlocksBalancersDoNot) {
  gen::SkewConfig cfg;
  cfg.num_entities = 2000;
  cfg.num_blocks = 20;
  cfg.skew = 0.9;  // one dominant block
  cfg.seed = 33;
  auto entities = gen::GenerateSkewed(cfg);
  ASSERT_TRUE(entities.ok());
  er::AttributeBlocking blocking(gen::kSkewBlockField);
  er::LambdaMatcher cheap(
      [](const er::Entity&, const er::Entity&) { return false; }, "none");

  const uint32_t m = 8, r = 16;
  er::Partitions parts = er::SplitIntoPartitions(*entities, m);
  auto peak = [&](lb::StrategyKind kind) {
    return MaxBufferPeak(
        RunWithPlan(kind, parts, blocking, cheap, r, 2).metrics);
  };

  // Largest block size from the BDM.
  auto basic =
      RunWithPlan(lb::StrategyKind::kBasic, parts, blocking, cheap, r, 2);
  const int64_t largest_block =
      static_cast<int64_t>(basic.bdm.view(basic.bdm.LargestBlock()).size());
  ASSERT_GT(largest_block, 500);

  // Basic: reduce must hold the entire largest block.
  EXPECT_EQ(MaxBufferPeak(basic.metrics), largest_block);

  // BlockSplit: buffers at most one sub-block of the split block (~1/m of
  // it) or one unsplit block.
  EXPECT_LT(peak(lb::StrategyKind::kBlockSplit), largest_block / 2);

  // PairRange: buffers the entities of one (range, block) group. That
  // can be the whole dominant block — the paper's own example sends all
  // of Φ3 to one reduce task — so only an upper bound holds.
  EXPECT_LE(peak(lb::StrategyKind::kPairRange), largest_block);
}

TEST(MemoryFootprintTest, SubSplitShrinksBuffersFurther) {
  gen::SkewConfig cfg;
  cfg.num_entities = 1500;
  cfg.num_blocks = 10;
  cfg.skew = 1.2;
  cfg.seed = 7;
  cfg.shuffle = false;  // sorted-ish: block concentrated in few partitions
  auto entities = gen::GenerateSkewed(cfg);
  ASSERT_TRUE(entities.ok());
  er::AttributeBlocking blocking(gen::kSkewBlockField);
  er::LambdaMatcher cheap(
      [](const er::Entity&, const er::Entity&) { return false; }, "none");
  er::Partitions parts = er::SplitIntoPartitions(*entities, 4);
  int64_t peak_s1 = 0, peak_s4 = 0;
  for (uint32_t sub : {1u, 4u}) {
    (sub == 1 ? peak_s1 : peak_s4) = MaxBufferPeak(
        RunWithPlan(lb::StrategyKind::kBlockSplit, parts, blocking, cheap, 8,
                    2, nullptr, lb::TaskAssignment::kGreedyLpt, sub)
            .metrics);
  }
  EXPECT_LT(peak_s4, peak_s1);
}

}  // namespace
}  // namespace erlb
