// Regression tests for bugs found during development — each encodes the
// exact failing scenario so it cannot reappear.
#include <gtest/gtest.h>

#include "core/reference.h"
#include "er/matcher.h"
#include "gen/skew_gen.h"
#include "lb/pair_enum.h"
#include "lb/strategy.h"
#include "strategy_test_util.h"

namespace erlb {
namespace {

using lb::StrategyKind;
using testing_util::RunStrategy;

// -----------------------------------------------------------------------
// Algorithm 2's literal pseudo-code `return`s from the whole reduce call
// when a pair's range exceeds the task's range. The scan order (x2, x1)
// is not global pair order, so that drops in-range pairs. Minimal
// analytic case: one block of N=6 entities, P=15, r=3, range 1 = pairs
// [5,9]. Scanning e2=4 hits pair (2,4)=10 (> range) before pair
// (1,5)=8 (in range) is ever reached. The correct behavior (`break` the
// buffer scan only) must still evaluate (1,5).
// -----------------------------------------------------------------------
TEST(PairRangeReturnBugRegression, MinimalCounterexample) {
  // Verify the arithmetic of the counterexample first.
  EXPECT_EQ(lb::CellIndex(2, 4, 6), 10u);
  EXPECT_EQ(lb::CellIndex(1, 5, 6), 8u);
  EXPECT_EQ(lb::RangeOfPair(10, 15, 3), 2u);
  EXPECT_EQ(lb::RangeOfPair(8, 15, 3), 1u);

  // One block "b" with 6 entities in one partition; accept-all matcher
  // makes the match result the set of evaluated pairs.
  er::Partitions parts(1);
  for (uint64_t i = 1; i <= 6; ++i) {
    er::Entity e;
    e.id = i;
    e.fields = {"t", "b"};
    parts[0].push_back(er::MakeEntityRef(std::move(e)));
  }
  er::AttributeBlocking blocking(1);
  er::LambdaMatcher all(
      [](const er::Entity&, const er::Entity&) { return true; }, "all");
  auto run =
      RunStrategy(StrategyKind::kPairRange, parts, blocking, all, 3);
  EXPECT_EQ(run.comparisons, 15);
  EXPECT_EQ(run.matches.size(), 15u);
  // The specific pair the buggy `return` drops:
  bool found = false;
  for (const auto& p : run.matches.pairs()) {
    if (p.first == 2 && p.second == 6) found = true;  // ids are 1-based
  }
  EXPECT_TRUE(found) << "pair (x1=1, x2=5) was dropped";
}

// The original failing sweep configuration (m=7, r=8) from the
// equivalence tests.
TEST(PairRangeReturnBugRegression, OriginalSweepConfiguration) {
  gen::SkewConfig cfg;
  cfg.num_entities = 400;
  cfg.num_blocks = 12;
  cfg.skew = 0.0;
  cfg.duplicate_fraction = 0.3;
  cfg.seed = 1234;
  auto entities = gen::GenerateSkewed(cfg);
  ASSERT_TRUE(entities.ok());
  er::AttributeBlocking blocking(gen::kSkewBlockField);
  er::EditDistanceMatcher matcher(0.8);
  auto reference = core::ReferenceDeduplicate(*entities, blocking, matcher);
  er::Partitions parts = er::SplitIntoPartitions(*entities, 7);
  auto run = RunStrategy(StrategyKind::kPairRange, parts, blocking,
                         matcher, 8);
  EXPECT_TRUE(run.matches.SameAs(reference));
  EXPECT_EQ(static_cast<uint64_t>(run.comparisons),
            core::ReferencePairCount(*entities, blocking));
}

// -----------------------------------------------------------------------
// Two-source pair offset: the appendix's o(i) formula carries a spurious
// "−1" that would shift every pair index. The first pair of the first
// non-empty block must have index 0 (Figure 15(b) starts at 0).
// -----------------------------------------------------------------------
TEST(TwoSourceOffsetRegression, FirstPairIndexIsZero) {
  std::vector<er::Source> tags{er::Source::kR, er::Source::kS};
  auto bdm = bdm::Bdm::FromKeys({{"a", "a"}, {"a", "a", "a"}}, &tags);
  ASSERT_TRUE(bdm.ok());
  EXPECT_EQ(bdm->view(0).pair_offset(), 0u);
  EXPECT_EQ(bdm->TotalPairs(), 6u);
  // Pair (x=0, y=0) gets global index 0 + 0*3 + 0 = 0.
  EXPECT_EQ(lb::CellIndexDual(0, 0, 3), 0u);
}

// -----------------------------------------------------------------------
// BlockSplit unsplit sentinel (k, 0, 0) must not collide with the split
// self task of partition 0 chunk 0, which uses the same key triple: the
// two can never coexist for one block, and the reducer distinguishes
// them via IsSplit. A block exactly at the average must NOT be split
// ("if comps <= compsPerReduceTask" keeps it whole).
// -----------------------------------------------------------------------
TEST(BlockSplitThresholdRegression, BlockAtAverageStaysWhole) {
  // Two blocks with 10 pairs each, r=2 -> avg = 10; neither splits.
  std::vector<std::string> five_a(5, "a"), five_b(5, "b");
  std::vector<std::vector<std::string>> keys{five_a, five_b};
  auto bdm = bdm::Bdm::FromKeys(keys);
  ASSERT_TRUE(bdm.ok());
  ASSERT_EQ(bdm->TotalPairs(), 20u);
  auto plan = lb::BlockSplitPlan::Build(*bdm, 2);
  ASSERT_TRUE(plan.ok());
  EXPECT_FALSE(plan->IsSplit(0));
  EXPECT_FALSE(plan->IsSplit(1));
  ASSERT_EQ(plan->tasks().size(), 2u);
  // One more pair in block 0 pushes it over the average -> split.
  std::vector<std::vector<std::string>> keys2{
      {"a", "a", "a", "a", "a", "a"}, five_b};
  auto bdm2 = bdm::Bdm::FromKeys(keys2);
  ASSERT_TRUE(bdm2.ok());
  auto plan2 = lb::BlockSplitPlan::Build(*bdm2, 2);
  ASSERT_TRUE(plan2.ok());
  EXPECT_TRUE(plan2->IsSplit(0));  // 15 > (15+10)/2 = 12
  EXPECT_FALSE(plan2->IsSplit(1));
}

// -----------------------------------------------------------------------
// Entities of a split block living in a single partition must still be
// fully compared (the k.i self task covers them) — the sorted-input
// setup of Figure 11.
// -----------------------------------------------------------------------
TEST(BlockSplitSinglePartitionSplitRegression, SelfTaskCoversAll) {
  er::Partitions parts(3);
  for (uint64_t i = 1; i <= 20; ++i) {
    er::Entity e;
    e.id = i;
    e.fields = {"t", "big"};
    parts[0].push_back(er::MakeEntityRef(std::move(e)));
  }
  for (uint64_t i = 21; i <= 24; ++i) {
    er::Entity e;
    e.id = i;
    e.fields = {"t", i <= 22 ? "s1" : "s2"};
    parts[i % 2 + 1].push_back(er::MakeEntityRef(std::move(e)));
  }
  er::AttributeBlocking blocking(1);
  er::LambdaMatcher all(
      [](const er::Entity&, const er::Entity&) { return true; }, "all");
  auto run = RunStrategy(StrategyKind::kBlockSplit, parts, blocking, all,
                         6);
  // big: C(20,2)=190; s1: 1; s2: 1.
  EXPECT_EQ(run.comparisons, 192);
  EXPECT_EQ(run.matches.size(), 192u);
}

}  // namespace
}  // namespace erlb
