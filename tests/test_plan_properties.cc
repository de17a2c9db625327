// Property tests over randomized BDMs: BlockSplit's match-task plan must
// cover every within-block pair exactly once (verified by materializing
// pair sets), LPT must respect its theoretical bound, and PairRange's
// plans must tile the pair space.
#include <gtest/gtest.h>

#include <set>
#include <tuple>

#include "bdm/bdm.h"
#include "common/random.h"
#include "lb/block_split_plan.h"
#include "lb/pair_enum.h"
#include "lb/strategy.h"

namespace erlb {
namespace lb {
namespace {

/// Random one-source BDM: `blocks` blocks with sizes in [0, max_size]
/// scattered over `m` partitions.
bdm::Bdm RandomBdm(uint32_t blocks, uint32_t m, uint32_t max_size,
                   uint64_t seed) {
  Pcg32 rng(seed);
  std::vector<std::vector<std::string>> keys(m);
  for (uint32_t b = 0; b < blocks; ++b) {
    std::string key = "blk" + std::to_string(b);
    uint32_t size = rng.NextBounded(max_size + 1);
    for (uint32_t i = 0; i < size; ++i) {
      keys[rng.NextBounded(m)].push_back(key);
    }
  }
  auto bdm = bdm::Bdm::FromKeys(keys);
  EXPECT_TRUE(bdm.ok());
  return std::move(bdm).ValueOrDie();
}

/// Materializes the set of (block, global_x, global_y) pairs a BlockSplit
/// plan evaluates, using the same entity->virtual-partition assignment
/// the mapper uses.
std::set<std::tuple<uint32_t, uint64_t, uint64_t>> MaterializePairs(
    const bdm::Bdm& bdm, const BlockSplitPlan& plan, uint32_t sub) {
  // Global entity index of each (block, virtual partition, local slot).
  // Entities are indexed per block in partition order (like PairRange's
  // enumeration), which is exactly the order chunks slice.
  std::set<std::tuple<uint32_t, uint64_t, uint64_t>> pairs;
  const uint32_t mv = bdm.num_partitions() * sub;
  for (uint32_t k = 0; k < bdm.num_blocks(); ++k) {
    // entity ids of virtual partition v, in order
    std::vector<std::vector<uint64_t>> members(mv);
    for (uint32_t p = 0; p < bdm.num_partitions(); ++p) {
      uint64_t base = bdm.EntityIndexOffset(k, p);
      uint64_t n = bdm.Size(k, p);
      for (uint64_t local = 0; local < n; ++local) {
        uint32_t chunk = 0;
        while (chunk + 1 < sub && local >= n * (chunk + 1) / sub) ++chunk;
        members[p * sub + chunk].push_back(base + local);
      }
    }
    if (!plan.IsSplit(k)) {
      if (plan.ReduceTaskFor(k, 0, 0).has_value()) {
        std::vector<uint64_t> all;
        for (const auto& mv_list : members) {
          all.insert(all.end(), mv_list.begin(), mv_list.end());
        }
        for (size_t i = 0; i < all.size(); ++i) {
          for (size_t j = i + 1; j < all.size(); ++j) {
            pairs.insert({k, std::min(all[i], all[j]),
                          std::max(all[i], all[j])});
          }
        }
      }
      continue;
    }
    for (const auto& task : plan.tasks()) {
      if (task.block != k) continue;
      if (task.pi == task.pj) {
        const auto& mem = members[task.pi];
        for (size_t i = 0; i < mem.size(); ++i) {
          for (size_t j = i + 1; j < mem.size(); ++j) {
            pairs.insert({k, std::min(mem[i], mem[j]),
                          std::max(mem[i], mem[j])});
          }
        }
      } else {
        for (uint64_t a : members[task.pi]) {
          for (uint64_t b : members[task.pj]) {
            auto inserted =
                pairs.insert({k, std::min(a, b), std::max(a, b)});
            EXPECT_TRUE(inserted.second)
                << "pair evaluated twice: block " << k << " (" << a << ","
                << b << ")";
          }
        }
      }
    }
  }
  return pairs;
}

class BlockSplitCoverageTest
    : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(BlockSplitCoverageTest, EveryPairExactlyOnce) {
  auto [seed, r, sub] = GetParam();
  auto bdm = RandomBdm(9, 4, 25, seed);
  auto plan = BlockSplitPlan::Build(bdm, r, TaskAssignment::kGreedyLpt,
                                    sub);
  ASSERT_TRUE(plan.ok());
  auto pairs = MaterializePairs(bdm, *plan, sub);
  // Expected: all within-block pairs of blocks with >= 2 entities.
  uint64_t expected = 0;
  for (uint32_t k = 0; k < bdm.num_blocks(); ++k) {
    expected += bdm.view(k).pairs();
  }
  EXPECT_EQ(pairs.size(), expected);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, BlockSplitCoverageTest,
    ::testing::Combine(::testing::Values(1, 2, 3, 4),    // seed
                       ::testing::Values(1, 3, 10),      // r
                       ::testing::Values(1, 2, 4)),      // sub_splits
    [](const auto& info) {
      return "seed" + std::to_string(std::get<0>(info.param)) + "_r" +
             std::to_string(std::get<1>(info.param)) + "_sub" +
             std::to_string(std::get<2>(info.param));
    });

TEST(BlockSplitLptBoundTest, MaxLoadWithinLptGuarantee) {
  // LPT list scheduling guarantees max <= avg + largest task.
  for (uint64_t seed : {10u, 20u, 30u, 40u}) {
    auto bdm = RandomBdm(12, 5, 40, seed);
    for (uint32_t r : {2u, 4u, 8u}) {
      auto plan = BlockSplitPlan::Build(bdm, r);
      ASSERT_TRUE(plan.ok());
      uint64_t largest_task = 0;
      for (const auto& t : plan->tasks()) {
        largest_task = std::max(largest_task, t.comparisons);
      }
      uint64_t max_load = 0;
      for (uint64_t l : plan->comparisons_per_reduce_task()) {
        max_load = std::max(max_load, l);
      }
      double avg =
          static_cast<double>(bdm.TotalPairs()) / r;
      EXPECT_LE(max_load, avg + largest_task + 1)
          << "seed=" << seed << " r=" << r;
    }
  }
}

TEST(PairRangePlanTilingTest, RangesTileThePairSpace) {
  for (uint64_t seed : {5u, 6u, 7u}) {
    auto bdm = RandomBdm(10, 3, 30, seed);
    auto strategy = MakeStrategy(StrategyKind::kPairRange);
    for (uint32_t r : {1u, 3u, 11u, 64u}) {
      MatchJobOptions options;
      options.num_reduce_tasks = r;
      auto plan = strategy->BuildPlan(bdm, options);
      ASSERT_TRUE(plan.ok());
      uint64_t total = 0;
      uint64_t expected_per = PairsPerRange(bdm.TotalPairs(), r);
      for (uint32_t t = 0; t < r; ++t) {
        uint64_t c = plan->stats().comparisons_per_reduce_task[t];
        total += c;
        EXPECT_LE(c, expected_per);
      }
      EXPECT_EQ(total, bdm.TotalPairs()) << "seed=" << seed << " r=" << r;
    }
  }
}

TEST(PlanImbalanceOrderingTest, PairRangeNeverWorseThanBlockSplit) {
  // PairRange's per-task comparison counts are provably within one of
  // perfectly uniform, so its imbalance is a lower bound.
  for (uint64_t seed : {1u, 9u, 42u}) {
    auto bdm = RandomBdm(8, 4, 50, seed);
    if (bdm.TotalPairs() == 0) continue;
    for (uint32_t r : {2u, 5u, 16u}) {
      MatchJobOptions options;
      options.num_reduce_tasks = r;
      auto range_plan =
          MakeStrategy(StrategyKind::kPairRange)->BuildPlan(bdm, options);
      auto split_plan =
          MakeStrategy(StrategyKind::kBlockSplit)->BuildPlan(bdm, options);
      auto basic_plan =
          MakeStrategy(StrategyKind::kBasic)->BuildPlan(bdm, options);
      ASSERT_TRUE(range_plan.ok());
      ASSERT_TRUE(split_plan.ok());
      ASSERT_TRUE(basic_plan.ok());
      EXPECT_LE(range_plan->stats().ReduceImbalance(),
                split_plan->stats().ReduceImbalance() + 1e-9);
      EXPECT_LE(range_plan->stats().ReduceImbalance(),
                basic_plan->stats().ReduceImbalance() + 1e-9);
    }
  }
}

TEST(PlanTotalsTest, AllStrategiesAgreeOnTotalComparisons) {
  auto bdm = RandomBdm(15, 6, 35, 77);
  MatchJobOptions options;
  options.num_reduce_tasks = 9;
  uint64_t expected = bdm.TotalPairs();
  for (auto kind : AllStrategyKinds()) {
    auto plan = MakeStrategy(kind)->BuildPlan(bdm, options);
    ASSERT_TRUE(plan.ok());
    uint64_t total = 0;
    for (uint64_t c : plan->stats().comparisons_per_reduce_task) total += c;
    EXPECT_EQ(total, expected) << StrategyKindToName(kind);
    EXPECT_EQ(plan->stats().total_comparisons, expected)
        << StrategyKindToName(kind);
  }
}

}  // namespace
}  // namespace lb
}  // namespace erlb
