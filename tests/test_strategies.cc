// End-to-end strategy tests on the paper's running examples plus
// parameterized equivalence sweeps: every strategy must produce exactly
// the reference match result and evaluate every candidate pair exactly
// once, for any (strategy, m, r, dataset) combination.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "core/reference.h"
#include "er/matcher.h"
#include "gen/skew_gen.h"
#include "lb/strategy.h"
#include "paper_example.h"
#include "strategy_test_util.h"

namespace erlb {
namespace {

using lb::StrategyKind;
using testing_util::ExampleBlocking;
using testing_util::ExampleId;
using testing_util::PaperExamplePartitions;
using testing_util::PaperTwoSourcePartitions;
using testing_util::PaperTwoSourceTags;
using testing_util::RunStrategy;

/// Matcher that accepts every pair — turns the match result into "the set
/// of compared pairs", making coverage directly observable.
er::LambdaMatcher AcceptAll() {
  return er::LambdaMatcher(
      [](const er::Entity&, const er::Entity&) { return true; },
      "accept-all");
}

/// All within-block pairs of the one-source paper example, by id.
std::set<er::MatchPair> PaperExampleAllPairs() {
  std::set<er::MatchPair> pairs;
  auto add_block = [&pairs](const std::string& members) {
    for (size_t i = 0; i < members.size(); ++i) {
      for (size_t j = i + 1; j < members.size(); ++j) {
        pairs.insert(
            er::MatchPair(ExampleId(members[i]), ExampleId(members[j])));
      }
    }
  };
  add_block("ABHI");   // w
  add_block("CJ");     // x
  add_block("DEK");    // y
  add_block("FGMNO");  // z
  return pairs;
}

class PaperExampleStrategyTest
    : public ::testing::TestWithParam<StrategyKind> {};

TEST_P(PaperExampleStrategyTest, ComparesExactlyAllWithinBlockPairs) {
  auto blocking = ExampleBlocking();
  auto matcher = AcceptAll();
  auto run = RunStrategy(GetParam(), PaperExamplePartitions(), blocking,
                         matcher, /*r=*/3);
  auto expected = PaperExampleAllPairs();
  EXPECT_EQ(run.comparisons, 20);
  ASSERT_EQ(run.matches.size(), expected.size());
  for (const auto& p : run.matches.pairs()) {
    EXPECT_TRUE(expected.count(p))
        << "unexpected pair (" << p.first << "," << p.second << ")";
  }
}

TEST_P(PaperExampleStrategyTest, NoDuplicateComparisons) {
  auto blocking = ExampleBlocking();
  auto matcher = AcceptAll();
  for (uint32_t r : {1u, 2u, 3u, 5u, 9u, 20u}) {
    auto run = RunStrategy(GetParam(), PaperExamplePartitions(), blocking,
                           matcher, r);
    // AcceptAll: matches == comparisons; no pair twice, none missing.
    EXPECT_EQ(run.comparisons, 20) << "r=" << r;
    EXPECT_EQ(run.matches.size(), 20u) << "r=" << r;
  }
}

INSTANTIATE_TEST_SUITE_P(AllStrategies, PaperExampleStrategyTest,
                         ::testing::Values(StrategyKind::kBasic,
                                           StrategyKind::kBlockSplit,
                                           StrategyKind::kPairRange),
                         [](const auto& info) {
                           return lb::StrategyKindToName(info.param);
                         });

TEST(BlockSplitPaperTest, Emits19KeyValuePairs) {
  // Figure 5: "the replication of the five entities for the split block
  // leads to 19 key-value pairs for the 14 input entities."
  auto blocking = ExampleBlocking();
  auto matcher = AcceptAll();
  auto run = RunStrategy(StrategyKind::kBlockSplit,
                         PaperExamplePartitions(), blocking, matcher, 3);
  EXPECT_EQ(run.map_output_pairs, 19);
}

TEST(PairRangePaperTest, Emits18KeyValuePairs) {
  // Per Figure 6/7: Φ0 contributes 4 single-range entities, Φ1 2, Φ2 3,
  // and Φ3 9 (F once, G/M/N/O twice) = 18.
  auto blocking = ExampleBlocking();
  auto matcher = AcceptAll();
  auto run = RunStrategy(StrategyKind::kPairRange,
                         PaperExamplePartitions(), blocking, matcher, 3);
  EXPECT_EQ(run.map_output_pairs, 18);
}

TEST(BasicPaperTest, EmitsOneKeyValuePairPerEntity) {
  // "The map output for Basic always equals the number of input entities."
  auto blocking = ExampleBlocking();
  auto matcher = AcceptAll();
  auto run = RunStrategy(StrategyKind::kBasic, PaperExamplePartitions(),
                         blocking, matcher, 3);
  EXPECT_EQ(run.map_output_pairs, 14);
}

TEST(PairRangePaperTest, PlanReduceInputsMatchFigure7) {
  // Reduce task 1 receives all 5 entities of Φ3 (plus Φ2's 3); reduce
  // task 2 receives all of Φ3 but F.
  auto blocking = ExampleBlocking();
  auto matcher = AcceptAll();
  auto run = RunStrategy(StrategyKind::kPairRange,
                         PaperExamplePartitions(), blocking, matcher, 3);
  auto strategy = lb::MakeStrategy(StrategyKind::kPairRange);
  lb::MatchJobOptions options;
  options.num_reduce_tasks = 3;
  auto plan = strategy->BuildPlan(run.bdm, options);
  ASSERT_TRUE(plan.ok());
  const lb::PlanStats& stats = plan->stats();
  ASSERT_EQ(stats.input_records_per_reduce_task.size(), 3u);
  EXPECT_EQ(stats.input_records_per_reduce_task[0], 6u);  // Φ0 + Φ1
  EXPECT_EQ(stats.input_records_per_reduce_task[1], 8u);  // Φ2 + all of Φ3
  EXPECT_EQ(stats.input_records_per_reduce_task[2], 4u);  // Φ3 minus F
  // Ranges sized 7,7,6 (P=20, r=3).
  EXPECT_EQ(stats.comparisons_per_reduce_task[0], 7u);
  EXPECT_EQ(stats.comparisons_per_reduce_task[1], 7u);
  EXPECT_EQ(stats.comparisons_per_reduce_task[2], 6u);
}

// ---------------------------------------------------------------------
// Parameterized equivalence sweep on generated skewed data.
// ---------------------------------------------------------------------

struct SweepParam {
  StrategyKind strategy;
  uint32_t m;
  uint32_t r;
  double skew;
};

class StrategyEquivalenceTest
    : public ::testing::TestWithParam<SweepParam> {};

TEST_P(StrategyEquivalenceTest, MatchesReferenceResult) {
  const auto& p = GetParam();
  gen::SkewConfig cfg;
  cfg.num_entities = 400;
  cfg.num_blocks = 12;
  cfg.skew = p.skew;
  cfg.duplicate_fraction = 0.3;
  cfg.seed = 1234;
  auto entities = gen::GenerateSkewed(cfg);
  ASSERT_TRUE(entities.ok());

  er::AttributeBlocking blocking(gen::kSkewBlockField);
  er::EditDistanceMatcher matcher(0.8);
  auto reference =
      core::ReferenceDeduplicate(*entities, blocking, matcher);
  ASSERT_GT(reference.size(), 0u);  // duplicates guarantee real matches

  er::Partitions parts = er::SplitIntoPartitions(*entities, p.m);
  auto run = RunStrategy(p.strategy, parts, blocking, matcher, p.r);
  EXPECT_TRUE(run.matches.SameAs(reference))
      << lb::StrategyKindToName(p.strategy) << " m=" << p.m << " r=" << p.r
      << " skew=" << p.skew << ": got " << run.matches.size()
      << " pairs, want " << reference.size();

  uint64_t expected_pairs =
      core::ReferencePairCount(*entities, blocking);
  EXPECT_EQ(static_cast<uint64_t>(run.comparisons), expected_pairs)
      << "every candidate pair must be compared exactly once";
}

std::vector<SweepParam> MakeSweep() {
  std::vector<SweepParam> params;
  for (auto strategy : {StrategyKind::kBasic, StrategyKind::kBlockSplit,
                        StrategyKind::kPairRange}) {
    for (uint32_t m : {1u, 2u, 4u, 7u}) {
      for (uint32_t r : {1u, 3u, 8u, 25u}) {
        for (double skew : {0.0, 0.4}) {
          params.push_back({strategy, m, r, skew});
        }
      }
    }
  }
  return params;
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, StrategyEquivalenceTest, ::testing::ValuesIn(MakeSweep()),
    [](const ::testing::TestParamInfo<SweepParam>& info) {
      const auto& p = info.param;
      return std::string(lb::StrategyKindToName(p.strategy)) + "_m" +
             std::to_string(p.m) + "_r" + std::to_string(p.r) + "_s" +
             std::to_string(static_cast<int>(p.skew * 10));
    });

// ---------------------------------------------------------------------
// Two-source equivalence.
// ---------------------------------------------------------------------

class TwoSourceStrategyTest
    : public ::testing::TestWithParam<std::tuple<StrategyKind, uint32_t>> {
};

TEST_P(TwoSourceStrategyTest, PaperAppendixExampleCoversAllCrossPairs) {
  auto [kind, r] = GetParam();
  auto blocking = ExampleBlocking();
  auto matcher = AcceptAll();
  auto tags = PaperTwoSourceTags();
  auto run = RunStrategy(kind, PaperTwoSourcePartitions(), blocking,
                         matcher, r, 4, &tags);
  // 12 cross pairs (Appendix I example); no within-source pairs.
  EXPECT_EQ(run.comparisons, 12);
  EXPECT_EQ(run.matches.size(), 12u);
  for (const auto& p : run.matches.pairs()) {
    // R ids are < 100, S ids >= 100: every pair must span both.
    EXPECT_LT(p.first, 100u);
    EXPECT_GE(p.second, 100u);
  }
}

/// Links generated R and S data with `kind` over input partitions laid
/// out as `layout` (one source tag per partition; R is split over the R
/// slots and S over the S slots, each in order) and compares the result
/// with core::ReferenceLink.
void ExpectLinkMatchesReference(StrategyKind kind, uint32_t r,
                                const std::vector<er::Source>& layout) {
  gen::SkewConfig cfg_r, cfg_s;
  cfg_r.num_entities = 150;
  cfg_r.num_blocks = 8;
  cfg_r.skew = 0.5;
  cfg_r.seed = 77;
  cfg_s.num_entities = 220;
  cfg_s.num_blocks = 8;
  cfg_s.skew = 0.2;
  cfg_s.seed = 99;
  auto r_entities = gen::GenerateSkewed(cfg_r);
  auto s_entities = gen::GenerateSkewed(cfg_s);
  ASSERT_TRUE(r_entities.ok());
  ASSERT_TRUE(s_entities.ok());
  // Re-id S to avoid id collisions and tag sources.
  for (auto& e : *s_entities) {
    e.id += 1000000;
    e.source = er::Source::kS;
  }
  for (auto& e : *r_entities) e.source = er::Source::kR;

  er::AttributeBlocking blocking(gen::kSkewBlockField);
  er::EditDistanceMatcher matcher(0.8);
  auto reference =
      core::ReferenceLink(*r_entities, *s_entities, blocking, matcher);

  const auto num_r = static_cast<uint32_t>(
      std::count(layout.begin(), layout.end(), er::Source::kR));
  auto r_parts = er::SplitIntoPartitions(*r_entities, num_r);
  auto s_parts = er::SplitIntoPartitions(
      *s_entities, static_cast<uint32_t>(layout.size()) - num_r);
  er::Partitions parts;
  size_t next_r = 0, next_s = 0;
  for (er::Source src : layout) {
    parts.push_back(std::move(src == er::Source::kR ? r_parts[next_r++]
                                                    : s_parts[next_s++]));
  }
  auto run = RunStrategy(kind, parts, blocking, matcher, r, 4, &layout);
  EXPECT_TRUE(run.matches.SameAs(reference))
      << lb::StrategyKindToName(kind) << " r=" << r << ": got "
      << run.matches.size() << " want " << reference.size();
  // Every cross pair of a block is compared exactly once: a pair
  // evaluated twice or never would not show in the match set.
  std::map<std::string, std::pair<int64_t, int64_t>> block_sizes;
  for (const auto& e : *r_entities) ++block_sizes[blocking.Key(e)].first;
  for (const auto& e : *s_entities) ++block_sizes[blocking.Key(e)].second;
  int64_t cross_pairs = 0;
  for (const auto& [key, sizes] : block_sizes) {
    cross_pairs += sizes.first * sizes.second;
  }
  EXPECT_EQ(run.comparisons, cross_pairs)
      << lb::StrategyKindToName(kind) << " r=" << r;
}

TEST_P(TwoSourceStrategyTest, MatchesReferenceLinkOnGeneratedData) {
  auto [kind, r] = GetParam();
  // 2 partitions of R, then 3 of S.
  ExpectLinkMatchesReference(kind, r,
                             {er::Source::kR, er::Source::kR, er::Source::kS,
                              er::Source::kS, er::Source::kS});
}

TEST_P(TwoSourceStrategyTest, MatchesReferenceLinkOnInterleavedSources) {
  auto [kind, r] = GetParam();
  // Sources interleaved: per-source entity index offsets must skip the
  // other source's partitions.
  ExpectLinkMatchesReference(kind, r,
                             {er::Source::kR, er::Source::kS, er::Source::kR,
                              er::Source::kS, er::Source::kS});
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, TwoSourceStrategyTest,
    ::testing::Combine(::testing::Values(StrategyKind::kBasic,
                                         StrategyKind::kBlockSplit,
                                         StrategyKind::kPairRange),
                       ::testing::Values(1u, 3u, 5u, 17u)),
    [](const auto& info) {
      return std::string(lb::StrategyKindToName(std::get<0>(info.param))) +
             "_r" + std::to_string(std::get<1>(info.param));
    });

// ---------------------------------------------------------------------
// Plan consistency: planned workloads equal executed workloads.
// ---------------------------------------------------------------------

class PlanConsistencyTest : public ::testing::TestWithParam<StrategyKind> {
};

TEST_P(PlanConsistencyTest, PlannedCountsMatchExecution) {
  gen::SkewConfig cfg;
  cfg.num_entities = 300;
  cfg.num_blocks = 10;
  cfg.skew = 0.6;
  cfg.seed = 5;
  auto entities = gen::GenerateSkewed(cfg);
  ASSERT_TRUE(entities.ok());
  er::AttributeBlocking blocking(gen::kSkewBlockField);
  auto matcher = AcceptAll();

  const uint32_t m = 3, r = 7;
  er::Partitions parts = er::SplitIntoPartitions(*entities, m);
  auto run = RunStrategy(GetParam(), parts, blocking, matcher, r);

  bdm::Bdm bdm = run.bdm;
  if (GetParam() == StrategyKind::kBasic) {
    // Basic ran without a BDM; build one for planning.
    std::vector<std::vector<std::string>> keys(m);
    for (uint32_t p = 0; p < m; ++p) {
      for (const auto& e : parts[p]) keys[p].push_back(blocking.Key(*e));
    }
    auto built = bdm::Bdm::FromKeys(keys);
    ASSERT_TRUE(built.ok());
    bdm = *built;
  }

  auto strategy = lb::MakeStrategy(GetParam());
  lb::MatchJobOptions options;
  options.num_reduce_tasks = r;
  auto plan = strategy->BuildPlan(bdm, options);
  ASSERT_TRUE(plan.ok());

  EXPECT_EQ(plan->stats().total_comparisons,
            static_cast<uint64_t>(run.comparisons));
  EXPECT_EQ(plan->stats().TotalMapOutputPairs(),
            static_cast<uint64_t>(run.map_output_pairs));
  uint64_t planned_sum = 0;
  for (uint64_t c : plan->stats().comparisons_per_reduce_task) planned_sum += c;
  EXPECT_EQ(planned_sum, plan->stats().total_comparisons);
}

INSTANTIATE_TEST_SUITE_P(AllStrategies, PlanConsistencyTest,
                         ::testing::Values(StrategyKind::kBasic,
                                           StrategyKind::kBlockSplit,
                                           StrategyKind::kPairRange),
                         [](const auto& info) {
                           return lb::StrategyKindToName(info.param);
                         });

// BlockSplit on sorted input still covers everything (Figure 11's setup).
TEST(BlockSplitSortedInputTest, SortedDataStillCorrect) {
  gen::SkewConfig cfg;
  cfg.num_entities = 250;
  cfg.num_blocks = 6;
  cfg.skew = 0.8;
  cfg.seed = 8;
  cfg.shuffle = false;  // generator emits block-by-block = sorted by key
  auto entities = gen::GenerateSkewed(cfg);
  ASSERT_TRUE(entities.ok());
  er::AttributeBlocking blocking(gen::kSkewBlockField);
  er::EditDistanceMatcher matcher(0.8);
  auto reference = core::ReferenceDeduplicate(*entities, blocking, matcher);
  er::Partitions parts = er::SplitIntoPartitions(*entities, 4);
  auto run = RunStrategy(StrategyKind::kBlockSplit, parts, blocking,
                         matcher, 6);
  EXPECT_TRUE(run.matches.SameAs(reference));
}

}  // namespace
}  // namespace erlb
