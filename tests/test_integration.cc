// End-to-end integration tests and adversarial edge cases: full pipeline
// over DS1-like data with clustering + evaluation, binary-unsafe titles,
// degenerate block layouts, id collisions across partitions, and
// worker-count invariance.
#include <gtest/gtest.h>

#include <string>

#include "core/pipeline.h"
#include "core/reference.h"
#include "er/clustering.h"
#include "er/evaluation.h"
#include "er/matcher.h"
#include "gen/product_gen.h"
#include "gen/skew_gen.h"
#include "strategy_test_util.h"

namespace erlb {
namespace {

using lb::StrategyKind;
using testing_util::RunStrategy;

TEST(IntegrationTest, FullDs1SmallPipelineWithClustering) {
  gen::ProductConfig cfg;
  cfg.num_entities = 3000;
  cfg.duplicate_fraction = 0.25;
  cfg.seed = 5;
  auto entities = gen::GenerateProducts(cfg);
  ASSERT_TRUE(entities.ok());
  er::PrefixBlocking blocking(0, 3);
  er::EditDistanceMatcher matcher(0.8);

  core::ErPipelineConfig pcfg;
  pcfg.strategy = StrategyKind::kBlockSplit;
  pcfg.num_map_tasks = 6;
  pcfg.num_reduce_tasks = 24;
  core::ErPipeline pipeline(pcfg);
  auto result = pipeline.Deduplicate(*entities, blocking, matcher);
  ASSERT_TRUE(result.ok());

  // Clustering the pairwise result yields consistent counts.
  auto clusters = er::ClusterMatches(result->matches);
  ASSERT_GT(clusters.size(), 10u);
  size_t members = 0;
  for (const auto& c : clusters) {
    EXPECT_GE(c.size(), 2u);
    members += c.size();
  }
  EXPECT_LE(members, entities->size());
  // The transitive closure is a superset of the pairwise matches.
  auto closed = er::ClustersToPairs(clusters);
  er::MatchResult canon = result->matches;
  canon.Canonicalize();
  EXPECT_GE(closed.size(), canon.size());

  // Quality against generator truth is sane.
  auto quality = er::EvaluateMatches(*entities, result->matches);
  EXPECT_GT(quality.Recall(), 0.8);
  EXPECT_GT(quality.Precision(), 0.3);
}

TEST(IntegrationTest, WorkerCountDoesNotChangeAnyCounter) {
  gen::SkewConfig cfg;
  cfg.num_entities = 600;
  cfg.num_blocks = 15;
  cfg.skew = 0.5;
  cfg.seed = 77;
  auto entities = gen::GenerateSkewed(cfg);
  ASSERT_TRUE(entities.ok());
  er::AttributeBlocking blocking(gen::kSkewBlockField);
  er::EditDistanceMatcher matcher(0.8);

  int64_t base_comparisons = -1;
  er::MatchResult base_matches;
  for (uint32_t workers : {1u, 2u, 5u}) {
    core::ErPipelineConfig pcfg;
    pcfg.strategy = StrategyKind::kPairRange;
    pcfg.num_map_tasks = 4;
    pcfg.num_reduce_tasks = 9;
    pcfg.num_workers = workers;
    core::ErPipeline pipeline(pcfg);
    auto result = pipeline.Deduplicate(*entities, blocking, matcher);
    ASSERT_TRUE(result.ok());
    if (base_comparisons < 0) {
      base_comparisons = result->comparisons;
      base_matches = result->matches;
    } else {
      EXPECT_EQ(result->comparisons, base_comparisons);
      EXPECT_TRUE(result->matches.SameAs(base_matches));
    }
  }
}

TEST(IntegrationTest, BinaryBytesInTitlesAreHandled) {
  // Titles containing NUL-adjacent bytes, commas, quotes, newlines:
  // blocking and matching are byte-oriented and must not corrupt.
  std::vector<er::Entity> entities;
  auto add = [&](uint64_t id, std::string title) {
    er::Entity e;
    e.id = id;
    e.fields = {std::move(title)};
    entities.push_back(std::move(e));
  };
  add(1, std::string("abc\x01\x02 weird"));
  add(2, std::string("abc\x01\x02 weird!"));
  add(3, "abc\"quoted\", comma");
  add(4, "xyz\nnewline");
  add(5, "xyz\nnewline2");

  er::PrefixBlocking blocking(0, 3);
  er::EditDistanceMatcher matcher(0.8);
  auto reference = core::ReferenceDeduplicate(entities, blocking, matcher);

  for (auto kind : lb::AllStrategyKinds()) {
    core::ErPipelineConfig pcfg;
    pcfg.strategy = kind;
    pcfg.num_map_tasks = 2;
    pcfg.num_reduce_tasks = 3;
    core::ErPipeline pipeline(pcfg);
    auto result = pipeline.Deduplicate(entities, blocking, matcher);
    ASSERT_TRUE(result.ok()) << lb::StrategyKindToName(kind);
    EXPECT_TRUE(result->matches.SameAs(reference))
        << lb::StrategyKindToName(kind);
  }
}

TEST(IntegrationTest, OneEntityPerBlockProducesNoPairs) {
  std::vector<er::Entity> entities;
  for (uint64_t i = 0; i < 50; ++i) {
    er::Entity e;
    e.id = i + 1;
    // Lvalue suffix sidesteps GCC 12's false-positive -Wrestrict on the
    // (const char* + string&&) overload (GCC PR105651).
    const std::string suffix = std::to_string(i);
    e.fields = {"t" + suffix, "block" + suffix};
    entities.push_back(std::move(e));
  }
  er::AttributeBlocking blocking(1);
  er::EditDistanceMatcher matcher(0.8);
  for (auto kind : lb::AllStrategyKinds()) {
    core::ErPipelineConfig pcfg;
    pcfg.strategy = kind;
    pcfg.num_map_tasks = 3;
    pcfg.num_reduce_tasks = 5;
    core::ErPipeline pipeline(pcfg);
    auto result = pipeline.Deduplicate(entities, blocking, matcher);
    ASSERT_TRUE(result.ok()) << lb::StrategyKindToName(kind);
    EXPECT_EQ(result->comparisons, 0) << lb::StrategyKindToName(kind);
    EXPECT_TRUE(result->matches.empty()) << lb::StrategyKindToName(kind);
  }
}

TEST(IntegrationTest, SingleGiantBlock) {
  // Every entity in one block: P = C(n,2); all strategies must evaluate
  // exactly P pairs even when the block dwarfs the average workload.
  const uint64_t n = 120;
  std::vector<er::Entity> entities;
  for (uint64_t i = 0; i < n; ++i) {
    er::Entity e;
    e.id = i + 1;
    e.fields = {"title " + std::to_string(i), "same"};
    entities.push_back(std::move(e));
  }
  er::AttributeBlocking blocking(1);
  er::LambdaMatcher all(
      [](const er::Entity&, const er::Entity&) { return true; }, "all");
  const int64_t expected = static_cast<int64_t>(n * (n - 1) / 2);
  for (auto kind : lb::AllStrategyKinds()) {
    er::Partitions parts = er::SplitIntoPartitions(entities, 4);
    auto run = RunStrategy(kind, parts, blocking, all, 10);
    EXPECT_EQ(run.comparisons, expected) << lb::StrategyKindToName(kind);
    EXPECT_EQ(run.matches.size(), static_cast<size_t>(expected))
        << lb::StrategyKindToName(kind);
  }
}

TEST(IntegrationTest, DuplicateEntityIdsAcrossPartitionsAreTolerated) {
  // Ids need not be unique for the redistribution machinery (matches are
  // reported by id, so duplicates collapse, but nothing crashes).
  er::Partitions parts(2);
  for (int p = 0; p < 2; ++p) {
    for (uint64_t i = 1; i <= 5; ++i) {
      er::Entity e;
      e.id = i;  // same ids in both partitions
      e.fields = {"text " + std::to_string(i), "blk"};
      parts[p].push_back(er::MakeEntityRef(std::move(e)));
    }
  }
  er::AttributeBlocking blocking(1);
  er::LambdaMatcher all(
      [](const er::Entity&, const er::Entity&) { return true; }, "all");
  auto run = RunStrategy(StrategyKind::kBlockSplit, parts, blocking, all,
                         4);
  EXPECT_EQ(run.comparisons, 45);  // C(10,2)
}

TEST(IntegrationTest, ManyMoreReduceTasksThanPairs) {
  std::vector<er::Entity> entities;
  for (uint64_t i = 0; i < 6; ++i) {
    er::Entity e;
    e.id = i + 1;
    e.fields = {"t", "b"};
    entities.push_back(std::move(e));
  }
  er::AttributeBlocking blocking(1);
  er::LambdaMatcher all(
      [](const er::Entity&, const er::Entity&) { return true; }, "all");
  for (auto kind : lb::AllStrategyKinds()) {
    er::Partitions parts = er::SplitIntoPartitions(entities, 2);
    auto run = RunStrategy(kind, parts, blocking, all, 500);
    EXPECT_EQ(run.comparisons, 15) << lb::StrategyKindToName(kind);
  }
}

TEST(IntegrationTest, LongTitlesDoNotBreakBandedMatcher) {
  std::string long_a(3000, 'a');
  std::string long_b = long_a;
  long_b[1500] = 'b';
  std::vector<er::Entity> entities(2);
  entities[0].id = 1;
  entities[0].fields = {long_a};
  entities[1].id = 2;
  entities[1].fields = {long_b};
  er::PrefixBlocking blocking(0, 3);
  er::EditDistanceMatcher matcher(0.8);
  core::ErPipeline pipeline(core::ErPipelineConfig{});
  auto result = pipeline.Deduplicate(entities, blocking, matcher);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->matches.size(), 1u);  // 1 edit in 3000 chars
}

}  // namespace
}  // namespace erlb
