#include "core/pipeline.h"

#include <gtest/gtest.h>

#include "common/io_buffer.h"
#include "core/reference.h"
#include "er/entity_io.h"
#include "er/evaluation.h"
#include "gen/product_gen.h"
#include "gen/skew_gen.h"
#include "lb/strategy.h"

namespace erlb {
namespace core {
namespace {

std::vector<er::Entity> SmallProducts(uint64_t n = 800, uint64_t seed = 3) {
  gen::ProductConfig cfg;
  cfg.num_entities = n;
  cfg.num_brands = 40;
  cfg.duplicate_fraction = 0.3;
  cfg.seed = seed;
  auto entities = gen::GenerateProducts(cfg);
  EXPECT_TRUE(entities.ok());
  return *entities;
}

class PipelineStrategyTest
    : public ::testing::TestWithParam<lb::StrategyKind> {};

TEST_P(PipelineStrategyTest, DeduplicateMatchesReference) {
  auto entities = SmallProducts();
  er::PrefixBlocking blocking(0, 3);
  er::EditDistanceMatcher matcher(0.8);
  auto reference = ReferenceDeduplicate(entities, blocking, matcher);
  ASSERT_GT(reference.size(), 0u);

  ErPipelineConfig cfg;
  cfg.strategy = GetParam();
  cfg.num_map_tasks = 3;
  cfg.num_reduce_tasks = 9;
  cfg.num_workers = 4;
  ErPipeline pipeline(cfg);
  auto result = pipeline.Deduplicate(entities, blocking, matcher);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(result->matches.SameAs(reference));
  EXPECT_GT(result->comparisons, 0);
  EXPECT_GT(result->total_seconds, 0.0);
  if (GetParam() != lb::StrategyKind::kBasic) {
    EXPECT_GT(result->bdm.num_blocks(), 0u);
    EXPECT_GT(result->bdm_seconds, 0.0);
  }
}

TEST_P(PipelineStrategyTest, PrebuiltPlanOverloadMatchesFreshRun) {
  // Plan once, execute many: a run's plan fed back through the plan-first
  // overload must reproduce the run exactly, without re-planning.
  auto entities = SmallProducts(500, 11);
  er::PrefixBlocking blocking(0, 3);
  er::EditDistanceMatcher matcher(0.8);

  ErPipelineConfig config;
  config.strategy = GetParam();
  config.num_map_tasks = 3;
  config.num_reduce_tasks = 7;
  config.num_workers = 4;
  const ErPipeline pipeline(config);
  er::Partitions parts = er::SplitIntoPartitions(entities, 3);
  ErPipelineConfig cfg = pipeline.config();
  EXPECT_EQ(cfg.strategy, GetParam());

  if (GetParam() == lb::StrategyKind::kBasic) {
    // Basic's default path is the single job and carries no plan; build
    // one explicitly to exercise the overload.
    std::vector<std::vector<std::string>> keys(parts.size());
    for (size_t p = 0; p < parts.size(); ++p) {
      for (const auto& e : parts[p]) keys[p].push_back(blocking.Key(*e));
    }
    auto bdm = bdm::Bdm::FromKeys(keys);
    ASSERT_TRUE(bdm.ok());
    lb::MatchJobOptions options;
    options.num_reduce_tasks = 7;
    auto plan = lb::MakeStrategy(GetParam())->BuildPlan(*bdm, options);
    ASSERT_TRUE(plan.ok());
    auto replay =
        pipeline.DeduplicatePartitioned(parts, blocking, matcher, *plan);
    ASSERT_TRUE(replay.ok()) << replay.status().ToString();
    auto fresh = pipeline.DeduplicatePartitioned(parts, blocking, matcher);
    ASSERT_TRUE(fresh.ok());
    EXPECT_TRUE(replay->matches.SameAs(fresh->matches));
    EXPECT_EQ(replay->comparisons, fresh->comparisons);
    return;
  }

  auto fresh = pipeline.DeduplicatePartitioned(parts, blocking, matcher);
  ASSERT_TRUE(fresh.ok()) << fresh.status().ToString();
  ASSERT_TRUE(fresh->plan.has_value());
  auto replay = pipeline.DeduplicatePartitioned(parts, blocking, matcher,
                                                *fresh->plan);
  ASSERT_TRUE(replay.ok()) << replay.status().ToString();
  EXPECT_TRUE(replay->matches.SameAs(fresh->matches));
  EXPECT_EQ(replay->comparisons, fresh->comparisons);

  // A plan for different data must be rejected by the fingerprint check.
  auto other_entities = SmallProducts(300, 77);
  er::Partitions other_parts = er::SplitIntoPartitions(other_entities, 3);
  auto mismatched = pipeline.DeduplicatePartitioned(other_parts, blocking,
                                                    matcher, *fresh->plan);
  EXPECT_TRUE(mismatched.status().IsInvalidArgument());
}

TEST_P(PipelineStrategyTest, LinkMatchesReference) {
  auto r_entities = SmallProducts(400, 21);
  auto s_entities = SmallProducts(500, 22);
  for (auto& e : s_entities) e.id += 1000000;
  er::PrefixBlocking blocking(0, 3);
  er::EditDistanceMatcher matcher(0.85);
  auto reference =
      ReferenceLink(r_entities, s_entities, blocking, matcher);

  ErPipelineConfig cfg;
  cfg.strategy = GetParam();
  cfg.num_map_tasks = 5;
  cfg.num_reduce_tasks = 7;
  cfg.num_workers = 4;
  ErPipeline pipeline(cfg);
  auto result = pipeline.Link(r_entities, s_entities, blocking, matcher);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(result->matches.SameAs(reference))
      << "got " << result->matches.size() << " want " << reference.size();
}

INSTANTIATE_TEST_SUITE_P(AllStrategies, PipelineStrategyTest,
                         ::testing::Values(lb::StrategyKind::kBasic,
                                           lb::StrategyKind::kBlockSplit,
                                           lb::StrategyKind::kPairRange),
                         [](const auto& info) {
                           return lb::StrategyKindToName(info.param);
                         });

TEST(PipelineTest, StrategiesAgreeWithEachOther) {
  auto entities = SmallProducts(600, 9);
  er::PrefixBlocking blocking(0, 3);
  er::EditDistanceMatcher matcher(0.8);
  er::MatchResult results[3];
  int i = 0;
  for (auto kind : lb::AllStrategyKinds()) {
    ErPipelineConfig cfg;
    cfg.strategy = kind;
    cfg.num_map_tasks = 4;
    cfg.num_reduce_tasks = 5;
    cfg.num_workers = 2;
    ErPipeline pipeline(cfg);
    auto result = pipeline.Deduplicate(entities, blocking, matcher);
    ASSERT_TRUE(result.ok());
    results[i++] = result->matches;
  }
  EXPECT_TRUE(results[0].SameAs(results[1]));
  EXPECT_TRUE(results[1].SameAs(results[2]));
}

TEST(PipelineTest, RecallOnInjectedDuplicatesIsHigh) {
  auto entities = SmallProducts(1500, 17);
  er::PrefixBlocking blocking(0, 3);
  er::EditDistanceMatcher matcher(0.8);
  ErPipelineConfig cfg;
  cfg.strategy = lb::StrategyKind::kBlockSplit;
  cfg.num_map_tasks = 4;
  cfg.num_reduce_tasks = 8;
  ErPipeline pipeline(cfg);
  auto result = pipeline.Deduplicate(entities, blocking, matcher);
  ASSERT_TRUE(result.ok());
  auto quality = er::EvaluateMatches(entities, result->matches);
  // Typo duplicates are within 2 edits of ~25-char titles, so most pass
  // the 0.8 edit-similarity threshold.
  EXPECT_GT(quality.Recall(), 0.6);
  EXPECT_GT(quality.true_positives, 50u);
}

// ---- ErPipelineConfig::Validate: contradictory knobs fail up front ------

TEST(PipelineConfigValidateTest, DefaultConfigIsValid) {
  EXPECT_TRUE(ErPipelineConfig{}.Validate().ok());
}

TEST(PipelineConfigValidateTest, ZeroKnobsRejected) {
  auto entities = SmallProducts(50, 5);
  er::PrefixBlocking blocking(0, 3);
  er::EditDistanceMatcher matcher(0.8);
  auto expect_invalid = [&](ErPipelineConfig cfg, const char* what) {
    EXPECT_TRUE(cfg.Validate().IsInvalidArgument()) << what;
    EXPECT_NE(cfg.Validate().ToString().find(what), std::string::npos);
    // The same rejection reaches every entry point.
    ErPipeline pipeline(cfg);
    EXPECT_TRUE(pipeline.Deduplicate(entities, blocking, matcher)
                    .status()
                    .IsInvalidArgument())
        << what;
  };
  ErPipelineConfig cfg;
  cfg.num_map_tasks = 0;
  expect_invalid(cfg, "num_map_tasks");
  cfg = ErPipelineConfig{};
  cfg.num_reduce_tasks = 0;
  expect_invalid(cfg, "num_reduce_tasks");
  cfg = ErPipelineConfig{};
  cfg.sub_splits = 0;
  expect_invalid(cfg, "sub_splits");
  cfg = ErPipelineConfig{};
  cfg.csv_split_records = 0;
  expect_invalid(cfg, "csv_split_records");
  // Previously a CHECK-crash deep inside JobRunner; now a status.
  cfg = ErPipelineConfig{};
  cfg.execution.io_buffer_bytes = 0;
  expect_invalid(cfg, "io_buffer_bytes");
}

TEST(PipelineConfigValidateTest, CsvPathRejectsTunedNumMapTasks) {
  // num_map_tasks is meaningless on the CSV path (m follows
  // csv_split_records); it used to be silently ignored — now it errors.
  auto base = ScopedTempDir::Make();
  ASSERT_TRUE(base.ok());
  const std::string csv_path = base->path() + "/in.csv";
  ASSERT_TRUE(
      er::SaveEntitiesToCsv(csv_path, SmallProducts(20, 5)).ok());
  er::CsvSchema schema;
  schema.id_column = 0;
  er::PrefixBlocking blocking(0, 3);
  er::EditDistanceMatcher matcher(0.8);

  ErPipelineConfig cfg;
  cfg.num_map_tasks = 7;
  ErPipeline tuned(cfg);
  Status status =
      tuned.DeduplicateCsv(csv_path, schema, blocking, matcher).status();
  EXPECT_TRUE(status.IsInvalidArgument());
  EXPECT_NE(status.ToString().find("num_map_tasks"), std::string::npos);

  // The default passes.
  ErPipeline untouched{ErPipelineConfig{}};
  EXPECT_TRUE(
      untouched.DeduplicateCsv(csv_path, schema, blocking, matcher).ok());
}

TEST(PipelineTest, EmptyInputRejected) {
  ErPipeline pipeline(ErPipelineConfig{});
  er::PrefixBlocking blocking(0, 3);
  er::EditDistanceMatcher matcher(0.8);
  EXPECT_TRUE(pipeline.Deduplicate({}, blocking, matcher)
                  .status()
                  .IsInvalidArgument());
}

TEST(PipelineTest, MissingKeyErrorByDefault) {
  std::vector<er::Entity> entities = SmallProducts(50, 5);
  er::Entity no_title;
  no_title.id = 999999;
  no_title.fields = {""};
  entities.push_back(no_title);
  er::PrefixBlocking blocking(0, 3);
  er::EditDistanceMatcher matcher(0.8);
  ErPipelineConfig cfg;  // missing_key_policy = kError
  ErPipeline pipeline(cfg);
  EXPECT_FALSE(pipeline.Deduplicate(entities, blocking, matcher).ok());
}

TEST(PipelineTest, DeduplicateWithMissingKeysComparesBottomAgainstAll) {
  // 4 keyed entities in two blocks + 2 unkeyed. The unkeyed ones must be
  // compared against everything (Cartesian), including each other.
  std::vector<er::Entity> entities;
  auto add = [&](uint64_t id, const char* title) {
    er::Entity e;
    e.id = id;
    e.fields = {title};
    entities.push_back(e);
  };
  add(1, "aaa camera");
  add(2, "aaa camcorder");
  add(3, "bbb phone");
  add(4, "bbb phablet");
  add(5, "");  // no blocking key
  add(6, "");

  er::PrefixBlocking blocking(0, 3);
  // Count comparisons through an accept-all matcher: the pair set is
  // exactly the evaluated candidate set.
  er::LambdaMatcher accept_all(
      [](const er::Entity&, const er::Entity&) { return true; }, "all");
  ErPipelineConfig cfg;
  cfg.num_map_tasks = 2;
  cfg.num_reduce_tasks = 3;
  ErPipeline pipeline(cfg);
  auto result =
      DeduplicateWithMissingKeys(pipeline, entities, blocking, accept_all);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  // Blocked pairs: (1,2), (3,4). Unkeyed 5,6 vs all: (5,1..4,6) = 5 pairs
  // + (6,1..4) = 4. Total 2 + 9 = 11.
  EXPECT_EQ(result->size(), 11u);
}

TEST(PipelineTest, LinkWithMissingKeysFollowsAppendixDecomposition) {
  auto make = [](uint64_t id, const char* title) {
    er::Entity e;
    e.id = id;
    e.fields = {title};
    return e;
  };
  std::vector<er::Entity> r_entities{make(1, "aaa x"), make(2, "bbb y"),
                                     make(3, "")};
  std::vector<er::Entity> s_entities{make(11, "aaa z"), make(12, ""),
                                     make(13, "")};
  er::PrefixBlocking blocking(0, 3);
  er::LambdaMatcher accept_all(
      [](const er::Entity&, const er::Entity&) { return true; }, "all");
  ErPipelineConfig cfg;
  cfg.num_map_tasks = 2;
  cfg.num_reduce_tasks = 2;
  ErPipeline pipeline(cfg);
  auto result = LinkWithMissingKeys(pipeline, r_entities, s_entities,
                                    blocking, accept_all);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  // match_B(R−R∅, S−S∅): (1,11).
  // match_⊥(R, S∅): {1,2,3} × {12,13} = 6 pairs.
  // match_⊥(R∅, S−S∅): {3} × {11} = 1 pair.
  EXPECT_EQ(result->size(), 8u);
}

TEST(PipelineTest, PartitionCountDoesNotChangeResult) {
  auto entities = SmallProducts(400, 31);
  er::PrefixBlocking blocking(0, 3);
  er::EditDistanceMatcher matcher(0.8);
  er::MatchResult first;
  for (uint32_t m : {1u, 2u, 5u, 11u}) {
    ErPipelineConfig cfg;
    cfg.strategy = lb::StrategyKind::kPairRange;
    cfg.num_map_tasks = m;
    cfg.num_reduce_tasks = 6;
    ErPipeline pipeline(cfg);
    auto result = pipeline.Deduplicate(entities, blocking, matcher);
    ASSERT_TRUE(result.ok());
    if (m == 1) {
      first = result->matches;
    } else {
      EXPECT_TRUE(result->matches.SameAs(first)) << "m=" << m;
    }
  }
}

}  // namespace
}  // namespace core
}  // namespace erlb
