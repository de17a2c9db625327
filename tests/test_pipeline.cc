// The ER workflow end to end on the dataflow graph: every strategy
// against the brute-force reference (one- and two-source, pre-built
// plans), the missing-key decompositions of Section III / Appendix I
// against references composed of ReferenceDeduplicate/ReferenceLink, and
// the rejection of invalid knobs at the graph's front door.
#include <gtest/gtest.h>

#include "common/io_buffer.h"
#include "core/reference.h"
#include "er/entity_io.h"
#include "er/evaluation.h"
#include "gen/product_gen.h"
#include "gen/skew_gen.h"
#include "lb/strategy.h"
#include "strategy_test_util.h"

namespace erlb {
namespace core {
namespace {

using testing_util::RunGraph;
using testing_util::RunStandardGraph;

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

DataflowOptions Workers(uint32_t n) {
  DataflowOptions options;
  options.num_workers = n;
  return options;
}

StandardGraphOptions Graph(lb::StrategyKind kind, uint32_t r) {
  StandardGraphOptions graph;
  graph.strategy = kind;
  graph.num_reduce_tasks = r;
  return graph;
}

class PipelineStrategyTest
    : public ::testing::TestWithParam<lb::StrategyKind> {};

TEST_P(PipelineStrategyTest, DeduplicateMatchesReference) {
  auto entities = SmallProducts();
  er::PrefixBlocking blocking(0, 3);
  er::EditDistanceMatcher matcher(0.8);
  auto reference = ReferenceDeduplicate(entities, blocking, matcher);
  ASSERT_GT(reference.size(), 0u);

  auto run = RunStandardGraph(Workers(4), Graph(GetParam(), 9), 3, entities,
                              blocking, matcher);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  EXPECT_TRUE(run->matches.SameAs(reference));
  EXPECT_GT(run->report.TotalComparisons(), 0);
  EXPECT_GT(run->report.total_seconds, 0.0);
  if (GetParam() != lb::StrategyKind::kBasic) {
    EXPECT_GT(run->report.Find("bdm")->seconds, 0.0);
    EXPECT_GT(run->report.Find("plan")->plan->stats().total_comparisons, 0u);
  }
}

TEST_P(PipelineStrategyTest, PrebuiltPlanMatchesFreshRun) {
  // Plan once, execute many: a plan bound as the graph's plan dataset
  // must reproduce the run that built it, without re-planning.
  auto entities = SmallProducts(500, 11);
  er::PrefixBlocking blocking(0, 3);
  er::EditDistanceMatcher matcher(0.8);
  auto run_parts = [&](const er::Partitions& parts,
                       const lb::MatchPlan* plan) {
    Dataflow df(Workers(4));
    PartitionedEntities input;
    input.partitions = parts;
    EXPECT_TRUE(df.AddInput(kDatasetPartitions, Dataset(input)).ok());
    EXPECT_TRUE(AddStandardGraph(&df, Graph(GetParam(), 7), &blocking,
                                 &matcher, "", plan)
                    .ok());
    return RunGraph(&df);
  };
  er::Partitions parts = er::SplitIntoPartitions(entities, 3);
  auto fresh = run_parts(parts, nullptr);
  ASSERT_TRUE(fresh.ok()) << fresh.status().ToString();

  std::optional<lb::MatchPlan> plan;
  if (GetParam() == lb::StrategyKind::kBasic) {
    // Basic's default graph is the single job and carries no plan;
    // build one explicitly.
    std::vector<std::vector<std::string>> keys(parts.size());
    for (size_t p = 0; p < parts.size(); ++p) {
      for (const auto& e : parts[p]) keys[p].push_back(blocking.Key(*e));
    }
    auto bdm = bdm::Bdm::FromKeys(keys);
    ASSERT_TRUE(bdm.ok());
    lb::MatchJobOptions options;
    options.num_reduce_tasks = 7;
    auto built = lb::MakeStrategy(GetParam())->BuildPlan(*bdm, options);
    ASSERT_TRUE(built.ok());
    plan = std::move(*built);
  } else {
    plan = *fresh->report.Find("plan")->plan;
  }
  auto replay = run_parts(parts, &*plan);
  ASSERT_TRUE(replay.ok()) << replay.status().ToString();
  EXPECT_EQ(replay->report.Find("plan"), nullptr);
  EXPECT_TRUE(replay->matches.SameAs(fresh->matches));
  EXPECT_EQ(replay->report.TotalComparisons(),
            fresh->report.TotalComparisons());

  // A plan for different data must be rejected by the fingerprint check.
  auto other = run_parts(
      er::SplitIntoPartitions(SmallProducts(300, 77), 3), &*plan);
  EXPECT_TRUE(other.status().IsInvalidArgument());
}

TEST_P(PipelineStrategyTest, LinkMatchesReference) {
  auto r_entities = SmallProducts(400, 21);
  auto s_entities = SmallProducts(500, 22);
  for (auto& e : s_entities) e.id += 1000000;
  er::PrefixBlocking blocking(0, 3);
  er::EditDistanceMatcher matcher(0.85);
  auto reference =
      ReferenceLink(r_entities, s_entities, blocking, matcher);

  auto run = RunStandardGraph(Workers(4), Graph(GetParam(), 7), 5,
                              r_entities, blocking, matcher, &s_entities);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  EXPECT_TRUE(run->matches.SameAs(reference))
      << "got " << run->matches.size() << " want " << reference.size();
  // R's 400 and S's 500 entities split 5 map tasks 2:3.
  const StageReport* first_job = &run->report.stages[1];
  ASSERT_TRUE(first_job->job.has_value());
  EXPECT_EQ(first_job->job->map_tasks.size(), 5u);
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
    auto run = RunStandardGraph(Workers(2), Graph(kind, 5), 4, entities,
                                blocking, matcher);
    ASSERT_TRUE(run.ok());
    results[i++] = run->matches;
  }
  EXPECT_TRUE(results[0].SameAs(results[1]));
  EXPECT_TRUE(results[1].SameAs(results[2]));
}

TEST(PipelineTest, RecallOnInjectedDuplicatesIsHigh) {
  auto entities = SmallProducts(1500, 17);
  er::PrefixBlocking blocking(0, 3);
  er::EditDistanceMatcher matcher(0.8);
  auto run = RunStandardGraph({}, Graph(lb::StrategyKind::kBlockSplit, 8),
                              4, entities, blocking, matcher);
  ASSERT_TRUE(run.ok());
  auto quality = er::EvaluateMatches(entities, run->matches);
  // Typo duplicates are within 2 edits of ~25-char titles, so most pass
  // the 0.8 edit-similarity threshold.
  EXPECT_GT(quality.Recall(), 0.6);
  EXPECT_GT(quality.true_positives, 50u);
}

// ---- Invalid knobs fail at the graph's front door -----------------------

class GraphValidationTest
    : public ::testing::TestWithParam<lb::StrategyKind> {};

TEST_P(GraphValidationTest, ZeroKnobsRejected) {
  auto entities = SmallProducts(50, 5);
  auto base = ScopedTempDir::Make();
  ASSERT_TRUE(base.ok());
  const std::string csv_path = base->path() + "/in.csv";
  ASSERT_TRUE(er::SaveEntitiesToCsv(csv_path, entities).ok());
  er::CsvSchema schema;
  schema.id_column = 0;
  er::PrefixBlocking blocking(0, 3);
  er::EditDistanceMatcher matcher(0.8);

  // Every rejection comes back from Run() as InvalidArgument naming the
  // knob — never a CHECK crash inside a job.
  auto expect_invalid = [&](DataflowOptions resources,
                            StandardGraphOptions graph, uint32_t m,
                            uint32_t split_records, const char* what) {
    Dataflow df(resources);
    if (split_records == 0) {
      df.Emplace<CsvSourceStage>("source", kDatasetPartitions, csv_path,
                                 schema, split_records);
    } else {
      df.Emplace<EntitySourceStage>("source", kDatasetPartitions,
                                    &entities, m);
    }
    ASSERT_TRUE(AddStandardGraph(&df, graph, &blocking, &matcher).ok());
    Status status = df.Run().status();
    EXPECT_TRUE(status.IsInvalidArgument()) << what;
    EXPECT_NE(status.ToString().find(what), std::string::npos)
        << status.ToString();
  };
  const StandardGraphOptions graph = Graph(GetParam(), 4);
  StandardGraphOptions zero_r = graph;
  zero_r.num_reduce_tasks = 0;
  expect_invalid({}, zero_r, 2, 1, "num_reduce_tasks");
  StandardGraphOptions zero_sub = graph;
  zero_sub.sub_splits = 0;
  expect_invalid({}, zero_sub, 2, 1, "sub_splits");
  expect_invalid({}, graph, 2, 0, "csv_split_records");
  expect_invalid({}, graph, 0, 1, "num_map_tasks");
  DataflowOptions zero_buffer;
  zero_buffer.execution.io_buffer_bytes = 0;
  expect_invalid(zero_buffer, graph, 2, 1, "io_buffer_bytes");
  DataflowOptions checkpointed_in_memory;
  checkpointed_in_memory.execution.mode = mr::ExecutionMode::kInMemory;
  checkpointed_in_memory.execution.checkpoint.dir = base->path() + "/ck";
  expect_invalid(checkpointed_in_memory, graph, 2, 1, "checkpoint.dir");
}

INSTANTIATE_TEST_SUITE_P(AllStrategies, GraphValidationTest,
                         ::testing::Values(lb::StrategyKind::kBasic,
                                           lb::StrategyKind::kBlockSplit,
                                           lb::StrategyKind::kPairRange),
                         [](const auto& info) {
                           return lb::StrategyKindToName(info.param);
                         });

TEST(PipelineTest, EmptyInputRejected) {
  er::PrefixBlocking blocking(0, 3);
  er::EditDistanceMatcher matcher(0.8);
  EXPECT_TRUE(RunStandardGraph({}, {}, 4, {}, blocking, matcher)
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
  // missing_key_policy = kError
  EXPECT_FALSE(RunStandardGraph({}, {}, 4, entities, blocking, matcher).ok());
}

// ---- Missing-key decompositions (Section III, Appendix I) ---------------

er::Entity Titled(uint64_t id, const char* title) {
  er::Entity e;
  e.id = id;
  e.fields = {title};
  return e;
}

TEST(PipelineTest, DeduplicateWithMissingKeysComparesBottomAgainstAll) {
  // 4 keyed entities in two blocks + 2 unkeyed. The unkeyed ones must be
  // compared against everything (Cartesian), including each other.
  std::vector<er::Entity> entities{
      Titled(1, "aaa camera"), Titled(2, "aaa camcorder"),
      Titled(3, "bbb phone"),  Titled(4, "bbb phablet"),
      Titled(5, ""),           Titled(6, "")};
  er::PrefixBlocking blocking(0, 3);
  // Count comparisons through an accept-all matcher: the pair set is
  // exactly the evaluated candidate set.
  er::LambdaMatcher accept_all(
      [](const er::Entity&, const er::Entity&) { return true; }, "all");
  Dataflow df;
  ASSERT_TRUE(AddMissingKeyGraph(&df, Graph(lb::StrategyKind::kBlockSplit, 3),
                                 2, &entities, nullptr, &blocking,
                                 &accept_all)
                  .ok());
  auto result = RunGraph(&df);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  // Blocked pairs: (1,2), (3,4). Unkeyed 5,6 vs all: (5,1..4,6) = 5 pairs
  // + (6,1..4) = 4. Total 2 + 9 = 11.
  EXPECT_EQ(result->matches.size(), 11u);
}

TEST(PipelineTest, LinkWithMissingKeysFollowsAppendixDecomposition) {
  std::vector<er::Entity> r_entities{Titled(1, "aaa x"), Titled(2, "bbb y"),
                                     Titled(3, "")};
  std::vector<er::Entity> s_entities{Titled(11, "aaa z"), Titled(12, ""),
                                     Titled(13, "")};
  er::PrefixBlocking blocking(0, 3);
  er::LambdaMatcher accept_all(
      [](const er::Entity&, const er::Entity&) { return true; }, "all");
  Dataflow df;
  ASSERT_TRUE(AddMissingKeyGraph(&df, Graph(lb::StrategyKind::kBlockSplit, 2),
                                 2, &r_entities, &s_entities, &blocking,
                                 &accept_all)
                  .ok());
  auto result = RunGraph(&df);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  // match_B(R−R∅, S−S∅): (1,11).
  // match_⊥(R, S∅): {1,2,3} × {12,13} = 6 pairs.
  // match_⊥(R∅, S−S∅): {3} × {11} = 1 pair.
  EXPECT_EQ(result->matches.size(), 8u);
}

class MissingKeyReferenceTest
    : public ::testing::TestWithParam<
          std::tuple<lb::StrategyKind, mr::ExecutionMode>> {};

TEST_P(MissingKeyReferenceTest, DecompositionsEqualComposedReferences) {
  // A fifth of the entities lose their title, hence their blocking key.
  auto blank_some = [](std::vector<er::Entity> entities) {
    for (size_t i = 0; i < entities.size(); i += 5) entities[i].fields[0] = "";
    return entities;
  };
  const auto r = blank_some(SmallProducts(300, 41));
  auto s = blank_some(SmallProducts(250, 42));
  for (auto& e : s) e.id += 1000000;
  er::PrefixBlocking blocking(0, 3);
  er::ConstantBlocking bottom;
  er::EditDistanceMatcher matcher(0.7);
  auto with_key = [&blocking](const std::vector<er::Entity>& in, bool keyed) {
    std::vector<er::Entity> out;
    for (const auto& e : in) {
      if (blocking.Key(e).empty() != keyed) out.push_back(e);
    }
    return out;
  };
  const auto rk = with_key(r, true), ru = with_key(r, false);
  const auto sk = with_key(s, true), su = with_key(s, false);

  er::MatchResult dedup = ReferenceDeduplicate(rk, blocking, matcher);
  dedup.Merge(ReferenceLink(rk, ru, bottom, matcher));
  dedup.Merge(ReferenceDeduplicate(ru, bottom, matcher));
  dedup.Canonicalize();
  er::MatchResult link = ReferenceLink(rk, sk, blocking, matcher);
  link.Merge(ReferenceLink(r, su, bottom, matcher));
  link.Merge(ReferenceLink(ru, sk, bottom, matcher));
  link.Canonicalize();
  ASSERT_GT(dedup.size(), 0u);
  ASSERT_GT(link.size(), 0u);

  DataflowOptions resources = Workers(4);
  resources.execution.mode = std::get<1>(GetParam());
  resources.execution.io_buffer_bytes = 512;
  const StandardGraphOptions graph = Graph(std::get<0>(GetParam()), 5);
  // Both decompositions as subgraphs of one graph.
  Dataflow df(resources);
  ASSERT_TRUE(AddMissingKeyGraph(&df, graph, 3, &r, nullptr, &blocking,
                                 &matcher, "dedup", "dedup/")
                  .ok());
  ASSERT_TRUE(AddMissingKeyGraph(&df, graph, 3, &r, &s, &blocking, &matcher,
                                 "link", "link/")
                  .ok());
  auto report = df.Run();
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ((*df.Get<er::MatchResult>("dedup"))->pairs(), dedup.pairs());
  EXPECT_EQ((*df.Get<er::MatchResult>("link"))->pairs(), link.pairs());
}

INSTANTIATE_TEST_SUITE_P(
    AllStrategiesBothModes, MissingKeyReferenceTest,
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

TEST(PipelineTest, PartitionCountDoesNotChangeResult) {
  auto entities = SmallProducts(400, 31);
  er::PrefixBlocking blocking(0, 3);
  er::EditDistanceMatcher matcher(0.8);
  er::MatchResult first;
  for (uint32_t m : {1u, 2u, 5u, 11u}) {
    auto run = RunStandardGraph({}, Graph(lb::StrategyKind::kPairRange, 6),
                                m, entities, blocking, matcher);
    ASSERT_TRUE(run.ok());
    if (m == 1) {
      first = run->matches;
    } else {
      EXPECT_TRUE(run->matches.SameAs(first)) << "m=" << m;
    }
  }
}

}  // namespace
}  // namespace core
}  // namespace erlb
