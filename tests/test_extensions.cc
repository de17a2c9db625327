// Tests for the extensions beyond the paper's core algorithms:
// BlockSplit sub-splitting (finer-than-partition chunks), multi-pass
// blocking (the paper's future work), and CSV entity I/O.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <filesystem>

#include "common/csv.h"
#include "core/reference.h"
#include "er/entity_io.h"
#include "gen/skew_gen.h"
#include "lb/block_split_plan.h"
#include "paper_example.h"
#include "strategy_test_util.h"

namespace erlb {
namespace {

using lb::BlockSplitPlan;
using lb::StrategyKind;
using testing_util::ExampleBlocking;
using testing_util::PaperExamplePartitions;
using testing_util::RunGraph;
using testing_util::RunStrategy;

// ---------------------------------------------------------------------
// BlockSplit sub-splitting.
// ---------------------------------------------------------------------

TEST(SubSplitPlanTest, VirtualPartitionSizesSumToPartitionSize) {
  auto bdm = bdm::Bdm::FromKeys(
      {{"a", "a", "a", "a", "a", "b", "b"}, {"a", "a", "a", "b"}});
  ASSERT_TRUE(bdm.ok());
  for (uint32_t sub : {1u, 2u, 3u, 4u, 7u}) {
    for (uint32_t k = 0; k < bdm->num_blocks(); ++k) {
      for (uint32_t p = 0; p < bdm->num_partitions(); ++p) {
        uint64_t sum = 0;
        for (uint32_t c = 0; c < sub; ++c) {
          uint64_t sz = BlockSplitPlan::VirtualPartitionSize(
              *bdm, k, p * sub + c, sub);
          // Near-equal chunks: no chunk exceeds ceil(n/sub).
          EXPECT_LE(sz, (bdm->Size(k, p) + sub - 1) / sub);
          sum += sz;
        }
        EXPECT_EQ(sum, bdm->Size(k, p));
      }
    }
  }
}

TEST(SubSplitPlanTest, SubSplitOneIsThePaperPlan) {
  auto bdm = bdm::Bdm::FromKeys({{"w", "w", "x", "y", "y", "z", "z"},
                                 {"w", "w", "x", "y", "z", "z", "z"}});
  ASSERT_TRUE(bdm.ok());
  auto base = BlockSplitPlan::Build(*bdm, 3);
  auto sub1 = BlockSplitPlan::Build(*bdm, 3,
                                    lb::TaskAssignment::kGreedyLpt, 1);
  ASSERT_TRUE(base.ok());
  ASSERT_TRUE(sub1.ok());
  ASSERT_EQ(base->tasks().size(), sub1->tasks().size());
  for (size_t i = 0; i < base->tasks().size(); ++i) {
    EXPECT_EQ(base->tasks()[i].comparisons, sub1->tasks()[i].comparisons);
    EXPECT_EQ(base->tasks()[i].reduce_task, sub1->tasks()[i].reduce_task);
  }
}

TEST(SubSplitPlanTest, TasksStillCoverAllPairs) {
  auto bdm = bdm::Bdm::FromKeys(
      {{"a", "a", "a", "a", "a", "a", "a", "b", "c"},
       {"a", "a", "a", "a", "b", "c", "c"}});
  ASSERT_TRUE(bdm.ok());
  for (uint32_t sub : {1u, 2u, 3u, 5u}) {
    for (uint32_t r : {1u, 2u, 4u, 16u}) {
      auto plan = BlockSplitPlan::Build(
          *bdm, r, lb::TaskAssignment::kGreedyLpt, sub);
      ASSERT_TRUE(plan.ok());
      uint64_t covered = 0;
      for (const auto& t : plan->tasks()) covered += t.comparisons;
      EXPECT_EQ(covered, bdm->TotalPairs())
          << "sub=" << sub << " r=" << r;
    }
  }
}

TEST(SubSplitPlanTest, FinerChunksReduceImbalanceOnSortedInput) {
  // One dominant block confined to a single partition (sorted input's
  // worst case): with sub_splits=1 it cannot be split at all.
  std::vector<std::string> big(60, "huge");
  std::vector<std::vector<std::string>> keys{
      big, {"a", "a", "b", "b", "c", "c"}};
  auto bdm = bdm::Bdm::FromKeys(keys);
  ASSERT_TRUE(bdm.ok());
  const uint32_t r = 8;
  auto coarse =
      BlockSplitPlan::Build(*bdm, r, lb::TaskAssignment::kGreedyLpt, 1);
  auto fine =
      BlockSplitPlan::Build(*bdm, r, lb::TaskAssignment::kGreedyLpt, 8);
  ASSERT_TRUE(coarse.ok());
  ASSERT_TRUE(fine.ok());
  auto max_load = [](const BlockSplitPlan& p) {
    uint64_t mx = 0;
    for (uint64_t l : p.comparisons_per_reduce_task()) {
      mx = std::max(mx, l);
    }
    return mx;
  };
  // Coarse: the block is one unsplittable self task of C(60,2)=1770.
  EXPECT_EQ(max_load(*coarse), 1770u);
  // Fine: chunks of ~7-8 entities; max task ~64 pairs; near-balanced.
  EXPECT_LT(max_load(*fine), 1770u / 3);
}

class SubSplitEquivalenceTest
    : public ::testing::TestWithParam<std::tuple<uint32_t, uint32_t>> {};

TEST_P(SubSplitEquivalenceTest, MatchesReferenceResult) {
  auto [sub, r] = GetParam();
  gen::SkewConfig cfg;
  cfg.num_entities = 350;
  cfg.num_blocks = 8;
  cfg.skew = 0.7;
  cfg.duplicate_fraction = 0.3;
  cfg.seed = 99;
  auto entities = gen::GenerateSkewed(cfg);
  ASSERT_TRUE(entities.ok());
  er::AttributeBlocking blocking(gen::kSkewBlockField);
  er::EditDistanceMatcher matcher(0.8);
  auto reference = core::ReferenceDeduplicate(*entities, blocking, matcher);

  er::Partitions parts = er::SplitIntoPartitions(*entities, 3);
  auto run = RunStrategy(StrategyKind::kBlockSplit, parts, blocking,
                         matcher, r, 4, nullptr,
                         lb::TaskAssignment::kGreedyLpt);
  // Re-run through the graph with sub_splits (RunStrategy has no knob).
  core::StandardGraphOptions graph;
  graph.num_reduce_tasks = r;
  graph.sub_splits = sub;
  auto result = testing_util::RunStandardGraph({}, graph, 3, *entities,
                                               blocking, matcher);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(result->matches.SameAs(reference))
      << "sub=" << sub << " r=" << r;
  EXPECT_EQ(static_cast<uint64_t>(result->report.TotalComparisons()),
            core::ReferencePairCount(*entities, blocking));
  EXPECT_TRUE(run.matches.SameAs(reference));
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, SubSplitEquivalenceTest,
    ::testing::Combine(::testing::Values(1u, 2u, 4u, 8u),
                       ::testing::Values(1u, 5u, 19u)),
    [](const auto& info) {
      return "sub" + std::to_string(std::get<0>(info.param)) + "_r" +
             std::to_string(std::get<1>(info.param));
    });

TEST(SubSplitTest, TwoSourceEquivalence) {
  auto blocking = ExampleBlocking();
  er::LambdaMatcher all(
      [](const er::Entity&, const er::Entity&) { return true; }, "all");
  auto parts = testing_util::PaperTwoSourcePartitions();
  auto tags = testing_util::PaperTwoSourceTags();
  for (uint32_t sub : {2u, 3u}) {
    auto run = testing_util::RunWithPlan(StrategyKind::kBlockSplit, parts,
                                         blocking, all, 5, 2, &tags,
                                         lb::TaskAssignment::kGreedyLpt, sub);
    EXPECT_EQ(run.comparisons, 12) << "sub=" << sub;
    EXPECT_EQ(run.matches.size(), 12u) << "sub=" << sub;
  }
}

TEST(SubSplitPlanTest, InvalidSubSplitsRejected) {
  auto bdm = bdm::Bdm::FromKeys({{"a", "a"}});
  ASSERT_TRUE(bdm.ok());
  EXPECT_FALSE(BlockSplitPlan::Build(*bdm, 1,
                                     lb::TaskAssignment::kGreedyLpt, 0)
                   .ok());
}

// ---------------------------------------------------------------------
// Multi-pass blocking.
// ---------------------------------------------------------------------

er::Entity MakeProduct(uint64_t id, const char* title, const char* manu) {
  er::Entity e;
  e.id = id;
  e.fields = {title, manu};
  return e;
}

TEST(MultiPassTest, UnionsPassesAndSuppressesDuplicates) {
  // Pass 0: title prefix; pass 1: manufacturer. Entities 1 and 2 share
  // both; 3 and 4 share only the manufacturer.
  std::vector<er::Entity> entities{
      MakeProduct(1, "alpha cam x100", "acme"),
      MakeProduct(2, "alpha cam x200", "acme"),
      MakeProduct(3, "beta phone 7", "acme"),
      MakeProduct(4, "gamma phone 7", "acme"),
      MakeProduct(5, "delta tv 55", "zenit"),
  };
  er::PrefixBlocking pass0(0, 3);
  er::AttributeBlocking pass1(1);
  std::vector<const er::BlockingFunction*> passes{&pass0, &pass1};
  er::LambdaMatcher all(
      [](const er::Entity&, const er::Entity&) { return true; }, "all");

  core::StandardGraphOptions graph;
  graph.num_reduce_tasks = 4;
  core::Dataflow df;
  std::atomic<int64_t> suppressed{0};
  ASSERT_TRUE(core::AddMultiPassGraph(&df, graph, 2, &entities, &passes,
                                      &all, &suppressed)
                  .ok());
  auto result = RunGraph(&df);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  // Candidate pairs: pass0 {1,2}; pass1 block acme {1,2,3,4}: 6 pairs,
  // of which (1,2) is suppressed as an earlier-pass duplicate.
  auto reference = core::ReferenceMultiPassDeduplicate(entities, passes,
                                                       all);
  EXPECT_TRUE(result->matches.SameAs(reference));
  EXPECT_EQ(result->matches.size(), 6u);
  EXPECT_EQ(suppressed.load(), 1);
}

class MultiPassStrategyTest
    : public ::testing::TestWithParam<StrategyKind> {};

TEST_P(MultiPassStrategyTest, MatchesReferenceOnGeneratedData) {
  gen::SkewConfig cfg;
  cfg.num_entities = 400;
  cfg.num_blocks = 10;
  cfg.skew = 0.5;
  cfg.duplicate_fraction = 0.3;
  cfg.seed = 12;
  auto entities = gen::GenerateSkewed(cfg);
  ASSERT_TRUE(entities.ok());
  // Pass 0: the explicit block label; pass 1: 4-char title prefix.
  er::AttributeBlocking pass0(gen::kSkewBlockField);
  er::PrefixBlocking pass1(gen::kSkewTitleField, 4);
  std::vector<const er::BlockingFunction*> passes{&pass0, &pass1};
  er::EditDistanceMatcher matcher(0.8);

  auto reference =
      core::ReferenceMultiPassDeduplicate(*entities, passes, matcher);
  ASSERT_GT(reference.size(), 0u);

  core::StandardGraphOptions graph;
  graph.strategy = GetParam();
  graph.num_reduce_tasks = 7;
  core::Dataflow df;
  std::atomic<int64_t> suppressed{0};
  ASSERT_TRUE(core::AddMultiPassGraph(&df, graph, 3, &*entities, &passes,
                                      &matcher, &suppressed)
                  .ok());
  auto result = RunGraph(&df);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(result->matches.SameAs(reference))
      << lb::StrategyKindToName(GetParam()) << ": got "
      << result->matches.size() << " want " << reference.size();
}

INSTANTIATE_TEST_SUITE_P(AllStrategies, MultiPassStrategyTest,
                         ::testing::Values(StrategyKind::kBasic,
                                           StrategyKind::kBlockSplit,
                                           StrategyKind::kPairRange),
                         [](const auto& info) {
                           return lb::StrategyKindToName(info.param);
                         });

TEST(MultiPassTest, SinglePassEqualsPlainDeduplicate) {
  gen::SkewConfig cfg;
  cfg.num_entities = 200;
  cfg.num_blocks = 5;
  cfg.skew = 0.3;
  cfg.seed = 44;
  auto entities = gen::GenerateSkewed(cfg);
  ASSERT_TRUE(entities.ok());
  er::AttributeBlocking blocking(gen::kSkewBlockField);
  std::vector<const er::BlockingFunction*> passes{&blocking};
  er::EditDistanceMatcher matcher(0.8);
  core::Dataflow df;
  std::atomic<int64_t> suppressed{0};
  ASSERT_TRUE(core::AddMultiPassGraph(&df, {}, 4, &*entities, &passes,
                                      &matcher, &suppressed)
                  .ok());
  auto multi = RunGraph(&df);
  auto plain = testing_util::RunStandardGraph({}, {}, 4, *entities,
                                              blocking, matcher);
  ASSERT_TRUE(multi.ok());
  ASSERT_TRUE(plain.ok());
  EXPECT_TRUE(multi->matches.SameAs(plain->matches));
  EXPECT_EQ(suppressed.load(), 0);
}

TEST(MultiPassTest, EmptyPassesRejected) {
  er::EditDistanceMatcher matcher(0.8);
  std::vector<er::Entity> entities{MakeProduct(1, "x", "y")};
  const std::vector<const er::BlockingFunction*> no_passes;
  core::Dataflow df;
  std::atomic<int64_t> suppressed{0};
  EXPECT_TRUE(core::AddMultiPassGraph(&df, {}, 4, &entities, &no_passes,
                                      &matcher, &suppressed)
                  .IsInvalidArgument());
}

// Multi-pass × out-of-core: the composed per-pass dataflow in kExternal
// must be byte-identical to kInMemory — matches, suppressed duplicates,
// comparison counts, and the per-task counters of every per-pass job.
class MultiPassExternalTest
    : public ::testing::TestWithParam<StrategyKind> {};

TEST_P(MultiPassExternalTest, ExternalEqualsInMemoryByteForByte) {
  gen::SkewConfig cfg;
  cfg.num_entities = 700;
  cfg.num_blocks = 12;
  cfg.skew = 0.6;
  cfg.duplicate_fraction = 0.3;
  cfg.seed = 91;
  auto entities = gen::GenerateSkewed(cfg);
  ASSERT_TRUE(entities.ok());
  er::AttributeBlocking pass0(gen::kSkewBlockField);
  er::PrefixBlocking pass1(gen::kSkewTitleField, 4);
  std::vector<const er::BlockingFunction*> passes{&pass0, &pass1};
  er::EditDistanceMatcher matcher(0.8);

  std::atomic<int64_t> suppressed[2] = {0, 0};
  auto run = [&](mr::ExecutionMode mode, std::atomic<int64_t>* counter) {
    core::DataflowOptions resources;
    resources.num_workers = 4;
    resources.execution.mode = mode;
    resources.execution.io_buffer_bytes = 512;
    core::StandardGraphOptions graph;
    graph.strategy = GetParam();
    graph.num_reduce_tasks = 6;
    core::Dataflow df(resources);
    EXPECT_TRUE(core::AddMultiPassGraph(&df, graph, 3, &*entities, &passes,
                                        &matcher, counter)
                    .ok());
    return RunGraph(&df);
  };
  auto mem = run(mr::ExecutionMode::kInMemory, &suppressed[0]);
  auto ext = run(mr::ExecutionMode::kExternal, &suppressed[1]);
  ASSERT_TRUE(mem.ok()) << mem.status().ToString();
  ASSERT_TRUE(ext.ok()) << ext.status().ToString();

  EXPECT_GT(mem->matches.size(), 0u);
  EXPECT_EQ(mem->matches.pairs(), ext->matches.pairs());
  EXPECT_EQ(suppressed[0].load(), suppressed[1].load());
  EXPECT_GT(suppressed[0].load(), 0);
  EXPECT_EQ(mem->report.TotalComparisons(), ext->report.TotalComparisons());

  // Stage-by-stage: same graph shape, same per-task counters, and the
  // external run really spilled in every MR stage.
  ASSERT_EQ(mem->report.stages.size(), ext->report.stages.size());
  bool spilled_somewhere = false;
  for (size_t i = 0; i < mem->report.stages.size(); ++i) {
    const core::StageReport& a = mem->report.stages[i];
    const core::StageReport& b = ext->report.stages[i];
    EXPECT_EQ(a.stage, b.stage);
    EXPECT_EQ(a.comparisons, b.comparisons) << a.stage;
    EXPECT_EQ(a.output_records, b.output_records) << a.stage;
    ASSERT_EQ(a.job.has_value(), b.job.has_value());
    if (a.job.has_value()) {
      EXPECT_FALSE(a.job->external);
      EXPECT_TRUE(b.job->external) << b.stage;
      spilled_somewhere |= b.spill_bytes > 0;
      EXPECT_EQ(a.job->counters.values(), b.job->counters.values())
          << a.stage;
      ASSERT_EQ(a.job->reduce_tasks.size(), b.job->reduce_tasks.size());
      for (size_t t = 0; t < a.job->reduce_tasks.size(); ++t) {
        EXPECT_EQ(a.job->reduce_tasks[t].input_records,
                  b.job->reduce_tasks[t].input_records);
        EXPECT_EQ(a.job->reduce_tasks[t].groups,
                  b.job->reduce_tasks[t].groups);
      }
    }
  }
  EXPECT_TRUE(spilled_somewhere);

  // And both agree with the brute-force reference.
  auto reference =
      core::ReferenceMultiPassDeduplicate(*entities, passes, matcher);
  EXPECT_TRUE(mem->matches.SameAs(reference));
}

INSTANTIATE_TEST_SUITE_P(AllStrategies, MultiPassExternalTest,
                         ::testing::Values(StrategyKind::kBasic,
                                           StrategyKind::kBlockSplit,
                                           StrategyKind::kPairRange),
                         [](const auto& info) {
                           return lb::StrategyKindToName(info.param);
                         });

// ---------------------------------------------------------------------
// CSV entity I/O.
// ---------------------------------------------------------------------

std::string TempPath(const char* name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

TEST(EntityIoTest, RoundTripEntities) {
  std::vector<er::Entity> entities{MakeProduct(7, "canon, eos", "canon"),
                                   MakeProduct(9, "nikon \"d90\"", "nikon")};
  std::string path = TempPath("erlb_entities.csv");
  ASSERT_TRUE(er::SaveEntitiesToCsv(path, entities).ok());
  er::CsvSchema schema;
  schema.id_column = 0;
  auto loaded = er::LoadEntitiesFromCsv(path, schema);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ASSERT_EQ(loaded->size(), 2u);
  EXPECT_EQ((*loaded)[0].id, 7u);
  EXPECT_EQ((*loaded)[0].fields[0], "canon, eos");
  EXPECT_EQ((*loaded)[1].fields[0], "nikon \"d90\"");
  std::remove(path.c_str());
}

TEST(EntityIoTest, AutoAssignedIds) {
  std::string path = TempPath("erlb_noid.csv");
  ASSERT_TRUE(WriteCsvFile(path, {{"title"}, {"a"}, {"b"}}).ok());
  er::CsvSchema schema;  // id_column = -1
  auto loaded = er::LoadEntitiesFromCsv(path, schema);
  ASSERT_TRUE(loaded.ok());
  ASSERT_EQ(loaded->size(), 2u);
  EXPECT_EQ((*loaded)[0].id, 1u);
  EXPECT_EQ((*loaded)[1].id, 2u);
  std::remove(path.c_str());
}

TEST(EntityIoTest, SelectedFieldColumns) {
  std::string path = TempPath("erlb_cols.csv");
  ASSERT_TRUE(
      WriteCsvFile(path, {{"id", "junk", "title"}, {"5", "x", "hello"}})
          .ok());
  er::CsvSchema schema;
  schema.id_column = 0;
  schema.field_columns = {2};
  auto loaded = er::LoadEntitiesFromCsv(path, schema);
  ASSERT_TRUE(loaded.ok());
  ASSERT_EQ(loaded->size(), 1u);
  EXPECT_EQ((*loaded)[0].id, 5u);
  ASSERT_EQ((*loaded)[0].fields.size(), 1u);
  EXPECT_EQ((*loaded)[0].fields[0], "hello");
  std::remove(path.c_str());
}

TEST(EntityIoTest, BadIdRejected) {
  std::string path = TempPath("erlb_badid.csv");
  ASSERT_TRUE(WriteCsvFile(path, {{"id", "t"}, {"abc", "x"}}).ok());
  er::CsvSchema schema;
  schema.id_column = 0;
  EXPECT_TRUE(
      er::LoadEntitiesFromCsv(path, schema).status().IsInvalidArgument());
  std::remove(path.c_str());
}

TEST(EntityIoTest, MatchesRoundTrip) {
  er::MatchResult matches;
  matches.Add(3, 1);
  matches.Add(5, 9);
  std::string path = TempPath("erlb_matches.csv");
  ASSERT_TRUE(er::SaveMatchesToCsv(path, matches).ok());
  auto loaded = er::LoadMatchesFromCsv(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_TRUE(loaded->SameAs(matches));
  std::remove(path.c_str());
}

}  // namespace
}  // namespace erlb
