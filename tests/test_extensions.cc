// Tests for the extensions beyond the paper's core algorithms:
// BlockSplit sub-splitting (finer-than-partition chunks) and CSV entity
// I/O.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>

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
// CSV entity I/O.
// ---------------------------------------------------------------------

er::Entity MakeProduct(uint64_t id, const char* title, const char* manu) {
  er::Entity e;
  e.id = id;
  e.fields = {title, manu};
  return e;
}

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

TEST(EntityIoTest, MatchesFileBytes) {
  // csv_dedup's output format: a header, then one canonical (smaller id
  // first), sorted, deduplicated pair per line.
  er::MatchResult matches;
  matches.Add(5, 9);
  matches.Add(3, 1);
  matches.Add(1, 3);
  matches.Add(12, 10);
  std::string path = TempPath("erlb_matches.csv");
  ASSERT_TRUE(er::SaveMatchesToCsv(path, matches).ok());
  std::ifstream in(path, std::ios::binary);
  const std::string bytes((std::istreambuf_iterator<char>(in)),
                          std::istreambuf_iterator<char>());
  EXPECT_EQ(bytes, "id1,id2\n1,3\n5,9\n10,12\n");
  std::remove(path.c_str());
}

}  // namespace
}  // namespace erlb
