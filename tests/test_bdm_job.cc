#include "bdm/bdm_job.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <optional>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "common/io_buffer.h"
#include "common/random.h"
#include "gen/skew_gen.h"
#include "paper_example.h"

namespace erlb {
namespace bdm {
namespace {

using testing_util::ExampleBlocking;
using testing_util::PaperExamplePartitions;
using testing_util::PaperTwoSourcePartitions;
using testing_util::PaperTwoSourceTags;

TEST(BdmJobTest, PaperExampleMatrix) {
  mr::JobRunner runner(2);
  BdmJobOptions options;
  options.num_reduce_tasks = 3;
  auto blocking = ExampleBlocking();
  auto out = RunBdmJob(PaperExamplePartitions(), blocking, options, runner);
  ASSERT_TRUE(out.ok());
  const Bdm& bdm = out->bdm;
  EXPECT_EQ(bdm.num_blocks(), 4u);
  EXPECT_EQ(bdm.num_partitions(), 2u);
  EXPECT_EQ(bdm.Size(3, 0), 2u);
  EXPECT_EQ(bdm.Size(3, 1), 3u);
  EXPECT_EQ(bdm.TotalPairs(), 20u);
}

TEST(BdmJobTest, ResultIndependentOfReduceTasks) {
  mr::JobRunner runner(3);
  auto blocking = ExampleBlocking();
  for (uint32_t r : {1u, 2u, 5u, 16u}) {
    BdmJobOptions options;
    options.num_reduce_tasks = r;
    auto out =
        RunBdmJob(PaperExamplePartitions(), blocking, options, runner);
    ASSERT_TRUE(out.ok()) << "r=" << r;
    EXPECT_EQ(out->bdm.TotalPairs(), 20u) << "r=" << r;
    EXPECT_EQ(out->bdm.num_blocks(), 4u) << "r=" << r;
  }
}

TEST(BdmJobTest, CombinerDoesNotChangeResult) {
  mr::JobRunner runner(2);
  auto blocking = ExampleBlocking();
  BdmJobOptions with, without;
  with.num_reduce_tasks = without.num_reduce_tasks = 2;
  with.use_combiner = true;
  without.use_combiner = false;
  auto a = RunBdmJob(PaperExamplePartitions(), blocking, with, runner);
  auto b = RunBdmJob(PaperExamplePartitions(), blocking, without, runner);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a->bdm.ToTriples().size(), b->bdm.ToTriples().size());
  for (uint32_t k = 0; k < a->bdm.num_blocks(); ++k) {
    for (uint32_t p = 0; p < 2; ++p) {
      EXPECT_EQ(a->bdm.Size(k, p), b->bdm.Size(k, p));
    }
  }
  // The combiner shrinks the shuffle: one record per (block, partition).
  int64_t with_recs = 0, without_recs = 0;
  for (const auto& t : a->metrics.reduce_tasks) {
    with_recs += t.input_records;
  }
  for (const auto& t : b->metrics.reduce_tasks) {
    without_recs += t.input_records;
  }
  EXPECT_EQ(with_recs, 8);      // 8 non-zero BDM cells
  EXPECT_EQ(without_recs, 14);  // one per entity
}

TEST(BdmJobTest, AnnotatedSideOutputMirrorsInput) {
  mr::JobRunner runner(2);
  auto blocking = ExampleBlocking();
  BdmJobOptions options;
  options.num_reduce_tasks = 2;
  auto parts = PaperExamplePartitions();
  auto out = RunBdmJob(parts, blocking, options, runner);
  ASSERT_TRUE(out.ok());
  // "map produces an additional output Π'i per partition that contains the
  // original entities annotated with their blocking keys."
  ASSERT_EQ(out->annotated->num_tasks(), 2u);
  for (uint32_t p = 0; p < 2; ++p) {
    const auto& file = out->annotated->File(p);
    ASSERT_EQ(file.size(), parts[p].size());
    for (size_t i = 0; i < file.size(); ++i) {
      EXPECT_EQ(file[i].first, blocking.Key(*parts[p][i]));
      EXPECT_EQ(file[i].second->id, parts[p][i]->id);
    }
  }
}

TEST(BdmJobTest, MissingKeyErrorPolicy) {
  mr::JobRunner runner(2);
  er::AttributeBlocking blocking(5);  // field 5 doesn't exist -> empty key
  BdmJobOptions options;
  options.num_reduce_tasks = 1;
  auto out = RunBdmJob(PaperExamplePartitions(), blocking, options, runner);
  EXPECT_TRUE(out.status().IsInvalidArgument());
}

TEST(BdmJobTest, MissingKeySkipPolicy) {
  mr::JobRunner runner(2);
  er::AttributeBlocking blocking(5);
  BdmJobOptions options;
  options.num_reduce_tasks = 1;
  options.missing_key_policy = MissingKeyPolicy::kSkip;
  auto out = RunBdmJob(PaperExamplePartitions(), blocking, options, runner);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->skipped_entities, 14u);
  EXPECT_EQ(out->bdm.num_blocks(), 0u);
}

TEST(BdmJobTest, MissingKeyBottomPolicy) {
  mr::JobRunner runner(2);
  er::AttributeBlocking blocking(5);
  BdmJobOptions options;
  options.num_reduce_tasks = 1;
  options.missing_key_policy = MissingKeyPolicy::kBottom;
  auto out = RunBdmJob(PaperExamplePartitions(), blocking, options, runner);
  ASSERT_TRUE(out.ok());
  ASSERT_EQ(out->bdm.num_blocks(), 1u);
  EXPECT_EQ(out->bdm.BlockKey(0), er::kBottomKey);
  EXPECT_EQ(out->bdm.view(0).size(), 14u);  // full Cartesian product block
}

TEST(BdmJobTest, EmptyInputRejected) {
  mr::JobRunner runner(1);
  auto blocking = ExampleBlocking();
  BdmJobOptions options;
  EXPECT_TRUE(
      RunBdmJob({}, blocking, options, runner).status().IsInvalidArgument());
}

TEST(BdmJobTest, TwoSourceTagsInTriples) {
  mr::JobRunner runner(2);
  auto blocking = ExampleBlocking();
  BdmJobOptions options;
  options.num_reduce_tasks = 2;
  options.partition_sources = PaperTwoSourceTags();
  auto out =
      RunBdmJob(PaperTwoSourcePartitions(), blocking, options, runner);
  ASSERT_TRUE(out.ok());
  EXPECT_TRUE(out->bdm.two_source());
  EXPECT_EQ(out->bdm.TotalPairs(), 12u);
  EXPECT_EQ(out->bdm.view(3).size_s(), 3u);
}

TEST(BdmJobTest, TwoSourceTagSizeMismatchRejected) {
  mr::JobRunner runner(2);
  auto blocking = ExampleBlocking();
  BdmJobOptions options;
  options.partition_sources = {er::Source::kR};  // 1 tag, 3 partitions
  EXPECT_TRUE(RunBdmJob(PaperTwoSourcePartitions(), blocking, options,
                        runner)
                  .status()
                  .IsInvalidArgument());
}

TEST(BdmJobTest, MapOutputCountsMatchEntityCounts) {
  mr::JobRunner runner(2);
  auto blocking = ExampleBlocking();
  BdmJobOptions options;
  options.num_reduce_tasks = 2;
  options.use_combiner = false;
  auto out = RunBdmJob(PaperExamplePartitions(), blocking, options, runner);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->metrics.TotalMapOutputPairs(), 14);
  EXPECT_EQ(out->metrics.TotalMapInputRecords(), 14);
}

// ---- BDM assembly from the job's reduce output ----------------------------
//
// RunBdmJob orders the per-task groups of its reduce output instead of
// sorting every cell, and FromTriples then takes the already sorted
// triples in one pass. The result must be exactly FromTriples over the
// same cells in any order — in every execution mode, including a run
// resumed from commit records, for any number of reduce tasks.

/// The BDM cells of `parts` counted directly, as triples in shuffled
/// order.
std::vector<BdmTriple> ShuffledCells(const er::Partitions& parts,
                                     const er::BlockingFunction& blocking,
                                     const std::vector<er::Source>& sources,
                                     uint64_t seed) {
  std::map<std::pair<std::string, uint32_t>, uint64_t> counts;
  for (uint32_t p = 0; p < parts.size(); ++p) {
    for (const auto& e : parts[p]) ++counts[{blocking.Key(*e), p}];
  }
  std::vector<BdmTriple> triples;
  for (const auto& [cell, count] : counts) {
    BdmTriple t;
    t.block_key = cell.first;
    t.partition = cell.second;
    t.source = sources.empty() ? er::Source::kR : sources[cell.second];
    t.count = count;
    triples.push_back(std::move(t));
  }
  Pcg32 rng(seed);
  for (size_t i = triples.size(); i > 1; --i) {
    std::swap(triples[i - 1],
              triples[rng.NextBounded(static_cast<uint32_t>(i))]);
  }
  return triples;
}

void ExpectSameBdm(const Bdm& got, const Bdm& want, const std::string& label) {
  EXPECT_EQ(got.ContentHash(), want.ContentHash()) << label;
  ASSERT_EQ(got.num_blocks(), want.num_blocks()) << label;
  EXPECT_EQ(got.num_partitions(), want.num_partitions()) << label;
  EXPECT_EQ(got.partition_sources(), want.partition_sources()) << label;
  for (uint32_t k = 0; k < want.num_blocks(); ++k) {
    ASSERT_EQ(got.BlockKey(k), want.BlockKey(k)) << label << " block " << k;
    const auto got_cells = got.view(k).cells();
    const auto want_cells = want.view(k).cells();
    ASSERT_TRUE(std::equal(got_cells.begin(), got_cells.end(),
                           want_cells.begin(), want_cells.end()))
        << label << " block " << k;
  }
}

class BdmAssemblyTest : public ::testing::Test {
 protected:
  void SetUp() override {
    gen::SkewConfig config;
    config.num_entities = 3000;
    config.num_blocks = 400;
    config.skew = 0.5;
    config.seed = 11;
    auto entities = gen::GenerateSkewed(config);
    ASSERT_TRUE(entities.ok());
    parts_ = er::SplitIntoPartitions(*entities, 6);
    auto dir = ScopedTempDir::Make("", "erlb-bdm-assembly");
    ASSERT_TRUE(dir.ok());
    dir_.emplace(std::move(*dir));
  }

  /// Runs the BDM job in every execution mode for r in {1, 3, 32} and
  /// compares each result with FromTriples over the shuffled cells.
  void ExpectEveryModeMatches(const std::vector<er::Source>& sources) {
    std::vector<BdmTriple> cells =
        ShuffledCells(parts_, blocking_, sources, 99);
    auto want = sources.empty()
                    ? Bdm::FromTriples(cells, 6)
                    : Bdm::FromTriplesTwoSource(cells, sources);
    ASSERT_TRUE(want.ok()) << want.status().ToString();

    struct Mode {
      const char* name;
      mr::ExecutionOptions options;
    };
    std::vector<Mode> modes(3);
    modes[0].name = "in-memory";
    modes[0].options.mode = mr::ExecutionMode::kInMemory;
    modes[1].name = "external";
    modes[1].options.mode = mr::ExecutionMode::kExternal;
    modes[1].options.io_buffer_bytes = 512;
    modes[2].name = "multi-process";
    modes[2].options.mode = mr::ExecutionMode::kMultiProcess;
    modes[2].options.num_worker_processes = 2;
    for (const Mode& mode : modes) {
      for (uint32_t r : {1u, 3u, 32u}) {
        const std::string label =
            std::string(mode.name) + " r=" + std::to_string(r);
        BdmJobOptions options;
        options.num_reduce_tasks = r;
        options.partition_sources = sources;
        auto out = RunBdmJob(parts_, blocking_, options,
                             mr::JobRunner(3, mode.options));
        ASSERT_TRUE(out.ok()) << label << ": " << out.status().ToString();
        ExpectSameBdm(out->bdm, *want, label);
      }
    }

    // Resumed: a second runner over the same checkpoint restores every
    // reduce task's output from its commit record instead of running it.
    mr::ExecutionOptions durable;
    durable.mode = mr::ExecutionMode::kExternal;
    durable.checkpoint.dir =
        dir_->path() + "/ck" + std::to_string(sources.size());
    BdmJobOptions options;
    options.num_reduce_tasks = 3;
    options.partition_sources = sources;
    auto first =
        RunBdmJob(parts_, blocking_, options, mr::JobRunner(3, durable));
    ASSERT_TRUE(first.ok()) << first.status().ToString();
    auto resumed =
        RunBdmJob(parts_, blocking_, options, mr::JobRunner(3, durable));
    ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
    EXPECT_EQ(resumed->metrics.reduce_tasks_resumed, 3);
    ExpectSameBdm(resumed->bdm, *want, "resumed");
  }

  er::AttributeBlocking blocking_{gen::kSkewBlockField};
  er::Partitions parts_;
  std::optional<ScopedTempDir> dir_;
};

TEST_F(BdmAssemblyTest, OneSourceEqualsFromShuffledTriples) {
  ExpectEveryModeMatches({});
}

TEST_F(BdmAssemblyTest, TwoSourceWithSPartitionsFirstEqualsFromShuffled) {
  // The job orders a block's cells by (source, partition) and R sorts
  // before S, so with S partitions ahead of R partitions a block's cells
  // reach FromTriples out of partition order: its sort fix-up must run.
  ExpectEveryModeMatches({er::Source::kS, er::Source::kS, er::Source::kS,
                          er::Source::kR, er::Source::kR, er::Source::kR});
}

TEST(BdmFromTriplesTest, SortedInputWithDuplicateIsAlreadyExists) {
  std::vector<BdmTriple> sorted(3);
  sorted[0].block_key = "a";
  sorted[1].block_key = "b";
  sorted[1].partition = 1;
  sorted[2].block_key = "b";
  sorted[2].partition = 1;
  for (auto& t : sorted) t.count = 1;
  auto bdm = Bdm::FromTriples(sorted, 2);
  ASSERT_EQ(bdm.status().code(), StatusCode::kAlreadyExists)
      << bdm.status().ToString();
  EXPECT_NE(bdm.status().message().find("'b' partition 1"), std::string::npos);
  // The range check still comes first.
  sorted[0].partition = 7;
  EXPECT_TRUE(Bdm::FromTriples(sorted, 2).status().IsOutOfRange());
}

TEST(BdmFromTriplesTest, AssembleBdmSortsGroupsNotAlreadyInKeyOrder) {
  // Reduce output that breaks the job's layout — one task's groups out
  // of key order, one block split across two tasks — is still built
  // correctly, through FromTriples' sort.
  BdmReduceOutput outputs(2);
  auto triple = [](const char* key, uint32_t partition, uint64_t count) {
    BdmTriple t;
    t.block_key = key;
    t.partition = partition;
    t.count = count;
    return std::make_pair(0u, t);
  };
  outputs[0] = {triple("c", 0, 1), triple("a", 1, 2), triple("b", 1, 1)};
  outputs[1] = {triple("b", 0, 4), triple("d", 0, 3)};
  auto bdm = AssembleBdm(outputs, 2, {});
  ASSERT_TRUE(bdm.ok()) << bdm.status().ToString();
  std::vector<BdmTriple> all;
  for (const auto& part : outputs) {
    for (const auto& [unused, t] : part) all.push_back(t);
  }
  auto want = Bdm::FromTriples(all, 2);
  ASSERT_TRUE(want.ok());
  ExpectSameBdm(*bdm, *want, "out of order");
  ASSERT_EQ(bdm->num_blocks(), 4u);
  EXPECT_EQ(bdm->Size(1, 0), 4u);
  EXPECT_EQ(bdm->Size(1, 1), 1u);
}

}  // namespace
}  // namespace bdm
}  // namespace erlb
