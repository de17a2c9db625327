#include "bdm/bdm_job.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/io_buffer.h"
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

TEST(BdmJobTest, AnnotatedSideOutputMirrorsInput) {
  mr::JobRunner runner(2);
  auto blocking = ExampleBlocking();
  BdmJobOptions options;
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
  auto out = RunBdmJob(PaperExamplePartitions(), blocking, options, runner);
  EXPECT_TRUE(out.status().IsInvalidArgument());
}

TEST(BdmJobTest, MissingKeySkipPolicy) {
  mr::JobRunner runner(2);
  er::AttributeBlocking blocking(5);
  BdmJobOptions options;
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
  auto out = RunBdmJob(PaperExamplePartitions(), blocking, options, runner);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->metrics.TotalMapOutputPairs(), 14);
  EXPECT_EQ(out->metrics.TotalMapInputRecords(), 14);
  // Map-only: the combined map runs are the job output.
  EXPECT_TRUE(out->metrics.reduce_tasks.empty());
  EXPECT_EQ(out->metrics.reduce_phase_nanos, 0);
}

// ---- BDM assembly from the job's per-partition runs -----------------------
//
// RunBdmJob merges its m per-partition runs by block key instead of
// sorting every cell, and FromTriples then takes the already sorted
// triples in one pass. The result must be exactly the BDM counted
// directly from the blocking keys — in every execution mode, and in a
// run resumed from commit records.

/// The BDM of `parts` counted directly from the blocking keys.
Result<Bdm> OracleBdm(const er::Partitions& parts,
                      const er::BlockingFunction& blocking,
                      const std::vector<er::Source>& sources) {
  std::vector<std::vector<std::string>> keys(parts.size());
  for (size_t p = 0; p < parts.size(); ++p) {
    for (const auto& e : parts[p]) keys[p].push_back(blocking.Key(*e));
  }
  return Bdm::FromKeys(keys, sources.empty() ? nullptr : &sources);
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

  /// Runs the BDM job in every execution mode and under a checkpoint
  /// resume, and compares each result with the oracle.
  void ExpectEveryModeMatches(const std::vector<er::Source>& sources) {
    auto want = OracleBdm(parts_, blocking_, sources);
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
    BdmJobOptions options;
    options.partition_sources = sources;
    for (const Mode& mode : modes) {
      auto out = RunBdmJob(parts_, blocking_, options,
                           mr::JobRunner(3, mode.options));
      ASSERT_TRUE(out.ok()) << mode.name << ": " << out.status().ToString();
      ExpectSameBdm(out->bdm, *want, mode.name);
    }

    // Resumed: a second runner over the same checkpoint restores every
    // map task's run and annotated partition from its commit record
    // instead of running it.
    mr::ExecutionOptions durable;
    durable.mode = mr::ExecutionMode::kExternal;
    durable.checkpoint.dir =
        dir_->path() + "/ck" + std::to_string(sources.size());
    auto first =
        RunBdmJob(parts_, blocking_, options, mr::JobRunner(3, durable));
    ASSERT_TRUE(first.ok()) << first.status().ToString();
    auto resumed =
        RunBdmJob(parts_, blocking_, options, mr::JobRunner(3, durable));
    ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
    EXPECT_EQ(resumed->metrics.map_tasks_resumed, 6);
    EXPECT_EQ(resumed->annotated->TotalRecords(), 3000u);
    ExpectSameBdm(first->bdm, *want, "checkpointed");
    ExpectSameBdm(resumed->bdm, *want, "resumed");
  }

  er::AttributeBlocking blocking_{gen::kSkewBlockField};
  er::Partitions parts_;
  std::optional<ScopedTempDir> dir_;
};

TEST_F(BdmAssemblyTest, OneSourceEqualsOracle) { ExpectEveryModeMatches({}); }

TEST_F(BdmAssemblyTest, TwoSourceWithSPartitionsFirstEqualsOracle) {
  ExpectEveryModeMatches({er::Source::kS, er::Source::kS, er::Source::kS,
                          er::Source::kR, er::Source::kR, er::Source::kR});
}

TEST_F(BdmAssemblyTest, TwoSourceInterleavedEqualsOracle) {
  ExpectEveryModeMatches({er::Source::kS, er::Source::kR, er::Source::kS,
                          er::Source::kR, er::Source::kR, er::Source::kS});
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

TEST(AssembleBdmTest, MergesPerPartitionRunsInPartitionOrder) {
  // Run p is partition p's cells; block "b" occurs in every run and the
  // runs alternate sources, so its cells interleave R and S partitions.
  BdmRuns runs(3);
  runs[0] = {{"a", 2}, {"b", 1}};
  runs[1] = {{"b", 4}, {"d", 3}};
  runs[2] = {{"b", 1}, {"c", 5}};
  const std::vector<er::Source> sources{er::Source::kR, er::Source::kS,
                                        er::Source::kR};
  auto bdm = AssembleBdm(runs, sources);
  ASSERT_TRUE(bdm.ok()) << bdm.status().ToString();
  std::vector<std::vector<std::string>> keys{
      {"a", "a", "b"}, {"b", "b", "b", "b", "d", "d", "d"},
      {"b", "c", "c", "c", "c", "c"}};
  auto want = Bdm::FromKeys(keys, &sources);
  ASSERT_TRUE(want.ok());
  ExpectSameBdm(*bdm, *want, "two-source runs");
  ASSERT_EQ(bdm->num_blocks(), 4u);
  EXPECT_EQ(bdm->view(1).size_r(), 2u);
  EXPECT_EQ(bdm->view(1).size_s(), 4u);

  auto one_source = AssembleBdm(runs, {});
  ASSERT_TRUE(one_source.ok());
  auto want_one = Bdm::FromKeys(keys);
  ASSERT_TRUE(want_one.ok());
  ExpectSameBdm(*one_source, *want_one, "one-source runs");
}

TEST(AssembleBdmTest, SourceTagCountMustMatchRuns) {
  EXPECT_TRUE(AssembleBdm(BdmRuns(2), {er::Source::kR})
                  .status()
                  .IsInvalidArgument());
}

}  // namespace
}  // namespace bdm
}  // namespace erlb
