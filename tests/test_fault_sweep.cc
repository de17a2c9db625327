// Systematic fault sweep (ISSUE 7 satellite): every registered
// injection site is armed in turn against a checkpointed, retrying,
// out-of-core pipeline run over chunked CSV input. The contract under
// any injected fault:
//
//   1. the run either succeeds with matches identical to the unfaulted
//      reference, or fails with a clean Status — it never crashes, and
//   2. a rerun over the same checkpoint directory (fault cleared)
//      always converges to the reference result.
//
// A deterministic randomized pass varies site, trigger hit, and repeat
// mode on top of the exhaustive one-shot sweep.
#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/fault.h"
#include "common/io_buffer.h"
#include "common/random.h"
#include "common/status.h"
#include "core/pipeline.h"
#include "er/blocking.h"
#include "er/entity_io.h"
#include "er/matcher.h"
#include "gen/skew_gen.h"
#include "mr/job.h"

namespace erlb {
namespace {

class FaultSweepTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto base = ScopedTempDir::Make();
    ASSERT_TRUE(base.ok());
    base_.emplace(std::move(*base));

    gen::SkewConfig config;
    config.num_entities = 250;
    config.num_blocks = 10;
    config.skew = 1.0;
    config.duplicate_fraction = 0.2;
    config.seed = 7;
    auto data = gen::GenerateSkewed(config);
    ASSERT_TRUE(data.ok());
    csv_path_ = base_->path() + "/entities.csv";
    ASSERT_TRUE(er::SaveEntitiesToCsv(csv_path_, *data).ok());

    auto reference = RunPipeline("");
    ASSERT_TRUE(reference.ok()) << reference.status().ToString();
    reference_.emplace(std::move(*reference));
  }

  void TearDown() override { FaultInjector::Global().Reset(); }

  // One checkpointed external run over the chunked CSV ingest path,
  // with a retry budget — the configuration every fault site
  // participates in. `checkpoint_dir` empty means "fresh scratch dir".
  Result<core::ErPipelineResult> RunPipeline(std::string checkpoint_dir) {
    static int scratch_seq = 0;
    if (checkpoint_dir.empty()) {
      checkpoint_dir =
          base_->path() + "/scratch-ck-" + std::to_string(scratch_seq++);
    }
    mr::ExecutionOptions opts;
    opts.mode = mr::ExecutionMode::kExternal;
    opts.io_buffer_bytes = 256;
    opts.max_task_attempts = 3;
    opts.checkpoint.dir = checkpoint_dir;
    er::CsvSchema schema;
    schema.id_column = 0;
    schema.has_header = true;
    core::ErPipelineConfig config;
    config.execution = opts;
    config.strategy = lb::StrategyKind::kBlockSplit;
    config.num_reduce_tasks = 5;
    config.num_workers = 2;
    config.csv_split_records = 64;
    const core::ErPipeline pipeline(config);
    return pipeline.DeduplicateCsv(
        csv_path_, schema, er::AttributeBlocking(gen::kSkewBlockField),
        er::JaroWinklerMatcher(0.85, gen::kSkewTitleField));
  }

  // Runs with the given fault armed and checks the sweep contract;
  // returns whether the faulted run succeeded.
  bool CheckContract(const std::string& site, const FaultSpec& spec,
                     const std::string& checkpoint_dir) {
    auto& fi = FaultInjector::Global();
    fi.Reset();
    EXPECT_TRUE(fi.Arm(site, spec).ok()) << site;

    auto faulted = RunPipeline(checkpoint_dir);
    const bool fired = fi.HitCount(site) >= spec.trigger_hit;
    fi.Reset();
    if (faulted.ok()) {
      // Retries absorbed the fault (or it never triggered): the result
      // must be indistinguishable from the reference.
      EXPECT_TRUE(faulted->matches.SameAs(reference_->matches)) << site;
      EXPECT_EQ(faulted->comparisons, reference_->comparisons) << site;
    } else {
      // A clean, explained failure — only acceptable if the fault
      // actually fired.
      EXPECT_TRUE(fired) << site << ": " << faulted.status().ToString();
      EXPECT_FALSE(faulted.status().message().empty()) << site;
      // Convergence: rerunning over the same (possibly partial)
      // checkpoint directory with the fault cleared must succeed and
      // match the reference.
      auto rerun = RunPipeline(checkpoint_dir);
      EXPECT_TRUE(rerun.ok()) << site << ": " << rerun.status().ToString();
      if (rerun.ok()) {
        EXPECT_TRUE(rerun->matches.SameAs(reference_->matches)) << site;
        EXPECT_EQ(rerun->comparisons, reference_->comparisons) << site;
      }
    }
    return faulted.ok();
  }

  std::optional<ScopedTempDir> base_;
  std::string csv_path_;
  std::optional<core::ErPipelineResult> reference_;
};

TEST_F(FaultSweepTest, EveryRegisteredSiteOneShotError) {
  auto sites = FaultInjector::RegisteredSites();
  ASSERT_FALSE(sites.empty());
  for (const auto& site : sites) {
    // worker.* sites live in the multi-process coordinator and cannot
    // fire under this single-process external configuration; their
    // deterministic crash/reassignment coverage is test_multiprocess.cc.
    if (std::string_view(site).rfind("worker.", 0) == 0) continue;
    // serve.* sites live in the erlb_serve daemon (accept loop, batch
    // drain) and never fire inside a batch pipeline; their injection
    // coverage is tests/test_serve.cc and the serve smoke test.
    if (std::string_view(site).rfind("serve.", 0) == 0) continue;
    FaultSpec spec;
    spec.kind = FaultKind::kError;
    spec.trigger_hit = 1;
    auto& fi = FaultInjector::Global();
    fi.Reset();
    ASSERT_TRUE(fi.Arm(site, spec).ok()) << site;
    const std::string ck_dir = base_->path() + "/ck-" + std::string(site);
    auto faulted = RunPipeline(ck_dir);
    // This configuration exercises every registered site at least once.
    EXPECT_GT(fi.HitCount(site), 0u) << site;
    fi.Reset();
    if (faulted.ok()) {
      EXPECT_TRUE(faulted->matches.SameAs(reference_->matches)) << site;
    } else {
      EXPECT_FALSE(faulted.status().message().empty()) << site;
      auto rerun = RunPipeline(ck_dir);
      ASSERT_TRUE(rerun.ok()) << site << ": " << rerun.status().ToString();
      EXPECT_TRUE(rerun->matches.SameAs(reference_->matches)) << site;
    }
  }
}

TEST_F(FaultSweepTest, RepeatingErrorsFailCleanlyAndConverge) {
  // A repeating fault defeats the retry budget: the run must fail with
  // a clean Status and the cleared rerun must converge. Spot-check the
  // task-lifecycle and durability sites (the full matrix is covered by
  // the randomized pass).
  for (const std::string site :
       {"task.map", "task.reduce", "spill.append", "checkpoint.commit"}) {
    FaultSpec spec;
    spec.kind = FaultKind::kError;
    spec.trigger_hit = 1;
    spec.repeat = true;
    EXPECT_FALSE(CheckContract(site, spec, base_->path() + "/rep-" + site))
        << site << " should have failed under a repeating fault";
  }
}

TEST_F(FaultSweepTest, RandomizedSiteTriggerRepeatSweep) {
  auto sites = FaultInjector::RegisteredSites();
  Pcg32 rng(20260807);
  for (int round = 0; round < 8; ++round) {
    const auto& site = sites[rng.NextBounded(
        static_cast<uint32_t>(sites.size()))];
    FaultSpec spec;
    spec.kind = FaultKind::kError;
    spec.trigger_hit = 1 + rng.NextBounded(40);
    spec.repeat = rng.NextBounded(2) == 1;
    CheckContract(std::string(site), spec,
                  base_->path() + "/rand-" + std::to_string(round));
  }
}

}  // namespace
}  // namespace erlb
