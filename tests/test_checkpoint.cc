// Durable checkpoints through per-task commit records (mr/task_commit.h),
// driven end to end through JobRunner: a job restarted over a partial
// checkpoint produces byte-identical results while skipping committed
// map and reduce tasks, and every kind of mismatch or damage — input
// signature, job shape, resume disabled, truncated spill, corrupt run
// footer, garbage commit record, corrupt side output — degrades to
// re-executing the affected tasks, never to corrupt output.
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/fault.h"
#include "common/io_buffer.h"
#include "common/status.h"
#include "mr/job.h"
#include "mr/spill.h"

namespace erlb {
namespace {

namespace fs = std::filesystem;

// ---- Resume validation: damage between runs degrades to re-execution --

using SumInput = std::vector<std::vector<std::pair<int, int64_t>>>;

class SumMapper : public mr::Mapper<int, int64_t, std::string, int64_t> {
 public:
  void Map(const int& key, const int64_t& v,
           mr::MapContext<std::string, int64_t>* ctx) override {
    ctx->counters()->Increment("mapped", 1);
    // Appending to an lvalue sidesteps GCC 12's -Wrestrict false
    // positive on `"lit" + std::to_string(x)`.
    std::string k = "k";
    k += std::to_string(key % 11);
    ctx->Emit(std::move(k), v);
  }
};

class SumReducer
    : public mr::Reducer<std::string, int64_t, std::string, int64_t> {
 public:
  void Reduce(std::span<const std::pair<std::string, int64_t>> group,
              mr::ReduceContext<std::string, int64_t>* ctx) override {
    int64_t sum = 0;
    for (const auto& [k, v] : group) sum += v;
    ctx->counters()->Increment("groups", 1);
    ctx->Emit(group.front().first, sum);
  }
};

/// Routes a key by its last byte.
struct LastBytePartitionFn {
  uint32_t operator()(const std::string& k, uint32_t r) const {
    return static_cast<uint32_t>(static_cast<unsigned char>(k.back())) % r;
  }
};

// Spillable output types, so reduce tasks commit (and resume) too.
using SumSpec =
    mr::TypedJobSpec<int, int64_t, std::string, int64_t, std::string, int64_t,
                     std::less<>, std::equal_to<>, LastBytePartitionFn>;

SumSpec MakeSumSpec(uint32_t r) {
  SumSpec spec;
  spec.num_reduce_tasks = r;
  spec.mapper_factory = [](const mr::TaskContext&) {
    return std::make_unique<SumMapper>();
  };
  spec.reducer_factory = [](const mr::TaskContext&) {
    return std::make_unique<SumReducer>();
  };
  return spec;
}

SumInput MakeSumInput(int partitions = 4) {
  SumInput input(static_cast<size_t>(partitions));
  for (int i = 0; i < 120; ++i) {
    input[static_cast<size_t>(i % partitions)].push_back({i, i * 7 + 1});
  }
  return input;
}

class CommitResumeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto base = ScopedTempDir::Make();
    ASSERT_TRUE(base.ok());
    base_.emplace(std::move(*base));
    ck_dir_ = base_->path() + "/ck";
  }

  void TearDown() override { FaultInjector::Global().Reset(); }

  mr::ExecutionOptions Options(bool resume = true) const {
    mr::ExecutionOptions opts;
    opts.mode = mr::ExecutionMode::kExternal;
    opts.io_buffer_bytes = 256;
    opts.checkpoint.dir = ck_dir_;
    opts.checkpoint.resume = resume;
    return opts;
  }

  // The directory of the first checkpointed job of a fresh runner.
  std::string JobDir() const { return ck_dir_ + "/job-0"; }

  template <typename Spec, typename Input>
  static auto RunJob(const Spec& spec, const Input& input,
                     const mr::ExecutionOptions& opts) {
    return mr::JobRunner(2, opts).Run(spec, input);
  }

  // Runs the job over the checkpoint (clean, then after `damage`) and
  // checks the rerun against an in-memory reference: byte-identical
  // outputs and counters, with `expected_map_resumed` map tasks restored.
  template <typename Damage>
  void ExpectDamageReexecutes(const Damage& damage,
                              int64_t expected_map_resumed,
                              int64_t expected_reduce_resumed) {
    const auto spec = MakeSumSpec(3);
    const auto input = MakeSumInput();
    const auto reference = mr::JobRunner(1).Run(spec, input);
    ASSERT_TRUE(reference.status.ok());

    fs::remove_all(ck_dir_);
    const auto first = RunJob(spec, input, Options());
    ASSERT_TRUE(first.status.ok()) << first.status.ToString();
    EXPECT_EQ(first.metrics.map_tasks_resumed, 0);
    EXPECT_EQ(first.metrics.reduce_tasks_resumed, 0);

    damage();
    const auto rerun = RunJob(spec, input, Options());
    ASSERT_TRUE(rerun.status.ok()) << rerun.status.ToString();
    EXPECT_EQ(rerun.metrics.map_tasks_resumed, expected_map_resumed);
    EXPECT_EQ(rerun.metrics.reduce_tasks_resumed, expected_reduce_resumed);
    EXPECT_EQ(rerun.outputs_per_reduce_task,
              reference.outputs_per_reduce_task);
    EXPECT_EQ(rerun.metrics.counters.values(),
              reference.metrics.counters.values());
  }

  // Removes every reduce commit record so a rerun must re-merge the map
  // spill files (exercising the map-side damage for real).
  void DropReduceRecords(uint32_t r) const {
    for (uint32_t t = 0; t < r; ++t) {
      fs::remove(mr::TaskCommitRecordPath(JobDir(), "reduce", t));
    }
  }

  std::optional<ScopedTempDir> base_;
  std::string ck_dir_;
};

TEST_F(CommitResumeTest, CleanRerunRestoresEveryTask) {
  ExpectDamageReexecutes([] {}, /*expected_map_resumed=*/4,
                         /*expected_reduce_resumed=*/3);
}

TEST_F(CommitResumeTest, RestoredTasksAreMarkedResumed) {
  const auto spec = MakeSumSpec(3);
  const auto input = MakeSumInput();
  ASSERT_TRUE(RunJob(spec, input, Options()).status.ok());
  fs::remove(mr::TaskCommitRecordPath(JobDir(), "map", 1));
  fs::remove(mr::TaskCommitRecordPath(JobDir(), "reduce", 2));
  const auto rerun = RunJob(spec, input, Options());
  ASSERT_TRUE(rerun.status.ok());
  for (uint32_t t = 0; t < 4; ++t) {
    EXPECT_EQ(rerun.metrics.map_tasks[t].resumed, t != 1) << "map " << t;
  }
  for (uint32_t t = 0; t < 3; ++t) {
    EXPECT_EQ(rerun.metrics.reduce_tasks[t].resumed, t != 2)
        << "reduce " << t;
  }
}

TEST_F(CommitResumeTest, SignatureMismatchStartsFresh) {
  const auto spec = MakeSumSpec(3);
  const auto input = MakeSumInput();
  mr::ExecutionOptions opts = Options();
  opts.checkpoint.identity = "plan-a";
  ASSERT_TRUE(RunJob(spec, input, opts).status.ok());
  opts.checkpoint.identity = "plan-b";
  const auto rerun = RunJob(spec, input, opts);
  ASSERT_TRUE(rerun.status.ok());
  EXPECT_EQ(rerun.metrics.map_tasks_resumed, 0);
  EXPECT_EQ(rerun.metrics.reduce_tasks_resumed, 0);
  EXPECT_EQ(rerun.outputs_per_reduce_task,
            mr::JobRunner(1).Run(spec, input).outputs_per_reduce_task);
}

TEST_F(CommitResumeTest, ShapeMismatchStartsFresh) {
  const auto input = MakeSumInput(4);
  ASSERT_TRUE(RunJob(MakeSumSpec(3), input, Options()).status.ok());

  // Same records, different reduce-task count.
  const auto wider = RunJob(MakeSumSpec(4), input, Options());
  ASSERT_TRUE(wider.status.ok());
  EXPECT_EQ(wider.metrics.map_tasks_resumed, 0);
  EXPECT_EQ(wider.metrics.reduce_tasks_resumed, 0);
  EXPECT_EQ(wider.outputs_per_reduce_task,
            mr::JobRunner(1).Run(MakeSumSpec(4), input)
                .outputs_per_reduce_task);

  // Same records, different map-task count.
  const auto resplit_input = MakeSumInput(5);
  const auto resplit = RunJob(MakeSumSpec(4), resplit_input, Options());
  ASSERT_TRUE(resplit.status.ok());
  EXPECT_EQ(resplit.metrics.map_tasks_resumed, 0);
  EXPECT_EQ(resplit.metrics.reduce_tasks_resumed, 0);
  EXPECT_EQ(resplit.outputs_per_reduce_task,
            mr::JobRunner(1).Run(MakeSumSpec(4), resplit_input)
                .outputs_per_reduce_task);
}

TEST_F(CommitResumeTest, ResumeDisabledReexecutesEverything) {
  const auto spec = MakeSumSpec(3);
  const auto input = MakeSumInput();
  ASSERT_TRUE(RunJob(spec, input, Options()).status.ok());
  const auto rerun = RunJob(spec, input, Options(/*resume=*/false));
  ASSERT_TRUE(rerun.status.ok());
  EXPECT_EQ(rerun.metrics.map_tasks_resumed, 0);
  EXPECT_EQ(rerun.metrics.reduce_tasks_resumed, 0);
  EXPECT_EQ(rerun.outputs_per_reduce_task,
            mr::JobRunner(1).Run(spec, input).outputs_per_reduce_task);
}

TEST_F(CommitResumeTest, TruncatedSpillDegradesToReexecution) {
  ExpectDamageReexecutes(
      [this] {
        DropReduceRecords(3);
        const std::string path = mr::SpillFilePath(JobDir(), 0);
        fs::resize_file(path, fs::file_size(path) - 1);
      },
      /*expected_map_resumed=*/3, /*expected_reduce_resumed=*/0);
}

TEST_F(CommitResumeTest, CorruptFooterDegradesToReexecution) {
  ExpectDamageReexecutes(
      [this] {
        DropReduceRecords(3);
        // Flip a bit in the final run's footer magic.
        const std::string path = mr::SpillFilePath(JobDir(), 0);
        std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
        ASSERT_TRUE(f.good());
        f.seekp(static_cast<std::streamoff>(fs::file_size(path)) -
                static_cast<std::streamoff>(mr::kRunFooterBytes));
        char byte = 0;
        f.read(&byte, 1);
        byte ^= 0x40;
        f.seekp(-1, std::ios::cur);
        f.write(&byte, 1);
      },
      /*expected_map_resumed=*/3, /*expected_reduce_resumed=*/0);
}

TEST_F(CommitResumeTest, GarbageRecordsDegradeToReexecution) {
  ExpectDamageReexecutes(
      [this] {
        DropReduceRecords(3);
        std::ofstream(mr::TaskCommitRecordPath(JobDir(), "map", 0))
            << "{not json";
        std::ofstream(mr::TaskCommitRecordPath(JobDir(), "map", 2)) << "";
      },
      /*expected_map_resumed=*/2, /*expected_reduce_resumed=*/0);
  // A damaged reduce record re-runs just that reduce task.
  ExpectDamageReexecutes(
      [this] {
        std::ofstream(mr::TaskCommitRecordPath(JobDir(), "reduce", 1))
            << "{\"version\": 1}";
      },
      /*expected_map_resumed=*/4, /*expected_reduce_resumed=*/2);
}

// A job with map-side "additional output": each map task records its
// input sum in a side table that the job only sees through the
// encode/decode hooks when the task is restored instead of run.
TEST_F(CommitResumeTest, SideOutputReplayAndCorruption) {
  const auto input = MakeSumInput();
  // One slot per map task: concurrent tasks write disjoint slots.
  auto side = std::make_shared<std::vector<std::string>>(4);
  auto decoded = std::make_shared<int>(0);
  auto spec = MakeSumSpec(3);
  const auto inner = spec.mapper_factory;
  spec.mapper_factory = [=, &input](const mr::TaskContext& ctx) {
    int64_t sum = 0;
    for (const auto& [k, v] : input[ctx.task_index]) sum += v;
    std::string bytes = "sum=";
    bytes += std::to_string(sum);
    (*side)[ctx.task_index] = std::move(bytes);
    return inner(ctx);
  };
  spec.encode_side_output = [side](uint32_t t) { return (*side)[t]; };
  spec.decode_side_output = [=](uint32_t t, std::string_view bytes) {
    (*side)[t] = std::string(bytes);
    ++*decoded;
    return true;
  };

  ASSERT_TRUE(RunJob(spec, input, Options()).status.ok());
  const auto expected_side = *side;
  ASSERT_EQ(expected_side.size(), 4u);
  EXPECT_EQ(*decoded, 0);

  // Round trip: every task restores and replays its committed bytes.
  side->assign(4, "");
  const auto restored = RunJob(spec, input, Options());
  ASSERT_TRUE(restored.status.ok());
  EXPECT_EQ(restored.metrics.map_tasks_resumed, 4);
  EXPECT_EQ(*decoded, 4);
  EXPECT_EQ(*side, expected_side);

  // Damage one side file: its checksum no longer matches, so the task
  // re-executes (regenerating the side state) instead of replaying.
  std::ofstream(JobDir() + "/side-2.dat", std::ios::binary) << "sum=XX";
  side->assign(4, "");
  *decoded = 0;
  const auto rerun = RunJob(spec, input, Options());
  ASSERT_TRUE(rerun.status.ok()) << rerun.status.ToString();
  EXPECT_EQ(rerun.metrics.map_tasks_resumed, 3);
  EXPECT_FALSE(rerun.metrics.map_tasks[2].resumed);
  EXPECT_EQ(*decoded, 3);
  EXPECT_EQ(*side, expected_side);
  EXPECT_EQ(rerun.outputs_per_reduce_task,
            mr::JobRunner(1).Run(spec, input).outputs_per_reduce_task);
}

// A single-process job killed mid-reduce resumes its committed reduce
// tasks instead of re-running them.
TEST_F(CommitResumeTest, KilledMidReduceRestoresCommittedReduceTasks) {
  const auto spec = MakeSumSpec(4);
  const auto input = MakeSumInput();
  const auto reference = mr::JobRunner(1).Run(spec, input);
  ASSERT_TRUE(reference.status.ok());

  // One thread, attempt budget 1: reduce tasks 0 and 1 commit, the third
  // reduce attempt fails and takes the job down.
  ASSERT_TRUE(FaultInjector::Global()
                  .ConfigureFromString("task.reduce=error-repeat@3")
                  .ok());
  const auto crashed = mr::JobRunner(1, Options()).Run(spec, input);
  FaultInjector::Global().Reset();
  ASSERT_FALSE(crashed.status.ok());

  const auto resumed = mr::JobRunner(1, Options()).Run(spec, input);
  ASSERT_TRUE(resumed.status.ok()) << resumed.status.ToString();
  EXPECT_EQ(resumed.metrics.map_tasks_resumed, 4);
  EXPECT_EQ(resumed.metrics.reduce_tasks_resumed, 2);
  EXPECT_TRUE(resumed.metrics.reduce_tasks[0].resumed);
  EXPECT_TRUE(resumed.metrics.reduce_tasks[1].resumed);
  EXPECT_FALSE(resumed.metrics.reduce_tasks[2].resumed);
  EXPECT_EQ(resumed.outputs_per_reduce_task,
            reference.outputs_per_reduce_task);
  EXPECT_EQ(resumed.metrics.counters.values(),
            reference.metrics.counters.values());
  for (size_t t = 0; t < resumed.metrics.reduce_tasks.size(); ++t) {
    EXPECT_EQ(resumed.metrics.reduce_tasks[t].groups,
              reference.metrics.reduce_tasks[t].groups)
        << "reduce task " << t;
  }
}

// ---- End-to-end: restart over a partial checkpoint ----------------------

struct Agg {
  int64_t sum = 0;
  int64_t count = 0;
  friend bool operator==(const Agg&, const Agg&) = default;
};

class IdentityMapper
    : public mr::Mapper<int, int64_t, std::string, int64_t> {
 public:
  void Map(const int& key, const int64_t& v,
           mr::MapContext<std::string, int64_t>* ctx) override {
    std::string k = "k";
    k += std::to_string(key);
    ctx->counters()->Increment("mapped", 1);
    ctx->Emit(std::move(k), v);
  }
};

class AggReducer
    : public mr::Reducer<std::string, int64_t, std::string, Agg> {
 public:
  void Reduce(std::span<const std::pair<std::string, int64_t>> group,
              mr::ReduceContext<std::string, Agg>* ctx) override {
    Agg agg;
    for (const auto& [k, v] : group) {
      agg.sum += v;
      agg.count += 1;
    }
    ctx->Emit(group.front().first, agg);
  }
};

/// FNV-1a of the key, mod r.
struct FnvPartitionFn {
  uint32_t operator()(const std::string& k, uint32_t r) const {
    uint32_t h = 2166136261u;
    for (char c : k) h = (h ^ static_cast<unsigned char>(c)) * 16777619u;
    return h % r;
  }
};

using AggSpecT =
    mr::TypedJobSpec<int, int64_t, std::string, int64_t, std::string, Agg,
                     std::less<>, std::equal_to<>, FnvPartitionFn>;

AggSpecT AggSpec(uint32_t r) {
  AggSpecT spec;
  spec.num_reduce_tasks = r;
  spec.mapper_factory = [](const mr::TaskContext&) {
    return std::make_unique<IdentityMapper>();
  };
  spec.reducer_factory = [](const mr::TaskContext&) {
    return std::make_unique<AggReducer>();
  };
  return spec;
}

std::vector<std::vector<std::pair<int, int64_t>>> JobInput() {
  std::vector<std::vector<std::pair<int, int64_t>>> input(4);
  for (int p = 0; p < 4; ++p) {
    for (int i = 0; i < 30; ++i) {
      input[p].push_back({(p * 30 + i) % 13, p * 1000 + i});
    }
  }
  return input;
}

TEST(CheckpointedJobTest, RestartResumesCommittedTasksIdentically) {
  auto base = ScopedTempDir::Make();
  ASSERT_TRUE(base.ok());

  mr::ExecutionOptions opts;
  opts.mode = mr::ExecutionMode::kExternal;
  opts.io_buffer_bytes = 256;
  opts.checkpoint.dir = base->path() + "/job-ck";

  auto spec = AggSpec(3);
  auto input = JobInput();

  // Reference: clean checkpointed run in its own directory.
  mr::ExecutionOptions ref_opts = opts;
  ref_opts.checkpoint.dir = base->path() + "/ref-ck";
  auto reference = mr::JobRunner(1, ref_opts).Run(spec, input);
  ASSERT_TRUE(reference.status.ok());
  EXPECT_TRUE(reference.metrics.checkpointed);
  EXPECT_EQ(reference.metrics.map_tasks_resumed, 0);

  // "Crash" after three map tasks committed: the fourth attempt fails
  // every time and the attempt budget is 1.
  ASSERT_TRUE(FaultInjector::Global()
                  .ConfigureFromString("task.map=error-repeat@4")
                  .ok());
  auto crashed = mr::JobRunner(1, opts).Run(spec, input);
  FaultInjector::Global().Reset();
  ASSERT_FALSE(crashed.status.ok());

  // Restart: a fresh runner over the same directory resumes the three
  // committed tasks, re-executes the fourth, and the aggregate result —
  // outputs and counters — is identical to the uninterrupted run.
  auto resumed = mr::JobRunner(1, opts).Run(spec, input);
  ASSERT_TRUE(resumed.status.ok()) << resumed.status.ToString();
  EXPECT_EQ(resumed.metrics.map_tasks_resumed, 3);
  EXPECT_EQ(resumed.outputs_per_reduce_task,
            reference.outputs_per_reduce_task);
  EXPECT_EQ(resumed.metrics.counters.values(),
            reference.metrics.counters.values());
  for (size_t t = 0; t < resumed.metrics.map_tasks.size(); ++t) {
    EXPECT_EQ(resumed.metrics.map_tasks[t].counters.values(),
              reference.metrics.map_tasks[t].counters.values())
        << "map task " << t;
  }
}

TEST(CheckpointedJobTest, DifferentInputInvalidatesCheckpoint) {
  auto base = ScopedTempDir::Make();
  ASSERT_TRUE(base.ok());
  mr::ExecutionOptions opts;
  opts.mode = mr::ExecutionMode::kExternal;
  opts.io_buffer_bytes = 256;
  opts.checkpoint.dir = base->path() + "/ck";

  auto spec = AggSpec(3);
  auto input = JobInput();
  ASSERT_TRUE(mr::JobRunner(1, opts).Run(spec, input).status.ok());

  // Same directory, different input: nothing may be resumed.
  input[0][0].second += 1;
  auto rerun = mr::JobRunner(1, opts).Run(spec, input);
  ASSERT_TRUE(rerun.status.ok());
  EXPECT_EQ(rerun.metrics.map_tasks_resumed, 0);
}

}  // namespace
}  // namespace erlb
