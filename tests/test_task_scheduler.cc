// Work-stealing scheduler: claim-exactly-once semantics and determinism
// of job outputs across worker counts / repeated runs (the TSan preset
// runs this file too).
#include "mr/task_scheduler.h"

#include <gtest/gtest.h>

#include <atomic>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/string_util.h"
#include "common/thread_pool.h"
#include "mr/job.h"

namespace erlb {
namespace mr {
namespace {

TEST(WorkStealingSchedulerTest, EveryTaskRunsExactlyOnce) {
  for (size_t workers : {1u, 2u, 3u, 8u, 64u}) {
    ThreadPool pool(workers);
    constexpr uint32_t kTasks = 1000;
    std::vector<uint32_t> indices(kTasks);
    for (uint32_t t = 0; t < kTasks; ++t) indices[t] = t;
    std::vector<std::atomic<int>> runs(kTasks);
    WorkStealingScheduler scheduler(indices, workers);
    scheduler.Run(&pool, [&runs](uint32_t t) {
      runs[t].fetch_add(1, std::memory_order_relaxed);
    });
    for (uint32_t t = 0; t < kTasks; ++t) {
      EXPECT_EQ(runs[t].load(), 1) << "task " << t << " workers " << workers;
    }
    EXPECT_LE(scheduler.tasks_stolen(), kTasks);
  }
}

TEST(WorkStealingSchedulerTest, EmptyPhaseReturnsImmediately) {
  ThreadPool pool(4);
  WorkStealingScheduler scheduler({}, 4);
  scheduler.Run(&pool, [](uint32_t) { FAIL() << "no tasks to run"; });
  EXPECT_EQ(scheduler.tasks_stolen(), 0u);
}

TEST(WorkStealingSchedulerTest, MoreWorkersThanTasks) {
  ThreadPool pool(16);
  std::vector<std::atomic<int>> runs(3);
  WorkStealingScheduler scheduler({0, 1, 2}, 16);
  scheduler.Run(&pool, [&runs](uint32_t t) {
    runs[t].fetch_add(1, std::memory_order_relaxed);
  });
  for (int t = 0; t < 3; ++t) EXPECT_EQ(runs[t].load(), 1);
}

TEST(WorkStealingSchedulerTest, StealsFromStragglerShard) {
  // Two workers, all the work in shard 0's half: worker 1 drains its own
  // shard instantly and must steal to finish the phase.
  ThreadPool pool(2);
  constexpr uint32_t kTasks = 400;
  std::vector<uint32_t> indices(kTasks);
  for (uint32_t t = 0; t < kTasks; ++t) indices[t] = t;
  std::atomic<uint32_t> done{0};
  WorkStealingScheduler scheduler(indices, 2);
  scheduler.Run(&pool, [&done](uint32_t t) {
    // Skew: the first half of the list is 100x the work of the second.
    volatile uint64_t sink = 0;
    const uint64_t spins = t < kTasks / 2 ? 20000 : 200;
    for (uint64_t i = 0; i < spins; ++i) sink = sink + i;
    done.fetch_add(1, std::memory_order_relaxed);
  });
  EXPECT_EQ(done.load(), kTasks);
  // Not asserted > 0: with only two workers a pathological schedule could
  // finish without stealing, but the counter must stay in range.
  EXPECT_LE(scheduler.tasks_stolen(), kTasks);
}

// ---------------------------------------------------------------------
// Determinism: the same job must produce byte-identical outputs whatever
// the worker count or run repetition.
// ---------------------------------------------------------------------

class TokenMapper : public Mapper<int, std::string, std::string, int> {
 public:
  void Map(const int&, const std::string& line,
           MapContext<std::string, int>* ctx) override {
    for (const auto& w : Split(line, ' ')) {
      if (!w.empty()) ctx->Emit(w, 1);
    }
  }
};

class SumReducer : public Reducer<std::string, int, std::string, int> {
 public:
  void Reduce(std::span<const std::pair<std::string, int>> group,
              ReduceContext<std::string, int>* ctx) override {
    int sum = 0;
    for (const auto& [k, v] : group) sum += v;
    ctx->Emit(group.front().first, sum);
  }
};

/// Fnv1a64 of the key, mod r.
struct FnvPartitionFn {
  uint32_t operator()(const std::string& k, uint32_t r) const {
    return static_cast<uint32_t>(Fnv1a64(k) % r);
  }
};

using CountSpec =
    TypedJobSpec<int, std::string, std::string, int, std::string, int,
                 std::less<>, std::equal_to<>, FnvPartitionFn>;

CountSpec TokenSpec(uint32_t r) {
  CountSpec spec;
  spec.num_reduce_tasks = r;
  spec.mapper_factory = [](const TaskContext&) {
    return std::make_unique<TokenMapper>();
  };
  spec.reducer_factory = [](const TaskContext&) {
    return std::make_unique<SumReducer>();
  };
  return spec;
}

std::vector<std::vector<std::pair<int, std::string>>> TokenInput() {
  // 16 map tasks of uneven size so shards drain at different rates.
  std::vector<std::vector<std::pair<int, std::string>>> input(16);
  for (int p = 0; p < 16; ++p) {
    for (int i = 0; i < 5 + (p % 4) * 40; ++i) {
      input[p].emplace_back(
          i, "tok" + std::to_string((i * 7 + p) % 31) + " tok" +
                 std::to_string(i % 13) + " tok" + std::to_string(p));
    }
  }
  return input;
}

/// Serializes the full per-reduce-task output (task boundaries included)
/// so comparisons catch reordering anywhere, not just in the merged view.
std::string Serialize(const JobResult<std::string, int>& result) {
  std::string out;
  for (const auto& task : result.outputs_per_reduce_task) {
    out += "[task]";
    for (const auto& [k, v] : task) {
      out += k + "=" + std::to_string(v) + ";";
    }
  }
  return out;
}

TEST(SchedulerDeterminismTest, OutputsIdenticalAcrossWorkerCounts) {
  const auto input = TokenInput();
  std::string reference;
  for (size_t workers : {1u, 2u, 3u, 8u}) {
    for (int repeat = 0; repeat < 3; ++repeat) {
      JobRunner runner(workers);
      auto result = runner.Run(TokenSpec(5), input);
      ASSERT_TRUE(result.status.ok()) << result.status.ToString();
      const std::string serialized = Serialize(result);
      if (reference.empty()) {
        reference = serialized;
        ASSERT_FALSE(reference.empty());
      } else {
        EXPECT_EQ(serialized, reference)
            << "workers=" << workers << " repeat=" << repeat;
      }
    }
  }
}

TEST(SchedulerDeterminismTest, ExternalModeIdenticalAcrossWorkerCounts) {
  const auto input = TokenInput();
  std::string reference;
  for (size_t workers : {1u, 4u}) {
    ExecutionOptions options;
    options.mode = ExecutionMode::kExternal;
    JobRunner runner(workers, options);
    auto result = runner.Run(TokenSpec(4), input);
    ASSERT_TRUE(result.status.ok()) << result.status.ToString();
    const std::string serialized = Serialize(result);
    if (reference.empty()) {
      reference = serialized;
      ASSERT_FALSE(reference.empty());
    } else {
      EXPECT_EQ(serialized, reference) << "workers=" << workers;
    }
  }
}

}  // namespace
}  // namespace mr
}  // namespace erlb
