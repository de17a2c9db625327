// Task retry policy (mr/job.h internal::RunTaskWithRetry): injected
// retryable faults are retried up to the attempt budget and the retried
// job's output is byte-identical to an unfaulted run; non-retryable
// codes and exhausted budgets surface the original error; the
// per-attempt deadline discards over-budget attempts and retries them.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/fault.h"
#include "common/status.h"
#include "mr/job.h"

namespace erlb {
namespace {

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

std::vector<std::vector<std::pair<int, int64_t>>> SmallInput() {
  std::vector<std::vector<std::pair<int, int64_t>>> input(3);
  for (int p = 0; p < 3; ++p) {
    for (int i = 0; i < 40; ++i) {
      input[p].push_back({(p * 40 + i) % 11, p * 1000 + i});
    }
  }
  return input;
}

class RetryTest : public ::testing::Test {
 protected:
  void TearDown() override { FaultInjector::Global().Reset(); }

  // Single worker so fault-site hit ordering is deterministic across
  // tasks.
  mr::JobResult<std::string, Agg> RunWith(const mr::ExecutionOptions& opts) {
    mr::JobRunner runner(1, opts);
    return runner.Run(AggSpec(4), SmallInput());
  }

  mr::JobResult<std::string, Agg> Reference(mr::ExecutionMode mode) {
    mr::ExecutionOptions opts;
    opts.mode = mode;
    opts.io_buffer_bytes = 256;
    return RunWith(opts);
  }

  static int64_t MaxAttempts(const std::vector<mr::TaskMetrics>& tasks) {
    int64_t max_a = 0;
    for (const auto& t : tasks) max_a = std::max(max_a, t.attempts);
    return max_a;
  }
};

TEST_F(RetryTest, RetryableMapFaultIsRetriedToIdenticalOutput) {
  for (auto mode :
       {mr::ExecutionMode::kInMemory, mr::ExecutionMode::kExternal}) {
    auto reference = Reference(mode);
    ASSERT_TRUE(reference.status.ok());

    ASSERT_TRUE(FaultInjector::Global()
                    .ConfigureFromString("task.map=error@2")
                    .ok());
    mr::ExecutionOptions opts;
    opts.mode = mode;
    opts.io_buffer_bytes = 256;
    opts.max_task_attempts = 3;
    opts.retry_backoff_ms = 1;
    auto result = RunWith(opts);
    FaultInjector::Global().Reset();

    ASSERT_TRUE(result.status.ok()) << result.status.ToString();
    EXPECT_EQ(result.outputs_per_reduce_task,
              reference.outputs_per_reduce_task);
    EXPECT_EQ(result.metrics.counters.values(),
              reference.metrics.counters.values());
    EXPECT_EQ(result.metrics.task_retries, 1);
    EXPECT_EQ(MaxAttempts(result.metrics.map_tasks), 2);
  }
}

TEST_F(RetryTest, RetryableReduceFaultIsRetriedToIdenticalOutput) {
  auto reference = Reference(mr::ExecutionMode::kExternal);
  ASSERT_TRUE(reference.status.ok());

  ASSERT_TRUE(FaultInjector::Global()
                  .ConfigureFromString("task.reduce=error@1")
                  .ok());
  mr::ExecutionOptions opts;
  opts.mode = mr::ExecutionMode::kExternal;
  opts.io_buffer_bytes = 256;
  opts.max_task_attempts = 2;
  auto result = RunWith(opts);

  ASSERT_TRUE(result.status.ok()) << result.status.ToString();
  EXPECT_EQ(result.outputs_per_reduce_task,
            reference.outputs_per_reduce_task);
  EXPECT_EQ(result.metrics.task_retries, 1);
  EXPECT_EQ(MaxAttempts(result.metrics.reduce_tasks), 2);
}

TEST_F(RetryTest, AttemptBudgetExhaustedSurfacesTheError) {
  ASSERT_TRUE(FaultInjector::Global()
                  .ConfigureFromString("task.map=error-repeat")
                  .ok());
  mr::ExecutionOptions opts;
  opts.mode = mr::ExecutionMode::kExternal;
  opts.io_buffer_bytes = 256;
  opts.max_task_attempts = 2;
  auto result = RunWith(opts);

  ASSERT_FALSE(result.status.ok());
  EXPECT_TRUE(result.status.IsUnavailable()) << result.status.ToString();
  // Both attempts of the first task were consumed.
  EXPECT_EQ(MaxAttempts(result.metrics.map_tasks), 2);
}

TEST_F(RetryTest, NonRetryableCodeIsNotRetried) {
  FaultSpec spec;
  spec.kind = FaultKind::kError;
  spec.code = StatusCode::kInvalidArgument;
  ASSERT_TRUE(FaultInjector::Global().Arm("task.map", spec).ok());
  mr::ExecutionOptions opts;
  opts.mode = mr::ExecutionMode::kExternal;
  opts.io_buffer_bytes = 256;
  opts.max_task_attempts = 5;  // budget exists but must not be used
  auto result = RunWith(opts);

  ASSERT_FALSE(result.status.ok());
  EXPECT_TRUE(result.status.IsInvalidArgument()) << result.status.ToString();
  EXPECT_EQ(MaxAttempts(result.metrics.map_tasks), 1);
}

TEST_F(RetryTest, OverDeadlineAttemptIsDiscardedAndRetried) {
  auto reference = Reference(mr::ExecutionMode::kExternal);
  ASSERT_TRUE(reference.status.ok());

  // First map attempt sleeps 200ms against a 20ms budget; its (ok)
  // result is discarded as kDeadlineExceeded and the retry — with the
  // one-shot delay disarmed — comes in under budget.
  ASSERT_TRUE(FaultInjector::Global()
                  .ConfigureFromString("task.map=delay:200@1")
                  .ok());
  mr::ExecutionOptions opts;
  opts.mode = mr::ExecutionMode::kExternal;
  opts.io_buffer_bytes = 256;
  opts.max_task_attempts = 3;
  opts.task_attempt_timeout_ms = 20;
  auto result = RunWith(opts);

  ASSERT_TRUE(result.status.ok()) << result.status.ToString();
  EXPECT_EQ(result.outputs_per_reduce_task,
            reference.outputs_per_reduce_task);
  EXPECT_EQ(result.metrics.map_tasks[0].attempts, 2);
  EXPECT_EQ(result.metrics.task_retries, 1);
}

TEST_F(RetryTest, DeadlineWithoutBudgetFailsTheJob) {
  ASSERT_TRUE(FaultInjector::Global()
                  .ConfigureFromString("task.map=delay:200@1")
                  .ok());
  mr::ExecutionOptions opts;
  opts.mode = mr::ExecutionMode::kExternal;
  opts.io_buffer_bytes = 256;
  opts.max_task_attempts = 1;
  opts.task_attempt_timeout_ms = 20;
  auto result = RunWith(opts);

  ASSERT_FALSE(result.status.ok());
  EXPECT_TRUE(result.status.IsDeadlineExceeded())
      << result.status.ToString();
}

}  // namespace
}  // namespace erlb
