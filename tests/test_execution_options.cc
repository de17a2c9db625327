// ExecutionOptions::Validate: invalid knobs fail fast as InvalidArgument
// at JobRunner::Run entry instead of producing ad-hoc behavior deep in a
// phase.
#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "mr/job.h"

namespace erlb {
namespace mr {
namespace {

class IdentityMapper : public Mapper<int, int, int, int> {
 public:
  void Map(const int& k, const int& v, MapContext<int, int>* ctx) override {
    ctx->Emit(k, v);
  }
};

class FirstReducer : public Reducer<int, int, int, int> {
 public:
  void Reduce(std::span<const std::pair<int, int>> group,
              ReduceContext<int, int>* ctx) override {
    ctx->Emit(group.front().first, group.front().second);
  }
};

struct ZeroPartitionFn {
  uint32_t operator()(int, uint32_t) const { return 0; }
};

using TinySpecT = TypedJobSpec<int, int, int, int, int, int, std::less<>,
                               std::equal_to<>, ZeroPartitionFn>;

TinySpecT TinySpec() {
  TinySpecT spec;
  spec.num_reduce_tasks = 1;
  spec.mapper_factory = [](const TaskContext&) {
    return std::make_unique<IdentityMapper>();
  };
  spec.reducer_factory = [](const TaskContext&) {
    return std::make_unique<FirstReducer>();
  };
  return spec;
}

Status RunWith(ExecutionOptions options) {
  JobRunner runner(2, std::move(options));
  auto result = runner.Run(TinySpec(), {{{1, 1}}, {{2, 2}}});
  return result.status;
}

TEST(ExecutionOptionsValidateTest, DefaultsAreValid) {
  EXPECT_TRUE(ExecutionOptions{}.Validate().ok());
  EXPECT_TRUE(RunWith(ExecutionOptions{}).ok());
}

TEST(ExecutionOptionsValidateTest, ZeroIoBufferRejected) {
  ExecutionOptions options;
  options.io_buffer_bytes = 0;
  EXPECT_TRUE(options.Validate().IsInvalidArgument());
  Status status = RunWith(options);
  EXPECT_TRUE(status.IsInvalidArgument()) << status.ToString();
}

TEST(ExecutionOptionsValidateTest, ZeroMaxTaskAttemptsRejected) {
  ExecutionOptions options;
  options.max_task_attempts = 0;
  EXPECT_TRUE(options.Validate().IsInvalidArgument());
  Status status = RunWith(options);
  EXPECT_TRUE(status.IsInvalidArgument()) << status.ToString();
}

TEST(ExecutionOptionsValidateTest, ZeroWorkerProcessesRejected) {
  ExecutionOptions options;
  options.mode = ExecutionMode::kMultiProcess;
  options.num_worker_processes = 0;
  EXPECT_TRUE(options.Validate().IsInvalidArgument());
  Status status = RunWith(options);
  EXPECT_TRUE(status.IsInvalidArgument()) << status.ToString();
  // The same count is fine outside multi-process mode...
  options.mode = ExecutionMode::kInMemory;
  EXPECT_TRUE(options.Validate().ok());
  // ...and an explicit count is fine in it.
  options.mode = ExecutionMode::kMultiProcess;
  options.num_worker_processes = 2;
  EXPECT_TRUE(options.Validate().ok());
}

TEST(ExecutionOptionsValidateTest, CheckpointDirRequiresSpillableMode) {
  ExecutionOptions options;
  options.mode = ExecutionMode::kInMemory;
  options.checkpoint.dir = "/tmp/erlb-validate-test-ckpt";
  EXPECT_TRUE(options.Validate().IsInvalidArgument());
  Status status = RunWith(options);
  EXPECT_TRUE(status.IsInvalidArgument()) << status.ToString();
  options.mode = ExecutionMode::kExternal;
  EXPECT_TRUE(options.Validate().ok());
}

}  // namespace
}  // namespace mr
}  // namespace erlb
