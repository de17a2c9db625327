// Randomized stress tests of the MapReduce runtime: arbitrary job shapes
// checked against an in-memory group-by reference, run under varying
// worker counts.
#include <gtest/gtest.h>

#include <functional>
#include <map>
#include <tuple>

#include "common/random.h"
#include "mr/job.h"

namespace erlb {
namespace mr {
namespace {

// Job: values are grouped by key; reduce emits (key, sum, count, min).
struct Agg {
  int64_t sum = 0;
  int64_t count = 0;
  int64_t min = 0;
  friend bool operator==(const Agg&, const Agg&) = default;
};

class IdentityMapper : public Mapper<int, int64_t, int, int64_t> {
 public:
  void Map(const int& key, const int64_t& v,
           MapContext<int, int64_t>* ctx) override {
    ctx->Emit(key, v);
  }
};

class AggReducer : public Reducer<int, int64_t, int, Agg> {
 public:
  void Reduce(std::span<const std::pair<int, int64_t>> group,
              ReduceContext<int, Agg>* ctx) override {
    Agg agg;
    agg.min = group.front().second;
    for (const auto& [k, v] : group) {
      agg.sum += v;
      agg.count += 1;
      agg.min = std::min(agg.min, v);
    }
    ctx->Emit(group.front().first, agg);
  }
};

/// Multiplicative hash of the key, mod r.
struct MulHashPartitionFn {
  uint32_t operator()(int k, uint32_t r) const {
    return static_cast<uint32_t>(k * 2654435761u) % r;
  }
};

template <typename Partitioner = MulHashPartitionFn>
TypedJobSpec<int, int64_t, int, int64_t, int, Agg, std::less<>,
             std::equal_to<>, Partitioner>
AggSpec(uint32_t r) {
  TypedJobSpec<int, int64_t, int, int64_t, int, Agg, std::less<>,
               std::equal_to<>, Partitioner>
      spec;
  spec.num_reduce_tasks = r;
  spec.mapper_factory = [](const TaskContext&) {
    return std::make_unique<IdentityMapper>();
  };
  spec.reducer_factory = [](const TaskContext&) {
    return std::make_unique<AggReducer>();
  };
  return spec;
}

class MrStressTest
    : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(MrStressTest, MatchesGroupByReference) {
  auto [m, r, workers] = GetParam();
  Pcg32 rng(static_cast<uint64_t>(m * 1000 + r * 10 + workers));

  std::vector<std::vector<std::pair<int, int64_t>>> input(m);
  std::map<int, Agg> reference;
  for (int p = 0; p < m; ++p) {
    uint32_t records = rng.NextBounded(200);
    for (uint32_t i = 0; i < records; ++i) {
      int key = static_cast<int>(rng.NextBounded(37));
      int64_t value = rng.NextInRange(-1000, 1000);
      input[p].push_back({key, value});
      auto& agg = reference[key];
      if (agg.count == 0) {
        agg.min = value;
      } else {
        agg.min = std::min(agg.min, value);
      }
      agg.sum += value;
      agg.count += 1;
    }
  }

  JobRunner runner(workers);
  auto result = runner.Run(AggSpec(r), input);
  std::map<int, Agg> actual;
  for (const auto& [k, v] : result.MergedOutput()) {
    EXPECT_FALSE(actual.count(k)) << "key " << k << " reduced twice";
    actual[k] = v;
  }
  EXPECT_EQ(actual, reference);

  // Metrics invariants.
  int64_t in_records = 0;
  for (const auto& p : input) in_records += p.size();
  EXPECT_EQ(result.metrics.TotalMapInputRecords(), in_records);
  EXPECT_EQ(result.metrics.TotalMapOutputPairs(), in_records);
  int64_t reduce_in = 0, groups = 0;
  for (const auto& t : result.metrics.reduce_tasks) {
    reduce_in += t.input_records;
    groups += t.groups;
  }
  EXPECT_EQ(reduce_in, in_records);
  EXPECT_EQ(groups, static_cast<int64_t>(reference.size()));
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, MrStressTest,
    ::testing::Combine(::testing::Values(1, 3, 8, 17),   // m
                       ::testing::Values(1, 4, 13, 40),  // r
                       ::testing::Values(1, 4)),         // workers
    [](const auto& info) {
      return "m" + std::to_string(std::get<0>(info.param)) + "_r" +
             std::to_string(std::get<1>(info.param)) + "_w" +
             std::to_string(std::get<2>(info.param));
    });

// Partitioner violations are caught, not silently misrouted.
struct OutOfRangePartitionFn {
  uint32_t operator()(int, uint32_t) const { return 99; }
};

TEST(MrJobDeathTest, OutOfRangePartitionerAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  auto spec = AggSpec<OutOfRangePartitionFn>(2);
  std::vector<std::vector<std::pair<int, int64_t>>> input{{{1, 1}}};
  JobRunner runner(1);
  EXPECT_DEATH(runner.Run(spec, input), "partitioner returned");
}

// Reduce-only invariant: a key appears in exactly one reduce task.
TEST(MrStressTest, KeyNeverSpansReduceTasks) {
  auto spec = AggSpec(7);
  Pcg32 rng(123);
  std::vector<std::vector<std::pair<int, int64_t>>> input(5);
  for (auto& part : input) {
    for (int i = 0; i < 100; ++i) {
      part.push_back({static_cast<int>(rng.NextBounded(11)), 1});
    }
  }
  JobRunner runner(3);
  auto result = runner.Run(spec, input);
  std::map<int, int> key_to_task;
  for (uint32_t t = 0; t < 7; ++t) {
    for (const auto& [k, v] : result.outputs_per_reduce_task[t]) {
      auto [it, inserted] = key_to_task.emplace(k, t);
      EXPECT_TRUE(inserted) << "key " << k << " in tasks " << it->second
                            << " and " << t;
    }
  }
}

}  // namespace
}  // namespace mr
}  // namespace erlb
