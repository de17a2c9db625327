// Differential tests for the reduce-side shuffle: both k-way merges
// (mr/merge.h) must produce exactly the sequence the engine's old
// concatenate-then-stable-sort path produced — including equal-key ties
// across runs (grouped by run index, run order preserved) — both at the
// kernel level and through a full job with and without a combiner.
#include "mr/merge.h"

#include <gtest/gtest.h>

#include <functional>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/random.h"
#include "mr/job.h"

namespace erlb {
namespace mr {
namespace {

using IntPair = std::pair<int, int>;

bool PairKeyLess(const IntPair& a, const IntPair& b) {
  return a.first < b.first;
}

// Both merge kernels must satisfy the same contract; every test below
// exercises the in-memory shuffle's MergeSortedRuns and the external
// shuffle's LoserTreeMergeCursors (here over in-memory runs).
enum class MergeImpl { kBinaryTree, kLoserTree };

/// One in-memory sorted run as a LoserTreeMergeCursors cursor.
template <typename T>
class VectorCursor {
 public:
  using value_type = T;

  explicit VectorCursor(std::vector<T>* run) : run_(run) {}

  bool exhausted() const { return pos_ >= run_->size(); }
  const T& head() const { return (*run_)[pos_]; }
  T Pop() { return std::move((*run_)[pos_++]); }

 private:
  std::vector<T>* run_;
  size_t pos_ = 0;
};

template <typename T, typename Less>
std::vector<T> Merge(MergeImpl impl, std::vector<std::vector<T>> runs,
                     const Less& less) {
  if (impl == MergeImpl::kBinaryTree) {
    return MergeSortedRuns(std::span(runs), less);
  }
  std::vector<VectorCursor<T>> cursors;
  for (auto& run : runs) cursors.emplace_back(&run);
  std::vector<T> out;
  LoserTreeMergeCursors(std::span(cursors), less,
                        [&out](T&& e) { out.push_back(std::move(e)); });
  return out;
}

std::vector<IntPair> RunMerge(MergeImpl impl,
                              std::vector<std::vector<IntPair>> runs) {
  return Merge(impl, std::move(runs), PairKeyLess);
}

class MergeKernelTest : public ::testing::TestWithParam<MergeImpl> {};

TEST_P(MergeKernelTest, NoRunsAndAllEmptyRuns) {
  EXPECT_TRUE(RunMerge(GetParam(), {}).empty());
  EXPECT_TRUE(RunMerge(GetParam(), std::vector<std::vector<IntPair>>(4))
                  .empty());
}

TEST_P(MergeKernelTest, SingleRunMovesThroughUnchanged) {
  std::vector<std::vector<IntPair>> runs(3);
  runs[1] = {{1, 10}, {1, 11}, {4, 12}};
  EXPECT_EQ(RunMerge(GetParam(), std::move(runs)),
            (std::vector<IntPair>{{1, 10}, {1, 11}, {4, 12}}));
}

TEST_P(MergeKernelTest, EqualKeysGroupByRunIndexInRunOrder) {
  // Keys tie across all three runs; the merged sequence must list run 0's
  // pairs first, then run 1's, then run 2's — each in run order.
  std::vector<std::vector<IntPair>> runs(3);
  runs[0] = {{5, 1}, {5, 2}};
  runs[1] = {{5, 3}};
  runs[2] = {{3, 4}, {5, 5}};
  EXPECT_EQ(RunMerge(GetParam(), std::move(runs)),
            (std::vector<IntPair>{{3, 4}, {5, 1}, {5, 2}, {5, 3}, {5, 5}}));
}

TEST_P(MergeKernelTest, DifferentialAgainstConcatStableSortIntKeys) {
  Pcg32 rng(7);
  for (int trial = 0; trial < 200; ++trial) {
    const size_t m = 1 + rng.NextBounded(9);
    std::vector<std::vector<IntPair>> master(m);
    int serial = 0;
    for (auto& run : master) {
      const size_t len = rng.NextBounded(40);
      for (size_t i = 0; i < len; ++i) {
        // Few distinct keys -> dense cross-run ties.
        run.push_back({static_cast<int>(rng.NextBounded(8)), serial++});
      }
      std::stable_sort(run.begin(), run.end(), PairKeyLess);
    }
    auto expected = ConcatAndStableSort(
        std::span<const std::vector<IntPair>>(master), PairKeyLess);
    // Serial values are unique, so equality checks the exact sequence.
    ASSERT_EQ(RunMerge(GetParam(), master), expected)
        << "trial " << trial << " m=" << m;
  }
}

TEST_P(MergeKernelTest, DifferentialAgainstConcatStableSortStringKeys) {
  using StrPair = std::pair<std::string, int>;
  auto less = [](const StrPair& a, const StrPair& b) {
    return a.first < b.first;
  };
  Pcg32 rng(11);
  for (int trial = 0; trial < 50; ++trial) {
    const size_t m = 1 + rng.NextBounded(6);
    std::vector<std::vector<StrPair>> master(m);
    int serial = 0;
    for (auto& run : master) {
      const size_t len = rng.NextBounded(30);
      for (size_t i = 0; i < len; ++i) {
        std::string key(1 + rng.NextBounded(3), 'a');
        key[0] = static_cast<char>('a' + rng.NextBounded(4));
        run.push_back({std::move(key), serial++});
      }
      std::stable_sort(run.begin(), run.end(), less);
    }
    auto expected = ConcatAndStableSort(
        std::span<const std::vector<StrPair>>(master), less);
    ASSERT_EQ(Merge(GetParam(), master, less), expected) << "trial " << trial;
  }
}

INSTANTIATE_TEST_SUITE_P(BothImpls, MergeKernelTest,
                         ::testing::Values(MergeImpl::kBinaryTree,
                                           MergeImpl::kLoserTree),
                         [](const auto& info) {
                           return info.param == MergeImpl::kBinaryTree
                                      ? "BinaryTree"
                                      : "LoserTree";
                         });

// ---------------------------------------------------------------------
// Job-level differential: run a job through the engine and compare every
// reduce task's group sequence against an in-test reference that
// replicates the old pipeline verbatim (per-map stable sort -> combine ->
// scatter -> concatenate in map order -> stable sort -> group).
// ---------------------------------------------------------------------

using Combiner = std::function<void(std::span<const IntPair>,
                                    std::vector<IntPair>*)>;

/// The mapper used on both sides: key = value % 5, value = a unique tag
/// encoding (map task, emission index).
class TagMapper : public Mapper<int, int, int, int> {
 public:
  explicit TagMapper(uint32_t task) : task_(task) {}
  void Map(const int&, const int& v, MapContext<int, int>* ctx) override {
    ctx->Emit(v % 5, static_cast<int>(task_) * 1000 + seq_++);
  }

 private:
  uint32_t task_;
  int seq_ = 0;
};

/// Emits one record per group: the key plus the exact value sequence.
class GroupEchoReducer
    : public Reducer<int, int, int, std::vector<int>> {
 public:
  void Reduce(std::span<const IntPair> group,
              ReduceContext<int, std::vector<int>>* ctx) override {
    std::vector<int> values;
    for (const auto& [k, v] : group) values.push_back(v);
    ctx->Emit(group.front().first, std::move(values));
  }
};

/// Reference shuffle with the engine's previous semantics; returns each
/// reduce task's (key, value sequence) groups.
std::vector<std::vector<std::pair<int, std::vector<int>>>> ReferenceGroups(
    const std::vector<std::vector<std::pair<int, int>>>& input, uint32_t r,
    const Combiner& combiner) {
  const uint32_t m = static_cast<uint32_t>(input.size());
  // buckets[reduce][map] in map order.
  std::vector<std::vector<std::vector<IntPair>>> buckets(
      r, std::vector<std::vector<IntPair>>(m));
  for (uint32_t t = 0; t < m; ++t) {
    std::vector<IntPair> out;
    int seq = 0;
    for (const auto& [k, v] : input[t]) {
      out.push_back({v % 5, static_cast<int>(t) * 1000 + seq++});
    }
    std::stable_sort(out.begin(), out.end(), PairKeyLess);
    std::vector<IntPair> combined;
    if (combiner) {
      size_t i = 0;
      while (i < out.size()) {
        size_t j = i + 1;
        while (j < out.size() && out[j].first == out[i].first) ++j;
        combiner(std::span<const IntPair>(out.data() + i, j - i), &combined);
        i = j;
      }
      out = combined;
    }
    for (const auto& kv : out) {
      buckets[static_cast<uint32_t>(kv.first) % r][t].push_back(kv);
    }
  }
  std::vector<std::vector<std::pair<int, std::vector<int>>>> groups(r);
  for (uint32_t t = 0; t < r; ++t) {
    std::vector<IntPair> run;
    for (uint32_t mt = 0; mt < m; ++mt) {
      run.insert(run.end(), buckets[t][mt].begin(), buckets[t][mt].end());
    }
    std::stable_sort(run.begin(), run.end(), PairKeyLess);
    size_t i = 0;
    while (i < run.size()) {
      size_t j = i + 1;
      while (j < run.size() && run[j].first == run[i].first) ++j;
      std::vector<int> values;
      for (size_t x = i; x < j; ++x) values.push_back(run[x].second);
      groups[t].push_back({run[i].first, std::move(values)});
      i = j;
    }
  }
  return groups;
}

struct IntModPartitionFn {
  uint32_t operator()(int k, uint32_t r) const {
    return static_cast<uint32_t>(k) % r;
  }
};

void RunJobDifferential(const Combiner& combiner) {
  // 6 map tasks all emitting the same key set -> dense cross-task ties.
  std::vector<std::vector<std::pair<int, int>>> input(6);
  Pcg32 rng(23);
  for (auto& part : input) {
    const size_t len = 5 + rng.NextBounded(20);
    for (size_t i = 0; i < len; ++i) {
      part.push_back({0, static_cast<int>(rng.NextBounded(100))});
    }
  }
  const uint32_t r = 3;

  TypedJobSpec<int, int, int, int, int, std::vector<int>, std::less<>,
               std::equal_to<>, IntModPartitionFn>
      spec;
  spec.num_reduce_tasks = r;
  spec.mapper_factory = [](const TaskContext& ctx) {
    return std::make_unique<TagMapper>(ctx.task_index);
  };
  spec.reducer_factory = [](const TaskContext&) {
    return std::make_unique<GroupEchoReducer>();
  };
  spec.combiner = combiner;

  JobRunner runner(4);
  auto result = runner.Run(spec, input);
  auto expected = ReferenceGroups(input, r, combiner);
  ASSERT_EQ(result.outputs_per_reduce_task.size(), expected.size());
  for (uint32_t t = 0; t < r; ++t) {
    ASSERT_EQ(result.outputs_per_reduce_task[t].size(), expected[t].size())
        << "reduce task " << t;
    for (size_t g = 0; g < expected[t].size(); ++g) {
      EXPECT_EQ(result.outputs_per_reduce_task[t][g].first,
                expected[t][g].first)
          << "reduce task " << t << " group " << g;
      EXPECT_EQ(result.outputs_per_reduce_task[t][g].second,
                expected[t][g].second)
          << "reduce task " << t << " group " << g;
    }
  }
}

TEST(ShuffleDifferentialTest, GroupSequencesMatchOldPath) {
  RunJobDifferential(nullptr);
}

TEST(ShuffleDifferentialTest, GroupSequencesMatchOldPathWithCombiner) {
  // Keeps the first and last tag of each per-map group: multiple pairs per
  // combiner call, order preserved, so the scattered runs stay sorted.
  RunJobDifferential([](std::span<const IntPair> group,
                        std::vector<IntPair>* out) {
    out->push_back(group.front());
    if (group.size() > 1) out->push_back(group.back());
  });
}

}  // namespace
}  // namespace mr
}  // namespace erlb
