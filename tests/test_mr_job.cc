#include "mr/job.h"

#include <gtest/gtest.h>

#include <functional>
#include <map>
#include <string>
#include <tuple>

#include "common/string_util.h"
#include "mr/side_store.h"

namespace erlb {
namespace mr {
namespace {

// ---------------------------------------------------------------------
// Word count: the canonical semantics check.
// ---------------------------------------------------------------------

class WordCountMapper : public Mapper<int, std::string, std::string, int> {
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

CountSpec WordCountSpec(uint32_t r) {
  CountSpec spec;
  spec.num_reduce_tasks = r;
  spec.mapper_factory = [](const TaskContext&) {
    return std::make_unique<WordCountMapper>();
  };
  spec.reducer_factory = [](const TaskContext&) {
    return std::make_unique<SumReducer>();
  };
  return spec;
}

std::vector<std::vector<std::pair<int, std::string>>> WordInput() {
  return {{{0, "a b a"}, {1, "c a"}}, {{0, "b a c c"}}};
}

std::map<std::string, int> CollectCounts(
    const JobResult<std::string, int>& result) {
  std::map<std::string, int> out;
  for (const auto& [k, v] : result.MergedOutput()) out[k] = v;
  return out;
}

TEST(MrJobTest, WordCountSingleReduceTask) {
  JobRunner runner(2);
  auto result = runner.Run(WordCountSpec(1), WordInput());
  auto counts = CollectCounts(result);
  EXPECT_EQ(counts["a"], 4);
  EXPECT_EQ(counts["b"], 2);
  EXPECT_EQ(counts["c"], 3);
}

TEST(MrJobTest, WordCountManyReduceTasks) {
  JobRunner runner(4);
  for (uint32_t r : {2u, 3u, 7u, 16u}) {
    auto result = runner.Run(WordCountSpec(r), WordInput());
    auto counts = CollectCounts(result);
    EXPECT_EQ(counts["a"], 4) << "r=" << r;
    EXPECT_EQ(counts["b"], 2) << "r=" << r;
    EXPECT_EQ(counts["c"], 3) << "r=" << r;
    EXPECT_EQ(result.outputs_per_reduce_task.size(), r);
  }
}

TEST(MrJobTest, ResultIndependentOfWorkerCount) {
  auto r1 = JobRunner(1).Run(WordCountSpec(4), WordInput());
  auto r8 = JobRunner(8).Run(WordCountSpec(4), WordInput());
  EXPECT_EQ(CollectCounts(r1), CollectCounts(r8));
}

TEST(MrJobTest, MapMetricsCountRecordsAndOutput) {
  JobRunner runner(2);
  auto result = runner.Run(WordCountSpec(2), WordInput());
  ASSERT_EQ(result.metrics.map_tasks.size(), 2u);
  EXPECT_EQ(result.metrics.map_tasks[0].input_records, 2);
  EXPECT_EQ(result.metrics.map_tasks[0].output_records, 5);  // "a b a c a"
  EXPECT_EQ(result.metrics.map_tasks[1].input_records, 1);
  EXPECT_EQ(result.metrics.map_tasks[1].output_records, 4);
  EXPECT_EQ(result.metrics.TotalMapOutputPairs(), 9);
  EXPECT_EQ(result.metrics.TotalMapInputRecords(), 3);
}

TEST(MrJobTest, ReduceMetricsCountGroups) {
  JobRunner runner(2);
  auto result = runner.Run(WordCountSpec(1), WordInput());
  ASSERT_EQ(result.metrics.reduce_tasks.size(), 1u);
  EXPECT_EQ(result.metrics.reduce_tasks[0].groups, 3);  // a, b, c
  EXPECT_EQ(result.metrics.reduce_tasks[0].input_records, 9);
  EXPECT_EQ(result.metrics.reduce_tasks[0].output_records, 3);
}

TEST(MrJobTest, CombinerReducesShuffleVolume) {
  auto spec = WordCountSpec(1);
  spec.combiner = [](std::span<const std::pair<std::string, int>> group,
                     std::vector<std::pair<std::string, int>>* out) {
    int sum = 0;
    for (const auto& [k, v] : group) sum += v;
    out->emplace_back(group.front().first, sum);
  };
  JobRunner runner(2);
  auto result = runner.Run(spec, WordInput());
  auto counts = CollectCounts(result);
  EXPECT_EQ(counts["a"], 4);
  EXPECT_EQ(counts["c"], 3);
  // Partition 0 has words {a,b,c} and partition 1 {a,b,c}: the combined
  // shuffle carries at most 3 records per map task.
  EXPECT_EQ(result.metrics.reduce_tasks[0].input_records, 6);
}

TEST(MrJobTest, EmptyPartitionsProduceNoOutput) {
  JobRunner runner(2);
  std::vector<std::vector<std::pair<int, std::string>>> input(3);
  auto result = runner.Run(WordCountSpec(2), input);
  EXPECT_TRUE(result.MergedOutput().empty());
  EXPECT_EQ(result.metrics.map_tasks.size(), 3u);
}

// ---------------------------------------------------------------------
// Composite key semantics: the Figure 1 example. Keys have a shape and a
// color; partitioning uses the color only, grouping the entire key.
// ---------------------------------------------------------------------

struct ShapeColorKey {
  int shape;  // 0=circle, 1=triangle
  int color;  // 0=light, 1=dark, 2=black
};

class PassThroughMapper
    : public Mapper<int, ShapeColorKey, ShapeColorKey, int> {
 public:
  void Map(const int&, const ShapeColorKey& v,
           MapContext<ShapeColorKey, int>* ctx) override {
    ctx->Emit(v, 1);
  }
};

class GroupCountReducer
    : public Reducer<ShapeColorKey, int, ShapeColorKey, int> {
 public:
  void Reduce(std::span<const std::pair<ShapeColorKey, int>> group,
              ReduceContext<ShapeColorKey, int>* ctx) override {
    ctx->Emit(group.front().first, static_cast<int>(group.size()));
  }
};

/// part: by color only.
struct ColorPartitionFn {
  uint32_t operator()(const ShapeColorKey& k, uint32_t r) const {
    return static_cast<uint32_t>(k.color) % r;
  }
};
/// comp: by (color, shape).
struct ColorShapeLessFn {
  bool operator()(const ShapeColorKey& a, const ShapeColorKey& b) const {
    return std::tie(a.color, a.shape) < std::tie(b.color, b.shape);
  }
};
/// group: by the entire key.
struct ShapeColorEqualFn {
  bool operator()(const ShapeColorKey& a, const ShapeColorKey& b) const {
    return a.color == b.color && a.shape == b.shape;
  }
};

TEST(MrJobTest, Figure1PartitionByColorGroupByEntireKey) {
  TypedJobSpec<int, ShapeColorKey, ShapeColorKey, int, ShapeColorKey, int,
               ColorShapeLessFn, ShapeColorEqualFn, ColorPartitionFn>
      spec;
  spec.num_reduce_tasks = 3;
  spec.mapper_factory = [](const TaskContext&) {
    return std::make_unique<PassThroughMapper>();
  };
  spec.reducer_factory = [](const TaskContext&) {
    return std::make_unique<GroupCountReducer>();
  };

  // 10 keys over 5 distinct (shape, color) combinations, as in Figure 1.
  std::vector<std::vector<std::pair<int, ShapeColorKey>>> input(2);
  auto add = [&](int part, int shape, int color) {
    input[part].push_back({0, ShapeColorKey{shape, color}});
  };
  add(0, 0, 0); add(0, 1, 0); add(0, 0, 1); add(0, 1, 2); add(0, 0, 0);
  add(1, 1, 0); add(1, 0, 1); add(1, 0, 2); add(1, 1, 2); add(1, 0, 0);

  JobRunner runner(2);
  auto result = runner.Run(spec, input);

  // Grouping on the entire key: 5 reduce calls across 3 reduce tasks.
  int total_groups = 0;
  for (const auto& t : result.metrics.reduce_tasks) {
    total_groups += static_cast<int>(t.groups);
  }
  EXPECT_EQ(total_groups, 5);

  // Partitioning on color only: every key of one color lands in the same
  // reduce task.
  for (uint32_t t = 0; t < 3; ++t) {
    std::set<int> colors;
    for (const auto& [k, v] : result.outputs_per_reduce_task[t]) {
      colors.insert(k.color);
    }
    EXPECT_LE(colors.size(), 1u) << "reduce task " << t;
  }

  // Group sizes: (circle,light)=3, (triangle,light)=2, (circle,dark)=2,
  // (circle,black)=1, (triangle,black)=2.
  std::map<std::pair<int, int>, int> sizes;
  for (const auto& [k, v] : result.MergedOutput()) {
    sizes[{k.shape, k.color}] = v;
  }
  EXPECT_EQ((sizes[{0, 0}]), 3);
  EXPECT_EQ((sizes[{1, 0}]), 2);
  EXPECT_EQ((sizes[{0, 1}]), 2);
  EXPECT_EQ((sizes[{0, 2}]), 1);
  EXPECT_EQ((sizes[{1, 2}]), 2);
}

// ---------------------------------------------------------------------
// Equal-key run contiguity: values with identical keys must arrive
// grouped by origin map task, in map-task order (the Hadoop merge
// property BlockSplit's streaming reduce depends on).
// ---------------------------------------------------------------------

struct TaggedValue {
  uint32_t origin_map_task;
  int seq;
};

class TagMapper : public Mapper<int, int, int, TaggedValue> {
 public:
  explicit TagMapper(uint32_t task) : task_(task) {}
  void Map(const int& key, const int& v,
           MapContext<int, TaggedValue>* ctx) override {
    ctx->Emit(key, TaggedValue{task_, v});
  }

 private:
  uint32_t task_;
};

class ContiguityReducer : public Reducer<int, TaggedValue, int, int> {
 public:
  void Reduce(std::span<const std::pair<int, TaggedValue>> group,
              ReduceContext<int, int>* ctx) override {
    // Origin map tasks must be non-decreasing within the group.
    uint32_t last = 0;
    bool ok = true;
    for (const auto& [k, v] : group) {
      if (v.origin_map_task < last) ok = false;
      last = v.origin_map_task;
    }
    ctx->Emit(group.front().first, ok ? 1 : 0);
  }
};

struct IntModPartitionFn {
  uint32_t operator()(int k, uint32_t r) const {
    return static_cast<uint32_t>(k) % r;
  }
};

TEST(MrJobTest, EqualKeysStayContiguousPerMapTask) {
  TypedJobSpec<int, int, int, TaggedValue, int, int, std::less<>,
               std::equal_to<>, IntModPartitionFn>
      spec;
  spec.num_reduce_tasks = 2;
  spec.mapper_factory = [](const TaskContext& ctx) {
    return std::make_unique<TagMapper>(ctx.task_index);
  };
  spec.reducer_factory = [](const TaskContext&) {
    return std::make_unique<ContiguityReducer>();
  };

  // 6 map tasks all emitting the same small key set.
  std::vector<std::vector<std::pair<int, int>>> input(6);
  for (int t = 0; t < 6; ++t) {
    for (int i = 0; i < 10; ++i) {
      input[t].push_back({i % 3, i});
    }
  }
  JobRunner runner(4);
  auto result = runner.Run(spec, input);
  for (const auto& [key, ok] : result.MergedOutput()) {
    EXPECT_EQ(ok, 1) << "key " << key << " interleaved across map tasks";
  }
}

// ---------------------------------------------------------------------
// Grouping coarser than sorting (secondary sort): group receives keys in
// sort order, and the reducer sees each value's own key.
// ---------------------------------------------------------------------

struct SecondaryKey {
  int group;
  int pos;
};

class SecondarySortReducer
    : public Reducer<SecondaryKey, int, int, std::vector<int>> {
 public:
  void Reduce(std::span<const std::pair<SecondaryKey, int>> group,
              ReduceContext<int, std::vector<int>>* ctx) override {
    std::vector<int> positions;
    for (const auto& [k, v] : group) positions.push_back(k.pos);
    ctx->Emit(group.front().first.group, positions);
  }
};

class SecondaryMapper
    : public Mapper<int, SecondaryKey, SecondaryKey, int> {
 public:
  void Map(const int&, const SecondaryKey& v,
           MapContext<SecondaryKey, int>* ctx) override {
    ctx->Emit(v, 0);
  }
};

/// part and group: by `group` only; comp: by (group, pos).
struct GroupPartitionFn {
  uint32_t operator()(const SecondaryKey& k, uint32_t r) const {
    return static_cast<uint32_t>(k.group) % r;
  }
};
struct GroupPosLessFn {
  bool operator()(const SecondaryKey& a, const SecondaryKey& b) const {
    return std::tie(a.group, a.pos) < std::tie(b.group, b.pos);
  }
};
struct GroupEqualFn {
  bool operator()(const SecondaryKey& a, const SecondaryKey& b) const {
    return a.group == b.group;
  }
};

TEST(MrJobTest, SecondarySortDeliversValuesInKeyOrder) {
  TypedJobSpec<int, SecondaryKey, SecondaryKey, int, int, std::vector<int>,
               GroupPosLessFn, GroupEqualFn, GroupPartitionFn>
      spec;
  spec.num_reduce_tasks = 1;
  spec.mapper_factory = [](const TaskContext&) {
    return std::make_unique<SecondaryMapper>();
  };
  spec.reducer_factory = [](const TaskContext&) {
    return std::make_unique<SecondarySortReducer>();
  };

  std::vector<std::vector<std::pair<int, SecondaryKey>>> input(2);
  input[0] = {{0, {1, 5}}, {0, {1, 1}}, {0, {2, 9}}};
  input[1] = {{0, {1, 3}}, {0, {2, 2}}};
  JobRunner runner(2);
  auto result = runner.Run(spec, input);
  std::map<int, std::vector<int>> by_group;
  for (const auto& [g, positions] : result.MergedOutput()) {
    by_group[g] = positions;
  }
  EXPECT_EQ(by_group[1], (std::vector<int>{1, 3, 5}));
  EXPECT_EQ(by_group[2], (std::vector<int>{2, 9}));
}

TEST(MrJobTest, CountersMergeAcrossTasks) {
  auto spec = WordCountSpec(2);
  spec.mapper_factory = [](const TaskContext&) {
    class CountingMapper : public WordCountMapper {
      void Map(const int& k, const std::string& line,
               MapContext<std::string, int>* ctx) override {
        ctx->counters()->Increment("custom.lines");
        WordCountMapper::Map(k, line, ctx);
      }
    };
    return std::make_unique<CountingMapper>();
  };
  JobRunner runner(2);
  auto result = runner.Run(spec, WordInput());
  EXPECT_EQ(result.metrics.counters.Get("custom.lines"), 3);
  EXPECT_EQ(result.metrics.counters.Get(kCounterMapOutputPairs), 9);
}

// ---------------------------------------------------------------------
// Functor and std::function comp/group/part: a spec that names
// std::function types must produce byte-identical output to the
// functor-typed one.
// ---------------------------------------------------------------------

TEST(MrJobTest, TypedSpecMatchesFunctionSpec) {
  using KeyPredicate =
      std::function<bool(const std::string&, const std::string&)>;
  TypedJobSpec<int, std::string, std::string, int, std::string, int,
               KeyPredicate, KeyPredicate,
               std::function<uint32_t(const std::string&, uint32_t)>>
      fn_spec;
  fn_spec.num_reduce_tasks = 4;
  fn_spec.mapper_factory = [](const TaskContext&) {
    return std::make_unique<WordCountMapper>();
  };
  fn_spec.reducer_factory = [](const TaskContext&) {
    return std::make_unique<SumReducer>();
  };
  fn_spec.partitioner = FnvPartitionFn{};
  fn_spec.key_less = std::less<>{};
  fn_spec.group_equal = std::equal_to<>{};
  JobRunner runner(4);
  auto typed_result = runner.Run(WordCountSpec(4), WordInput());
  auto fn_result = runner.Run(fn_spec, WordInput());
  EXPECT_EQ(typed_result.MergedOutput(), fn_result.MergedOutput());
  EXPECT_EQ(typed_result.metrics.counters.Get(kCounterMapOutputPairs),
            fn_result.metrics.counters.Get(kCounterMapOutputPairs));
}

TEST(MrJobTest, TypedSpecSupportsCombiner) {
  auto typed = WordCountSpec(1);
  typed.combiner = [](std::span<const std::pair<std::string, int>> group,
                      std::vector<std::pair<std::string, int>>* out) {
    int sum = 0;
    for (const auto& [k, v] : group) sum += v;
    out->emplace_back(group.front().first, sum);
  };
  JobRunner runner(2);
  auto result = runner.Run(typed, WordInput());
  auto counts = CollectCounts(result);
  EXPECT_EQ(counts["a"], 4);
  EXPECT_EQ(counts["b"], 2);
  EXPECT_EQ(counts["c"], 3);
  EXPECT_EQ(result.metrics.reduce_tasks[0].input_records, 6);
}

TEST(SideStoreTest, AppendAndRead) {
  SideStore<std::string, int> store(3);
  store.Append(0, "a", 1);
  store.Append(2, "b", 2);
  store.Append(0, "c", 3);
  EXPECT_EQ(store.File(0).size(), 2u);
  EXPECT_EQ(store.File(1).size(), 0u);
  EXPECT_EQ(store.File(2).size(), 1u);
  EXPECT_EQ(store.TotalRecords(), 3u);
  EXPECT_EQ(store.File(0)[0].first, "a");
  EXPECT_EQ(store.File(0)[1].second, 3);
  EXPECT_EQ(store.num_tasks(), 3u);
}

}  // namespace
}  // namespace mr
}  // namespace erlb
