// Micro-benchmarks for the MR engine's hot path, with explicit
// before/after comparisons:
//
//  * shuffle: the reduce-side shuffle kernel on m sorted runs — the old
//    concatenate + stable_sort path (comparisons dispatched through
//    std::function, as the old engine did) against the in-memory
//    shuffle's k-way merge with an inlined comparator (what the engine
//    runs now).
//  * engine: one full JobRunner::Run of a counting job, a TypedJobSpec
//    naming std::function comp/group/part vs. one naming stateless
//    functors (devirtualized).
//  * pipeline: end-to-end BlockSplit deduplication on a small product
//    dataset (real multi-threaded matching), for the trajectory.
//
// `--json <path>` writes the results as BENCH_*.json (see bench_json.h).
#include <cmath>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "bench_json.h"
#include "common/logging.h"
#include "common/random.h"
#include "common/thread_pool.h"
#include "core/dataflow.h"
#include "core/stages.h"
#include "er/blocking.h"
#include "er/matcher.h"
#include "gen/product_gen.h"
#include "mr/job.h"
#include "mr/merge.h"

namespace {

using namespace erlb;

using ShufflePair = std::pair<uint64_t, uint64_t>;

// Prevents the optimizer from discarding benchmark results.
volatile uint64_t g_sink = 0;

/// m sorted runs with heavy key duplication, ~total_pairs pairs overall —
/// the shape a reduce task receives from m map tasks.
std::vector<std::vector<ShufflePair>> MakeSortedRuns(size_t m,
                                                     size_t total_pairs) {
  Pcg32 rng(42);
  const uint64_t key_space = static_cast<uint64_t>(total_pairs) / 4 + 1;
  std::vector<std::vector<ShufflePair>> runs(m);
  for (size_t t = 0; t < m; ++t) {
    const size_t len = total_pairs / m;
    runs[t].reserve(len);
    for (size_t i = 0; i < len; ++i) {
      runs[t].push_back({rng.Next() % key_space,
                         static_cast<uint64_t>(t) << 32 | i});
    }
    std::stable_sort(runs[t].begin(), runs[t].end(),
                     [](const ShufflePair& a, const ShufflePair& b) {
                       return a.first < b.first;
                     });
  }
  return runs;
}

void BenchShuffle(bench::MicroBench* mb) {
  const auto master = MakeSortedRuns(8, 1 << 19);

  // The engine's previous reduce-side shuffle: concatenate + stable_sort,
  // every comparison through std::function.
  std::function<bool(const ShufflePair&, const ShufflePair&)> fn_less =
      [](const ShufflePair& a, const ShufflePair& b) {
        return a.first < b.first;
      };
  auto inline_less = [](const ShufflePair& a, const ShufflePair& b) {
    return a.first < b.first;
  };

  // Sanity: both paths produce the identical sequence.
  {
    auto expected = mr::ConcatAndStableSort(
        std::span<const std::vector<ShufflePair>>(master), fn_less);
    auto runs = master;
    auto actual = mr::MergeSortedRuns(std::span(runs), inline_less);
    ERLB_CHECK(actual == expected) << "shuffle paths diverge";
  }

  // The merge consumes its input, so its timed closure must deep-copy
  // `master` each iteration — a cost the engine's real reduce path never
  // pays (it moves bucket columns). The copy-only entry makes the pure
  // kernel cost derivable (merge - copy) from the JSON; the derived
  // speedup is therefore conservative.
  mb->Run("shuffle/copy_runs_only", [&] {
    auto runs = master;
    g_sink = g_sink + runs.size() + runs.front().front().second;
  });
  mb->Run("shuffle/old_concat_sort_fn", [&] {
    auto out = mr::ConcatAndStableSort(
        std::span<const std::vector<ShufflePair>>(master), fn_less);
    g_sink = g_sink + out.size() + out.front().second;
  });
  mb->Run("shuffle/new_kway_merge", [&] {
    auto runs = master;  // the merge consumes its input
    auto out = mr::MergeSortedRuns(std::span(runs), inline_less);
    g_sink = g_sink + out.size() + out.front().second;
  });
  mb->Speedup("shuffle/speedup", "shuffle/old_concat_sort_fn",
              "shuffle/new_kway_merge");
}

// ---------------------------------------------------------------------
// Whole-engine comparison: std::function comp/group/part vs. functors.
// ---------------------------------------------------------------------

class ModMapper : public mr::Mapper<int, int, int, int> {
 public:
  void Map(const int&, const int& v, mr::MapContext<int, int>* ctx) override {
    ctx->Emit(v & 1023, 1);
  }
};

class CountReducer : public mr::Reducer<int, int, int, int> {
 public:
  void Reduce(std::span<const std::pair<int, int>> group,
              mr::ReduceContext<int, int>* ctx) override {
    ctx->Emit(group.front().first, static_cast<int>(group.size()));
  }
};

struct IntLessFn {
  bool operator()(const int& a, const int& b) const { return a < b; }
};
struct IntEqualFn {
  bool operator()(const int& a, const int& b) const { return a == b; }
};
struct IntModPartitionFn {
  uint32_t operator()(const int& k, uint32_t r) const {
    return static_cast<uint32_t>(k) % r;
  }
};

/// The counting job with comp/group/part held as std::function — one
/// indirect call per key comparison, the "before" side of engine/speedup.
using IntPredicate = std::function<bool(const int&, const int&)>;
using FunctionSpec =
    mr::TypedJobSpec<int, int, int, int, int, int, IntPredicate, IntPredicate,
                     std::function<uint32_t(const int&, uint32_t)>>;

template <typename Spec>
void FillEngineSpec(Spec* spec) {
  spec->num_reduce_tasks = 8;
  spec->mapper_factory = [](const mr::TaskContext&) {
    return std::make_unique<ModMapper>();
  };
  spec->reducer_factory = [](const mr::TaskContext&) {
    return std::make_unique<CountReducer>();
  };
}

void BenchEngine(bench::MicroBench* mb) {
  std::vector<std::vector<std::pair<int, int>>> input(8);
  Pcg32 rng(7);
  for (auto& part : input) {
    part.reserve(20000);
    for (int i = 0; i < 20000; ++i) {
      part.push_back({0, static_cast<int>(rng.Next() & 0x7fffffff)});
    }
  }
  mr::JobRunner runner(4);

  FunctionSpec fn_spec;
  FillEngineSpec(&fn_spec);
  fn_spec.partitioner = [](const int& k, uint32_t r) {
    return static_cast<uint32_t>(k) % r;
  };
  fn_spec.key_less = [](const int& a, const int& b) { return a < b; };
  fn_spec.group_equal = [](const int& a, const int& b) { return a == b; };

  mr::TypedJobSpec<int, int, int, int, int, int, IntLessFn, IntEqualFn,
                   IntModPartitionFn>
      typed_spec;
  FillEngineSpec(&typed_spec);

  mb->Run("engine/function_spec", [&] {
    auto result = runner.Run(fn_spec, input);
    g_sink = g_sink +
             static_cast<uint64_t>(result.metrics.TotalMapOutputPairs());
  });
  mb->Run("engine/typed_spec", [&] {
    auto result = runner.Run(typed_spec, input);
    g_sink = g_sink +
             static_cast<uint64_t>(result.metrics.TotalMapOutputPairs());
  });
  mb->Speedup("engine/speedup", "engine/function_spec", "engine/typed_spec");
}

// ---------------------------------------------------------------------
// Scheduler measurements, two shapes:
//  * skew: a Fig-9-style map phase — task sizes decay as e^(-s*k) over
//    many tasks, so the phase has one dominant task and a long tail;
//    the stealing path must not cost makespan.
//  * overhead: thousands of near-empty tasks, where the per-task cost is
//    the scheduler itself — the atomic shard claim against the raw
//    pool's mutex + condvar handoff per task.
// ---------------------------------------------------------------------

void BenchSkewScheduler(bench::MicroBench* mb) {
  constexpr uint32_t kTasks = 128;
  std::vector<std::vector<std::pair<int, int>>> input(kTasks);
  Pcg32 rng(11);
  for (uint32_t t = 0; t < kTasks; ++t) {
    // e^(-s*k) sizes with s tuned so the head task is ~20k records and
    // the tail is single digits — the Figure 9 skew shape.
    const auto n =
        static_cast<size_t>(20000.0 * std::exp(-0.08 * t)) + 1;
    input[t].reserve(n);
    for (size_t i = 0; i < n; ++i) {
      input[t].push_back({0, static_cast<int>(rng.Next() & 0x7fffffff)});
    }
  }

  FunctionSpec spec;
  FillEngineSpec(&spec);
  spec.num_reduce_tasks = 4;
  spec.partitioner = [](const int& k, uint32_t r) {
    return static_cast<uint32_t>(k) % r;
  };
  spec.key_less = [](const int& a, const int& b) { return a < b; };
  spec.group_equal = [](const int& a, const int& b) { return a == b; };

  mr::JobRunner runner(4);
  mb->Run("skew/work_stealing", [&runner, &spec, &input] {
    auto result = runner.Run(spec, input);
    ERLB_CHECK(result.status.ok());
    g_sink = g_sink +
             static_cast<uint64_t>(result.metrics.TotalMapOutputPairs());
  });
}

void BenchSchedulerOverhead(bench::MicroBench* mb) {
  constexpr uint32_t kTasks = 8192;
  std::vector<uint32_t> indices(kTasks);
  for (uint32_t t = 0; t < kTasks; ++t) indices[t] = t;
  std::vector<uint8_t> touched(kTasks, 0);
  ThreadPool pool(4);

  mb->Run("scheduler_overhead/fifo_pool", [&pool, &indices, &touched] {
    for (uint32_t t : indices) {
      pool.Submit([&touched, t] { touched[t] = 1; });
    }
    pool.Wait();
    g_sink = g_sink + touched[kTasks - 1];
  });
  mb->Run("scheduler_overhead/work_stealing",
          [&pool, &indices, &touched] {
            mr::WorkStealingScheduler scheduler(indices, 4);
            scheduler.Run(&pool,
                          [&touched](uint32_t t) { touched[t] = 1; });
            g_sink = g_sink + touched[kTasks - 1];
          });
  mb->Speedup("scheduler_overhead/speedup", "scheduler_overhead/fifo_pool",
              "scheduler_overhead/work_stealing");
}

void BenchPipeline(bench::MicroBench* mb) {
  gen::ProductConfig cfg;
  cfg.num_entities = 2000;
  cfg.num_brands = 60;
  cfg.zipf_exponent = 1.0;  // milder skew keeps the pair count bounded
  auto entities_res = gen::GenerateProducts(cfg);
  ERLB_CHECK(entities_res.ok());
  const auto& entities = *entities_res;

  er::PrefixBlocking blocking(0, 3);
  er::EditDistanceMatcher matcher(0.8);
  core::DataflowOptions resources;
  resources.num_workers = 4;
  core::StandardGraphOptions graph;
  graph.num_reduce_tasks = 16;

  mb->Run("pipeline/blocksplit_e2e", [&] {
    core::Dataflow df(resources);
    df.Emplace<core::EntitySourceStage>("source", core::kDatasetPartitions,
                                        &entities, 4);
    ERLB_CHECK(core::AddStandardGraph(&df, graph, &blocking, &matcher).ok());
    auto report = df.Run();
    ERLB_CHECK(report.ok());
    g_sink = g_sink + static_cast<uint64_t>(report->TotalComparisons());
  });
}

}  // namespace

int main(int argc, char** argv) {
  erlb::bench::MicroBench mb("bench_micro_mr");
  if (!mb.ParseArgs(argc, argv)) return 1;
  BenchShuffle(&mb);
  BenchEngine(&mb);
  BenchSkewScheduler(&mb);
  BenchSchedulerOverhead(&mb);
  BenchPipeline(&mb);
  return mb.Finish();
}
