// Planning-throughput micro benchmark: how fast each strategy turns a BDM
// into its full MatchPlan, and how fast plans round-trip through JSON
// (the lb/plan_io save/load path). Uses the dependency-free bench_json.h
// harness; `--json BENCH_plan.json` emits the machine-readable baseline.
//
//   $ ./bench_plan [--json <path>] [--reps N] [--min-rep-ms N]
#include <map>
#include <string>
#include <vector>

#include "bdm/bdm.h"
#include "bench_json.h"
#include "common/logging.h"
#include "common/random.h"
#include "common/string_util.h"
#include "er/blocking.h"
#include "gen/skew_gen.h"
#include "lb/plan_io.h"
#include "lb/strategy.h"

using namespace erlb;

namespace {

/// A skewed BDM shaped like the figure benchmarks' datasets: `entities`
/// entities over `blocks` blocks across `m` partitions.
bdm::Bdm MakeBdm(uint32_t entities, uint32_t blocks, uint32_t m,
                 double skew, uint64_t seed) {
  gen::SkewConfig cfg;
  cfg.num_entities = entities;
  cfg.num_blocks = blocks;
  cfg.skew = skew;
  cfg.seed = seed;
  auto generated = gen::GenerateSkewed(cfg);
  ERLB_CHECK(generated.ok());
  er::AttributeBlocking blocking(gen::kSkewBlockField);
  std::vector<std::vector<std::string>> keys(m);
  for (size_t i = 0; i < generated->size(); ++i) {
    keys[i * m / generated->size()].push_back(
        blocking.Key((*generated)[i]));
  }
  auto bdm = bdm::Bdm::FromKeys(keys);
  ERLB_CHECK(bdm.ok());
  return std::move(bdm).ValueOrDie();
}

}  // namespace

int main(int argc, char** argv) {
  bench::MicroBench harness("bench_plan");
  if (!harness.ParseArgs(argc, argv)) return 1;

  const uint32_t r = 100;
  bdm::Bdm bdm = MakeBdm(/*entities=*/50000, /*blocks=*/200, /*m=*/20,
                         /*skew=*/0.8, /*seed=*/7);
  lb::MatchJobOptions options;
  options.num_reduce_tasks = r;

  // ---- BuildPlan throughput per strategy -------------------------------
  for (auto kind : lb::AllStrategyKinds()) {
    auto strategy = lb::MakeStrategy(kind);
    harness.Run(std::string("build_plan/") + lb::StrategyKindToName(kind),
                [&strategy, &bdm, &options] {
                  auto plan = strategy->BuildPlan(bdm, options);
                  ERLB_CHECK(plan.ok());
                });
  }

  // BlockSplit with sub-splits multiplies virtual partitions — the
  // heaviest planning configuration.
  {
    auto strategy = lb::MakeStrategy(lb::StrategyKind::kBlockSplit);
    lb::MatchJobOptions sub_options = options;
    sub_options.sub_splits = 4;
    harness.Run("build_plan/BlockSplit_sub4",
                [&strategy, &bdm, &sub_options] {
                  auto plan = strategy->BuildPlan(bdm, sub_options);
                  ERLB_CHECK(plan.ok());
                });
  }

  // ---- plan_io path: JSON serialize / parse ----------------------------
  for (auto kind : lb::AllStrategyKinds()) {
    auto plan = lb::MakeStrategy(kind)->BuildPlan(bdm, options);
    ERLB_CHECK(plan.ok());
    const std::string json = lb::MatchPlanToJson(*plan);
    harness.Run(std::string("plan_to_json/") + lb::StrategyKindToName(kind),
                [&plan] {
                  std::string out = lb::MatchPlanToJson(*plan);
                  ERLB_CHECK(!out.empty());
                });
    harness.Run(std::string("plan_from_json/") + lb::StrategyKindToName(kind),
                [&json] {
                  auto parsed = lb::MatchPlanFromJson(json);
                  ERLB_CHECK(parsed.ok());
                });
  }

  // ---- Large-sparse case: planning-style scan over >=1M blocks ---------
  // The win of the CSR-backed BDM: a Basic-style planning pass (hash each
  // block to its reduce task, accumulate pair totals) over contiguous
  // arrays with precomputed per-block aggregates, against the same pass
  // over the map-backed layout the sparse representation replaced.
  {
    constexpr uint32_t kBlocks = 1u << 20;  // 1,048,576
    constexpr uint32_t kM = 32;
    std::vector<bdm::BdmTriple> triples;
    triples.reserve(kBlocks * 2);
    for (uint32_t b = 0; b < kBlocks; ++b) {
      bdm::BdmTriple t;
      t.block_key = "b" + std::to_string(b);
      const uint32_t nonzeros = 1 + b % 3;
      for (uint32_t c = 0; c < nonzeros; ++c) {
        t.partition = (b * 7 + c * 11) % kM;
        t.count = 1 + (b + c) % 5;
        triples.push_back(t);
      }
    }
    auto sparse = bdm::Bdm::FromTriples(triples, kM);
    ERLB_CHECK(sparse.ok());

    // The previous representation, rebuilt verbatim: one map node per
    // block, cells in a per-block vector.
    std::map<std::string, std::vector<bdm::BdmCell>> map_backed;
    for (const auto& t : triples) {
      map_backed[t.block_key].push_back(bdm::BdmCell{t.partition, t.count});
    }

    // Timed call by call in alternation, so the gated ratio does not
    // follow host load that changes between two back-to-back loops.
    std::vector<uint64_t> pairs_per_task(r);
    harness.RunInterleaved(
        {"plan_scan_1m/map_backed", "plan_scan_1m/block_view"}, 1,
        [&map_backed, &pairs_per_task] {
          std::fill(pairs_per_task.begin(), pairs_per_task.end(), 0);
          for (const auto& [key, cells] : map_backed) {
            uint64_t n = 0;
            for (const bdm::BdmCell& cell : cells) n += cell.count;
            pairs_per_task[Fnv1a64(key) % pairs_per_task.size()] +=
                n * (n - 1) / 2;
          }
          ERLB_CHECK(!pairs_per_task.empty());
        },
        [&sparse, &pairs_per_task] {
          std::fill(pairs_per_task.begin(), pairs_per_task.end(), 0);
          sparse->ForEachBlock([&](const bdm::Bdm::BlockView& block) {
            pairs_per_task[Fnv1a64(block.key()) % pairs_per_task.size()] +=
                block.pairs();
          });
          ERLB_CHECK(!pairs_per_task.empty());
        });
    harness.Speedup("plan_scan_1m/speedup", "plan_scan_1m/map_backed",
                    "plan_scan_1m/block_view");

    // A real BuildPlan at the same scale (Basic hashes every block).
    auto basic = lb::MakeStrategy(lb::StrategyKind::kBasic);
    harness.Run("build_plan_1m/Basic", [&basic, &sparse, &options] {
      auto plan = basic->BuildPlan(*sparse, options);
      ERLB_CHECK(plan.ok());
    });
  }

  return harness.Finish();
}
