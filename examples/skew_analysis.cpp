// Skew analysis: inspect a dataset's block distribution (the BDM), see
// how each strategy would distribute the workload over reduce tasks, and
// project execution on a simulated cluster — the workflow a practitioner
// would use to pick a strategy before paying for cluster time.
//
//   $ ./skew_analysis [skew]
#include <cstdio>
#include <cstdlib>

#include "bdm/bdm.h"
#include "common/string_util.h"
#include "core/table.h"
#include "er/blocking.h"
#include "gen/skew_gen.h"
#include "lb/strategy.h"
#include "sim/er_sim.h"
#include "sim/recommend.h"

using namespace erlb;

int main(int argc, char** argv) {
  double skew = argc > 1 ? std::strtod(argv[1], nullptr) : 0.8;

  gen::SkewConfig gen_cfg;
  gen_cfg.num_entities = 50000;
  gen_cfg.num_blocks = 100;
  gen_cfg.skew = skew;
  auto entities = gen::GenerateSkewed(gen_cfg);
  if (!entities.ok()) return 1;

  const uint32_t m = 20, r = 100, nodes = 10;
  er::AttributeBlocking blocking(gen::kSkewBlockField);

  // Build the BDM the way Job 1 would see the data.
  std::vector<std::vector<std::string>> keys(m);
  for (size_t i = 0; i < entities->size(); ++i) {
    keys[i * m / entities->size()].push_back(
        blocking.Key((*entities)[i]));
  }
  auto bdm = bdm::Bdm::FromKeys(keys);
  if (!bdm.ok()) return 1;

  std::printf("skew s=%.2f: %u blocks, %s entities, %s pairs\n",
              skew, bdm->num_blocks(),
              FormatWithCommas(bdm->TotalEntities()).c_str(),
              FormatWithCommas(bdm->TotalPairs()).c_str());
  std::printf("largest 5 blocks (entities / share of all pairs):\n");
  for (int i = 0; i < 5 && i < static_cast<int>(bdm->num_blocks()); ++i) {
    const bdm::Bdm::BlockView block = bdm->view(i);
    std::printf("  %s: %s entities, %.1f%% of pairs\n",
                bdm->BlockKey(i).c_str(),
                FormatWithCommas(block.size()).c_str(),
                100.0 * block.pairs() / bdm->TotalPairs());
  }

  std::printf("\nworkload distribution over r=%u reduce tasks:\n", r);
  core::TextTable table;
  table.SetHeader({"strategy", "max pairs/task", "mean pairs/task",
                   "imbalance", "map KV pairs", "sim total s"});
  for (auto kind : lb::AllStrategyKinds()) {
    lb::MatchJobOptions options;
    options.num_reduce_tasks = r;
    auto plan = lb::MakeStrategy(kind)->BuildPlan(*bdm, options);
    if (!plan.ok()) return 1;
    sim::ClusterConfig cluster;
    cluster.num_nodes = nodes;
    sim::CostModel cost;
    auto projected = sim::SimulateEr(kind, *bdm, r, cluster, cost);
    if (!projected.ok()) return 1;
    double mean =
        static_cast<double>(plan->stats().total_comparisons) / r;
    table.AddRow({lb::StrategyKindToName(kind),
                  FormatWithCommas(plan->stats().MaxReduceComparisons()),
                  FormatWithCommas(static_cast<uint64_t>(mean)),
                  FormatDouble(plan->stats().ReduceImbalance(), 2) + "x",
                  FormatWithCommas(plan->stats().TotalMapOutputPairs()),
                  FormatDouble(projected->total_s, 1)});
  }
  table.Print();
  std::printf("\nimbalance = max/mean comparisons per reduce task; the\n"
              "simulated times project a %u-node cluster (2 map + 2 "
              "reduce slots per node).\n", nodes);

  sim::ClusterConfig cluster;
  cluster.num_nodes = nodes;
  sim::CostModel cost;
  auto rec = sim::RecommendStrategy(*bdm, r, cluster, cost);
  if (rec.ok()) {
    std::printf("\nrecommendation: %s\n", rec->rationale.c_str());
  }
  return 0;
}
