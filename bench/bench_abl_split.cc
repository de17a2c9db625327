// Ablation: BlockSplit's split granularity is the number of input
// partitions m ("large blocks are split according to the m input
// partitions"). Sweeping m at fixed cluster size shows the trade-off the
// paper's Figure 11 hints at: too few partitions -> sub-blocks too coarse
// to balance; more partitions -> finer match tasks and better balance,
// at slightly more replication (each split-block entity is emitted once
// per non-empty partition).
#include <cstdio>

#include "bench_common.h"
#include "common/string_util.h"
#include "core/table.h"

int main() {
  using namespace erlb;
  std::printf(
      "=== Ablation: BlockSplit split granularity (m sweep, DS1, n=10, "
      "r=100) ===\n\n");

  const uint32_t kNodes = 10, kReduceTasks = 100;
  auto cost = bench::PaperCostModel();
  auto entities = bench::MakeDs1();
  er::PrefixBlocking blocking(0, 3);
  auto strategy = lb::MakeStrategy(lb::StrategyKind::kBlockSplit);

  core::TextTable table;
  table.SetHeader(
      {"m", "imbalance", "map KV pairs", "sim s", "vs PairRange s"});
  for (uint32_t m : {2u, 5u, 10u, 20u, 40u, 80u}) {
    auto bdm = bench::BuildBdm(entities, blocking, m);
    lb::MatchJobOptions options;
    options.num_reduce_tasks = kReduceTasks;
    auto plan = strategy->BuildPlan(bdm, options);
    ERLB_CHECK(plan.ok());
    auto split_sim = bench::Simulate(lb::StrategyKind::kBlockSplit, bdm,
                                     kReduceTasks, kNodes, cost);
    auto range_sim = bench::Simulate(lb::StrategyKind::kPairRange, bdm,
                                     kReduceTasks, kNodes, cost);
    table.AddRow({std::to_string(m),
                  bench::Fmt(plan->stats().ReduceImbalance(), 2),
                  FormatWithCommas(plan->stats().TotalMapOutputPairs()),
                  bench::Fmt(split_sim.total_s),
                  bench::Fmt(range_sim.total_s)});
  }
  table.Print();
  std::printf(
      "\nWith few input partitions the sub-blocks of the dominant block\n"
      "are too coarse to balance (high imbalance); more map tasks give\n"
      "BlockSplit finer match tasks, converging towards PairRange's\n"
      "balance at the cost of more replication.\n");
  return 0;
}
