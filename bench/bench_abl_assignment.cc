// Ablation: BlockSplit's greedy LPT match-task assignment ("assigns match
// tasks in descending size ... to the reduce task with the lowest number
// of already assigned pairs") vs. naive round-robin assignment. Shows why
// the paper's heuristic matters: the max reduce-task load — and therefore
// the reduce-phase makespan — degrades without it.
#include <cstdio>

#include "bench_common.h"
#include "core/table.h"

int main() {
  using namespace erlb;
  std::printf(
      "=== Ablation: BlockSplit match-task assignment (greedy LPT vs. "
      "round-robin) ===\n\n");

  const uint32_t kNodes = 10, kMapTasks = 20;
  auto cost = bench::PaperCostModel();
  auto entities = bench::MakeDs1();
  er::PrefixBlocking blocking(0, 3);
  auto bdm = bench::BuildBdm(entities, blocking, kMapTasks);
  auto strategy = lb::MakeStrategy(lb::StrategyKind::kBlockSplit);

  core::TextTable table;
  table.SetHeader({"r", "LPT imbalance", "RR imbalance", "LPT sim s",
                   "RR sim s"});
  for (uint32_t r = 20; r <= 160; r += 20) {
    lb::MatchJobOptions lpt, rr;
    lpt.num_reduce_tasks = rr.num_reduce_tasks = r;
    lpt.assignment = lb::TaskAssignment::kGreedyLpt;
    rr.assignment = lb::TaskAssignment::kRoundRobin;
    auto lpt_plan = strategy->BuildPlan(bdm, lpt);
    auto rr_plan = strategy->BuildPlan(bdm, rr);
    ERLB_CHECK(lpt_plan.ok());
    ERLB_CHECK(rr_plan.ok());

    sim::ClusterConfig cluster;
    cluster.num_nodes = kNodes;
    auto lpt_sim = sim::SimulateEr(lb::StrategyKind::kBlockSplit, bdm, r,
                                   cluster, cost,
                                   lb::TaskAssignment::kGreedyLpt);
    auto rr_sim = sim::SimulateEr(lb::StrategyKind::kBlockSplit, bdm, r,
                                  cluster, cost,
                                  lb::TaskAssignment::kRoundRobin);
    ERLB_CHECK(lpt_sim.ok());
    ERLB_CHECK(rr_sim.ok());
    table.AddRow({std::to_string(r),
                  bench::Fmt(lpt_plan->stats().ReduceImbalance(), 2),
                  bench::Fmt(rr_plan->stats().ReduceImbalance(), 2),
                  bench::Fmt(lpt_sim->total_s),
                  bench::Fmt(rr_sim->total_s)});
  }
  table.Print();
  std::printf(
      "\nImbalance = max/mean comparisons per reduce task (1.00 is "
      "perfect).\n");
  return 0;
}
