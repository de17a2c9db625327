// Plan-first workflow: build a strategy's exact MatchPlan from the BDM
// alone (no entity comparisons) — as a one-stage dataflow whose report
// carries the built plan — inspect its per-task workload, serialize it
// to JSON, reload it, and project the *reloaded* plan on a simulated
// cluster. Planning, inspection, caching, and simulation all share one
// artifact, and the planning step is the same PlanStage the full
// pipeline graph runs.
//
//   $ ./plan_inspect [strategy] [skew] [r] [plan.json]
//
// strategy: Basic | BlockSplit | PairRange (case-insensitive)
#include <cstdio>
#include <cstdlib>

#include "bdm/bdm.h"
#include "common/string_util.h"
#include "core/dataflow.h"
#include "core/stages.h"
#include "er/blocking.h"
#include "gen/skew_gen.h"
#include "lb/plan_io.h"
#include "lb/strategy.h"
#include "sim/er_sim.h"

using namespace erlb;

int main(int argc, char** argv) {
  // CLI parsing via StrategyKindFromName, the inverse of StrategyKindToName.
  lb::StrategyKind kind = lb::StrategyKind::kBlockSplit;
  if (argc > 1) {
    auto parsed = lb::StrategyKindFromName(argv[1]);
    if (!parsed.ok()) {
      std::fprintf(stderr,
                   "%s\nusage: plan_inspect [%s] [skew] [r] [plan.json]\n",
                   parsed.status().ToString().c_str(),
                   lb::JoinStrategyKindNames("|").c_str());
      return 1;
    }
    kind = *parsed;
  }
  double skew = argc > 2 ? std::strtod(argv[2], nullptr) : 0.8;
  uint32_t r = argc > 3
                   ? static_cast<uint32_t>(std::strtoul(argv[3], nullptr, 10))
                   : 20;
  std::string plan_path = argc > 4 ? argv[4] : "/tmp/erlb_match_plan.json";

  // A skewed dataset, described to the planner as its BDM.
  gen::SkewConfig cfg;
  cfg.num_entities = 20000;
  cfg.num_blocks = 50;
  cfg.skew = skew;
  auto entities = gen::GenerateSkewed(cfg);
  if (!entities.ok()) return 1;
  const uint32_t m = 8;
  er::AttributeBlocking blocking(gen::kSkewBlockField);
  std::vector<std::vector<std::string>> keys(m);
  for (size_t i = 0; i < entities->size(); ++i) {
    keys[i * m / entities->size()].push_back(blocking.Key((*entities)[i]));
  }
  auto bdm = bdm::Bdm::FromKeys(keys);
  if (!bdm.ok()) return 1;

  // 1. Plan: the full decision record, from the BDM alone — a one-stage
  // dataflow (bdm dataset in, plan dataset out) whose stage report hands
  // back the built plan.
  lb::MatchJobOptions options;
  options.num_reduce_tasks = r;
  core::Dataflow df;
  if (auto st = df.AddInput(core::kDatasetBdm, core::Dataset(*bdm));
      !st.ok()) {
    std::fprintf(stderr, "%s\n", st.ToString().c_str());
    return 1;
  }
  df.Emplace<core::PlanStage>("plan", core::kDatasetBdm,
                              core::kDatasetPlan, kind, options);
  auto report = df.Run();
  if (!report.ok()) {
    std::fprintf(stderr, "plan dataflow: %s\n",
                 report.status().ToString().c_str());
    return 1;
  }
  std::shared_ptr<const lb::MatchPlan> plan = report->Find("plan")->plan;
  const lb::PlanStats& stats = plan->stats();
  std::printf("%s plan over %u blocks, m=%u, r=%u:\n",
              lb::StrategyKindToName(kind), bdm->num_blocks(),
              bdm->num_partitions(), r);
  std::printf("  total comparisons : %s\n",
              FormatWithCommas(stats.total_comparisons).c_str());
  std::printf("  map KV pairs      : %s\n",
              FormatWithCommas(stats.TotalMapOutputPairs()).c_str());
  std::printf("  max / mean reduce : %s / %s  (imbalance %sx)\n",
              FormatWithCommas(stats.MaxReduceComparisons()).c_str(),
              FormatWithCommas(stats.total_comparisons / r).c_str(),
              FormatDouble(stats.ReduceImbalance(), 2).c_str());
  if (const lb::BlockSplitPlanBody* body = plan->block_split()) {
    std::printf("  match tasks       : %zu (split threshold %s)\n",
                body->plan.tasks().size(),
                FormatWithCommas(
                    body->plan.comparisons_per_reduce_task_avg())
                    .c_str());
  } else if (const lb::PairRangePlanBody* body = plan->pair_range()) {
    std::printf("  pair ranges       : %zu boundaries, last = %s\n",
                body->range_begin.size(),
                FormatWithCommas(body->range_begin.back()).c_str());
  }

  // 2. Serialize and reload: the plan is a cacheable artifact.
  if (auto st = lb::SaveMatchPlan(plan_path, *plan); !st.ok()) {
    std::fprintf(stderr, "%s\n", st.ToString().c_str());
    return 1;
  }
  auto reloaded = lb::LoadMatchPlan(plan_path);
  if (!reloaded.ok()) {
    std::fprintf(stderr, "reload: %s\n",
                 reloaded.status().ToString().c_str());
    return 1;
  }
  bool identical =
      lb::MatchPlanToJson(*plan) == lb::MatchPlanToJson(*reloaded);
  std::printf("\nwrote %s; reload %s\n", plan_path.c_str(),
              identical ? "round-trips byte-identically" : "DIFFERS!");
  if (!identical) return 1;

  // 3. Simulate from the reloaded plan — no re-planning.
  sim::ClusterConfig cluster;
  cluster.num_nodes = 10;
  sim::CostModel cost;
  auto projected = sim::SimulateMatchPlan(*reloaded, *bdm, cluster, cost);
  if (!projected.ok()) return 1;
  std::printf("projected on %u nodes: %.1f s total "
              "(BDM job %.1f s, match map %.1f s, match reduce %.1f s)\n",
              cluster.num_nodes, projected->total_s, projected->bdm_job_s,
              projected->match_map_phase_s,
              projected->match_reduce_phase_s);
  return 0;
}
