#include "sim/recommend.h"

#include <sstream>

#include "common/string_util.h"
#include "sim/er_sim.h"

namespace erlb {
namespace sim {

Result<Recommendation> RecommendStrategy(const bdm::Bdm& bdm, uint32_t r,
                                         const ClusterConfig& cluster,
                                         const CostModel& cost) {
  Recommendation rec;
  rec.plans.resize(lb::AllStrategyKinds().size());
  double best = -1;
  for (auto kind : lb::AllStrategyKinds()) {
    // Plan once per strategy; the same MatchPlan feeds the projection here
    // and, if this strategy wins, execution by the caller.
    lb::MatchJobOptions options;
    options.num_reduce_tasks = r;
    ERLB_ASSIGN_OR_RETURN(lb::MatchPlan plan,
                          lb::MakeStrategy(kind)->BuildPlan(bdm, options));
    ERLB_ASSIGN_OR_RETURN(ErSimResult res,
                          SimulateMatchPlan(plan, bdm, cluster, cost));
    const int i = static_cast<int>(kind);
    rec.plans[i] = std::move(plan);
    rec.projected_seconds[i] = res.total_s;
    rec.imbalance[i] = res.reduce_task_imbalance;
    if (best < 0 || res.total_s < best) {
      best = res.total_s;
      rec.strategy = kind;
    }
  }

  std::ostringstream why;
  why << lb::StrategyKindToName(rec.strategy) << " projects fastest ("
      << FormatDouble(best, 1) << " s on " << cluster.num_nodes
      << " nodes, r=" << r << "). ";
  const double basic =
      rec.projected_seconds[static_cast<int>(lb::StrategyKind::kBasic)];
  const double basic_imb =
      rec.imbalance[static_cast<int>(lb::StrategyKind::kBasic)];
  if (rec.strategy == lb::StrategyKind::kBasic) {
    why << "The block distribution is balanced enough (imbalance "
        << FormatDouble(basic_imb, 2)
        << "x) that skipping the BDM job wins.";
  } else {
    why << "Basic would be " << FormatDouble(basic / best, 1)
        << "x slower (reduce imbalance " << FormatDouble(basic_imb, 1)
        << "x from skewed blocks).";
  }
  rec.rationale = why.str();
  return rec;
}

}  // namespace sim
}  // namespace erlb
