// Strategy interface: the three entity redistribution schemes of the paper
// (Basic, BlockSplit, PairRange) behind one plan-first API:
//  * BuildPlan — compute the full, exact workload decision record
//    (lb::MatchPlan) from the BDM alone, with no entity comparisons;
//  * ExecutePlan — run MR Job 2 (real matching) over the annotated
//    entities written by the BDM job, consuming the plan verbatim.
// Planning and execution are strictly separated: the executor, the
// cluster simulator, and the strategy recommender all consume the same
// MatchPlan, which can be cached, inspected, and serialized (plan_io.h).
// RunMatchJob (= BuildPlan + ExecutePlan) and Plan (= BuildPlan's
// aggregate stats) remain as convenience wrappers. A kind has one name
// (StrategyKindToName, parsed back by StrategyKindFromName) and one
// enumeration (AllStrategyKinds).
#ifndef ERLB_LB_STRATEGY_H_
#define ERLB_LB_STRATEGY_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "bdm/bdm.h"
#include "bdm/bdm_job.h"
#include "common/result.h"
#include "er/match_result.h"
#include "er/matcher.h"
#include "lb/block_split_plan.h"
#include "lb/plan.h"
#include "mr/job.h"
#include "mr/metrics.h"

namespace erlb {
namespace lb {

/// The canonical name of a strategy kind — "Basic", "BlockSplit" or
/// "PairRange". This is the exact inverse of StrategyKindFromName
/// (round-trip guaranteed) and the single spelling used by reports, plan
/// JSON, and dataflow run reports.
const char* StrategyKindToName(StrategyKind kind);

/// Inverse of StrategyKindToName, for CLI/config parsing.
/// Case-insensitive; returns InvalidArgument for unknown names.
[[nodiscard]] Result<StrategyKind> StrategyKindFromName(std::string_view name);

/// Output of the matching job.
struct MatchJobOutput {
  er::MatchResult matches;
  mr::JobMetrics metrics;
  /// Comparisons actually evaluated (matcher invocations).
  int64_t comparisons = 0;
};

/// A load balancing strategy for MR-based entity resolution.
class Strategy {
 public:
  virtual ~Strategy() = default;
  virtual StrategyKind kind() const = 0;

  /// Computes the full per-task decision record for `options` from `bdm`
  /// alone — per-map-task emit counts, per-reduce-task input records and
  /// comparison counts, and the strategy-specific body execution consumes.
  [[nodiscard]] virtual Result<MatchPlan> BuildPlan(const bdm::Bdm& bdm,
                                      const MatchJobOptions& options)
      const = 0;

  /// Runs the matching job over `input` (the Π'i files written by the BDM
  /// job) exactly as `plan` prescribes. `plan` must have been built (or
  /// deserialized) for this strategy and for `bdm`; nothing is re-planned.
  [[nodiscard]] virtual Result<MatchJobOutput> ExecutePlan(
      const MatchPlan& plan, const bdm::AnnotatedStore& input,
      const bdm::Bdm& bdm, const er::Matcher& matcher,
      const mr::JobRunner& runner) const = 0;

  /// Convenience: BuildPlan + ExecutePlan in one call.
  [[nodiscard]] Result<MatchJobOutput> RunMatchJob(const bdm::AnnotatedStore& input,
                                     const bdm::Bdm& bdm,
                                     const er::Matcher& matcher,
                                     const MatchJobOptions& options,
                                     const mr::JobRunner& runner) const;

  /// Convenience: the aggregate projection of BuildPlan.
  [[nodiscard]] Result<PlanStats> Plan(const bdm::Bdm& bdm,
                         const MatchJobOptions& options) const;
};

/// Creates a strategy instance.
std::unique_ptr<Strategy> MakeStrategy(StrategyKind kind);

/// All strategy kinds in canonical order — the single enumeration source
/// of truth behind CLI help text, parse errors, and sweeps. Adding a
/// kind here is all a CLI needs to list and accept it.
const std::vector<StrategyKind>& AllStrategyKinds();

/// Canonical names of AllStrategyKinds() joined with `sep`, e.g.
/// "Basic|BlockSplit|PairRange" for usage lines.
std::string JoinStrategyKindNames(std::string_view sep);

}  // namespace lb
}  // namespace erlb

#endif  // ERLB_LB_STRATEGY_H_
