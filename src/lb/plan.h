// MatchPlan: the first-class, serializable artifact at the heart of the
// paper's claim — BlockSplit and PairRange compute an *exact* workload
// distribution from the BDM alone, before a single entity comparison runs.
// A MatchPlan is that full decision record: the aggregate per-task
// workload (PlanStats) plus the strategy-specific body that execution
// consumes verbatim — Basic's per-block reduce routing, BlockSplit's
// match-task assignment, PairRange's pair-range boundaries. One plan is
// shared by execution (Strategy::ExecutePlan), the cluster simulator, and
// the strategy recommender, and round-trips through JSON (lb/plan_io.h)
// for offline inspection and cross-run caching.
#ifndef ERLB_LB_PLAN_H_
#define ERLB_LB_PLAN_H_

#include <algorithm>
#include <cstdint>
#include <variant>
#include <vector>

#include "bdm/bdm.h"
#include "common/result.h"
#include "lb/block_split_plan.h"

namespace erlb {
namespace lb {

enum class StrategyKind { kBasic = 0, kBlockSplit = 1, kPairRange = 2 };

/// Options of the matching job.
struct MatchJobOptions {
  /// r — the number of reduce tasks.
  uint32_t num_reduce_tasks = 1;
  /// BlockSplit only: how match tasks map to reduce tasks.
  TaskAssignment assignment = TaskAssignment::kGreedyLpt;
  /// BlockSplit only: chunks per per-partition sub-block (extension; 1 =
  /// the paper's algorithm). See BlockSplitPlan.
  uint32_t sub_splits = 1;
};

/// Rejects option combinations no strategy can plan for
/// (`num_reduce_tasks == 0`, `sub_splits == 0`). Called up front by every
/// BuildPlan and by the single-job Basic path (lb::RunBasicSingleJob).
[[nodiscard]] Status ValidateMatchJobOptions(const MatchJobOptions& options);

/// Exact aggregate workload distribution of a (hypothetical) matching job
/// run, derived from the BDM without touching entities. This is the cheap
/// summary projection of a MatchPlan (MatchPlan::stats()); code that only
/// needs totals and imbalance keeps consuming it.
struct PlanStats {
  StrategyKind strategy = StrategyKind::kBasic;
  uint32_t num_reduce_tasks = 0;
  /// Pair comparisons each reduce task evaluates; size r.
  std::vector<uint64_t> comparisons_per_reduce_task;
  /// Key-value pairs each map task emits; size m (Figure 12's metric).
  std::vector<uint64_t> map_output_pairs_per_task;
  /// Key-value pairs each reduce task receives; size r (shuffle volume,
  /// used by the cluster simulator's reduce-side cost).
  std::vector<uint64_t> input_records_per_reduce_task;
  uint64_t total_comparisons = 0;

  uint64_t TotalMapOutputPairs() const {
    uint64_t n = 0;
    for (uint64_t v : map_output_pairs_per_task) n += v;
    return n;
  }
  uint64_t MaxReduceComparisons() const {
    uint64_t mx = 0;
    for (uint64_t v : comparisons_per_reduce_task) mx = std::max(mx, v);
    return mx;
  }
  /// max / mean reduce workload; 1.0 = perfectly balanced. Returns 1 when
  /// there is no work.
  double ReduceImbalance() const {
    if (total_comparisons == 0 || comparisons_per_reduce_task.empty()) {
      return 1.0;
    }
    double avg = static_cast<double>(total_comparisons) /
                 comparisons_per_reduce_task.size();
    return avg == 0 ? 1.0 : MaxReduceComparisons() / avg;
  }
};

/// Identity of the BDM a plan was derived from, recorded at planning time
/// and re-checked at execution time so a cached or deserialized plan can
/// never silently run against a different dataset.
struct BdmFingerprint {
  uint32_t num_blocks = 0;
  uint32_t num_partitions = 0;
  bool two_source = false;
  uint64_t total_entities = 0;
  uint64_t total_pairs = 0;
  /// The BDM's memoized content hash (bdm::Bdm::ContentHash) over keys,
  /// cells, and source tags; 0 means "unknown" (a fingerprint parsed from
  /// a pre-content-hash version 1 plan document). Shape alone is unsafe
  /// as a cache identity — two different BDMs can agree on every count —
  /// so the serve plan cache keys on this.
  uint64_t content_hash = 0;

  static BdmFingerprint Of(const bdm::Bdm& bdm) {
    return BdmFingerprint{bdm.num_blocks(),     bdm.num_partitions(),
                          bdm.two_source(),     bdm.TotalEntities(),
                          bdm.TotalPairs(),     bdm.ContentHash()};
  }

  /// True iff the two fingerprints describe the same BDM as far as both
  /// sides can tell: shape must agree exactly, content hashes must agree
  /// when both are known. A version-1 document (hash 0) still validates
  /// by shape against a live BDM.
  bool CompatibleWith(const BdmFingerprint& other) const {
    if (num_blocks != other.num_blocks ||
        num_partitions != other.num_partitions ||
        two_source != other.two_source ||
        total_entities != other.total_entities ||
        total_pairs != other.total_pairs) {
      return false;
    }
    return content_hash == 0 || other.content_hash == 0 ||
           content_hash == other.content_hash;
  }

  friend bool operator==(const BdmFingerprint&,
                         const BdmFingerprint&) = default;
};

/// Basic's decision record: the hash routing of every block, frozen at
/// planning time.
struct BasicPlanBody {
  /// Reduce task of block k; size b.
  std::vector<uint32_t> reduce_task_of_block;
};

/// BlockSplit's decision record: the complete match-task plan (split
/// decisions, match tasks, reduce assignment).
struct BlockSplitPlanBody {
  BlockSplitPlan plan;
};

/// PairRange's decision record: the global pair index space tiling.
struct PairRangePlanBody {
  /// First global pair index of each range; size r + 1 with
  /// range_begin[r] == P, so range t covers
  /// [range_begin[t], range_begin[t+1]).
  std::vector<uint64_t> range_begin;
};

/// The full per-task decision record of one (strategy, BDM, options)
/// planning run. Value type: copyable, movable, serializable
/// (lb/plan_io.h), and consumed as-is by Strategy::ExecutePlan — the
/// matching job re-derives nothing.
class MatchPlan {
 public:
  using Body =
      std::variant<BasicPlanBody, BlockSplitPlanBody, PairRangePlanBody>;

  MatchPlan() = default;

  MatchPlan(StrategyKind strategy, MatchJobOptions options,
            BdmFingerprint bdm, PlanStats stats, Body body)
      : strategy_(strategy),
        options_(options),
        bdm_(bdm),
        stats_(std::move(stats)),
        body_(std::move(body)) {}

  StrategyKind strategy() const { return strategy_; }
  const MatchJobOptions& options() const { return options_; }
  uint32_t num_reduce_tasks() const { return options_.num_reduce_tasks; }
  const BdmFingerprint& bdm_fingerprint() const { return bdm_; }

  /// The aggregate projection (comparison/shuffle vectors, totals).
  const PlanStats& stats() const { return stats_; }

  /// Strategy-specific bodies; nullptr when the plan belongs to another
  /// strategy.
  const BasicPlanBody* basic() const {
    return std::get_if<BasicPlanBody>(&body_);
  }
  const BlockSplitPlanBody* block_split() const {
    return std::get_if<BlockSplitPlanBody>(&body_);
  }
  const PairRangePlanBody* pair_range() const {
    return std::get_if<PairRangePlanBody>(&body_);
  }

  /// Verifies this plan was built for `strategy` over a BDM identical in
  /// shape to `bdm` — the execution-time guard for cached/deserialized
  /// plans.
  [[nodiscard]] Status ValidateFor(StrategyKind strategy, const bdm::Bdm& bdm) const;

 private:
  StrategyKind strategy_ = StrategyKind::kBasic;
  MatchJobOptions options_;
  BdmFingerprint bdm_;
  PlanStats stats_;
  Body body_;
};

}  // namespace lb
}  // namespace erlb

#endif  // ERLB_LB_PLAN_H_
