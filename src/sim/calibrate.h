// Cost-model calibration from real measurements: samples actual matcher
// invocations and MR runtime overheads on the local machine and derives a
// CostModel, bridging real execution and cluster simulation ("how long
// would *my* matcher on *my* data take on n nodes?").
#ifndef ERLB_SIM_CALIBRATE_H_
#define ERLB_SIM_CALIBRATE_H_

#include <cstdint>
#include <vector>

#include "common/result.h"
#include "er/blocking.h"
#include "er/entity.h"
#include "er/matcher.h"
#include "sim/cost_model.h"

namespace erlb {
namespace sim {

/// Options for calibration sampling.
struct CalibrationOptions {
  /// Candidate pairs to time (sampled within blocks, so string lengths
  /// reflect real comparisons).
  uint32_t sample_pairs = 20000;
  /// Multiplier translating local single-core speed to one cluster slot
  /// (EC2-era nodes + JVM were slower than a modern native core; the
  /// paper-calibrated default CostModel corresponds to ~30-60x).
  double slot_slowdown = 1.0;
  /// Keep the cluster-level overheads (task/job/shuffle) of this base
  /// model; only pair/record costs are measured.
  CostModel base;
  uint64_t seed = 13;
};

/// Measured calibration result.
struct Calibration {
  CostModel model;
  /// Raw measured cost of one pair on this machine (ns): a
  /// Matcher::MatchSketched call plus the sketching of its block,
  /// amortized per pair, as the match job's reducers pay it.
  double measured_pair_ns = 0;
  /// Raw measured per-record blocking-key cost (ns).
  double measured_record_ns = 0;
  uint64_t sampled_pairs = 0;
};

/// Measures matcher and blocking costs over `entities` and returns a
/// CostModel whose pair/record costs reflect them (scaled by
/// slot_slowdown). Requires at least one block with >= 2 entities.
[[nodiscard]] Result<Calibration> CalibrateCostModel(
    const std::vector<er::Entity>& entities,
    const er::BlockingFunction& blocking, const er::Matcher& matcher,
    const CalibrationOptions& options);

}  // namespace sim
}  // namespace erlb

#endif  // ERLB_SIM_CALIBRATE_H_
