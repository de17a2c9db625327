// MR Job 1 (Algorithm 3): computes the block distribution matrix and
// writes the "additional output" Π'i — each entity annotated with its
// blocking key — that Job 2 consumes with the same input partitioning.
//
// The paper keys each entity by (blocking key ∘ partition index) and
// sums the counts in reduce. Each such key comes from exactly one map
// task, so once the combiner has summed a task's sorted output, that run
// already holds its partition's final cells: the job runs map-only
// (mr/job.h), keyed by the blocking key alone, and AssembleBdm merges
// the m per-partition runs into the matrix.
#ifndef ERLB_BDM_BDM_JOB_H_
#define ERLB_BDM_BDM_JOB_H_

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "bdm/bdm.h"
#include "common/result.h"
#include "er/blocking.h"
#include "er/entity.h"
#include "mr/job.h"
#include "mr/metrics.h"
#include "mr/side_store.h"

namespace erlb {
namespace bdm {

/// What to do with entities whose blocking function yields no key.
enum class MissingKeyPolicy {
  /// Fail the job (Section III assumes "all entities have a valid key").
  kError,
  /// Drop such entities from matching.
  kSkip,
  /// Assign the constant key ⊥, i.e. compare them against each other.
  kBottom,
};

/// Options for the BDM job.
struct BdmJobOptions {
  /// Non-empty enables two-source mode; size must equal the number of
  /// input partitions and tag each with its source.
  std::vector<er::Source> partition_sources;
  MissingKeyPolicy missing_key_policy = MissingKeyPolicy::kError;
};

/// Entities annotated with their blocking key, one file per map task.
using AnnotatedStore = mr::SideStore<std::string, er::EntityRef>;

/// Result of Job 1.
struct BdmJobOutput {
  Bdm bdm;
  /// Π'0..Π'm-1 — Job 2's input partitions.
  std::shared_ptr<AnnotatedStore> annotated;
  mr::JobMetrics metrics;
  /// Entities dropped under MissingKeyPolicy::kSkip.
  uint64_t skipped_entities = 0;
};

/// Job 1's output: one run of (block key, count) cells per input
/// partition, sorted by block key, each key at most once per run.
using BdmRuns = std::vector<std::vector<std::pair<std::string, uint64_t>>>;

/// Builds the BDM from Job 1's per-partition runs, taking their keys:
/// run p holds partition p's cells. The runs are merged by block key;
/// ties come out in run (= partition) order, so the cells reach
/// Bdm::FromTriples already in its (block key, partition) order.
/// Non-empty `partition_sources` (one tag per run) builds the two-source
/// BDM.
[[nodiscard]] Result<Bdm> AssembleBdm(
    BdmRuns runs, const std::vector<er::Source>& partition_sources);

/// Runs Algorithm 3 over `input` (one map task per partition).
[[nodiscard]] Result<BdmJobOutput> RunBdmJob(
    const er::Partitions& input, const er::BlockingFunction& blocking,
    const BdmJobOptions& options, const mr::JobRunner& runner);

}  // namespace bdm
}  // namespace erlb

#endif  // ERLB_BDM_BDM_JOB_H_
