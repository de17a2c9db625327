// MR Job 1 (Algorithm 3): computes the block distribution matrix and
// writes the "additional output" Π'i — each entity annotated with its
// blocking key — that Job 2 consumes with the same input partitioning.
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
  /// r for Job 1. The paper uses the same cluster configuration for both
  /// jobs; the BDM result is independent of this value. 0 means auto:
  /// a sampling presplitter (mr/presplit.h) keys a strided sample of the
  /// input and sizes r from the estimated distinct-block count.
  uint32_t num_reduce_tasks = 1;
  /// Aggregate per-block counts map-side ("a combine function ... might be
  /// employed as an optimization", Section III-B footnote).
  bool use_combiner = true;
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

/// Job 1's reduce output: one vector per reduce task, sorted by block
/// key within each task (the value of each pair is the triple).
using BdmReduceOutput =
    std::vector<std::vector<std::pair<uint32_t, BdmTriple>>>;

/// Builds the BDM from Job 1's reduce output, taking its triples. Needs
/// each task's output sorted by key and each block's cells within one
/// task — what a job that partitions by block key alone produces — to
/// skip FromTriples' sort; any other input is still built correctly,
/// just through that sort. Non-empty `partition_sources` builds the
/// two-source BDM.
[[nodiscard]] Result<Bdm> AssembleBdm(
    BdmReduceOutput outputs, uint32_t num_partitions,
    const std::vector<er::Source>& partition_sources);

/// Runs Algorithm 3 over `input` (one map task per partition).
[[nodiscard]] Result<BdmJobOutput> RunBdmJob(
    const er::Partitions& input, const er::BlockingFunction& blocking,
    const BdmJobOptions& options, const mr::JobRunner& runner);

}  // namespace bdm
}  // namespace erlb

#endif  // ERLB_BDM_BDM_JOB_H_
