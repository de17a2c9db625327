// End-to-end ER pipeline (Figure 2): Job 1 computes the BDM and annotates
// entities; Job 2 redistributes them with the chosen load balancing
// strategy and matches. Basic runs as a single job without preprocessing.
// Also provides the missing-blocking-key decompositions of Section III and
// Appendix I.
//
// ErPipeline is a thin adapter over the composable dataflow API
// (core/dataflow.h, core/stages.h): every entry point builds the standard
// stage graph with BuildStandardDataflow, runs it, and repackages the
// graph's datasets and per-stage report as an ErPipelineResult. Callers
// that want other topologies (clustering post-passes, multi-pass
// subgraphs, recommendation in the loop) compose the graph directly.
#ifndef ERLB_CORE_PIPELINE_H_
#define ERLB_CORE_PIPELINE_H_

#include <cstdint>
#include <optional>
#include <vector>

#include "bdm/bdm.h"
#include "bdm/bdm_job.h"
#include "common/result.h"
#include "core/dataflow.h"
#include "er/blocking.h"
#include "er/entity.h"
#include "er/entity_io.h"
#include "er/match_result.h"
#include "er/matcher.h"
#include "lb/plan.h"
#include "lb/strategy.h"
#include "mr/job.h"
#include "mr/metrics.h"

namespace erlb {
namespace core {

/// Pipeline configuration.
struct ErPipelineConfig {
  /// Default of num_map_tasks; the CSV entry point requires the knob to
  /// be left at this value (see Validate and DeduplicateCsv).
  static constexpr uint32_t kDefaultNumMapTasks = 4;

  lb::StrategyKind strategy = lb::StrategyKind::kBlockSplit;
  /// m — number of map tasks = input partitions.
  uint32_t num_map_tasks = kDefaultNumMapTasks;
  /// r — number of reduce tasks of the matching job.
  uint32_t num_reduce_tasks = 8;
  /// Worker threads emulating cluster process slots (0 = hardware
  /// concurrency).
  uint32_t num_workers = 0;
  /// BlockSplit match-task assignment.
  lb::TaskAssignment assignment = lb::TaskAssignment::kGreedyLpt;
  /// BlockSplit sub-split factor (1 = the paper's algorithm).
  uint32_t sub_splits = 1;
  bdm::MissingKeyPolicy missing_key_policy = bdm::MissingKeyPolicy::kError;
  bool use_combiner = true;
  /// Out-of-core execution knobs for both MR jobs (mode, spill
  /// threshold, temp dir, I/O buffer size). The default auto mode keeps
  /// small workloads on the historical in-memory path and spills to disk
  /// once the estimated input exceeds the threshold.
  mr::ExecutionOptions execution;
  /// CSV entry points (DeduplicateCsv): records per input split. Each
  /// split is read in one bounded batch and becomes one map partition, so
  /// m follows the data size — the HDFS fixed-size-split model —
  /// and num_map_tasks is ignored.
  uint32_t csv_split_records = 8192;

  uint32_t EffectiveWorkers() const {
    return EffectiveWorkerCount(num_workers);
  }

  /// Rejects contradictory knob combinations up front — zero task/split
  /// counts, a zero I/O buffer — instead of failing (or crashing) deep
  /// inside a job. Called by every pipeline entry point; the CSV entry
  /// point additionally rejects a non-default num_map_tasks, which that
  /// path would otherwise silently ignore (m follows csv_split_records).
  [[nodiscard]] Status Validate() const;
};

/// Everything a pipeline run produces.
struct ErPipelineResult {
  er::MatchResult matches;
  /// The BDM (empty for Basic, which runs without preprocessing).
  bdm::Bdm bdm;
  /// The exact plan the matching job executed (absent for single-job
  /// Basic, which plans nothing, and for runs that were handed a
  /// pre-built plan — the caller already holds it). Inspect it, feed it
  /// to the simulator, serialize it (lb/plan_io.h), or hand it back to
  /// the pre-built-plan overloads to re-execute without re-planning.
  std::optional<lb::MatchPlan> plan;
  mr::JobMetrics bdm_metrics;
  mr::JobMetrics match_metrics;
  /// Pair comparisons evaluated in the reduce phase.
  int64_t comparisons = 0;
  double bdm_seconds = 0;
  double match_seconds = 0;
  double total_seconds = 0;
  uint64_t skipped_entities = 0;
};

/// Runs the two-job ER workflow.
class ErPipeline {
 public:
  explicit ErPipeline(ErPipelineConfig config) : config_(config) {}

  const ErPipelineConfig& config() const { return config_; }

  /// One-source deduplication of `entities`.
  [[nodiscard]] Result<ErPipelineResult> Deduplicate(
      const std::vector<er::Entity>& entities,
      const er::BlockingFunction& blocking,
      const er::Matcher& matcher) const;

  /// One-source deduplication straight from a CSV file with chunked,
  /// bounded-memory ingest: the file streams through a fixed read buffer
  /// (er::LoadEntitiesFromCsvChunked) and every config.csv_split_records
  /// rows become one map partition, like fixed-size HDFS input splits.
  /// m follows the data size, so config.num_map_tasks must be left at its
  /// default — a non-default value is InvalidArgument rather than
  /// silently ignored. Combine with ExecutionMode::kExternal (or a low
  /// spill threshold under kAuto) for an end-to-end out-of-core run.
  [[nodiscard]] Result<ErPipelineResult> DeduplicateCsv(
      const std::string& csv_path, const er::CsvSchema& schema,
      const er::BlockingFunction& blocking,
      const er::Matcher& matcher) const;

  /// Same, over pre-partitioned input (entities already wrapped and split
  /// into m partitions; config.num_map_tasks is ignored).
  [[nodiscard]] Result<ErPipelineResult> DeduplicatePartitioned(
      const er::Partitions& partitions,
      const er::BlockingFunction& blocking,
      const er::Matcher& matcher) const;

  /// Plan-first overload: executes a pre-built `plan` (from
  /// Strategy::BuildPlan, a previous run's ErPipelineResult, the
  /// recommender, or lb/plan_io.h) instead of planning internally — plan
  /// once, execute many. The plan decides the matching job's strategy and
  /// reduce task count (config.strategy is ignored;
  /// config.num_reduce_tasks still configures Job 1, the BDM job, and
  /// must be >= 1). The plan's BDM fingerprint must match the BDM
  /// computed for `partitions` (InvalidArgument otherwise). The result's
  /// `plan` field is left empty — the caller already holds the plan.
  [[nodiscard]] Result<ErPipelineResult> DeduplicatePartitioned(
      const er::Partitions& partitions,
      const er::BlockingFunction& blocking, const er::Matcher& matcher,
      const lb::MatchPlan& plan) const;

  /// Two-source linkage R×S (Appendix I). Sources are tagged internally;
  /// map tasks are divided between the sources proportionally to size
  /// (each partition holds one source only, the MultipleInputs layout).
  [[nodiscard]] Result<ErPipelineResult> Link(const std::vector<er::Entity>& r_entities,
                                const std::vector<er::Entity>& s_entities,
                                const er::BlockingFunction& blocking,
                                const er::Matcher& matcher) const;

 private:
  [[nodiscard]] Result<ErPipelineResult> RunPartitioned(
      const er::Partitions& partitions,
      const std::vector<er::Source>* partition_sources,
      const er::BlockingFunction& blocking, const er::Matcher& matcher,
      const lb::MatchPlan* prebuilt_plan = nullptr) const;

  ErPipelineConfig config_;
};

struct StandardGraphOptions;  // core/stages.h

/// The graph execution resources `config` implies (workers + execution
/// knobs) — the single translation used by every entry point that turns
/// a pipeline config into a Dataflow.
DataflowOptions DataflowOptionsFrom(const ErPipelineConfig& config);

/// Same for the standard-graph strategy/topology knobs (strategy, r,
/// assignment, sub-splits, combiner, missing-key policy).
StandardGraphOptions StandardGraphOptionsFrom(const ErPipelineConfig& config);

/// Builds (but does not run) the standard two-job dataflow an ErPipeline
/// with `config` executes: [bdm] -> [plan] -> [match] over the
/// kDatasetPartitions input — or the single-job Basic graph, or the
/// plan-is-an-input shape when `prebuilt_plan` is given (see
/// AddStandardGraph in core/stages.h). The caller supplies the source —
/// AddInput(kDatasetPartitions, PartitionedEntities{...}) or any stage
/// producing that dataset — then calls Run() and reads kDatasetMatches
/// plus the per-stage report. `blocking` and `matcher` must outlive the
/// run. Validates `config` up front.
[[nodiscard]] Result<Dataflow> BuildStandardDataflow(
    const ErPipelineConfig& config, const er::BlockingFunction& blocking,
    const er::Matcher& matcher,
    const lb::MatchPlan* prebuilt_plan = nullptr);

/// Section III: deduplication when some entities lack a blocking key.
/// match_B(R) = match_B(R−R∅) ∪ match_⊥(R−R∅, R∅) ∪ match_⊥(R∅):
/// entities without key are compared against everything.
[[nodiscard]] Result<er::MatchResult> DeduplicateWithMissingKeys(
    const ErPipeline& pipeline, const std::vector<er::Entity>& entities,
    const er::BlockingFunction& blocking, const er::Matcher& matcher);

/// Appendix I: linkage with missing keys,
/// match_B(R,S) = match_B(R−R∅, S−S∅) ∪ match_⊥(R, S∅)
///                ∪ match_⊥(R∅, S−S∅).
[[nodiscard]] Result<er::MatchResult> LinkWithMissingKeys(
    const ErPipeline& pipeline, const std::vector<er::Entity>& r_entities,
    const std::vector<er::Entity>& s_entities,
    const er::BlockingFunction& blocking, const er::Matcher& matcher);

}  // namespace core
}  // namespace erlb

#endif  // ERLB_CORE_PIPELINE_H_
