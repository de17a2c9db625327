// The concrete stages of the ER dataflow (core/dataflow.h) — each wraps
// one existing building block behind the stage-graph interface — plus the
// builders that compose them into the two standard topologies:
//
//   * AddStandardGraph: the paper's two-job chain
//         partitions ──> [bdm] ──> bdm + annotated
//         bdm ──> [plan] ──> plan
//         plan + annotated + bdm ──> [match] ──> matches
//     (Basic is its paper-faithful single job:
//         partitions ──> [match] ──> matches)
//
//   * AddServeGraph: the standard chain's last two stages, over a BDM and
//     annotated store the caller binds (the serve daemon's probe path).
//
// A caller that already holds a plan binds it as kDatasetPlan via
// Dataflow::AddInput and emplaces a MatchStage itself; no builder takes a
// plan.
//
//   * AddMissingKeyGraph: the missing-key decompositions of Section III
//     and Appendix I as a *composition* — one standard subgraph per term
//     ("term<i>/…") feeding one union stage.
//
// Blocking functions and matchers are taken by pointer and not owned;
// they must outlive Dataflow::Run(). Helper objects a builder creates
// (the ⊥ blocking function) are owned by the graph via Dataflow::Own.
#ifndef ERLB_CORE_STAGES_H_
#define ERLB_CORE_STAGES_H_

#include <cstdint>
#include <string>
#include <vector>

#include "bdm/bdm_job.h"
#include "core/dataflow.h"
#include "er/blocking.h"
#include "er/entity.h"
#include "er/entity_io.h"
#include "er/matcher.h"
#include "lb/plan.h"
#include "lb/strategy.h"

namespace erlb {
namespace core {

/// Conventional dataset names of the standard graph.
inline constexpr char kDatasetPartitions[] = "partitions";
inline constexpr char kDatasetBdm[] = "bdm";
inline constexpr char kDatasetAnnotated[] = "annotated";
inline constexpr char kDatasetPlan[] = "plan";
inline constexpr char kDatasetMatches[] = "matches";
inline constexpr char kDatasetClusters[] = "clusters";

/// Chunked, bounded-memory CSV ingest: every `split_records` lines become
/// one map partition, the HDFS fixed-size-split model. Produces a
/// PartitionedEntities dataset.
///
/// The stage thread only cuts the file into splits (er::CsvSplitReader);
/// the dataflow's pool parses them (er::ParseCsvSplit), at most
/// 2 x workers splits of raw text in flight at a time. Splits are
/// delivered in file order, and everything order-dependent is resolved
/// in file order, so the result equals a serial load
/// (er::LoadEntitiesFromCsvChunked with the same `split_records`): the
/// same partitions, sequential ids that continue across splits when the
/// schema has no id column, header and blank lines skipped, splits of
/// only blank lines dropped, and — if several rows are bad, or a read
/// fails after a bad row — the error of the first bad row in the file.
class CsvSourceStage : public Stage {
 public:
  CsvSourceStage(std::string name, std::string out_partitions,
                 std::string csv_path, er::CsvSchema schema,
                 uint32_t split_records);
  const char* kind() const override { return "csv_source"; }
  [[nodiscard]] Status Run(DataflowContext* ctx) override;

 private:
  std::string out_;
  std::string csv_path_;
  er::CsvSchema schema_;
  uint32_t split_records_;
};

/// In-memory source: wraps a caller-owned entity vector (not copied until
/// Run), optionally filtered, split into `num_partitions` map partitions.
///
/// With an S side it is the two-source (R×S, Appendix I) source instead:
/// R's admitted entities are tagged er::Source::kR and S's kS, and the
/// max(num_partitions, 2) map tasks are divided between the sources in
/// proportion to their sizes (at least one each; each partition holds
/// one source only, the MultipleInputs layout) — R's partitions first.
class EntitySourceStage : public Stage {
 public:
  using Filter = std::function<bool(const er::Entity&)>;

  /// `entities` and `s_entities` are not owned and must outlive Run().
  /// A null filter admits every entity of its side; a null `s_entities`
  /// makes a one-source stage.
  EntitySourceStage(std::string name, std::string out_partitions,
                    const std::vector<er::Entity>* entities,
                    uint32_t num_partitions, Filter filter = nullptr,
                    const std::vector<er::Entity>* s_entities = nullptr,
                    Filter s_filter = nullptr);
  const char* kind() const override { return "entity_source"; }
  [[nodiscard]] Status Run(DataflowContext* ctx) override;

 private:
  std::string out_;
  const std::vector<er::Entity>* entities_;
  uint32_t num_partitions_;
  Filter filter_;
  const std::vector<er::Entity>* s_entities_;
  Filter s_filter_;
};

/// Options of a BdmStage — BdmJobOptions minus the partition sources,
/// which travel with the PartitionedEntities dataset.
struct BdmStageOptions {
  bdm::MissingKeyPolicy missing_key_policy = bdm::MissingKeyPolicy::kError;
};

/// MR Job 1 (bdm::RunBdmJob): consumes entity partitions, produces the
/// Bdm dataset and the annotated store Π' the matching job reads.
class BdmStage : public Stage {
 public:
  BdmStage(std::string name, std::string in_partitions, std::string out_bdm,
           std::string out_annotated, const er::BlockingFunction* blocking,
           BdmStageOptions options);
  const char* kind() const override { return "bdm"; }
  [[nodiscard]] Status Run(DataflowContext* ctx) override;

 private:
  std::string in_;
  std::string out_bdm_;
  std::string out_annotated_;
  const er::BlockingFunction* blocking_;
  BdmStageOptions options_;
};

/// Planning (Strategy::BuildPlan): consumes a Bdm, produces the full
/// serializable MatchPlan — also recorded in the stage report for
/// consumers that only read reports (simulator, recommender).
class PlanStage : public Stage {
 public:
  PlanStage(std::string name, std::string in_bdm, std::string out_plan,
            lb::StrategyKind strategy, lb::MatchJobOptions options);
  const char* kind() const override { return "plan"; }
  [[nodiscard]] Status Run(DataflowContext* ctx) override;

 private:
  std::string in_;
  std::string out_;
  lb::StrategyKind strategy_;
  lb::MatchJobOptions options_;
};

/// MR Job 2 (Strategy::ExecutePlan): consumes a plan, the annotated
/// store, and the Bdm; produces the match result. The strategy is the
/// plan's — a MatchStage executes whatever plan flows in.
class MatchStage : public Stage {
 public:
  MatchStage(std::string name, std::string in_plan,
             std::string in_annotated, std::string in_bdm,
             std::string out_matches, const er::Matcher* matcher);
  const char* kind() const override { return "match"; }
  [[nodiscard]] Status Run(DataflowContext* ctx) override;

 private:
  std::string in_plan_;
  std::string in_annotated_;
  std::string in_bdm_;
  std::string out_;
  const er::Matcher* matcher_;
};

/// The paper-faithful Basic single job (lb::RunBasicSingleJob): blocking
/// key computed in the map, no BDM, no preprocessing. Consumes entity
/// partitions directly.
class BasicMatchStage : public Stage {
 public:
  BasicMatchStage(std::string name, std::string in_partitions,
                  std::string out_matches,
                  const er::BlockingFunction* blocking,
                  const er::Matcher* matcher, lb::MatchJobOptions options);
  const char* kind() const override { return "basic_match"; }
  [[nodiscard]] Status Run(DataflowContext* ctx) override;

 private:
  std::string in_;
  std::string out_;
  const er::BlockingFunction* blocking_;
  const er::Matcher* matcher_;
  lb::MatchJobOptions options_;
};

/// Post-pass: transitive closure of the match result into duplicate
/// clusters (er::ClusterMatches).
class ClusterStage : public Stage {
 public:
  ClusterStage(std::string name, std::string in_matches,
               std::string out_clusters);
  const char* kind() const override { return "cluster"; }
  [[nodiscard]] Status Run(DataflowContext* ctx) override;

 private:
  std::string in_;
  std::string out_;
};

/// Canonicalized union of N match results — the join point of composed
/// subgraphs (the missing-key decompositions).
class UnionMatchesStage : public Stage {
 public:
  UnionMatchesStage(std::string name, std::vector<std::string> in_matches,
                    std::string out_matches);
  const char* kind() const override { return "union"; }
  [[nodiscard]] Status Run(DataflowContext* ctx) override;

 private:
  std::vector<std::string> ins_;
  std::string out_;
};

/// Strategy/topology knobs shared by the graph builders.
struct StandardGraphOptions {
  lb::StrategyKind strategy = lb::StrategyKind::kBlockSplit;
  /// r for the matching job (the BDM job is map-only).
  uint32_t num_reduce_tasks = 8;
  lb::TaskAssignment assignment = lb::TaskAssignment::kGreedyLpt;
  uint32_t sub_splits = 1;
  bdm::MissingKeyPolicy missing_key_policy = bdm::MissingKeyPolicy::kError;

  lb::MatchJobOptions MatchOptions() const {
    lb::MatchJobOptions options;
    options.num_reduce_tasks = num_reduce_tasks;
    options.assignment = assignment;
    options.sub_splits = sub_splits;
    return options;
  }
};

/// Composes the standard two-job chain into `df`, reading
/// `dataset_prefix + kDatasetPartitions` (which the caller supplies via
/// AddInput or a source stage) and producing `prefix + kDatasetMatches`.
/// Stage names get the same prefix. Basic composes as its single-job
/// form. Invalid matching-job options (lb::ValidateMatchJobOptions) are
/// rejected here, before any stage is added.
[[nodiscard]] Status AddStandardGraph(
    Dataflow* df, const StandardGraphOptions& options,
    const er::BlockingFunction* blocking, const er::Matcher* matcher,
    const std::string& dataset_prefix = "");

/// Composes the serving subgraph — the per-request tail of the standard
/// chain, for callers that hold a resident corpus (serve::ServeSession):
///
///     bdm ──> [plan] ──> plan
///     plan + annotated + bdm ──> [match] ──> matches
///
/// The caller binds `prefix + kDatasetBdm` and `prefix + kDatasetAnnotated`
/// via AddInput — no source or BDM stage runs, which is the whole point:
/// a probe batch plans over the BDM with its probes staged and matches
/// against the already-indexed corpus. Invalid matching-job options are
/// rejected here, before any stage is added.
[[nodiscard]] Status AddServeGraph(Dataflow* df,
                                   const StandardGraphOptions& options,
                                   const er::Matcher* matcher,
                                   const std::string& dataset_prefix = "");

/// Composes matching when some entities lack a blocking key (an empty
/// Key under `blocking`). Entities without a key are compared against
/// everything through the constant key ⊥ (er::ConstantBlocking):
///
///   deduplication (null `s_entities`, Section III):
///     match_B(R) = match_B(R−R∅) ∪ match_⊥(R−R∅, R∅) ∪ match_⊥(R∅)
///   linkage (Appendix I):
///     match_B(R,S) = match_B(R−R∅, S−S∅) ∪ match_⊥(R, S∅)
///                    ∪ match_⊥(R∅, S−S∅)
///
/// Term i runs as a standard subgraph ("<name_prefix>term<i>/…") over a
/// filtered EntitySourceStage — two-sourced for the R×S terms — and one
/// union stage ("<name_prefix>union") joins the terms into
/// `out_matches`. A term with no pair to compare is left out, so an
/// input without any candidate pair yields an empty match result.
/// `entities`, `s_entities`, `blocking` and `matcher` are not owned and
/// must outlive Run().
[[nodiscard]] Status AddMissingKeyGraph(
    Dataflow* df, const StandardGraphOptions& options, uint32_t num_map_tasks,
    const std::vector<er::Entity>* entities,
    const std::vector<er::Entity>* s_entities,
    const er::BlockingFunction* blocking, const er::Matcher* matcher,
    const std::string& out_matches = kDatasetMatches,
    const std::string& name_prefix = "");

}  // namespace core
}  // namespace erlb

#endif  // ERLB_CORE_STAGES_H_
