// Composable dataflow API: the ER workflow as a typed stage graph instead
// of one hardwired two-job function.
//
// KolbTR12's architecture is a chain of MR jobs — analysis Job 1 computes
// the BDM, Job 2 redistributes and matches — and every extension since
// (multi-pass blocking, chunked CSV ingest, pre-built plans, clustering)
// is another job chained before, after, or around that pair. A Dataflow
// models the chain the way MR/dataflow systems do: a DAG of stages, each
// consuming and producing *named datasets* (entity partitions, BDMs,
// annotated stores, match plans, match results, clusters). New workloads
// become graph compositions — add a stage, wire a dataset — rather than
// new entry points.
//
// The graph owns the shared execution resources that each job previously
// re-derived per run:
//   * one ThreadPool (the cluster's process slots) serving every MR stage,
//   * one mr::ExecutionOptions (spill mode/threshold/buffers),
//   * one ScopedTempDir under which every external-mode job nests its
//     spill directory, removed when the run ends.
//
// Run() validates the DAG up front (every input produced exactly once,
// no cycles, no duplicate outputs), executes stages in dependency order,
// and returns a unified per-stage report — seconds, MR job metrics,
// spill bytes, comparisons, executed plans — consumable by the cluster
// simulator, the recommender, and the benches.
//
// Concrete stages and the standard, multi-pass and missing-key graph
// builders live in core/stages.h; every caller — CLIs, benches, tests —
// builds its graph from them and runs it here.
#ifndef ERLB_CORE_DATAFLOW_H_
#define ERLB_CORE_DATAFLOW_H_

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <variant>
#include <vector>

#include "bdm/bdm.h"
#include "bdm/bdm_job.h"
#include "common/io_buffer.h"
#include "common/result.h"
#include "er/clustering.h"
#include "er/entity.h"
#include "er/match_result.h"
#include "lb/plan.h"
#include "mr/job.h"
#include "mr/metrics.h"

namespace erlb {
namespace core {

/// Entity input partitions plus (for two-source linkage) the source tag
/// of each partition; `sources` is empty for one-source workloads and
/// otherwise has one entry per partition.
struct PartitionedEntities {
  er::Partitions partitions;
  std::vector<er::Source> sources;
};

/// A named value flowing along a dataflow edge. Datasets are typed: a
/// stage asking for the wrong alternative gets InvalidArgument, not UB.
/// Heavyweight payloads (annotated stores, match plans) are shared
/// pointers so fan-out consumers never copy them.
class Dataset {
 public:
  using Value =
      std::variant<std::monostate, PartitionedEntities, bdm::Bdm,
                   std::shared_ptr<bdm::AnnotatedStore>,
                   std::shared_ptr<const lb::MatchPlan>, er::MatchResult,
                   er::Clusters>;

  Dataset() = default;
  Dataset(Value value) : value_(std::move(value)) {}  // NOLINT: implicit

  bool empty() const {
    return std::holds_alternative<std::monostate>(value_);
  }

  /// The held alternative, or nullptr if this dataset holds another type.
  template <typename T>
  const T* Get() const {
    return std::get_if<T>(&value_);
  }
  template <typename T>
  T* GetMutable() {
    return std::get_if<T>(&value_);
  }

  /// Human-readable name of the held alternative (for error messages).
  const char* TypeName() const;

 private:
  Value value_;
};

/// What one stage did during a run: wall time, the MR job it executed
/// (if any), and the stage-specific artifacts — comparisons for match
/// stages, skipped entities for BDM stages, the built/executed plan for
/// plan and match stages. The vector of these is the graph's unified run
/// report.
struct StageReport {
  std::string stage;
  /// Stage type, e.g. "csv_source", "bdm", "plan", "match".
  std::string kind;
  double seconds = 0;
  /// Metrics of the MR job the stage ran; absent for non-MR stages.
  std::optional<mr::JobMetrics> job;
  /// Bytes the stage's job spilled to disk (0 when in-memory).
  int64_t spill_bytes = 0;
  /// Match stages: pair comparisons evaluated (matcher invocations).
  int64_t comparisons = 0;
  /// BDM stages: entities dropped under MissingKeyPolicy::kSkip.
  uint64_t skipped_entities = 0;
  /// Records in the stage's primary output dataset (entities ingested,
  /// matches emitted, clusters formed).
  uint64_t output_records = 0;
  /// Plan stages: the plan built; match stages: the plan executed.
  std::shared_ptr<const lb::MatchPlan> plan;
};

/// Unified report of one Dataflow::Run, one entry per stage in execution
/// order.
struct DataflowReport {
  std::vector<StageReport> stages;
  double total_seconds = 0;

  const StageReport* Find(std::string_view stage) const;
  int64_t TotalSpillBytes() const;
  int64_t TotalComparisons() const;
};

class DataflowContext;

/// One node of the graph. A stage declares which named datasets it
/// consumes and produces (the graph edges); Run() reads the former and
/// must emit every one of the latter through the context.
class Stage {
 public:
  virtual ~Stage() = default;
  Stage(const Stage&) = delete;
  Stage& operator=(const Stage&) = delete;

  const std::string& name() const { return name_; }
  /// Stage type tag recorded in the report, e.g. "bdm".
  virtual const char* kind() const = 0;
  const std::vector<std::string>& inputs() const { return inputs_; }
  const std::vector<std::string>& outputs() const { return outputs_; }

  [[nodiscard]] virtual Status Run(DataflowContext* ctx) = 0;

 protected:
  explicit Stage(std::string name) : name_(std::move(name)) {}
  void DeclareInput(std::string dataset) {
    inputs_.push_back(std::move(dataset));
  }
  void DeclareOutput(std::string dataset) {
    outputs_.push_back(std::move(dataset));
  }

 private:
  std::string name_;
  std::vector<std::string> inputs_;
  std::vector<std::string> outputs_;
};

/// The single 0-means-hardware-concurrency policy every worker-pool
/// sizing knob shares (4 when the hardware count is unknown).
inline uint32_t EffectiveWorkerCount(uint32_t requested) {
  if (requested > 0) return requested;
  unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 4 : hw;
}

/// Execution resources of a graph: worker threads shared by every MR
/// stage and the out-of-core knobs shared by every job.
struct DataflowOptions {
  /// Worker threads emulating cluster process slots (0 = hardware
  /// concurrency).
  uint32_t num_workers = 0;
  mr::ExecutionOptions execution;

  uint32_t EffectiveWorkers() const {
    return EffectiveWorkerCount(num_workers);
  }
};

/// A typed stage graph over named datasets. Build it (Add/Emplace
/// stages, AddInput external datasets), Run() it once, then read result
/// datasets with Get/Take and the per-stage report.
class Dataflow {
 public:
  explicit Dataflow(DataflowOptions options = {})
      : options_(std::move(options)) {}

  Dataflow(Dataflow&&) = default;
  Dataflow& operator=(Dataflow&&) = default;

  const DataflowOptions& options() const { return options_; }

  /// Adds a stage; returns the non-owning pointer for further wiring.
  Stage* Add(std::unique_ptr<Stage> stage);

  /// Constructs a stage of type S in place.
  template <typename S, typename... Args>
  S* Emplace(Args&&... args) {
    auto stage = std::make_unique<S>(std::forward<Args>(args)...);
    S* raw = stage.get();
    Add(std::move(stage));
    return raw;
  }

  /// Provides an externally produced dataset (graph input). Fails if the
  /// name is already bound.
  [[nodiscard]] Status AddInput(std::string dataset, Dataset value);

  /// Transfers ownership of a helper object (wrapped matcher, filter,
  /// counter) to the graph; it lives as long as the Dataflow.
  template <typename T>
  T* Own(std::unique_ptr<T> resource) {
    T* raw = resource.get();
    resources_.emplace_back(std::move(resource));
    return raw;
  }

  /// Structural check: unique stage names, every dataset produced exactly
  /// once (externally or by one stage), every consumed dataset produced
  /// somewhere, and an acyclic dependency order. Run() validates
  /// implicitly; call this to fail fast while composing.
  [[nodiscard]] Status Validate() const;

  /// Executes the graph once: validates, sweeps spill roots orphaned by
  /// crashed processes, creates the shared pool and (for spillable
  /// modes) the graph-scoped temp dir (both released when Run returns —
  /// every spill file lives inside it), runs stages in dependency order,
  /// and returns the per-stage report. When
  /// options().execution.checkpoint.dir is set, each stage's external
  /// jobs write durable checkpoints under
  /// `<dir>/<stage>/job-<k>` and a rerun of the same graph over the same
  /// input resumes past committed tasks; the checkpoint root is
  /// removed after a fully successful run. A Dataflow is single-shot; a
  /// second Run is FailedPrecondition.
  [[nodiscard]] Result<DataflowReport> Run();

  /// A dataset by name, or nullptr if absent (or not yet produced).
  const Dataset* Find(std::string_view name) const;

  /// Typed dataset access; InvalidArgument on missing name or type
  /// mismatch.
  template <typename T>
  [[nodiscard]] Result<const T*> Get(std::string_view dataset) const {
    const Dataset* found = Find(dataset);
    if (found == nullptr) {
      return Status::InvalidArgument("dataflow: no dataset named \"" +
                                     std::string(dataset) + "\"");
    }
    const T* value = found->Get<T>();
    if (value == nullptr) {
      return Status::InvalidArgument(
          "dataflow: dataset \"" + std::string(dataset) + "\" holds " +
          found->TypeName() + ", not the requested type");
    }
    return value;
  }

  /// Moves a dataset out of the graph (it becomes empty in place).
  template <typename T>
  [[nodiscard]] Result<T> Take(std::string_view dataset) {
    auto it = datasets_.find(dataset);
    if (it == datasets_.end()) {
      return Status::InvalidArgument("dataflow: no dataset named \"" +
                                     std::string(dataset) + "\"");
    }
    T* value = it->second.GetMutable<T>();
    if (value == nullptr) {
      return Status::InvalidArgument(
          "dataflow: dataset \"" + std::string(dataset) + "\" holds " +
          it->second.TypeName() + ", not the requested type");
    }
    T out = std::move(*value);
    it->second = Dataset();
    return out;
  }

 private:
  friend class DataflowContext;

  /// Validates and returns the stages in one executable order.
  [[nodiscard]] Result<std::vector<Stage*>> ExecutionOrder() const;

  DataflowOptions options_;
  std::vector<std::unique_ptr<Stage>> stages_;
  std::map<std::string, Dataset, std::less<>> datasets_;
  std::vector<std::string> external_inputs_;
  std::vector<std::shared_ptr<void>> resources_;
  bool ran_ = false;
};

/// Handed to Stage::Run: typed access to the stage's declared inputs and
/// outputs, the shared job runner, and the stage's report entry.
class DataflowContext {
 public:
  /// Typed input dataset; InvalidArgument if `name` is not one of the
  /// stage's declared inputs or holds a different type.
  template <typename T>
  [[nodiscard]] Result<const T*> In(std::string_view name) const {
    ERLB_RETURN_NOT_OK(CheckDeclared(stage_->inputs(), name, "input"));
    return dataflow_->Get<T>(name);
  }

  /// Emits a declared output dataset.
  [[nodiscard]] Status Out(std::string_view name, Dataset value);

  /// This stage's runner: every stage shares one pool and one set of
  /// execution knobs, but when a checkpoint root is configured the
  /// runner's checkpoint directory is scoped per stage (see
  /// Dataflow::Run).
  const mr::JobRunner& runner() const { return *runner_; }

  /// This stage's report entry (seconds and kind are filled by the
  /// graph).
  StageReport& report() { return *report_; }

 private:
  friend class Dataflow;
  DataflowContext(Dataflow* dataflow, const Stage* stage,
                  const mr::JobRunner* runner, StageReport* report)
      : dataflow_(dataflow),
        stage_(stage),
        runner_(runner),
        report_(report) {}

  [[nodiscard]] static Status CheckDeclared(const std::vector<std::string>& declared,
                              std::string_view name, const char* what);

  Dataflow* dataflow_;
  const Stage* stage_;
  const mr::JobRunner* runner_;
  StageReport* report_;
};

}  // namespace core
}  // namespace erlb

#endif  // ERLB_CORE_DATAFLOW_H_
