#include "core/dataflow.h"

#include <algorithm>
#include <filesystem>
#include <set>

#include "common/stopwatch.h"

namespace erlb {
namespace core {

namespace {

// Stage names become checkpoint subdirectory names; composed graphs
// use names like "term0/bdm", so anything outside the portable
// filename alphabet is flattened to '_'.
std::string StageCheckpointDirName(std::string_view stage_name) {
  std::string out(stage_name);
  for (char& c : out) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '.' || c == '_' ||
                    c == '-';
    if (!ok) c = '_';
  }
  return out;
}

}  // namespace

const char* Dataset::TypeName() const {
  struct Namer {
    const char* operator()(const std::monostate&) { return "empty"; }
    const char* operator()(const PartitionedEntities&) {
      return "PartitionedEntities";
    }
    const char* operator()(const bdm::Bdm&) { return "Bdm"; }
    const char* operator()(const std::shared_ptr<bdm::AnnotatedStore>&) {
      return "AnnotatedStore";
    }
    const char* operator()(const std::shared_ptr<const lb::MatchPlan>&) {
      return "MatchPlan";
    }
    const char* operator()(const er::MatchResult&) { return "MatchResult"; }
    const char* operator()(const er::Clusters&) { return "Clusters"; }
  };
  return std::visit(Namer{}, value_);
}

const StageReport* DataflowReport::Find(std::string_view stage) const {
  for (const auto& s : stages) {
    if (s.stage == stage) return &s;
  }
  return nullptr;
}

int64_t DataflowReport::TotalSpillBytes() const {
  int64_t total = 0;
  for (const auto& s : stages) total += s.spill_bytes;
  return total;
}

int64_t DataflowReport::TotalComparisons() const {
  int64_t total = 0;
  for (const auto& s : stages) total += s.comparisons;
  return total;
}

Stage* Dataflow::Add(std::unique_ptr<Stage> stage) {
  ERLB_CHECK(stage != nullptr);
  stages_.push_back(std::move(stage));
  return stages_.back().get();
}

Status Dataflow::AddInput(std::string dataset, Dataset value) {
  if (datasets_.count(dataset) != 0) {
    return Status::AlreadyExists("dataflow: dataset \"" + dataset +
                                 "\" is already bound");
  }
  external_inputs_.push_back(dataset);
  datasets_.emplace(std::move(dataset), std::move(value));
  return Status::OK();
}

const Dataset* Dataflow::Find(std::string_view name) const {
  auto it = datasets_.find(name);
  return it == datasets_.end() ? nullptr : &it->second;
}

Result<std::vector<Stage*>> Dataflow::ExecutionOrder() const {
  // Producer map: every dataset has exactly one origin — an external
  // input or one stage's output.
  std::set<std::string, std::less<>> produced(external_inputs_.begin(),
                                              external_inputs_.end());
  std::set<std::string, std::less<>> stage_names;
  for (const auto& stage : stages_) {
    if (!stage_names.insert(stage->name()).second) {
      return Status::InvalidArgument("dataflow: duplicate stage name \"" +
                                     stage->name() + "\"");
    }
    if (stage->outputs().empty()) {
      return Status::InvalidArgument("dataflow: stage \"" + stage->name() +
                                     "\" declares no outputs");
    }
    for (const auto& out : stage->outputs()) {
      if (!produced.insert(out).second) {
        return Status::InvalidArgument(
            "dataflow: dataset \"" + out +
            "\" is produced more than once (stage \"" + stage->name() +
            "\")");
      }
    }
  }
  for (const auto& stage : stages_) {
    for (const auto& in : stage->inputs()) {
      if (produced.count(in) == 0) {
        return Status::InvalidArgument(
            "dataflow: dataset \"" + in + "\" consumed by stage \"" +
            stage->name() + "\" is never produced");
      }
    }
  }

  // Kahn-style scheduling over dataset availability. Scanning in
  // insertion order keeps execution deterministic: among ready stages,
  // the earliest-added runs first.
  std::set<std::string, std::less<>> available(external_inputs_.begin(),
                                               external_inputs_.end());
  std::vector<Stage*> order;
  std::vector<bool> scheduled(stages_.size(), false);
  while (order.size() < stages_.size()) {
    bool progressed = false;
    for (size_t i = 0; i < stages_.size(); ++i) {
      if (scheduled[i]) continue;
      const Stage& stage = *stages_[i];
      bool ready = std::all_of(
          stage.inputs().begin(), stage.inputs().end(),
          [&available](const std::string& in) {
            return available.count(in) != 0;
          });
      if (!ready) continue;
      scheduled[i] = true;
      progressed = true;
      order.push_back(stages_[i].get());
      available.insert(stage.outputs().begin(), stage.outputs().end());
    }
    if (!progressed) {
      std::string stuck;
      for (size_t i = 0; i < stages_.size(); ++i) {
        if (scheduled[i]) continue;
        if (!stuck.empty()) stuck += ", ";
        stuck += stages_[i]->name();
      }
      return Status::InvalidArgument(
          "dataflow: dependency cycle among stages: " + stuck);
    }
  }
  return order;
}

Status Dataflow::Validate() const { return ExecutionOrder().status(); }

Result<DataflowReport> Dataflow::Run() {
  if (ran_) {
    return Status::FailedPrecondition(
        "dataflow: Run() already executed; a Dataflow is single-shot");
  }
  ERLB_ASSIGN_OR_RETURN(std::vector<Stage*> order, ExecutionOrder());
  ran_ = true;

  // The graph-owned execution resources, scoped to this Run: one pool
  // for every MR stage and one spill root under which each external job
  // scopes its own directory — removed (with any stragglers) on every
  // exit path below, since all spill files live inside it.
  ThreadPool pool(options_.EffectiveWorkers());
  mr::ExecutionOptions execution = options_.execution;
  if (execution.mode == mr::ExecutionMode::kMultiProcess &&
      execution.num_worker_processes == 0) {
    // A graph-level process count of 0 means "as many processes as
    // worker threads"; resolve it here because JobRunner::Run rejects the
    // ambiguous zero outright.
    execution.num_worker_processes =
        static_cast<uint32_t>(options_.EffectiveWorkers());
  }
  std::optional<ScopedTempDir> spill_dir;
  if (execution.mode != mr::ExecutionMode::kInMemory) {
    // Reclaim spill roots orphaned by earlier processes that died before
    // their ScopedTempDir destructor ran (SIGKILL mid-run), then scope
    // our own. Sweeping is best-effort; a failed sweep never fails the
    // run.
    std::string sweep_base = execution.temp_dir;
    if (sweep_base.empty()) {
      std::error_code ec;
      auto system_tmp = std::filesystem::temp_directory_path(ec);
      if (!ec) sweep_base = system_tmp.string();
    }
    if (!sweep_base.empty()) {
      static_cast<void>(SweepStaleTempDirs(sweep_base, "erlb-dataflow"));
    }
    ERLB_ASSIGN_OR_RETURN(
        spill_dir,
        ScopedTempDir::Make(execution.temp_dir, "erlb-dataflow"));
    execution.temp_dir = spill_dir->path();
  }
  // With a checkpoint root configured, each stage runs under its own
  // runner whose checkpoint directory (and record identity) is scoped
  // by the stage name — a restarted graph re-executes stages in the same
  // deterministic order, so stage k finds stage k's commit records.
  const std::string checkpoint_root = execution.checkpoint.dir;

  Stopwatch total_watch;
  DataflowReport full_report;
  full_report.stages.reserve(order.size());
  for (Stage* stage : order) {
    mr::ExecutionOptions stage_execution = execution;
    if (!checkpoint_root.empty()) {
      stage_execution.checkpoint.dir =
          checkpoint_root + "/" + StageCheckpointDirName(stage->name());
      stage_execution.checkpoint.identity += "|stage=" + stage->name();
    }
    mr::JobRunner runner(&pool, stage_execution);
    StageReport report;
    report.stage = stage->name();
    report.kind = stage->kind();
    DataflowContext ctx(this, stage, &runner, &report);
    Stopwatch stage_watch;
    Status status = stage->Run(&ctx);
    report.seconds = stage_watch.ElapsedSeconds();
    if (!status.ok()) {
      return Status(status.code(), "dataflow stage \"" + stage->name() +
                                       "\": " + std::string(status.message()));
    }
    for (const auto& out : stage->outputs()) {
      if (datasets_.count(out) == 0) {
        return Status::Internal("dataflow stage \"" + stage->name() +
                                "\" did not emit declared output \"" + out +
                                "\"");
      }
    }
    if (report.job.has_value()) {
      report.spill_bytes = report.job->spill_bytes_written;
    }
    full_report.stages.push_back(std::move(report));
  }
  full_report.total_seconds = total_watch.ElapsedSeconds();
  // A fully successful run retires its checkpoints — they exist to
  // survive crashes, not to cache results across distinct runs.
  if (!checkpoint_root.empty()) {
    std::error_code ec;
    std::filesystem::remove_all(checkpoint_root, ec);
  }
  return full_report;
}

Status DataflowContext::Out(std::string_view name, Dataset value) {
  ERLB_RETURN_NOT_OK(CheckDeclared(stage_->outputs(), name, "output"));
  dataflow_->datasets_.insert_or_assign(std::string(name),
                                        std::move(value));
  return Status::OK();
}

Status DataflowContext::CheckDeclared(
    const std::vector<std::string>& declared, std::string_view name,
    const char* what) {
  for (const auto& d : declared) {
    if (d == name) return Status::OK();
  }
  return Status::InvalidArgument("dataflow: dataset \"" +
                                 std::string(name) +
                                 "\" is not a declared " + what +
                                 " of this stage");
}

}  // namespace core
}  // namespace erlb
