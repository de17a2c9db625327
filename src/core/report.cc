#include "core/report.h"

#include <algorithm>
#include <sstream>

#include "common/json.h"
#include "common/string_util.h"
#include "lb/strategy.h"
#include "mr/counters.h"

namespace erlb {
namespace core {

namespace {

void AppendTaskStats(std::ostringstream* out, const char* label,
                     const std::vector<mr::TaskMetrics>& tasks) {
  if (tasks.empty()) return;
  int64_t total_in = 0, total_out = 0;
  int64_t max_dur = 0, sum_dur = 0;
  for (const auto& t : tasks) {
    total_in += t.input_records;
    total_out += t.output_records;
    max_dur = std::max(max_dur, t.duration_nanos);
    sum_dur += t.duration_nanos;
  }
  double avg_ms = sum_dur / 1e6 / tasks.size();
  *out << "  " << label << ": " << tasks.size() << " tasks, "
       << FormatWithCommas(total_in) << " records in, "
       << FormatWithCommas(total_out) << " out, avg "
       << FormatDouble(avg_ms, 2) << " ms/task, max "
       << FormatDouble(max_dur / 1e6, 2) << " ms"
       << " (straggler ratio "
       << FormatDouble(avg_ms > 0 ? max_dur / 1e6 / avg_ms : 1.0, 2)
       << "x)\n";
}

}  // namespace

std::string FormatRunReport(const ErPipelineResult& result,
                            const ErPipelineConfig& config) {
  std::ostringstream out;
  out << "=== ER pipeline run: " << lb::StrategyKindToName(config.strategy)
      << " (m=" << config.num_map_tasks << ", r=" << config.num_reduce_tasks
      << ", workers=" << config.EffectiveWorkers() << ") ===\n";

  if (config.strategy != lb::StrategyKind::kBasic) {
    out << "Job 1 (BDM): " << FormatDouble(result.bdm_seconds * 1000, 1)
        << " ms, " << result.bdm.num_blocks() << " blocks, "
        << FormatWithCommas(result.bdm.TotalPairs())
        << " candidate pairs\n";
    AppendTaskStats(&out, "map", result.bdm_metrics.map_tasks);
    AppendTaskStats(&out, "reduce", result.bdm_metrics.reduce_tasks);
  }

  out << "Job 2 (matching): "
      << FormatDouble(result.match_seconds * 1000, 1) << " ms\n";
  AppendTaskStats(&out, "map", result.match_metrics.map_tasks);
  AppendTaskStats(&out, "reduce", result.match_metrics.reduce_tasks);

  out << "Comparisons: " << FormatWithCommas(result.comparisons)
      << ", matches: " << FormatWithCommas(result.matches.size()) << "\n";
  if (result.skipped_entities > 0) {
    out << "Skipped entities (no blocking key): "
        << FormatWithCommas(result.skipped_entities) << "\n";
  }
  int64_t kv =
      result.match_metrics.counters.Get(mr::kCounterMapOutputPairs);
  out << "Map output pairs (matching job): " << FormatWithCommas(kv)
      << "\n";
  out << "Total: " << FormatDouble(result.total_seconds * 1000, 1)
      << " ms\n";
  return out.str();
}

std::string FormatRunSummary(const ErPipelineResult& result,
                             const ErPipelineConfig& config) {
  std::ostringstream out;
  out << lb::StrategyKindToName(config.strategy) << ": "
      << FormatWithCommas(result.comparisons) << " comparisons -> "
      << FormatWithCommas(result.matches.size()) << " matches in "
      << FormatDouble(result.total_seconds, 3) << " s";
  return out.str();
}

std::string FormatDataflowReport(const DataflowReport& report) {
  std::ostringstream out;
  out << "=== dataflow run: " << report.stages.size() << " stages, "
      << FormatDouble(report.total_seconds * 1000, 1) << " ms ===\n";
  for (const auto& s : report.stages) {
    out << "  " << s.stage << " [" << s.kind << "] "
        << FormatDouble(s.seconds * 1000, 1) << " ms";
    if (s.output_records > 0) {
      out << ", " << FormatWithCommas(s.output_records) << " records";
    }
    if (s.job.has_value()) {
      out << ", job m=" << s.job->map_tasks.size()
          << " r=" << s.job->reduce_tasks.size()
          << (s.job->external ? " external" : " in-memory");
      if (s.job->checkpointed) out << " checkpointed";
      if (s.job->multi_process) {
        out << ", " << s.job->worker_processes << " worker processes";
        if (s.job->worker_deaths > 0) {
          out << " (" << s.job->worker_deaths << " died)";
        }
      }
      if (s.job->task_retries > 0) {
        out << ", " << FormatWithCommas(s.job->task_retries) << " retries";
      }
      if (s.job->map_tasks_resumed > 0) {
        out << ", " << FormatWithCommas(s.job->map_tasks_resumed)
            << " map tasks resumed";
      }
      if (s.job->reduce_tasks_resumed > 0) {
        out << ", " << FormatWithCommas(s.job->reduce_tasks_resumed)
            << " reduce tasks resumed";
      }
    }
    if (s.spill_bytes > 0) {
      out << ", spilled " << FormatWithCommas(s.spill_bytes) << " B";
    }
    if (s.comparisons > 0) {
      out << ", " << FormatWithCommas(s.comparisons) << " comparisons";
    }
    if (s.plan != nullptr) {
      out << ", plan " << lb::StrategyKindToName(s.plan->strategy());
    }
    out << "\n";
  }
  if (int64_t spilled = report.TotalSpillBytes(); spilled > 0) {
    out << "Total spilled: " << FormatWithCommas(spilled) << " B\n";
  }
  return out.str();
}

// GCC 12 under sanitizer instrumentation misfires -Wmaybe-uninitialized
// on the std::variant moves inside the Json temporaries below (a known
// GCC 12 false-positive family; cf. the -Wrestrict note in the verify
// skill). The values are all direct-initialized one line up.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#endif
std::string DataflowReportToJson(const DataflowReport& report) {
  Json::Array stages;
  stages.reserve(report.stages.size());
  for (const auto& s : report.stages) {
    Json stage{Json::Object{}};
    stage.Add("stage", Json(s.stage));
    stage.Add("kind", Json(s.kind));
    stage.Add("seconds", Json(s.seconds));
    stage.Add("output_records", Json(s.output_records));
    if (s.job.has_value()) {
      Json job{Json::Object{}};
      job.Add("map_tasks", Json(static_cast<uint64_t>(
                               s.job->map_tasks.size())));
      job.Add("reduce_tasks", Json(static_cast<uint64_t>(
                                  s.job->reduce_tasks.size())));
      job.Add("external", Json(s.job->external));
      job.Add("map_output_pairs", Json(s.job->TotalMapOutputPairs()));
      job.Add("checkpointed", Json(s.job->checkpointed));
      job.Add("task_retries", Json(s.job->task_retries));
      job.Add("map_tasks_resumed", Json(s.job->map_tasks_resumed));
      // Reduce tasks resume only from commit records, which exist in
      // checkpointed and multi-process jobs; other reports stay
      // byte-identical to previous releases.
      if (s.job->checkpointed || s.job->multi_process) {
        job.Add("reduce_tasks_resumed", Json(s.job->reduce_tasks_resumed));
      }
      if (s.job->multi_process) {
        // Only multi-process runs emit these keys (the crash harness
        // diffs reports across modes by stripping them).
        job.Add("multi_process", Json(true));
        job.Add("worker_processes", Json(s.job->worker_processes));
        job.Add("worker_deaths", Json(s.job->worker_deaths));
      }
      stage.Add("job", std::move(job));
    }
    if (s.spill_bytes > 0) stage.Add("spill_bytes", Json(s.spill_bytes));
    if (s.comparisons > 0) stage.Add("comparisons", Json(s.comparisons));
    if (s.skipped_entities > 0) {
      stage.Add("skipped_entities", Json(s.skipped_entities));
    }
    if (s.plan != nullptr) {
      stage.Add("plan_strategy",
                Json(lb::StrategyKindToName(s.plan->strategy())));
      stage.Add("plan_total_comparisons",
                Json(s.plan->stats().total_comparisons));
    }
    stages.emplace_back(std::move(stage));
  }
  Json doc{Json::Object{}};
  doc.Add("stages", Json(std::move(stages)));
  doc.Add("total_seconds", Json(report.total_seconds));
  return doc.Dump(2);
}
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic pop
#endif

}  // namespace core
}  // namespace erlb
