// Run reports of a Dataflow::Run: the per-stage view as text — with the
// per-phase task time spread of every MR job, the imbalance the paper's
// strategies remove — and its machine-readable JSON form.
#ifndef ERLB_CORE_REPORT_H_
#define ERLB_CORE_REPORT_H_

#include <string>

#include "core/dataflow.h"

namespace erlb {
namespace core {

/// Formats the unified per-stage report of one Dataflow::Run — one line
/// per stage (kind, seconds, records, job shape, spill, plan strategy),
/// and under each MR job stage one line per phase: tasks, records in and
/// out, average and maximum task time, and their ratio (the straggler
/// ratio).
std::string FormatDataflowReport(const DataflowReport& report);

/// The same report as a JSON document (strategy names via
/// lb::StrategyKindToName), for archiving run telemetry next to
/// BENCH_*.json artifacts.
std::string DataflowReportToJson(const DataflowReport& report);

}  // namespace core
}  // namespace erlb

#endif  // ERLB_CORE_REPORT_H_
