// Deduplicate a CSV file end-to-end on the composable dataflow: a
// CsvSourceStage streams the file through the chunked, bounded-memory
// ingest, the standard BDM -> plan -> match chain runs the load-balanced
// pipeline (auto-selecting the out-of-core shuffle for large inputs),
// a ClusterStage closes the matches transitively, and the matched id
// pairs are written back out as CSV — the shape of a production batch
// job. With no arguments it generates a demo input first.
//
//   $ ./csv_dedup [flags] [input.csv [output.csv [strategy]]]
//
// Input format: header row, then one entity per row; column 0 = id,
// remaining columns = fields (column 1 is matched on). `strategy` is
// Basic, BlockSplit (default), PairRange, or "auto" — auto runs the
// analysis subgraph first, asks the simulator-backed recommender to pick
// the strategy from the BDM, and executes the recommended plan in a
// second graph (simulation in the loop).
//
// Flags (the fault-tolerance surface driven by tools/crash_harness.py):
//   --execution=auto|in-memory|external   shuffle mode (default auto)
//   --workers=N           shared-nothing execution: fork N worker
//                         processes per job (multi-process mode); the
//                         output is byte-identical to --workers=1 and to
//                         the single-process modes
//   --temp-dir=DIR        spill root for external jobs
//   --checkpoint-dir=DIR  durable checkpoints; a rerun after a crash
//                         resumes past committed map tasks
//   --plan-out=FILE       write the executed match plan as JSON
//   --report-json=FILE    write the dataflow report as JSON
//
// The ERLB_FAULT environment variable arms fault-injection sites
// (common/fault.h), e.g. ERLB_FAULT="task.map=kill@3" kills the process
// on the third map task — which is how the crash harness exercises the
// checkpoint/resume path.
#include <charconv>
#include <cstdio>
#include <fstream>
#include <system_error>

#include "core/dataflow.h"
#include "core/report.h"
#include "core/stages.h"
#include "common/fault.h"
#include "common/string_util.h"
#include "er/blocking.h"
#include "er/entity_io.h"
#include "er/matcher.h"
#include "gen/product_gen.h"
#include "lb/plan_io.h"
#include "sim/recommend.h"

using namespace erlb;

namespace {

constexpr uint32_t kReduceTasks = 32;
constexpr uint32_t kSplitRecords = 1024;

struct Cli {
  std::string input = "/tmp/erlb_demo_products.csv";
  std::string output = "/tmp/erlb_demo_matches.csv";
  bool input_given = false;
  bool auto_strategy = false;
  lb::StrategyKind strategy = lb::StrategyKind::kBlockSplit;
  mr::ExecutionOptions execution;
  std::string plan_out;
  std::string report_json;
};

int Fail(const Status& status) {
  std::fprintf(stderr, "%s\n", status.ToString().c_str());
  return 1;
}

bool ParseCli(int argc, char** argv, Cli* cli) {
  int positional = 0;
  for (int i = 1; i < argc; ++i) {
    std::string_view arg = argv[i];
    if (arg.rfind("--", 0) == 0) {
      auto eq = arg.find('=');
      std::string_view name = arg.substr(0, eq);
      std::string value =
          eq == std::string_view::npos ? "" : std::string(arg.substr(eq + 1));
      if (name == "--execution") {
        if (value == "auto") {
          cli->execution.mode = mr::ExecutionMode::kAuto;
        } else if (value == "in-memory") {
          cli->execution.mode = mr::ExecutionMode::kInMemory;
        } else if (value == "external") {
          cli->execution.mode = mr::ExecutionMode::kExternal;
        } else {
          std::fprintf(stderr, "unknown --execution mode \"%s\"\n",
                       value.c_str());
          return false;
        }
      } else if (name == "--workers") {
        // The whole value must be one decimal count that fits.
        uint32_t workers = 0;
        const char* end = value.data() + value.size();
        auto [ptr, ec] = std::from_chars(value.data(), end, workers);
        if (ec != std::errc() || ptr != end || workers < 1) {
          std::fprintf(stderr, "--workers needs a positive count, got "
                       "\"%s\"\n", value.c_str());
          return false;
        }
        cli->execution.mode = mr::ExecutionMode::kMultiProcess;
        cli->execution.num_worker_processes = workers;
      } else if (name == "--temp-dir") {
        cli->execution.temp_dir = value;
      } else if (name == "--checkpoint-dir") {
        cli->execution.checkpoint.dir = value;
      } else if (name == "--plan-out") {
        cli->plan_out = value;
      } else if (name == "--report-json") {
        cli->report_json = value;
      } else {
        std::fprintf(stderr, "unknown flag %s\n", std::string(arg).c_str());
        return false;
      }
      continue;
    }
    switch (positional++) {
      case 0:
        cli->input = arg;
        cli->input_given = true;
        break;
      case 1:
        cli->output = arg;
        break;
      case 2: {
        if (arg == "auto") {
          cli->auto_strategy = true;
          break;
        }
        auto parsed = lb::StrategyKindFromName(std::string(arg));
        if (!parsed.ok()) {
          std::fprintf(stderr, "%s\nusage: strategy is %s, or auto\n",
                       parsed.status().ToString().c_str(),
                       lb::JoinStrategyKindNames("|").c_str());
          return false;
        }
        cli->strategy = *parsed;
        break;
      }
      default:
        std::fprintf(stderr, "too many arguments: %s\n",
                     std::string(arg).c_str());
        return false;
    }
  }
  return true;
}

core::DataflowOptions DataflowOptionsFor(const Cli& cli) {
  core::DataflowOptions options;
  options.execution = cli.execution;
  return options;
}

/// Prints the run summary shared by both modes and writes the output CSV
/// plus the optional plan/report artifacts the crash harness diffs.
int Report(const core::Dataflow& df, const core::DataflowReport& report,
           const Cli& cli) {
  const core::StageReport* match = report.Find("match");
  const core::StageReport* cluster = report.Find("cluster");
  ERLB_CHECK(match != nullptr && match->job.has_value());
  std::printf("%s", core::FormatDataflowReport(report).c_str());
  std::printf("ingested from %s (%zu splits, %s shuffle)\n",
              cli.input.c_str(), match->job->map_tasks.size(),
              match->job->multi_process
                  ? "multi-process"
                  : match->job->external ? "external" : "in-memory");

  auto matches = df.Get<er::MatchResult>(core::kDatasetMatches);
  if (!matches.ok()) return Fail(matches.status());
  if (auto st = er::SaveMatchesToCsv(cli.output, **matches); !st.ok()) {
    return Fail(st);
  }
  if (!cli.plan_out.empty() && match->plan != nullptr) {
    if (auto st = lb::SaveMatchPlan(cli.plan_out, *match->plan); !st.ok()) {
      return Fail(st);
    }
  }
  if (!cli.report_json.empty()) {
    std::ofstream out(cli.report_json, std::ios::binary | std::ios::trunc);
    out << core::DataflowReportToJson(report) << "\n";
    if (!out) {
      return Fail(Status::IOError("cannot write " + cli.report_json));
    }
  }
  std::printf(
      "compared %s candidate pairs in %.2f s; wrote %s matched pairs "
      "(%s duplicate clusters) to %s\n",
      FormatWithCommas(report.TotalComparisons()).c_str(),
      report.total_seconds, FormatWithCommas((*matches)->size()).c_str(),
      cluster != nullptr
          ? FormatWithCommas(cluster->output_records).c_str()
          : "?",
      cli.output.c_str());
  return 0;
}

/// Fixed-strategy mode: one graph — source -> standard chain -> cluster.
int RunFixed(const Cli& cli, const er::CsvSchema& schema,
             const er::BlockingFunction& blocking,
             const er::Matcher& matcher) {
  core::Dataflow df(DataflowOptionsFor(cli));
  df.Emplace<core::CsvSourceStage>("ingest", core::kDatasetPartitions,
                                   cli.input, schema, kSplitRecords);
  core::StandardGraphOptions graph;
  graph.strategy = cli.strategy;
  graph.num_reduce_tasks = kReduceTasks;
  if (auto st = core::AddStandardGraph(&df, graph, &blocking, &matcher);
      !st.ok()) {
    return Fail(st);
  }
  df.Emplace<core::ClusterStage>("cluster", core::kDatasetMatches,
                                 core::kDatasetClusters);
  auto report = df.Run();
  if (!report.ok()) return Fail(report.status());
  return Report(df, *report, cli);
}

/// Auto mode: analysis graph -> recommender -> execution graph. The BDM
/// and annotated store cross between the graphs as datasets, and the
/// recommended plan enters the second graph as an input — nothing is
/// recomputed or re-planned.
int RunAuto(const Cli& cli, const er::CsvSchema& schema,
            const er::BlockingFunction& blocking,
            const er::Matcher& matcher) {
  core::Dataflow analysis(DataflowOptionsFor(cli));
  analysis.Emplace<core::CsvSourceStage>("ingest", core::kDatasetPartitions,
                                         cli.input, schema, kSplitRecords);
  core::BdmStageOptions bdm_options;
  bdm_options.num_reduce_tasks = kReduceTasks;
  analysis.Emplace<core::BdmStage>("bdm", core::kDatasetPartitions,
                                   core::kDatasetBdm,
                                   core::kDatasetAnnotated, &blocking,
                                   bdm_options);
  auto analysis_report = analysis.Run();
  if (!analysis_report.ok()) return Fail(analysis_report.status());
  std::printf("%s", core::FormatDataflowReport(*analysis_report).c_str());

  auto bdm = analysis.Take<bdm::Bdm>(core::kDatasetBdm);
  if (!bdm.ok()) return Fail(bdm.status());
  auto annotated = analysis.Take<std::shared_ptr<bdm::AnnotatedStore>>(
      core::kDatasetAnnotated);
  if (!annotated.ok()) return Fail(annotated.status());

  sim::ClusterConfig cluster;
  sim::CostModel cost;
  auto rec = sim::RecommendStrategy(*bdm, kReduceTasks, cluster, cost);
  if (!rec.ok()) return Fail(rec.status());
  std::printf("recommender: %s\n", rec->rationale.c_str());

  core::Dataflow execution(DataflowOptionsFor(cli));
  Status st = execution.AddInput(core::kDatasetBdm,
                                 core::Dataset(std::move(*bdm)));
  if (st.ok()) {
    st = execution.AddInput(core::kDatasetAnnotated,
                            core::Dataset(std::move(*annotated)));
  }
  if (st.ok()) {
    st = execution.AddInput(
        core::kDatasetPlan,
        core::Dataset(std::make_shared<const lb::MatchPlan>(
            rec->chosen_plan())));
  }
  if (!st.ok()) return Fail(st);
  execution.Emplace<core::MatchStage>("match", core::kDatasetPlan,
                                      core::kDatasetAnnotated,
                                      core::kDatasetBdm,
                                      core::kDatasetMatches, &matcher);
  execution.Emplace<core::ClusterStage>("cluster", core::kDatasetMatches,
                                        core::kDatasetClusters);
  auto report = execution.Run();
  if (!report.ok()) return Fail(report.status());
  return Report(execution, *report, cli);
}

}  // namespace

int main(int argc, char** argv) {
  Cli cli;
  if (!ParseCli(argc, argv, &cli)) return 1;
  if (auto st = FaultInjector::Global().ConfigureFromEnv(); !st.ok()) {
    return Fail(st);
  }

  if (!cli.input_given) {
    // No input given: generate a demo catalog.
    gen::ProductConfig cfg;
    cfg.num_entities = 5000;
    cfg.duplicate_fraction = 0.25;
    auto demo = gen::GenerateProducts(cfg);
    if (!demo.ok()) return 1;
    if (auto st = er::SaveEntitiesToCsv(cli.input, *demo); !st.ok()) {
      std::fprintf(stderr, "%s\n", st.ToString().c_str());
      return 1;
    }
    std::printf("wrote demo input: %s\n", cli.input.c_str());
  }

  er::CsvSchema schema;
  schema.id_column = 0;
  er::PrefixBlocking blocking(0, 3);
  er::EditDistanceMatcher matcher(0.8);
  return cli.auto_strategy ? RunAuto(cli, schema, blocking, matcher)
                           : RunFixed(cli, schema, blocking, matcher);
}
