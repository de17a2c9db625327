// Batch workloads: CSV in -> clusters out through the runtime's public
// dataflow (CsvSourceStage -> AddStandardGraph -> ClusterStage), one
// measured run per process so peak RSS and CPU cover exactly that run.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <optional>
#include <string>
#include <vector>

#include "common.h"
#include "common/json.h"
#include "common/stopwatch.h"
#include "core/dataflow.h"
#include "core/pipeline.h"
#include "core/stages.h"
#include "er/blocking.h"
#include "er/clustering.h"
#include "er/entity_io.h"
#include "er/matcher.h"
#include "gen/skew_gen.h"
#include "sim/calibrate.h"
#include "sim/er_sim.h"
#include "workloads.h"

using namespace erlb;

namespace perfbench {

namespace {

constexpr uint32_t kPoolThreads = 4;
constexpr uint32_t kReduceTasks = 32;
constexpr double kMatchThreshold = 0.85;
/// Dataflow builds timed per thread for setup_s (the median is reported).
constexpr int kSetupReps = 501;

struct BatchWorkload {
  uint64_t num_entities = 0;
  uint32_t num_blocks = 0;
  double skew = 0;
  uint32_t split_records = 0;
  lb::StrategyKind strategy = lb::StrategyKind::kBlockSplit;
  mr::ExecutionMode mode = mr::ExecutionMode::kInMemory;
  uint32_t worker_processes = 0;
};

std::optional<BatchWorkload> FindWorkload(const std::string& name) {
  BatchWorkload w;
  if (name == "skew_s1") {
    // The Fig-9 shape at s = 1: block 0 holds ~63% of the entities. Sized
    // for ~1 s jobs, so a run's median covers many of them.
    w.num_entities = 2000;
    w.num_blocks = 100;
    w.skew = 1.0;
    w.split_records = 250;  // m = 8 splits
    return w;
  }
  // Many tiny blocks (~4 entities each): the work is ingest, BDM,
  // PairRange planning over every entity, shuffle and clustering.
  w.num_entities = 200000;
  w.num_blocks = 50000;
  w.skew = 0;
  w.split_records = core::ErPipelineConfig{}.csv_split_records;
  w.strategy = lb::StrategyKind::kPairRange;
  if (name == "wide_external") {
    w.mode = mr::ExecutionMode::kExternal;
    return w;
  }
  if (name == "wide_multiproc") {
    w.mode = mr::ExecutionMode::kMultiProcess;
    w.worker_processes = 4;
    return w;
  }
  return std::nullopt;
}

uint64_t ClustersDigest(const er::Clusters& clusters) {
  Digest digest;
  for (const auto& cluster : clusters) {
    digest.Mix(cluster.size());
    for (uint64_t id : cluster) digest.Mix(id);
  }
  return digest.value();
}

int Fail(const std::string& message) {
  std::fprintf(stderr, "perfbench: %s\n", message.c_str());
  return 1;
}

std::string InputPath(const std::string& dir) { return dir + "/input.csv"; }

er::CsvSchema InputSchema() {
  er::CsvSchema schema;
  schema.id_column = 0;
  return schema;
}

double Seconds(int64_t nanos) { return static_cast<double>(nanos) / 1e9; }

/// The match job's per-layer breakdown from the dataflow report plus the
/// decorator totals.
Json LayerMetrics(const core::DataflowReport& report, double wall_s,
                  const CallTotals& matcher, const CallTotals& blocking) {
  auto stage_s = [&report](const char* name) {
    const core::StageReport* stage = report.Find(name);
    return stage == nullptr ? 0.0 : stage->seconds;
  };
  double stages_s = 0;
  int64_t retries = 0;
  uint64_t workers = 0, deaths = 0;
  for (const auto& stage : report.stages) {
    stages_s += stage.seconds;
    if (!stage.job.has_value()) continue;
    retries += stage.job->task_retries;
    workers += stage.job->worker_processes;
    deaths += stage.job->worker_deaths;
  }
  const core::StageReport* bdm = report.Find("bdm");
  const core::StageReport* match = report.Find("match");
  const mr::JobMetrics& job = *match->job;

  double reduce_sum_s = 0, reduce_max_s = 0;
  for (const auto& task : job.reduce_tasks) {
    reduce_sum_s += Seconds(task.duration_nanos);
    reduce_max_s = std::max(reduce_max_s, Seconds(task.duration_nanos));
  }
  const double reduce_mean_s =
      job.reduce_tasks.empty() ? 0 : reduce_sum_s / job.reduce_tasks.size();
  const double matcher_busy_s = Seconds(matcher.busy_ns);

  Json m = Json::Object{};
  m.Add("core.overhead_s", wall_s - stages_s);
  m.Add("er.ingest_s", stage_s("ingest"));
  m.Add("er.cluster_s", stage_s("cluster"));
  AddCallMetrics(matcher, blocking, &m);
  m.Add("bdm.job_s", stage_s("bdm"));
  m.Add("bdm.map_s", bdm != nullptr && bdm->job.has_value()
                         ? Seconds(bdm->job->map_phase_nanos)
                         : 0.0);
  m.Add("bdm.reduce_s", bdm != nullptr && bdm->job.has_value()
                            ? Seconds(bdm->job->reduce_phase_nanos)
                            : 0.0);
  m.Add("lb.plan_s", stage_s("plan"));
  m.Add("lb.match_map_output_pairs", job.TotalMapOutputPairs());
  m.Add("lb.comparisons", match->comparisons);
  m.Add("mr.match_reduce_s", Seconds(job.reduce_phase_nanos));
  m.Add("mr.reduce_imbalance",
        reduce_mean_s == 0 ? 0.0 : reduce_max_s / reduce_mean_s);
  m.Add("mr.reduce_task_max_s", reduce_max_s);
  m.Add("mr.reduce_other_busy_s", reduce_sum_s - matcher_busy_s);
  m.Add("mr.spill_mb",
        static_cast<double>(report.TotalSpillBytes()) / (1024.0 * 1024.0));
  m.Add("mr.task_retries", retries);
  m.Add("proc.worker_processes", workers);
  m.Add("proc.worker_deaths", deaths);
  return m;
}

/// |predicted - measured| / measured for the match job's reduce makespan:
/// the cost model calibrated on this input (pair cost only; the
/// Hadoop-scale task, job and shuffle overheads are zeroed) projects the
/// executed plan onto one node with kPoolThreads slots.
Result<double> SimulatorError(const core::Dataflow& df,
                              const core::StageReport& match,
                              const std::string& dir,
                              const er::BlockingFunction& blocking,
                              const er::Matcher& matcher) {
  ERLB_ASSIGN_OR_RETURN(std::vector<er::Entity> entities,
                        er::LoadEntitiesFromCsv(InputPath(dir),
                                                InputSchema()));
  sim::CalibrationOptions options;
  options.base.task_overhead_ms = 0;
  options.base.job_overhead_s = 0;
  options.base.kv_cost_us = 0;
  ERLB_ASSIGN_OR_RETURN(
      sim::Calibration calibration,
      sim::CalibrateCostModel(entities, blocking, matcher, options));
  ERLB_ASSIGN_OR_RETURN(const bdm::Bdm* bdm,
                        df.Get<bdm::Bdm>(core::kDatasetBdm));
  sim::ClusterConfig cluster;
  cluster.num_nodes = 1;
  cluster.map_slots_per_node = kPoolThreads;
  cluster.reduce_slots_per_node = kPoolThreads;
  ERLB_ASSIGN_OR_RETURN(
      sim::ErSimResult predicted,
      sim::SimulateMatchPlan(*match.plan, *bdm, cluster, calibration.model));
  const double measured = Seconds(match.job->reduce_phase_nanos);
  return std::abs(predicted.match_reduce_phase_s - measured) / measured;
}

}  // namespace

int PrepareBatch(const std::string& workload, uint64_t seed,
                 const std::string& dir) {
  auto w = FindWorkload(workload);
  if (!w) return Fail("unknown batch workload " + workload);
  gen::SkewConfig config;
  config.num_entities = w->num_entities;
  config.num_blocks = w->num_blocks;
  config.skew = w->skew;
  config.seed = seed;
  auto generated = gen::GenerateSkewed(config);
  if (!generated.ok()) return Fail(generated.status().ToString());
  if (Status st = er::SaveEntitiesToCsv(InputPath(dir), *generated);
      !st.ok()) {
    return Fail(st.ToString());
  }
  // The reference reads the file back, so it sees exactly the entities
  // the measured runs ingest.
  auto entities = er::LoadEntitiesFromCsv(InputPath(dir), InputSchema());
  if (!entities.ok()) return Fail(entities.status().ToString());
  Stopwatch watch;
  er::AttributeBlocking blocking(gen::kSkewBlockField);
  er::JaroWinklerMatcher matcher(kMatchThreshold, gen::kSkewTitleField);
  er::MatchResult reference = ParallelReference(*entities, blocking, matcher);
  const er::Clusters clusters = er::ClusterMatches(reference);

  Json out = Json::Object{};
  out.Add("entities", static_cast<uint64_t>(entities->size()));
  out.Add("pairs", static_cast<uint64_t>(reference.size()));
  out.Add("match_digest", std::to_string(MatchDigest(reference)));
  out.Add("clusters", static_cast<uint64_t>(clusters.size()));
  out.Add("cluster_digest", std::to_string(ClustersDigest(clusters)));
  out.Add("reference_s", watch.ElapsedSeconds());
  PrintResult(out);
  return 0;
}

int RunBatch(const std::string& workload, const std::string& dir,
             const std::string& strategy, bool traced) {
  auto w = FindWorkload(workload);
  if (!w) return Fail("unknown batch workload " + workload);
  if (!strategy.empty()) {
    auto kind = lb::StrategyKindFromName(strategy);
    if (!kind.ok()) return Fail(kind.status().ToString());
    w->strategy = *kind;
  }

  er::AttributeBlocking plain_blocking(gen::kSkewBlockField);
  er::JaroWinklerMatcher plain_matcher(kMatchThreshold,
                                       gen::kSkewTitleField);
  SharedCounters counters;
  TimedBlocking timed_blocking(&plain_blocking, &counters.blocking());
  TimedMatcher timed_matcher(&plain_matcher, &counters.matcher());
  const er::BlockingFunction* blocking =
      traced ? static_cast<const er::BlockingFunction*>(&timed_blocking)
             : &plain_blocking;
  const er::Matcher* matcher =
      traced ? static_cast<const er::Matcher*>(&timed_matcher)
             : &plain_matcher;

  core::DataflowOptions options;
  options.num_workers = kPoolThreads;
  options.execution.mode = w->mode;
  options.execution.num_worker_processes = w->worker_processes;
  options.execution.temp_dir = dir;
  core::StandardGraphOptions graph;
  graph.strategy = w->strategy;
  graph.num_reduce_tasks = kReduceTasks;
  auto build = [&](core::Dataflow* df) {
    df->Emplace<core::CsvSourceStage>("ingest", core::kDatasetPartitions,
                                      InputPath(dir), InputSchema(),
                                      w->split_records);
    Status st = core::AddStandardGraph(df, graph, blocking, matcher);
    df->Emplace<core::ClusterStage>("cluster", core::kDatasetMatches,
                                    core::kDatasetClusters);
    return st;
  };

  // setup_s: building and validating the graph, timed apart from the run.
  auto setup_s = MedianOnAllCores(
      kPoolThreads, kSetupReps, [&](uint32_t) -> Result<double> {
        Stopwatch watch;
        core::Dataflow df(options);
        ERLB_RETURN_NOT_OK(build(&df));
        ERLB_RETURN_NOT_OK(df.Validate());
        return watch.ElapsedSeconds();
      });
  if (!setup_s.ok()) return Fail(setup_s.status().ToString());

  const double cpu_before = ProcessTreeCpuSeconds();
  Stopwatch wall;
  core::Dataflow df(options);
  Status built = build(&df);
  if (!built.ok()) return Fail(built.ToString());
  auto report = df.Run();
  const double wall_s = wall.ElapsedSeconds();
  const double cpu_s = ProcessTreeCpuSeconds() - cpu_before;
  const double peak_rss_mb = ProcessTreePeakRssMb();
  if (!report.ok()) return Fail(report.status().ToString());

  auto matches = df.Get<er::MatchResult>(core::kDatasetMatches);
  auto clusters = df.Get<er::Clusters>(core::kDatasetClusters);
  if (!matches.ok()) return Fail(matches.status().ToString());
  if (!clusters.ok()) return Fail(clusters.status().ToString());
  er::MatchResult canonical = **matches;
  canonical.Canonicalize();

  Json out = Json::Object{};
  out.Add("wall_s", wall_s);
  out.Add("cpu_s", cpu_s);
  out.Add("peak_rss_mb", peak_rss_mb);
  out.Add("setup_s", *setup_s);
  out.Add("pairs", static_cast<uint64_t>(canonical.size()));
  out.Add("match_digest", std::to_string(MatchDigest(canonical)));
  out.Add("clusters", static_cast<uint64_t>((*clusters)->size()));
  out.Add("cluster_digest", std::to_string(ClustersDigest(**clusters)));
  if (traced) {
    Json layers = LayerMetrics(*report, wall_s, counters.matcher().Total(),
                               counters.blocking().Total());
    const core::StageReport* match = report->Find("match");
    if (match->plan != nullptr) {
      auto error = SimulatorError(df, *match, dir, plain_blocking,
                                  plain_matcher);
      if (!error.ok()) return Fail(error.status().ToString());
      layers.Add("sim.makespan_error", *error);
    }
    out.Add("layers", std::move(layers));
  }
  PrintResult(out);
  return 0;
}

}  // namespace perfbench
