// Dataflow overhead micro benchmark: every caller runs the ER workflow
// as the standard stage graph (core/dataflow.h, core/stages.h), so this
// bench pins the cost of that indirection — graph construction alone,
// and the full graph run (`run/pipeline_adapter`: build, validate, run,
// report) against the same jobs invoked directly (RunBdmJob + BuildPlan +
// ExecutePlan on one runner, the pre-dataflow pipeline body). The
// `overhead/direct_vs_adapter` ratio must stay ~1x; it is gated by
// tools/bench_compare.py against the committed BENCH_dataflow.json
// baseline. Two serial steps of the wide_external shape are timed on
// their own as well, each with a gated ratio: CSV ingest on one worker
// vs. four, and BDM assembly from the job's per-partition runs vs. from
// shuffled triples.
//
//   $ ./bench_dataflow [--json <path>] [--reps N] [--min-rep-ms N]
#include <string>
#include <vector>

#include "bdm/bdm_job.h"
#include "bench_json.h"
#include "common/io_buffer.h"
#include "common/logging.h"
#include "common/random.h"
#include "common/stopwatch.h"
#include "common/string_util.h"
#include "core/pipeline.h"
#include "core/stages.h"
#include "er/blocking.h"
#include "er/entity_io.h"
#include "er/matcher.h"
#include "gen/skew_gen.h"
#include "lb/strategy.h"
#include "mr/job.h"

using namespace erlb;

int main(int argc, char** argv) {
  bench::MicroBench harness("bench_dataflow");
  if (!harness.ParseArgs(argc, argv)) return 1;

  gen::SkewConfig gen_config;
  gen_config.num_entities = 1500;
  gen_config.num_blocks = 60;
  // Mild skew (20x largest/smallest block): enough splitting work for
  // BlockSplit while one run stays in the tens of milliseconds — the
  // adapter overhead being measured is per-run, not per-comparison.
  gen_config.skew = 3.0 / gen_config.num_blocks;
  gen_config.duplicate_fraction = 0.2;
  gen_config.seed = 7;
  auto entities = gen::GenerateSkewed(gen_config);
  ERLB_CHECK(entities.ok());

  const uint32_t m = 4, r = 16, workers = 4;
  er::Partitions parts = er::SplitIntoPartitions(*entities, m);
  er::AttributeBlocking blocking(gen::kSkewBlockField);
  er::JaroWinklerMatcher matcher(0.85, gen::kSkewTitleField);

  core::DataflowOptions resources;
  resources.num_workers = workers;
  core::StandardGraphOptions graph;
  graph.num_reduce_tasks = r;
  // The standard graph over `parts`, built and bound but not run.
  auto build = [&] {
    core::Dataflow df(resources);
    Status built = core::AddStandardGraph(&df, graph, &blocking, &matcher);
    ERLB_CHECK(built.ok());
    core::PartitionedEntities input;
    input.partitions = parts;
    Status bound = df.AddInput(core::kDatasetPartitions,
                               core::Dataset(std::move(input)));
    ERLB_CHECK(bound.ok());
    return df;
  };

  // The pre-dataflow pipeline body: both jobs on one directly-owned
  // runner, no graph, no report.
  auto direct_jobs = [&] {
    mr::JobRunner runner(workers, resources.execution);
    auto bdm_out = bdm::RunBdmJob(parts, blocking, {}, runner);
    ERLB_CHECK(bdm_out.ok());
    auto strategy = lb::MakeStrategy(graph.strategy);
    lb::MatchJobOptions match_options;
    match_options.num_reduce_tasks = r;
    auto plan = strategy->BuildPlan(bdm_out->bdm, match_options);
    ERLB_CHECK(plan.ok());
    auto out = strategy->ExecutePlan(*plan, *bdm_out->annotated,
                                     bdm_out->bdm, matcher, runner);
    ERLB_CHECK(out.ok());
    ERLB_CHECK(out->matches.size() > 0);
  };

  // The graph: same jobs, reached through graph build + validate + run +
  // report assembly.
  auto graph_run = [&] {
    core::Dataflow df = build();
    auto report = df.Run();
    ERLB_CHECK(report.ok());
    auto matches = df.Get<er::MatchResult>(core::kDatasetMatches);
    ERLB_CHECK(matches.ok() && (*matches)->size() > 0);
  };

  // Timed call by call in alternation, so the gated ratio below does not
  // follow host load that changes between two back-to-back loops.
  harness.RunInterleaved({"run/direct_jobs", "run/pipeline_adapter"}, 1,
                         direct_jobs, graph_run);

  // direct / graph; ~1.0 means the graph machinery is free at job
  // granularity. Gated (higher is better, so a regression = the graph
  // getting relatively slower).
  harness.Speedup("overhead/direct_vs_adapter", "run/direct_jobs",
                  "run/pipeline_adapter");

  // Graph construction alone (no execution): stage allocation, dataset
  // wiring, DAG validation, input binding.
  harness.Run("build/standard_graph", [&] {
    core::Dataflow df = build();
    ERLB_CHECK(df.Validate().ok());
  });

  // CSV ingest alone: CsvSourceStage over a 200k-row file on one worker
  // and on four. The stage parses its splits on the dataflow's pool, so
  // the ratio is the parallel speedup of ingest (gated).
  auto scratch = ScopedTempDir::Make("", "erlb-bench-dataflow");
  ERLB_CHECK(scratch.ok());
  const std::string csv_path = scratch->path() + "/input.csv";
  {
    gen::SkewConfig wide;
    wide.num_entities = 200000;
    wide.num_blocks = 50000;
    wide.skew = 0;
    wide.seed = 1;
    auto rows = gen::GenerateSkewed(wide);
    ERLB_CHECK(rows.ok());
    ERLB_CHECK(er::SaveEntitiesToCsv(csv_path, *rows).ok());
  }
  er::CsvSchema schema;
  schema.id_column = 0;
  const uint32_t split_records = core::ErPipelineConfig{}.csv_split_records;
  // Times the stage as the dataflow report does; freeing the 200k
  // entities afterwards is not ingest.
  auto ingest = [&](uint32_t num_workers) {
    core::DataflowOptions options;
    options.num_workers = num_workers;
    core::Dataflow df(options);
    df.Emplace<core::CsvSourceStage>("ingest", core::kDatasetPartitions,
                                     csv_path, schema, split_records);
    auto report = df.Run();
    ERLB_CHECK(report.ok());
    return static_cast<int64_t>(report->stages.at(0).seconds * 1e9);
  };
  harness.RunSelfTimed("ingest/csv_200k/workers1", [&] { return ingest(1); });
  harness.RunSelfTimed("ingest/csv_200k/workers4", [&] { return ingest(4); });
  harness.Speedup("ingest/csv_200k/parallel_speedup",
                  "ingest/csv_200k/workers1", "ingest/csv_200k/workers4");

  // BDM assembly over 50k blocks (~188k cells, m = 25 splits): from
  // Job 1's output, one run per split sorted by block key (the runs are
  // merged, no cell is sorted), against FromTriples over the same
  // triples shuffled (a full sort). Assembly consumes its input, so each call
  // gets a fresh copy, made (and the result freed) outside the timing.
  // Gated.
  {
    auto wide_rows = er::LoadEntitiesFromCsv(csv_path, schema);
    ERLB_CHECK(wide_rows.ok());
    const uint32_t splits = static_cast<uint32_t>(
        (wide_rows->size() + split_records - 1) / split_records);
    er::Partitions wide_parts = er::SplitIntoPartitions(*wide_rows, splits);
    std::vector<std::vector<std::string>> keys(wide_parts.size());
    for (size_t p = 0; p < wide_parts.size(); ++p) {
      for (const auto& e : wide_parts[p]) keys[p].push_back(blocking.Key(*e));
    }
    auto reference = bdm::Bdm::FromKeys(keys);
    ERLB_CHECK(reference.ok());
    const std::vector<bdm::BdmTriple> sorted = reference->ToTriples();
    bdm::BdmRuns job_output(splits);
    for (const auto& t : sorted) {
      job_output[t.partition].emplace_back(t.block_key, t.count);
    }
    std::vector<bdm::BdmTriple> shuffled = sorted;
    Pcg32 rng(7);
    for (size_t i = shuffled.size(); i > 1; --i) {
      std::swap(shuffled[i - 1],
                shuffled[rng.NextBounded(static_cast<uint32_t>(i))]);
    }
    const uint64_t expected = reference->ContentHash();
    harness.RunSelfTimed("bdm/assemble_50k/from_job_output", [&] {
      bdm::BdmRuns input = job_output;
      Stopwatch watch;
      auto bdm = bdm::AssembleBdm(std::move(input), {});
      const int64_t nanos = watch.ElapsedNanos();
      ERLB_CHECK(bdm.ok() && bdm->ContentHash() == expected);
      return nanos;
    });
    harness.RunSelfTimed("bdm/assemble_50k/from_shuffled_triples", [&] {
      std::vector<bdm::BdmTriple> input = shuffled;
      Stopwatch watch;
      auto bdm = bdm::Bdm::FromTriples(std::move(input), splits);
      const int64_t nanos = watch.ElapsedNanos();
      ERLB_CHECK(bdm.ok() && bdm->ContentHash() == expected);
      return nanos;
    });
    harness.Speedup("bdm/assemble_50k/ordered_groups_speedup",
                    "bdm/assemble_50k/from_shuffled_triples",
                    "bdm/assemble_50k/from_job_output");
  }

  return harness.Finish();
}
