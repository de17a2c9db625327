// Out-of-core vs in-memory execution: throughput and peak RSS at several
// scales, reported as a BENCH_external.json document for the CI
// regression gate (tools/bench_compare.py).
//
// Every measured case runs in a freshly exec'd child process (this binary
// re-invoked with --child) so getrusage's ru_maxrss reflects exactly one
// pipeline run — the only honest way to compare peak memory between
// modes within one benchmark binary. The parent aggregates medians and
// writes:
//   * dedup_<mode>/<scale>            — wall nanos per pipeline run
//                                       (gated, lower is better)
//   * external_vs_inmem/<scale>/time_ratio — in-memory / external wall
//     time (gated as a speedup ratio; machine-relative, so it stays
//     comparable across CI hardware)
//   * external_vs_inmem/<scale>/rss_ratio — in-memory / external peak
//     RSS; > 1 demonstrates the bounded-memory claim
//   * multiproc/<scale> and multiproc_vs_inmem/<scale>/time_ratio — the
//     shared-nothing multi-process shuffle (4 forked workers), timed the
//     same way; its RSS value sums the coordinator with getrusage's
//     reaped-children figure for the worker processes
//   * .../peak_rss_kb and .../spill_mb — informational values
//
// The external cases run with ExecutionMode::kAuto and a deliberately
// tiny spill threshold, so they also prove the auto-selection path: the
// input "exceeds the spill threshold" and the engine goes out-of-core on
// its own (asserted via the spill metrics).
//
//   $ bench_external [--json out.json] [--reps N] [--scale small|full]
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <string>
#include <vector>

#include "common/io_buffer.h"
#include "common/json.h"
#include "common/logging.h"
#include "common/random.h"
#include "common/stopwatch.h"
#include "core/pipeline.h"
#include "core/stages.h"
#include "er/blocking.h"
#include "er/matcher.h"
#include "gen/skew_gen.h"
#include "mr/job.h"

using namespace erlb;

namespace {

struct CaseConfig {
  std::string label;  // e.g. "ds100k", "shuffle400k"
  /// "pipeline": end-to-end BlockSplit dedup over generated entities
  /// (num_entities/num_blocks), exercising auto spill selection.
  /// "shuffle": engine-level job over num_entities records with
  /// value_bytes-sized string values — intermediate data dominates RSS,
  /// the workload where bounded memory shows.
  std::string kind = "pipeline";
  uint64_t num_entities = 0;
  uint32_t num_blocks = 0;
  uint32_t value_bytes = 0;
};

struct CaseResult {
  double seconds = 0;
  long peak_rss_kb = 0;
  double spill_mb = 0;
  bool external = false;
  int64_t comparisons = 0;
};

/// The three execution paths under measurement. Multi-process runs the
/// same out-of-core shuffle sharded across 4 forked worker processes.
enum class Mode { kInMemory, kExternal, kMultiProcess };

const char* ModeArg(Mode mode) {
  switch (mode) {
    case Mode::kInMemory: return "in_memory";
    case Mode::kExternal: return "external";
    case Mode::kMultiProcess: return "multi_process";
  }
  return "in_memory";
}

Mode ParseMode(const char* arg) {
  if (std::strcmp(arg, "external") == 0) return Mode::kExternal;
  if (std::strcmp(arg, "multi_process") == 0) return Mode::kMultiProcess;
  return Mode::kInMemory;
}

constexpr uint32_t kWorkerProcesses = 4;

/// Peak RSS of this (measured, freshly exec'd) process plus its reaped
/// children — for multi-process runs, the coordinator's own footprint
/// summed with what getrusage reports for the waited-for worker
/// processes, giving the job's per-box memory figure.
long ProcessTreePeakRssKb() {
  struct rusage self_usage, child_usage;
  ERLB_CHECK(getrusage(RUSAGE_SELF, &self_usage) == 0);
  ERLB_CHECK(getrusage(RUSAGE_CHILDREN, &child_usage) == 0);
  return self_usage.ru_maxrss + child_usage.ru_maxrss;
}

// ---- Engine-level shuffle case ------------------------------------------

class FatValueMapper
    : public mr::Mapper<uint64_t, std::string, uint64_t, std::string> {
 public:
  void Map(const uint64_t& k, const std::string& v,
           mr::MapContext<uint64_t, std::string>* ctx) override {
    ctx->Emit(k, v);
  }
};

class CountReducer
    : public mr::Reducer<uint64_t, std::string, uint64_t, uint64_t> {
 public:
  void Reduce(std::span<const std::pair<uint64_t, std::string>> group,
              mr::ReduceContext<uint64_t, uint64_t>* ctx) override {
    uint64_t bytes = 0;
    for (const auto& [k, v] : group) bytes += v.size();
    ctx->Emit(group.front().first, bytes);
  }
};

struct ModPartitionFn {
  uint32_t operator()(uint64_t k, uint32_t r) const {
    return static_cast<uint32_t>(k % r);
  }
};

/// Group-by-key over records with fat string values: the intermediate
/// data is the workload. The in-memory shuffle materializes every run
/// (peak ≈ input + all intermediate pairs); the external shuffle holds
/// spill buffers only.
CaseResult RunShuffleCase(const CaseConfig& config, Mode mode) {
  const uint32_t m = 8, r = 32;
  Pcg32 rng(99);
  std::vector<std::vector<std::pair<uint64_t, std::string>>> input(m);
  for (auto& part : input) {
    part.reserve(config.num_entities / m);
    for (uint64_t i = 0; i < config.num_entities / m; ++i) {
      std::string value(config.value_bytes - rng.NextBounded(32), 'x');
      part.push_back({rng.NextBounded(1u << 20), std::move(value)});
    }
  }

  mr::TypedJobSpec<uint64_t, std::string, uint64_t, std::string, uint64_t,
                   uint64_t, std::less<>, std::equal_to<>, ModPartitionFn>
      spec;
  spec.num_reduce_tasks = r;
  spec.mapper_factory = [](const mr::TaskContext&) {
    return std::make_unique<FatValueMapper>();
  };
  spec.reducer_factory = [](const mr::TaskContext&) {
    return std::make_unique<CountReducer>();
  };

  mr::ExecutionOptions options;
  switch (mode) {
    case Mode::kInMemory:
      options.mode = mr::ExecutionMode::kInMemory;
      break;
    case Mode::kExternal:
      options.mode = mr::ExecutionMode::kExternal;
      break;
    case Mode::kMultiProcess:
      options.mode = mr::ExecutionMode::kMultiProcess;
      options.num_worker_processes = kWorkerProcesses;
      break;
  }
  mr::JobRunner runner(4, options);

  Stopwatch watch;
  auto result = runner.Run(spec, input);
  double seconds = watch.ElapsedSeconds();
  ERLB_CHECK(result.status.ok()) << result.status.ToString();
  if (mode == Mode::kMultiProcess) {
    ERLB_CHECK(result.metrics.multi_process);
  }

  CaseResult out;
  out.seconds = seconds;
  out.peak_rss_kb = ProcessTreePeakRssKb();
  out.spill_mb = static_cast<double>(result.metrics.spill_bytes_written) /
                 (1024.0 * 1024.0);
  out.external = result.metrics.external;
  out.comparisons =
      result.metrics.counters.Get(mr::kCounterMapOutputPairs);
  return out;
}

/// One measured pipeline run; executed inside the --child process. Runs
/// the standard stage graph directly and reads everything it reports —
/// spill volume, execution path, comparisons — from the dataflow's
/// unified per-stage report.
CaseResult RunPipelineCase(const CaseConfig& config, Mode mode) {
  gen::SkewConfig gen_config;
  gen_config.num_entities = config.num_entities;
  gen_config.num_blocks = config.num_blocks;
  // |Φk| ∝ e^(−s·k): s = 3/b keeps a 20x size spread between the largest
  // and smallest block (real splitting work for BlockSplit) while the
  // average block stays ~12 entities, so comparisons scale linearly.
  gen_config.skew = 3.0 / config.num_blocks;
  gen_config.duplicate_fraction = 0.15;
  gen_config.seed = 4242;
  auto entities = gen::GenerateSkewed(gen_config);
  ERLB_CHECK(entities.ok()) << entities.status().ToString();

  core::ErPipelineConfig pipeline_config;
  pipeline_config.strategy = lb::StrategyKind::kBlockSplit;
  pipeline_config.num_map_tasks = 8;
  pipeline_config.num_reduce_tasks = 32;
  switch (mode) {
    case Mode::kExternal:
      // kAuto + tiny threshold: the engine must decide to spill on its
      // own.
      pipeline_config.execution.mode = mr::ExecutionMode::kAuto;
      pipeline_config.execution.spill_threshold_bytes = uint64_t{1} << 20;
      break;
    case Mode::kInMemory:
      pipeline_config.execution.mode = mr::ExecutionMode::kInMemory;
      break;
    case Mode::kMultiProcess:
      pipeline_config.execution.mode = mr::ExecutionMode::kMultiProcess;
      pipeline_config.execution.num_worker_processes = kWorkerProcesses;
      break;
  }

  er::AttributeBlocking blocking(gen::kSkewBlockField);
  er::JaroWinklerMatcher matcher(0.9, gen::kSkewTitleField);

  Stopwatch watch;
  auto df = core::BuildStandardDataflow(pipeline_config, blocking, matcher);
  ERLB_CHECK(df.ok()) << df.status().ToString();
  core::PartitionedEntities input;
  input.partitions =
      er::SplitIntoPartitions(*entities, pipeline_config.num_map_tasks);
  ERLB_CHECK(df->AddInput(core::kDatasetPartitions,
                          core::Dataset(std::move(input)))
                 .ok());
  auto report = df->Run();
  double seconds = watch.ElapsedSeconds();
  ERLB_CHECK(report.ok()) << report.status().ToString();

  const core::StageReport* match = report->Find("match");
  ERLB_CHECK(match != nullptr && match->job.has_value());
  if (mode == Mode::kExternal) {
    ERLB_CHECK(match->job->external)
        << "auto mode failed to select the external path";
  }
  if (mode == Mode::kMultiProcess) {
    ERLB_CHECK(match->job->multi_process);
  }

  CaseResult out;
  out.seconds = seconds;
  out.peak_rss_kb = ProcessTreePeakRssKb();
  out.spill_mb =
      static_cast<double>(report->TotalSpillBytes()) / (1024.0 * 1024.0);
  out.external = match->job->external;
  out.comparisons = report->TotalComparisons();
  return out;
}

CaseResult RunCase(const CaseConfig& config, Mode mode) {
  return config.kind == "shuffle" ? RunShuffleCase(config, mode)
                                  : RunPipelineCase(config, mode);
}

int ChildMain(const CaseConfig& config, Mode mode,
              const std::string& out_path) {
  CaseResult r = RunCase(config, mode);
  std::FILE* f = std::fopen(out_path.c_str(), "w");
  if (f == nullptr) return 1;
  std::fprintf(f,
               "{\"seconds\": %.6f, \"peak_rss_kb\": %ld, \"spill_mb\": "
               "%.3f, \"external\": %s, \"comparisons\": %lld}\n",
               r.seconds, r.peak_rss_kb, r.spill_mb,
               r.external ? "true" : "false",
               static_cast<long long>(r.comparisons));
  std::fclose(f);
  return 0;
}

std::string SelfExe() {
  char buf[4096];
  ssize_t n = ::readlink("/proc/self/exe", buf, sizeof(buf) - 1);
  ERLB_CHECK(n > 0);
  buf[n] = '\0';
  return buf;
}

/// Reads and parses one small JSON file (the child's report).
Json ReadJsonFile(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "r");
  ERLB_CHECK(f != nullptr) << "missing child report " << path;
  std::string text;
  char buf[512];
  size_t got;
  while ((got = std::fread(buf, 1, sizeof(buf), f)) > 0) {
    text.append(buf, got);
  }
  std::fclose(f);
  auto doc = Json::Parse(text);
  ERLB_CHECK(doc.ok()) << doc.status().ToString();
  return std::move(doc).ValueOrDie();
}

/// Spawns one child run and parses its result file.
CaseResult SpawnCase(const CaseConfig& config, Mode mode,
                     const std::string& tmp_dir) {
  std::string out_path = tmp_dir + "/case.json";
  pid_t pid = ::fork();
  ERLB_CHECK(pid >= 0) << "fork failed";
  if (pid == 0) {
    std::string exe = SelfExe();
    std::string n = std::to_string(config.num_entities);
    std::string b = std::to_string(config.num_blocks);
    std::string vb = std::to_string(config.value_bytes);
    ::execl(exe.c_str(), exe.c_str(), "--child", config.label.c_str(),
            config.kind.c_str(), n.c_str(), b.c_str(), vb.c_str(),
            ModeArg(mode), out_path.c_str(),
            static_cast<char*>(nullptr));
    std::_Exit(127);  // exec failed
  }
  int status = 0;
  ERLB_CHECK(::waitpid(pid, &status, 0) == pid);
  ERLB_CHECK(WIFEXITED(status) && WEXITSTATUS(status) == 0)
      << "child run failed for " << config.label;

  Json doc = ReadJsonFile(out_path);
  CaseResult r;
  r.seconds = doc.Find("seconds")->AsDouble();
  r.peak_rss_kb = static_cast<long>(doc.Find("peak_rss_kb")->AsInt64());
  r.spill_mb = doc.Find("spill_mb")->AsDouble();
  r.external = doc.Find("external")->AsBool();
  r.comparisons = doc.Find("comparisons")->AsInt64();
  return r;
}

double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return v[v.size() / 2];
}

struct Entry {
  std::string name;
  // Exactly one of these is set.
  double nanos_per_op = -1;  // gated: lower is better
  double speedup = -1;       // gated: higher is better
  double value = -1;         // informational
  std::string baseline, contender;
  int64_t iterations = 0;
};

void WriteJson(const std::string& path, const std::vector<Entry>& entries,
               int reps) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  ERLB_CHECK(f != nullptr) << "cannot write " << path;
  std::fprintf(f, "{\n  \"bench\": \"bench_external\",\n");
  std::fprintf(f, "  \"unit\": \"ns/op\",\n  \"reps\": %d,\n", reps);
  std::fprintf(f, "  \"results\": [\n");
  for (size_t i = 0; i < entries.size(); ++i) {
    const Entry& e = entries[i];
    if (e.nanos_per_op >= 0) {
      std::fprintf(f,
                   "    {\"name\": \"%s\", \"nanos_per_op\": %.1f, "
                   "\"iterations\": %lld}",
                   e.name.c_str(), e.nanos_per_op,
                   static_cast<long long>(e.iterations));
    } else if (e.speedup >= 0) {
      std::fprintf(f,
                   "    {\"name\": \"%s\", \"speedup\": %.3f, "
                   "\"baseline\": \"%s\", \"contender\": \"%s\"}",
                   e.name.c_str(), e.speedup, e.baseline.c_str(),
                   e.contender.c_str());
    } else {
      std::fprintf(f, "    {\"name\": \"%s\", \"value\": %.1f}",
                   e.name.c_str(), e.value);
    }
    std::fprintf(f, "%s\n", i + 1 < entries.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("wrote %s\n", path.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  // Child protocol:
  // --child <label> <kind> <entities> <blocks> <value_bytes> <mode> <out>.
  if (argc >= 2 && std::strcmp(argv[1], "--child") == 0) {
    ERLB_CHECK(argc == 9);
    CaseConfig config;
    config.label = argv[2];
    config.kind = argv[3];
    config.num_entities = std::strtoull(argv[4], nullptr, 10);
    config.num_blocks = static_cast<uint32_t>(std::atoi(argv[5]));
    config.value_bytes = static_cast<uint32_t>(std::atoi(argv[6]));
    return ChildMain(config, ParseMode(argv[7]), argv[8]);
  }

  std::string json_path;
  int reps = 3;
  bool small = false;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--json" && i + 1 < argc) {
      json_path = argv[++i];
    } else if (arg.rfind("--json=", 0) == 0) {
      json_path = arg.substr(7);
    } else if (arg == "--reps" && i + 1 < argc) {
      reps = std::max(1, std::atoi(argv[++i]));
    } else if (arg == "--scale" && i + 1 < argc) {
      small = std::string(argv[++i]) == "small";
    } else {
      std::fprintf(stderr,
                   "usage: %s [--json <path>] [--reps N] "
                   "[--scale small|full]\n",
                   argv[0]);
      return 1;
    }
  }

  std::vector<CaseConfig> cases;
  auto add_case = [&cases](const char* label, const char* kind, uint64_t n,
                           uint32_t blocks, uint32_t value_bytes) {
    CaseConfig c;
    c.label = label;
    c.kind = kind;
    c.num_entities = n;
    c.num_blocks = blocks;
    c.value_bytes = value_bytes;
    cases.push_back(std::move(c));
  };
  if (small) {
    add_case("ds30k", "pipeline", 30000, 2500, 0);
    add_case("shuffle100k", "shuffle", 100000, 0, 160);
  } else {
    add_case("ds100k", "pipeline", 100000, 8000, 0);
    add_case("ds250k", "pipeline", 250000, 20000, 0);
    add_case("shuffle400k", "shuffle", 400000, 0, 160);
    add_case("shuffle800k", "shuffle", 800000, 0, 160);
  }

  auto tmp = ScopedTempDir::Make();
  ERLB_CHECK(tmp.ok()) << tmp.status().ToString();

  std::vector<Entry> entries;
  for (const auto& config : cases) {
    std::vector<double> mem_secs, ext_secs, mp_secs;
    std::vector<double> mem_rss, ext_rss, mp_rss;
    double spill_mb = 0;
    for (int rep = 0; rep < reps; ++rep) {
      CaseResult mem = SpawnCase(config, Mode::kInMemory, tmp->path());
      CaseResult ext = SpawnCase(config, Mode::kExternal, tmp->path());
      CaseResult mp = SpawnCase(config, Mode::kMultiProcess, tmp->path());
      ERLB_CHECK(!mem.external);
      ERLB_CHECK(ext.external);
      ERLB_CHECK(mp.external);
      ERLB_CHECK(mem.comparisons == ext.comparisons)
          << "modes diverged: " << mem.comparisons << " vs "
          << ext.comparisons;
      ERLB_CHECK(mem.comparisons == mp.comparisons)
          << "multi-process diverged: " << mem.comparisons << " vs "
          << mp.comparisons;
      mem_secs.push_back(mem.seconds);
      ext_secs.push_back(ext.seconds);
      mp_secs.push_back(mp.seconds);
      mem_rss.push_back(static_cast<double>(mem.peak_rss_kb));
      ext_rss.push_back(static_cast<double>(ext.peak_rss_kb));
      mp_rss.push_back(static_cast<double>(mp.peak_rss_kb));
      spill_mb = ext.spill_mb;
    }
    double mem_sec = Median(mem_secs), ext_sec = Median(ext_secs);
    double mp_sec = Median(mp_secs);
    double mem_kb = Median(mem_rss), ext_kb = Median(ext_rss);
    double mp_kb = Median(mp_rss);

    std::printf(
        "%-8s in-memory %.2fs / %.0f MB rss   external %.2fs / %.0f MB "
        "rss   multiproc(%u) %.2fs / %.0f MB rss   (spilled %.1f MB)\n",
        config.label.c_str(), mem_sec, mem_kb / 1024.0, ext_sec,
        ext_kb / 1024.0, kWorkerProcesses, mp_sec, mp_kb / 1024.0,
        spill_mb);

    std::string mem_name = "inmem/" + config.label;
    std::string ext_name = "external/" + config.label;
    std::string mp_name = "multiproc/" + config.label;
    auto add_time = [&](const std::string& name, double seconds) {
      Entry e;
      e.name = name;
      e.nanos_per_op = seconds * 1e9;
      e.iterations = reps;
      entries.push_back(std::move(e));
    };
    auto add_ratio = [&](const std::string& name, double ratio) {
      Entry e;
      e.name = name;
      e.speedup = ratio;
      e.baseline = mem_name;
      e.contender = ext_name;
      entries.push_back(std::move(e));
    };
    auto add_value = [&](const std::string& name, double value) {
      Entry e;
      e.name = name;
      e.value = value;
      entries.push_back(std::move(e));
    };
    add_time(mem_name, mem_sec);
    add_time(ext_name, ext_sec);
    add_time(mp_name, mp_sec);
    add_ratio("external_vs_inmem/" + config.label + "/time_ratio",
              mem_sec / ext_sec);
    add_ratio("external_vs_inmem/" + config.label + "/rss_ratio",
              mem_kb / ext_kb);
    // Same-run ratio for the sharded mode too: a collapse here means
    // the fork/shuffle-dir machinery got dramatically slower relative
    // to the single-process in-memory path on the same hardware.
    {
      Entry e;
      e.name = "multiproc_vs_inmem/" + config.label + "/time_ratio";
      e.speedup = mem_sec / mp_sec;
      e.baseline = mem_name;
      e.contender = mp_name;
      entries.push_back(std::move(e));
    }
    add_value(mem_name + "/peak_rss_kb", mem_kb);
    add_value(ext_name + "/peak_rss_kb", ext_kb);
    add_value(mp_name + "/peak_rss_kb", mp_kb);
    add_value(ext_name + "/spill_mb", spill_mb);
  }

  if (!json_path.empty()) WriteJson(json_path, entries, reps);
  return 0;
}
