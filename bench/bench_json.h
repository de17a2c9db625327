// Self-contained timing + JSON reporting harness for the micro benches.
//
// Unlike the figure benches (which print paper-style tables), the micro
// benches record a machine-readable perf trajectory: every run can emit a
// BENCH_*.json document via `--json <path>` so CI archives a data point
// per commit and regressions are diffable. The harness deliberately has
// no external dependency (Google Benchmark is optional in this repo) —
// it times closures around a median-of-repetitions protocol and writes
// the JSON by hand.
//
// Protocol per benchmark: one untimed warm-up call, then `reps` timed
// repetitions; within one repetition the closure runs as often as needed
// to accumulate `min_rep_millis` of wall time. Reported nanos/op is the
// median repetition's time divided by its iteration count. Before/after
// pairs are registered with `Speedup`, which derives old/new from two
// previously added results; `RunInterleaved` times such a pair (or a
// larger set) call by call in alternation when its ratio must not follow
// host load.
#ifndef ERLB_BENCH_BENCH_JSON_H_
#define ERLB_BENCH_BENCH_JSON_H_

#include <algorithm>
#include <array>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "common/logging.h"
#include "common/stopwatch.h"

namespace erlb {
namespace bench {

/// One measured benchmark (or one derived speedup entry).
struct MicroResult {
  std::string name;
  double nanos_per_op = 0.0;
  int64_t iterations = 0;   // total timed iterations across repetitions
  double speedup = 0.0;     // only for derived entries: old / new
  std::string baseline;     // derived entries: the "before" result name
  std::string contender;    // derived entries: the "after" result name
};

/// Collects results, prints a table, and writes the JSON document.
class MicroBench {
 public:
  /// \param bench_name document-level name, e.g. "bench_micro_mr".
  explicit MicroBench(std::string bench_name)
      : bench_name_(std::move(bench_name)) {}

  /// Parses `--json <path>` / `--json=<path>` / `--reps N` /
  /// `--min-rep-ms N`. Returns false (after printing usage) on unknown
  /// flags.
  bool ParseArgs(int argc, char** argv) {
    for (int i = 1; i < argc; ++i) {
      std::string arg = argv[i];
      auto value = [&](const char* flag) -> const char* {
        size_t flag_len = std::strlen(flag);
        if (arg.compare(0, flag_len, flag) != 0) return nullptr;
        if (arg.size() > flag_len && arg[flag_len] == '=') {
          return arg.c_str() + flag_len + 1;
        }
        if (arg.size() == flag_len && i + 1 < argc) return argv[++i];
        return nullptr;
      };
      if (const char* v = value("--json")) {
        json_path_ = v;
      } else if (const char* v = value("--reps")) {
        reps_ = std::max(1, std::atoi(v));
      } else if (const char* v = value("--min-rep-ms")) {
        min_rep_millis_ = std::max(1, std::atoi(v));
      } else {
        std::fprintf(stderr,
                     "usage: %s [--json <path>] [--reps N] [--min-rep-ms N]\n",
                     argv[0]);
        return false;
      }
    }
    return true;
  }

  /// Times `fn` (a void() closure) and records the result under `name`.
  template <typename Fn>
  void Run(const std::string& name, Fn&& fn) {
    fn();  // warm-up (also first-touches any lazily built state)
    std::vector<double> nanos_per_op(static_cast<size_t>(reps_));
    int64_t total_iters = 0;
    for (int rep = 0; rep < reps_; ++rep) {
      int64_t iters = 0;
      Stopwatch watch;
      do {
        fn();
        ++iters;
      } while (watch.ElapsedMillis() < min_rep_millis_);
      nanos_per_op[static_cast<size_t>(rep)] =
          static_cast<double>(watch.ElapsedNanos()) /
          static_cast<double>(iters);
      total_iters += iters;
    }
    Record(name, std::move(nanos_per_op), total_iters);
  }

  /// Like Run for closures whose ratios are gated: within each repetition
  /// the closures take turns call by call, each round starting one closure
  /// later (a b c, b c a, c a b, ...; a b, b a for a pair), each call
  /// timed on its own, and a repetition's nanos/op is its median call;
  /// `names[i]` names `fns`' i-th closure. Host load that comes and goes
  /// during the measurement then lands on all results alike, and a call
  /// that a load spike stretched does not move any result. Each call is
  /// timed separately, so the closures should take at least microseconds;
  /// closures that sweep `ops_per_call` operations per call (e.g. every
  /// pair of a fixed input set) are reported per operation, and their
  /// iterations count operations.
  template <typename... Fns>
  void RunInterleaved(const std::array<std::string, sizeof...(Fns)>& names,
                      int64_t ops_per_call, Fns&&... fns) {
    constexpr size_t n = sizeof...(Fns);
    (fns(), ...);  // warm-ups
    auto timed = [&](size_t i) {
      Stopwatch watch;
      size_t k = 0;
      ((k++ == i ? fns() : void()), ...);
      return static_cast<double>(watch.ElapsedNanos());
    };
    std::array<std::vector<double>, n> nanos_per_op;
    int64_t total_iters = 0;
    for (int rep = 0; rep < reps_; ++rep) {
      std::array<std::vector<double>, n> calls;
      size_t rounds = 0;
      Stopwatch watch;
      do {
        for (size_t k = 0; k < n; ++k) {
          const size_t i = (rounds + k) % n;
          calls[i].push_back(timed(i));
        }
        ++rounds;
      } while (watch.ElapsedMillis() <
               static_cast<double>(n) * min_rep_millis_);
      total_iters += static_cast<int64_t>(rounds) * ops_per_call;
      for (size_t i = 0; i < n; ++i) {
        std::sort(calls[i].begin(), calls[i].end());
        nanos_per_op[i].push_back(calls[i][calls[i].size() / 2] /
                                  static_cast<double>(ops_per_call));
      }
    }
    for (size_t i = 0; i < n; ++i) {
      Record(names[i], std::move(nanos_per_op[i]), total_iters);
    }
  }

  /// Like Run, but `fn` returns the nanoseconds of the region it timed
  /// itself (an int64_t), so the setup and teardown around that region —
  /// copying a consumed input, freeing a large result — stay out of the
  /// result. Repetitions still last at least `min_rep_millis` of wall
  /// time.
  template <typename Fn>
  void RunSelfTimed(const std::string& name, Fn&& fn) {
    fn();  // warm-up
    std::vector<double> nanos_per_op(static_cast<size_t>(reps_));
    int64_t total_iters = 0;
    for (int rep = 0; rep < reps_; ++rep) {
      int64_t iters = 0;
      int64_t region_nanos = 0;
      Stopwatch watch;
      do {
        region_nanos += fn();
        ++iters;
      } while (watch.ElapsedMillis() < min_rep_millis_);
      nanos_per_op[static_cast<size_t>(rep)] =
          static_cast<double>(region_nanos) / static_cast<double>(iters);
      total_iters += iters;
    }
    Record(name, std::move(nanos_per_op), total_iters);
  }

  /// Records old/new for two results added earlier via Run.
  void Speedup(const std::string& name, const std::string& baseline,
               const std::string& contender) {
    const MicroResult* b = Find(baseline);
    const MicroResult* c = Find(contender);
    ERLB_CHECK(b != nullptr) << "unknown baseline " << baseline;
    ERLB_CHECK(c != nullptr) << "unknown contender " << contender;
    MicroResult res;
    res.name = name;
    res.baseline = baseline;
    res.contender = contender;
    res.speedup = b->nanos_per_op / c->nanos_per_op;
    results_.push_back(res);
    std::printf("%-40s %14.2fx speedup  (%s / %s)\n", name.c_str(),
                res.speedup, baseline.c_str(), contender.c_str());
  }

  /// Writes the JSON document if --json was given. Returns process exit
  /// code (1 if the file could not be written).
  int Finish() const {
    if (json_path_.empty()) return 0;
    std::FILE* f = std::fopen(json_path_.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", json_path_.c_str());
      return 1;
    }
    std::fprintf(f, "{\n  \"bench\": \"%s\",\n", bench_name_.c_str());
    std::fprintf(f, "  \"unit\": \"ns/op\",\n");
    std::fprintf(f, "  \"reps\": %d,\n", reps_);
    std::fprintf(f, "  \"results\": [\n");
    for (size_t i = 0; i < results_.size(); ++i) {
      const MicroResult& r = results_[i];
      if (r.baseline.empty()) {
        std::fprintf(f,
                     "    {\"name\": \"%s\", \"nanos_per_op\": %.1f, "
                     "\"iterations\": %lld}",
                     r.name.c_str(), r.nanos_per_op,
                     static_cast<long long>(r.iterations));
      } else {
        std::fprintf(f,
                     "    {\"name\": \"%s\", \"speedup\": %.3f, "
                     "\"baseline\": \"%s\", \"contender\": \"%s\"}",
                     r.name.c_str(), r.speedup, r.baseline.c_str(),
                     r.contender.c_str());
      }
      std::fprintf(f, "%s\n", i + 1 < results_.size() ? "," : "");
    }
    std::fprintf(f, "  ]\n}\n");
    std::fclose(f);
    std::printf("wrote %s\n", json_path_.c_str());
    return 0;
  }

  const MicroResult* Find(const std::string& name) const {
    for (const auto& r : results_) {
      if (r.name == name) return &r;
    }
    return nullptr;
  }

 private:
  /// Adds the median repetition of `nanos_per_op` as result `name`.
  void Record(const std::string& name, std::vector<double> nanos_per_op,
              int64_t total_iters) {
    std::sort(nanos_per_op.begin(), nanos_per_op.end());
    MicroResult res;
    res.name = name;
    res.nanos_per_op = nanos_per_op[nanos_per_op.size() / 2];
    res.iterations = total_iters;
    results_.push_back(res);
    std::printf("%-40s %14.1f ns/op   (%lld iters)\n", name.c_str(),
                res.nanos_per_op, static_cast<long long>(total_iters));
  }

  std::string bench_name_;
  std::string json_path_;
  int reps_ = 5;
  int min_rep_millis_ = 20;
  std::vector<MicroResult> results_;
};

}  // namespace bench
}  // namespace erlb

#endif  // ERLB_BENCH_BENCH_JSON_H_
