// Pieces shared by erlb_perfbench's batch and serve workloads:
// bench-side decorators that count and time the calls the runtime makes
// into er::Matcher and er::BlockingFunction, process resource usage, and
// the order statistics the result lines report.
//
// The decorators sit outside the program: they wrap the matcher and the
// blocking function the benchmark hands to the public entry points, so
// the runtime itself carries no tracing code. Their counters live in an
// anonymous shared mapping, so calls made inside forked worker processes
// (ExecutionMode::kMultiProcess) are counted as well.
#ifndef PERFBENCH_COMMON_H_
#define PERFBENCH_COMMON_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/json.h"
#include "common/result.h"
#include "er/blocking.h"
#include "er/entity.h"
#include "er/match_result.h"
#include "er/matcher.h"

namespace perfbench {

/// Totals of one decorated interface.
struct CallTotals {
  int64_t calls = 0;
  /// Matcher: pairs accepted. Blocking: unused.
  int64_t accepts = 0;
  /// Summed wall time inside the wrapped calls, across all threads and
  /// worker processes (thread-time, not elapsed time).
  int64_t busy_ns = 0;
};

/// Lock-free call counters, sharded by thread so parallel reduce tasks do
/// not contend on one cache line.
class CallCounters {
 public:
  void Record(int64_t busy_ns, bool accepted);
  CallTotals Total() const;
  void Reset();

 private:
  static constexpr int kSlots = 64;
  struct alignas(64) Slot {
    std::atomic<int64_t> calls{0};
    std::atomic<int64_t> accepts{0};
    std::atomic<int64_t> busy_ns{0};
  };
  Slot slots_[kSlots];
};

/// The matcher and blocking counters in one MAP_SHARED anonymous mapping,
/// created before any worker process is forked.
class SharedCounters {
 public:
  SharedCounters();
  ~SharedCounters();
  SharedCounters(const SharedCounters&) = delete;
  SharedCounters& operator=(const SharedCounters&) = delete;

  CallCounters& matcher() { return region_->matcher; }
  CallCounters& blocking() { return region_->blocking; }

 private:
  struct Region {
    CallCounters matcher;
    CallCounters blocking;
  };
  Region* region_;
};

/// Counts and times every Match call of `inner`.
class TimedMatcher : public erlb::er::Matcher {
 public:
  TimedMatcher(const erlb::er::Matcher* inner, CallCounters* counters)
      : inner_(inner), counters_(counters) {}
  bool Match(const erlb::er::Entity& a,
             const erlb::er::Entity& b) const override;
  double Similarity(const erlb::er::Entity& a,
                    const erlb::er::Entity& b) const override {
    return inner_->Similarity(a, b);
  }
  std::string Describe() const override { return inner_->Describe(); }

 private:
  const erlb::er::Matcher* inner_;
  CallCounters* counters_;
};

/// Counts and times every Key call of `inner`.
class TimedBlocking : public erlb::er::BlockingFunction {
 public:
  TimedBlocking(const erlb::er::BlockingFunction* inner,
                CallCounters* counters)
      : inner_(inner), counters_(counters) {}
  std::string Key(const erlb::er::Entity& e) const override;
  std::string Describe() const override { return inner_->Describe(); }

 private:
  const erlb::er::BlockingFunction* inner_;
  CallCounters* counters_;
};

/// Adds the er.matcher_* and er.blocking_* per-layer metrics.
void AddCallMetrics(const CallTotals& matcher, const CallTotals& blocking,
                    erlb::Json* layers);

/// Runs `reps` timed set-ups on each of `threads` threads at once and
/// returns the median over threads of each thread's median seconds, or
/// the first error. On a shared host the cores' speeds differ and a lone
/// thread rarely migrates; sampling every core at once, and taking the
/// median of per-core medians, keeps the figure from flipping with the
/// core the process happened to start on.
erlb::Result<double> MedianOnAllCores(
    uint32_t threads, int reps,
    const std::function<erlb::Result<double>(uint32_t thread)>& setup);

/// User + system CPU seconds of this process plus its reaped children.
double ProcessTreeCpuSeconds();

/// Peak resident set of this process plus its largest reaped child, in
/// MiB (the bench_external convention for forked worker processes).
double ProcessTreePeakRssMb();

/// Quantile `q` in [0,1] of `values` by linear interpolation (0 if empty).
double Quantile(std::vector<double> values, double q);

/// FNV-1a digest over a sequence of 64-bit words.
class Digest {
 public:
  void Mix(uint64_t word);
  uint64_t value() const { return h_; }

 private:
  uint64_t h_ = 1469598103934665603ull;
};

/// Order-sensitive digest of a canonical match result.
uint64_t MatchDigest(const erlb::er::MatchResult& matches);

/// Matches within blocks of `entities` — core::ReferenceDeduplicate run on
/// four threads: the input is cut into eight chunks, each chunk is
/// deduplicated, each chunk pair is linked (core::ReferenceLink), and the
/// union is canonicalized. Same pairs as the sequential call.
erlb::er::MatchResult ParallelReference(
    const std::vector<erlb::er::Entity>& entities,
    const erlb::er::BlockingFunction& blocking,
    const erlb::er::Matcher& matcher);

/// Prints `result` as one compact JSON line on stdout.
void PrintResult(const erlb::Json& result);

}  // namespace perfbench

#endif  // PERFBENCH_COMMON_H_
