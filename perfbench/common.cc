#include "common.h"

#include <sys/mman.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <new>
#include <string>
#include <thread>

#include "common/logging.h"
#include "core/reference.h"

namespace perfbench {

namespace {

int64_t NowNanos() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// This thread's counter shard. Mixing in the pid keeps the threads of
/// different worker processes apart, which inherit the same counter.
int ThreadSlot(int slots) {
  static std::atomic<int> next{0};
  thread_local const int slot =
      static_cast<int>((static_cast<unsigned>(::getpid()) * 7u +
                        static_cast<unsigned>(next.fetch_add(1))) %
                       static_cast<unsigned>(slots));
  return slot;
}

double TimevalSeconds(const timeval& tv) {
  return static_cast<double>(tv.tv_sec) + tv.tv_usec / 1e6;
}

}  // namespace

void CallCounters::Record(int64_t busy_ns, bool accepted) {
  Slot& slot = slots_[ThreadSlot(kSlots)];
  slot.calls.fetch_add(1, std::memory_order_relaxed);
  if (accepted) slot.accepts.fetch_add(1, std::memory_order_relaxed);
  slot.busy_ns.fetch_add(busy_ns, std::memory_order_relaxed);
}

CallTotals CallCounters::Total() const {
  CallTotals total;
  for (const Slot& slot : slots_) {
    total.calls += slot.calls.load(std::memory_order_relaxed);
    total.accepts += slot.accepts.load(std::memory_order_relaxed);
    total.busy_ns += slot.busy_ns.load(std::memory_order_relaxed);
  }
  return total;
}

void CallCounters::Reset() {
  for (Slot& slot : slots_) {
    slot.calls.store(0, std::memory_order_relaxed);
    slot.accepts.store(0, std::memory_order_relaxed);
    slot.busy_ns.store(0, std::memory_order_relaxed);
  }
}

SharedCounters::SharedCounters() {
  static_assert(std::atomic<int64_t>::is_always_lock_free,
                "shared counters need lock-free 64-bit atomics");
  void* mem = ::mmap(nullptr, sizeof(Region), PROT_READ | PROT_WRITE,
                     MAP_SHARED | MAP_ANONYMOUS, -1, 0);
  ERLB_CHECK(mem != MAP_FAILED) << "mmap of shared counters failed";
  region_ = new (mem) Region();
}

SharedCounters::~SharedCounters() {
  region_->~Region();
  ::munmap(region_, sizeof(Region));
}

bool TimedMatcher::Match(const erlb::er::Entity& a,
                         const erlb::er::Entity& b) const {
  const int64_t start = NowNanos();
  const bool matched = inner_->Match(a, b);
  counters_->Record(NowNanos() - start, matched);
  return matched;
}

std::string TimedBlocking::Key(const erlb::er::Entity& e) const {
  const int64_t start = NowNanos();
  std::string key = inner_->Key(e);
  counters_->Record(NowNanos() - start, false);
  return key;
}

void AddCallMetrics(const CallTotals& matcher, const CallTotals& blocking,
                    erlb::Json* layers) {
  auto per_call = [&matcher](int64_t value) {
    return matcher.calls == 0 ? 0.0
                              : static_cast<double>(value) /
                                    static_cast<double>(matcher.calls);
  };
  layers->Add("er.blocking_calls", blocking.calls);
  layers->Add("er.blocking_busy_s", blocking.busy_ns / 1e9);
  layers->Add("er.matcher_calls", matcher.calls);
  layers->Add("er.matcher_busy_s", matcher.busy_ns / 1e9);
  layers->Add("er.matcher_ns_per_call", per_call(matcher.busy_ns));
  layers->Add("er.matcher_accept_ratio", per_call(matcher.accepts));
}

erlb::Result<double> MedianOnAllCores(
    uint32_t threads, int reps,
    const std::function<erlb::Result<double>(uint32_t thread)>& setup) {
  std::vector<std::vector<double>> samples(threads);
  std::vector<erlb::Status> status(threads);
  std::vector<std::thread> workers;
  for (uint32_t t = 0; t < threads; ++t) {
    workers.emplace_back([&, t] {
      for (int rep = 0; rep < reps; ++rep) {
        erlb::Result<double> seconds = setup(t);
        if (!seconds.ok()) {
          status[t] = seconds.status();
          return;
        }
        samples[t].push_back(*seconds);
      }
    });
  }
  for (auto& worker : workers) worker.join();
  std::vector<double> per_thread;
  for (uint32_t t = 0; t < threads; ++t) {
    ERLB_RETURN_NOT_OK(status[t]);
    per_thread.push_back(Quantile(samples[t], 0.5));
  }
  return Quantile(per_thread, 0.5);
}

double ProcessTreeCpuSeconds() {
  rusage self{}, children{};
  ERLB_CHECK(getrusage(RUSAGE_SELF, &self) == 0);
  ERLB_CHECK(getrusage(RUSAGE_CHILDREN, &children) == 0);
  return TimevalSeconds(self.ru_utime) + TimevalSeconds(self.ru_stime) +
         TimevalSeconds(children.ru_utime) +
         TimevalSeconds(children.ru_stime);
}

double ProcessTreePeakRssMb() {
  // This process's own peak comes from VmHWM: getrusage's ru_maxrss also
  // counts the resident set of whatever process forked this one before
  // its exec, which would hide a footprint smaller than the launcher's.
  long self_kb = -1;
  std::ifstream status("/proc/self/status");
  for (std::string line; std::getline(status, line);) {
    if (line.rfind("VmHWM:", 0) == 0) self_kb = std::stol(line.substr(6));
  }
  ERLB_CHECK(self_kb >= 0) << "no VmHWM in /proc/self/status";
  rusage children{};
  ERLB_CHECK(getrusage(RUSAGE_CHILDREN, &children) == 0);
  return static_cast<double>(self_kb + children.ru_maxrss) / 1024.0;
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (values[hi] - values[lo]) * (pos - lo);
}

void Digest::Mix(uint64_t word) {
  for (int i = 0; i < 8; ++i) {
    h_ ^= (word >> (8 * i)) & 0xff;
    h_ *= 1099511628211ull;
  }
}

uint64_t MatchDigest(const erlb::er::MatchResult& matches) {
  Digest digest;
  for (const auto& pair : matches.pairs()) {
    digest.Mix(pair.first);
    digest.Mix(pair.second);
  }
  return digest.value();
}

erlb::er::MatchResult ParallelReference(
    const std::vector<erlb::er::Entity>& entities,
    const erlb::er::BlockingFunction& blocking,
    const erlb::er::Matcher& matcher) {
  constexpr size_t kChunks = 8;
  constexpr unsigned kThreads = 4;
  std::vector<std::vector<erlb::er::Entity>> chunks(kChunks);
  for (size_t i = 0; i < entities.size(); ++i) {
    chunks[i % kChunks].push_back(entities[i]);
  }
  // Task (i, i) deduplicates chunk i; task (i, j), i < j, links chunks i
  // and j. Together they cover every within-block pair exactly once.
  std::vector<std::pair<size_t, size_t>> tasks;
  for (size_t i = 0; i < kChunks; ++i) {
    for (size_t j = i; j < kChunks; ++j) tasks.emplace_back(i, j);
  }
  std::vector<erlb::er::MatchResult> results(tasks.size());
  std::atomic<size_t> next{0};
  auto work = [&] {
    for (size_t t = next.fetch_add(1); t < tasks.size();
         t = next.fetch_add(1)) {
      const auto [i, j] = tasks[t];
      results[t] = i == j ? erlb::core::ReferenceDeduplicate(
                                chunks[i], blocking, matcher)
                          : erlb::core::ReferenceLink(chunks[i], chunks[j],
                                                      blocking, matcher);
    }
  };
  std::vector<std::thread> threads;
  for (unsigned k = 0; k < kThreads; ++k) threads.emplace_back(work);
  for (auto& thread : threads) thread.join();

  erlb::er::MatchResult all;
  for (const auto& result : results) all.Merge(result);
  all.Canonicalize();
  return all;
}

void PrintResult(const erlb::Json& result) {
  std::printf("%s\n", result.Dump().c_str());
  std::fflush(stdout);
}

}  // namespace perfbench
