#include "common/fault.h"

#include <chrono>
#include <csignal>
#include <cstdlib>
#include <thread>

#include "common/string_util.h"

namespace erlb {
namespace {

// Central registry of every fault site compiled into the tree, sorted.
// Adding an ERLB_FAULT_POINT without an entry here is a lint error
// (tools/lint_erlb.py), which keeps tests/test_fault_sweep.cc exhaustive.
constexpr std::string_view kRegisteredFaultSites[] = {
    "checkpoint.commit",  // mr/task_commit.cc: after a .done record's rename
    "checkpoint.load",    // mr/task_commit.cc: .done record read/validate
    "csv.read_chunk",     // common/csv.cc: chunked CSV ingest
    "io.read",            // common/io_buffer.cc: buffered file read
    "io.write",           // common/io_buffer.cc: buffered file write
    "serve.accept",       // serve/server.cc: daemon connection intake
    "serve.batch",        // serve/batcher.cc: probe-batch drain/dispatch
    "spill.append",       // mr/spill.h: record append to a run
    "spill.finish",       // mr/spill.h: run/file finalization
    "spill.open",         // mr/spill.h: spill file creation
    "spill.open_run",     // mr/spill.h: reduce-side run open
    "task.map",           // mr/job.h: start of every map task attempt
    "task.reduce",        // mr/job.h: start of every reduce task attempt
    "worker.result",      // proc/coordinator.cc: result frame intake
    "worker.run",         // proc/coordinator.cc: worker-side task dispatch
    "worker.spawn",       // proc/coordinator.cc: worker process spawn
};

}  // namespace

FaultInjector& FaultInjector::Global() {
  static FaultInjector* injector = new FaultInjector();
  return *injector;
}

std::vector<std::string_view> FaultInjector::RegisteredSites() {
  return {std::begin(kRegisteredFaultSites), std::end(kRegisteredFaultSites)};
}

bool FaultInjector::IsRegisteredSite(std::string_view site) {
  for (std::string_view s : kRegisteredFaultSites) {
    if (s == site) return true;
  }
  return false;
}

Status FaultInjector::HitSlow(std::string_view site) {
  FaultSpec fired;
  bool fire = false;
  {
    MutexLock lock(&mu_);
    auto it = sites_.find(site);
    if (it == sites_.end()) {
      it = sites_.emplace(std::string(site), SiteState{}).first;
    }
    SiteState& state = it->second;
    ++state.hits;
    if (state.armed && state.hits >= state.spec.trigger_hit) {
      fire = state.hits == state.spec.trigger_hit ||
             (state.spec.kind == FaultKind::kError && state.spec.repeat);
      if (fire && !state.spec.repeat) {
        state.armed = false;
        armed_count_.fetch_sub(1, std::memory_order_relaxed);
      }
      fired = state.spec;
    }
  }
  if (!fire) return Status::OK();
  switch (fired.kind) {
    case FaultKind::kError:
      return Status(fired.code, "injected fault at site '" +
                                    std::string(site) + "'");
    case FaultKind::kDelay:
      std::this_thread::sleep_for(std::chrono::milliseconds(fired.delay_ms));
      return Status::OK();
    case FaultKind::kAbort:
      std::abort();
    case FaultKind::kKill:
      (void)raise(SIGKILL);
      std::abort();  // unreachable; SIGKILL cannot be handled
  }
  return Status::OK();
}

Status FaultInjector::Arm(std::string_view site, const FaultSpec& spec) {
  if (!IsRegisteredSite(site)) {
    return Status::InvalidArgument("unknown fault site '" +
                                   std::string(site) + "'");
  }
  if (spec.trigger_hit == 0) {
    return Status::InvalidArgument("fault trigger_hit is 1-based; got 0");
  }
  MutexLock lock(&mu_);
  auto it = sites_.find(site);
  if (it == sites_.end()) {
    it = sites_.emplace(std::string(site), SiteState{}).first;
  }
  if (!it->second.armed) {
    armed_count_.fetch_add(1, std::memory_order_relaxed);
  }
  it->second.spec = spec;
  it->second.armed = true;
  return Status::OK();
}

void FaultInjector::Disarm(std::string_view site) {
  MutexLock lock(&mu_);
  auto it = sites_.find(site);
  if (it != sites_.end() && it->second.armed) {
    it->second.armed = false;
    armed_count_.fetch_sub(1, std::memory_order_relaxed);
  }
}

void FaultInjector::Reset() {
  MutexLock lock(&mu_);
  for (auto& [name, state] : sites_) {
    if (state.armed) armed_count_.fetch_sub(1, std::memory_order_relaxed);
    state.armed = false;
    state.hits = 0;
  }
}

uint64_t FaultInjector::HitCount(std::string_view site) const {
  MutexLock lock(&mu_);
  auto it = sites_.find(site);
  return it == sites_.end() ? 0 : it->second.hits;
}

Status FaultInjector::ConfigureFromString(std::string_view config) {
  for (const std::string& raw_entry : Split(config, ',')) {
    const std::string_view entry = TrimAscii(raw_entry);
    if (entry.empty()) continue;
    const size_t eq = entry.find('=');
    if (eq == std::string_view::npos) {
      return Status::InvalidArgument("fault spec entry '" +
                                     std::string(entry) +
                                     "' is not <site>=<kind>[@<hit>]");
    }
    const std::string_view site = entry.substr(0, eq);
    std::string_view rest = entry.substr(eq + 1);
    FaultSpec spec;
    const size_t at = rest.rfind('@');
    if (at != std::string_view::npos) {
      uint64_t hit = 0;
      for (char c : rest.substr(at + 1)) {
        if (c < '0' || c > '9') {
          return Status::InvalidArgument("bad fault trigger in '" +
                                         std::string(entry) + "'");
        }
        hit = hit * 10 + static_cast<uint64_t>(c - '0');
      }
      spec.trigger_hit = hit;
      rest = rest.substr(0, at);
    }
    if (rest == "error") {
      spec.kind = FaultKind::kError;
    } else if (rest == "error-repeat") {
      spec.kind = FaultKind::kError;
      spec.repeat = true;
    } else if (rest == "abort") {
      spec.kind = FaultKind::kAbort;
    } else if (rest == "kill") {
      spec.kind = FaultKind::kKill;
    } else if (rest.rfind("delay:", 0) == 0) {
      spec.kind = FaultKind::kDelay;
      uint64_t ms = 0;
      const std::string_view digits = rest.substr(6);
      if (digits.empty()) {
        return Status::InvalidArgument("bad delay in '" + std::string(entry) +
                                       "'");
      }
      for (char c : digits) {
        if (c < '0' || c > '9') {
          return Status::InvalidArgument("bad delay in '" +
                                         std::string(entry) + "'");
        }
        ms = ms * 10 + static_cast<uint64_t>(c - '0');
      }
      spec.delay_ms = ms;
    } else {
      return Status::InvalidArgument("unknown fault kind '" +
                                     std::string(rest) + "' in '" +
                                     std::string(entry) + "'");
    }
    ERLB_RETURN_NOT_OK(Arm(site, spec));
  }
  return Status::OK();
}

Status FaultInjector::ConfigureFromEnv() {
  const char* env = std::getenv("ERLB_FAULT");
  if (env == nullptr || *env == '\0') return Status::OK();
  return ConfigureFromString(env);
}

}  // namespace erlb
