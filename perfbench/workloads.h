// Entry points of erlb_perfbench's subcommands (see main.cc).
// Each prints one JSON line on stdout and returns the process exit code.
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>

namespace perfbench {

/// Batch workloads: writes `<dir>/input.csv` for `seed` and reports the
/// digest of its reference match result and clusters.
int PrepareBatch(const std::string& workload, uint64_t seed,
                 const std::string& dir);

/// One measured CSV -> clusters run over `<dir>/input.csv` with
/// `strategy` (empty = the workload's own). `traced` wraps the matcher
/// and blocking function in the timing decorators and adds the
/// per-layer breakdown and the simulator's prediction error.
int RunBatch(const std::string& workload, const std::string& dir,
             const std::string& strategy, bool traced);

/// The serve_mixed workload: an in-process daemon under a closed loop of
/// mixed probe/write traffic for `seconds`, probes checked afterwards.
int RunServe(uint64_t seed, double seconds, bool traced,
             const std::string& dir);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
