// Per-task commit records: the one durable format of the MR runtime.
//
// Whenever a job's spill directory may be read by another process — a
// durable checkpoint directory (ExecutionOptions::checkpoint.dir) that a
// restarted job resumes from, or the shared job directory of the
// multi-process mode — every task commits independently:
//
//   <dir>/spill-<t>.run    map task t's spill file    (tmp.<pid> + rename)
//   <dir>/side-<t>.dat     task t's side output, when the spec has one
//   <dir>/map-<t>.done     the commit record — written LAST
//   <dir>/out-<t>.run      reduce task t's output run
//   <dir>/reduce-<t>.done  its commit record
//
// A `.done` record is published by an atomic tmp+rename after the task's
// data files were fully published, so it exists iff the task committed;
// it carries the job's input signature, the run extents, and the task
// metrics (user counters included — what keeps a resumed job's counters
// byte-identical to an uninterrupted run). "The record parses, the
// signature and run count match, and every recorded run has an intact
// footer on disk" is the definition of a committed task — for the
// single-process resume pass, for a live worker's DONE report, and for
// adopting work from a dead worker alike. Any damage or mismatch
// degrades to re-executing the task, never to corrupt output. Records
// and data files are fsynced only in a durable directory.
#ifndef ERLB_MR_TASK_COMMIT_H_
#define ERLB_MR_TASK_COMMIT_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "common/result.h"
#include "common/status.h"
#include "mr/metrics.h"
#include "mr/spill.h"

namespace erlb {
namespace mr {

/// Checkpoint knobs of a spilling job (ExecutionOptions.checkpoint).
struct CheckpointOptions {
  /// Root directory for durable spill files + commit records; empty
  /// disables checkpointing (the default: spills live in a scoped temp
  /// dir).
  std::string dir;
  /// Validate and reuse commit records left by a previous process. When
  /// false every task re-executes (overwriting its records as it goes).
  bool resume = true;
  /// Opaque input-identity string mixed into the records' signature
  /// (e.g. the serialized BdmFingerprint of the plan driving the job),
  /// guarding against resuming onto different input.
  std::string identity;
};

/// A map task's durable side-output file ("additional output" beyond
/// the spill stream, e.g. the BDM job's annotated partition). Empty
/// path means the task committed no side output.
struct SideOutputFile {
  std::string path;
  uint64_t bytes = 0;
  /// FNV-1a over the file contents, verified before a resumed job
  /// trusts the bytes.
  uint64_t checksum = 0;
};

/// Everything a `.done` record holds about one committed task.
struct TaskCommitRecord {
  SpillFile file;       ///< published data file + run extents
  TaskMetrics metrics;  ///< as measured by the committing process
  SideOutputFile side;  ///< empty path = the task has no side output
};

/// `<dir>/<kind>-<task>.done`; `kind` is "map" or "reduce".
[[nodiscard]] std::string TaskCommitRecordPath(const std::string& dir,
                                               std::string_view kind,
                                               uint32_t task);

/// Atomically publishes the commit record (tmp.<pid> write + rename).
/// `durable` adds fsync of the record and the directory — required when
/// `dir` is a checkpoint directory that must survive power loss, wasted
/// effort for a scoped temp dir that dies with the job.
[[nodiscard]] Status WriteTaskCommitRecord(const std::string& dir,
                                           std::string_view kind,
                                           uint32_t task, uint64_t signature,
                                           const TaskCommitRecord& record,
                                           bool durable);

/// Loads and validates task `task`'s commit record: the JSON must parse,
/// the signature and run count must match, and every recorded run must
/// sit inside the on-disk file with an intact footer. NotFound when no
/// record exists; any damage or mismatch is an error the caller treats
/// as "not committed".
[[nodiscard]] Result<TaskCommitRecord> ReadTaskCommitRecord(
    const std::string& dir, std::string_view kind, uint32_t task,
    uint64_t signature, uint32_t expected_runs, size_t io_buffer_bytes);

/// Reads back a committed side-output file, verifying size and checksum.
[[nodiscard]] Result<std::string> ReadSideOutputFile(
    const SideOutputFile& side);

namespace internal {

// Filesystem plumbing for the job driver (job.h is a header; these keep
// <filesystem> out of every consumer).
[[nodiscard]] Status EnsureDirectory(const std::string& dir);
/// `<final_path>.tmp.<pid>` — per-process temp names let a re-run of a
/// task race a stale worker's in-flight write; the last rename wins.
[[nodiscard]] std::string PidTempPath(const std::string& final_path);
/// rename(tmp_path, final_path) with a Status error.
[[nodiscard]] Status PublishFile(const std::string& tmp_path,
                                 const std::string& final_path);

}  // namespace internal

}  // namespace mr
}  // namespace erlb

#endif  // ERLB_MR_TASK_COMMIT_H_
