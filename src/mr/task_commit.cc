#include "mr/task_commit.h"

#include <fcntl.h>
#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <utility>

#include "common/fault.h"
#include "common/hash.h"
#include "common/io_buffer.h"
#include "common/json.h"

namespace erlb {
namespace mr {

namespace {

void SyncDir(const std::string& dir) {
  // rename() persistence requires an fsync of the containing directory;
  // without it a power cut can forget the rename even though the data
  // blocks survived. Best-effort: some filesystems reject O_RDONLY
  // fsync on directories.
  int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  if (fd < 0) return;
  static_cast<void>(::fsync(fd));
  static_cast<void>(::close(fd));
}

Json CountersToJson(const Counters& counters) {
  Json::Object obj;
  for (const auto& [name, value] : counters.values()) {
    obj.emplace_back(name, Json(value));
  }
  return Json(std::move(obj));
}

bool CountersFromJson(const Json& json, Counters* counters) {
  if (!json.is_object()) return false;
  for (const auto& [name, value] : json.AsObject()) {
    if (!value.is_integer()) return false;
    counters->Increment(name, value.AsInt64());
  }
  return true;
}

bool GetInt(const Json& obj, std::string_view key, int64_t* out) {
  const Json* v = obj.Find(key);
  if (v == nullptr || !v->is_integer()) return false;
  *out = v->AsInt64();
  return true;
}

bool GetUint(const Json& obj, std::string_view key, uint64_t* out) {
  const Json* v = obj.Find(key);
  if (v == nullptr || !v->is_integer()) return false;
  *out = v->AsUint64();
  return true;
}

}  // namespace

namespace internal {

Status EnsureDirectory(const std::string& dir) {
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) {
    return Status::IOError("cannot create directory " + dir + ": " +
                           ec.message());
  }
  return Status::OK();
}

std::string PidTempPath(const std::string& final_path) {
  return final_path + ".tmp." + std::to_string(::getpid());
}

Status PublishFile(const std::string& tmp_path,
                   const std::string& final_path) {
  std::error_code ec;
  std::filesystem::rename(tmp_path, final_path, ec);
  if (ec) {
    return Status::IOError("cannot publish " + final_path + ": " +
                           ec.message());
  }
  return Status::OK();
}

}  // namespace internal

namespace {

constexpr int kRecordVersion = 1;

std::string RelativeTo(const std::string& dir, const std::string& path) {
  if (path.rfind(dir + "/", 0) == 0) return path.substr(dir.size() + 1);
  return path;
}

// Verifies that every run recorded in `file` sits inside the on-disk
// file with an intact footer (magic, record count, and offset layout) —
// the cheap structural check made before trusting a committed spill
// file. Does not decode records.
Status VerifySpillFileFooters(const SpillFile& file, size_t io_buffer_bytes) {
  BufferedFileReader reader;
  ERLB_RETURN_NOT_OK(reader.Open(file.path, io_buffer_bytes));
  uint64_t expected_offset = 0;
  for (const RunExtent& run : file.runs) {
    if (run.offset != expected_offset) {
      return Status::IOError("committed run layout mismatch in " +
                             file.path);
    }
    ERLB_RETURN_NOT_OK(reader.Seek(run.offset + run.bytes));
    char buf[kRunFooterBytes];
    ERLB_RETURN_NOT_OK(reader.ReadExact(buf, sizeof(buf)));
    RunFooter footer;
    if (!DecodeRunFooter(buf, &footer) || footer.records != run.records) {
      return Status::IOError("committed run footer mismatch in " +
                             file.path);
    }
    expected_offset = run.offset + run.bytes + kRunFooterBytes;
  }
  return Status::OK();
}

}  // namespace

std::string TaskCommitRecordPath(const std::string& dir,
                                 std::string_view kind, uint32_t task) {
  return dir + "/" + std::string(kind) + "-" + std::to_string(task) +
         ".done";
}

Status WriteTaskCommitRecord(const std::string& dir, std::string_view kind,
                             uint32_t task, uint64_t signature,
                             const TaskCommitRecord& record, bool durable) {
  Json root{Json::Object{}};
  root.Add("version", Json(kRecordVersion));
  root.Add("signature", Json(signature));
  root.Add("kind", Json(std::string(kind)));
  root.Add("task", Json(task));
  // Paths are stored relative to the job dir so a checkpoint directory
  // stays relocatable.
  root.Add("path", Json(RelativeTo(dir, record.file.path)));
  root.Add("input_records", Json(record.metrics.input_records));
  root.Add("output_records", Json(record.metrics.output_records));
  root.Add("groups", Json(record.metrics.groups));
  root.Add("duration_nanos", Json(record.metrics.duration_nanos));
  root.Add("spill_bytes", Json(record.metrics.spill_bytes));
  root.Add("attempts", Json(record.metrics.attempts));
  root.Add("counters", CountersToJson(record.metrics.counters));
  if (!record.side.path.empty()) {
    root.Add("side_path", Json(RelativeTo(dir, record.side.path)));
    root.Add("side_bytes", Json(record.side.bytes));
    root.Add("side_checksum", Json(record.side.checksum));
  }
  Json::Array runs;
  for (const RunExtent& run : record.file.runs) {
    runs.push_back(Json(Json::Array{Json(run.offset), Json(run.bytes),
                                    Json(run.records)}));
  }
  root.Add("runs", Json(std::move(runs)));
  const std::string text = root.Dump(2);

  const std::string final_path = TaskCommitRecordPath(dir, kind, task);
  const std::string tmp_path = internal::PidTempPath(final_path);
  BufferedFileWriter writer;
  ERLB_RETURN_NOT_OK(writer.Open(tmp_path, size_t{1} << 14));
  ERLB_RETURN_NOT_OK(writer.Append(text.data(), text.size()));
  if (durable) ERLB_RETURN_NOT_OK(writer.Sync());
  ERLB_RETURN_NOT_OK(writer.Close());
  ERLB_RETURN_NOT_OK(internal::PublishFile(tmp_path, final_path));
  if (durable) SyncDir(dir);
  // Past the rename the task is committed, so `kill@N` here leaves at
  // least N committed tasks behind regardless of scheduling.
  ERLB_FAULT_POINT("checkpoint.commit");
  return Status::OK();
}

Result<TaskCommitRecord> ReadTaskCommitRecord(const std::string& dir,
                                              std::string_view kind,
                                              uint32_t task,
                                              uint64_t signature,
                                              uint32_t expected_runs,
                                              size_t io_buffer_bytes) {
  ERLB_FAULT_POINT("checkpoint.load");
  const std::string path = TaskCommitRecordPath(dir, kind, task);
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return Status::NotFound("no commit record " + path);
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  auto parsed = Json::Parse(buf.str());
  if (!parsed.ok()) {
    return Status::IOError("commit record " + path + " does not parse: " +
                           std::string(parsed.status().message()));
  }
  const Json& root = *parsed;
  int64_t version = 0;
  uint64_t recorded_signature = 0;
  int64_t recorded_task = -1;
  const Json* recorded_kind = root.Find("kind");
  if (!GetInt(root, "version", &version) || version != kRecordVersion ||
      !GetUint(root, "signature", &recorded_signature) ||
      recorded_signature != signature || recorded_kind == nullptr ||
      !recorded_kind->is_string() || recorded_kind->AsString() != kind ||
      !GetInt(root, "task", &recorded_task) ||
      recorded_task != static_cast<int64_t>(task)) {
    return Status::IOError("commit record " + path +
                           " belongs to a different job or task");
  }
  const Json* file_path = root.Find("path");
  const Json* runs = root.Find("runs");
  if (file_path == nullptr || !file_path->is_string() || runs == nullptr ||
      !runs->is_array() || runs->AsArray().size() != expected_runs) {
    return Status::IOError("commit record " + path + " is malformed");
  }
  TaskCommitRecord record;
  record.file.path = dir + "/" + file_path->AsString();
  for (const Json& run : runs->AsArray()) {
    if (!run.is_array() || run.AsArray().size() != 3 ||
        !run.AsArray()[0].is_integer() || !run.AsArray()[1].is_integer() ||
        !run.AsArray()[2].is_integer()) {
      return Status::IOError("commit record " + path + " is malformed");
    }
    RunExtent extent;
    extent.offset = run.AsArray()[0].AsUint64();
    extent.bytes = run.AsArray()[1].AsUint64();
    extent.records = run.AsArray()[2].AsUint64();
    record.file.runs.push_back(extent);
  }
  TaskMetrics& tm = record.metrics;
  tm.task_index = task;
  const Json* counters = root.Find("counters");
  if (!GetInt(root, "input_records", &tm.input_records) ||
      !GetInt(root, "output_records", &tm.output_records) ||
      !GetInt(root, "groups", &tm.groups) ||
      !GetInt(root, "duration_nanos", &tm.duration_nanos) ||
      !GetInt(root, "spill_bytes", &tm.spill_bytes) ||
      !GetInt(root, "attempts", &tm.attempts) || counters == nullptr ||
      !CountersFromJson(*counters, &tm.counters)) {
    return Status::IOError("commit record " + path + " is malformed");
  }
  const Json* side_path = root.Find("side_path");
  if (side_path != nullptr) {
    if (!side_path->is_string() ||
        !GetUint(root, "side_bytes", &record.side.bytes) ||
        !GetUint(root, "side_checksum", &record.side.checksum)) {
      return Status::IOError("commit record " + path + " is malformed");
    }
    record.side.path = dir + "/" + side_path->AsString();
  }
  // The record is only as good as the bytes it points at.
  ERLB_RETURN_NOT_OK(VerifySpillFileFooters(record.file, io_buffer_bytes));
  return record;
}

Result<std::string> ReadSideOutputFile(const SideOutputFile& side) {
  std::ifstream in(side.path, std::ios::binary);
  if (!in) {
    return Status::IOError("cannot read side output " + side.path);
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  std::string bytes = std::move(buf).str();
  if (bytes.size() != side.bytes ||
      Fnv1aHash(bytes.data(), bytes.size()) != side.checksum) {
    return Status::IOError("side output " + side.path +
                           " does not match its recorded checksum");
  }
  return bytes;
}

}  // namespace mr
}  // namespace erlb
