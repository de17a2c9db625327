// On-disk spill format for out-of-core shuffles.
//
// In external execution mode (mr/job.h) each map task writes its sorted,
// partitioned output to one spill file instead of keeping it in RAM —
// exactly Hadoop's map-side spill + index file. The file holds the task's
// r runs back to back, one per reduce task, each run sorted by the job's
// key order:
//
//   file   := (run_0 footer_0) (run_1 footer_1) ... (run_{r-1} footer_{r-1})
//   run    := record*
//   record := u32 payload_length | payload          (little-endian)
//   payload:= SpillCodec<K>::Encode ++ SpillCodec<V>::Encode
//   footer := u32 magic "RUNF" | u64 records | u64 fnv1a(run bytes)
//
// The per-run extents (offset, bytes, records) stay in memory in a
// SpillFile — the analogue of Hadoop's spill.index — so reduce task t can
// open a RunCursor at its run in every map task's file and stream it
// through the external k-way merge (mr/merge.h) with one I/O buffer per
// cursor, never materializing the run.
//
// Serialization is supplied by SpillCodec<T> specializations. This header
// covers the building blocks (integral/enum/float types, std::string,
// std::pair, std::vector); composite application types add their own
// specializations next to their definition (er/entity_spill.h,
// lb/spill_codec.h). A type is "spillable" iff SpillCodec<T> exists —
// mr/job.h detects this at compile time and only then offers the external
// path for a job's intermediate key/value types.
#ifndef ERLB_MR_SPILL_H_
#define ERLB_MR_SPILL_H_

#include <concepts>
#include <cstdint>
#include <cstring>
#include <limits>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/fault.h"
#include "common/hash.h"
#include "common/io_buffer.h"
#include "common/result.h"
#include "common/status.h"

namespace erlb {
namespace mr {

// ---- Codec ----------------------------------------------------------------

/// Primary template, deliberately undefined: specialize for every
/// spillable type with
///   static void Encode(const T&, std::string* out);     // append bytes
///   static bool Decode(const char** p, const char* end, T* v);
///   static size_t ApproxBytes(const T&);                // size estimate
template <typename T, typename Enable = void>
struct SpillCodec;

namespace spill_internal {

inline void AppendRaw(const void* data, size_t n, std::string* out) {
  out->append(static_cast<const char*>(data), n);
}

template <typename T>
bool DecodeRaw(const char** p, const char* end, T* v) {
  if (static_cast<size_t>(end - *p) < sizeof(T)) return false;
  std::memcpy(v, *p, sizeof(T));
  *p += sizeof(T);
  return true;
}

}  // namespace spill_internal

/// Fixed-width little-endian codec for arithmetic and enum types.
template <typename T>
struct SpillCodec<T, std::enable_if_t<std::is_arithmetic_v<T> ||
                                      std::is_enum_v<T>>> {
  static void Encode(const T& v, std::string* out) {
    spill_internal::AppendRaw(&v, sizeof(T), out);
  }
  static bool Decode(const char** p, const char* end, T* v) {
    return spill_internal::DecodeRaw(p, end, v);
  }
  static size_t ApproxBytes(const T&) { return sizeof(T); }
};

/// Strings: u32 length + bytes.
template <>
struct SpillCodec<std::string> {
  static void Encode(const std::string& v, std::string* out) {
    uint32_t n = static_cast<uint32_t>(v.size());
    spill_internal::AppendRaw(&n, sizeof(n), out);
    out->append(v);
  }
  static bool Decode(const char** p, const char* end, std::string* v) {
    uint32_t n = 0;
    if (!spill_internal::DecodeRaw(p, end, &n)) return false;
    if (static_cast<size_t>(end - *p) < n) return false;
    v->assign(*p, n);
    *p += n;
    return true;
  }
  static size_t ApproxBytes(const std::string& v) {
    return sizeof(uint32_t) + v.size();
  }
};

template <typename A, typename B>
struct SpillCodec<std::pair<A, B>> {
  static void Encode(const std::pair<A, B>& v, std::string* out) {
    SpillCodec<A>::Encode(v.first, out);
    SpillCodec<B>::Encode(v.second, out);
  }
  static bool Decode(const char** p, const char* end, std::pair<A, B>* v) {
    return SpillCodec<A>::Decode(p, end, &v->first) &&
           SpillCodec<B>::Decode(p, end, &v->second);
  }
  static size_t ApproxBytes(const std::pair<A, B>& v) {
    return SpillCodec<A>::ApproxBytes(v.first) +
           SpillCodec<B>::ApproxBytes(v.second);
  }
};

template <typename T>
struct SpillCodec<std::vector<T>> {
  static void Encode(const std::vector<T>& v, std::string* out) {
    uint32_t n = static_cast<uint32_t>(v.size());
    spill_internal::AppendRaw(&n, sizeof(n), out);
    for (const T& e : v) SpillCodec<T>::Encode(e, out);
  }
  static bool Decode(const char** p, const char* end, std::vector<T>* v) {
    uint32_t n = 0;
    if (!spill_internal::DecodeRaw(p, end, &n)) return false;
    // Every element encodes to at least one byte, so a count beyond the
    // bytes left is corrupt — reject it before reserving.
    if (n > static_cast<size_t>(end - *p)) return false;
    v->clear();
    v->reserve(n);
    for (uint32_t i = 0; i < n; ++i) {
      T e;
      if (!SpillCodec<T>::Decode(p, end, &e)) return false;
      v->push_back(std::move(e));
    }
    return true;
  }
  static size_t ApproxBytes(const std::vector<T>& v) {
    size_t n = sizeof(uint32_t);
    for (const T& e : v) n += SpillCodec<T>::ApproxBytes(e);
    return n;
  }
};

/// True iff SpillCodec<T> is specialized (T can go through a spill file).
template <typename T>
concept Spillable = requires(const T& v, std::string* out, const char** p,
                             const char* end, T* dst) {
  { SpillCodec<T>::Encode(v, out) };
  { SpillCodec<T>::Decode(p, end, dst) } -> std::convertible_to<bool>;
  { SpillCodec<T>::ApproxBytes(v) } -> std::convertible_to<size_t>;
};

/// Estimated spill size of `v`: the codec's estimate when one exists,
/// sizeof(T) otherwise. Used by ExecutionMode::kAuto's input-size scan.
template <typename T>
size_t ApproxSpillBytes(const T& v) {
  if constexpr (Spillable<T>) {
    return SpillCodec<T>::ApproxBytes(v);
  } else {
    return sizeof(T);
  }
}

// ---- Run extents ----------------------------------------------------------

/// Byte range and record count of one run inside a spill file (the
/// in-memory analogue of one Hadoop spill.index entry). `bytes` counts
/// record data only; on disk every run is followed by a RunFooter.
struct RunExtent {
  uint64_t offset = 0;
  uint64_t bytes = 0;
  uint64_t records = 0;
};

/// Trailer written after every run's records: magic + record count +
/// FNV-1a checksum over the run's bytes (length prefixes included). Lets
/// a reader detect truncation and bit flips without trusting the
/// in-memory extents — which is what makes checkpointed spill files safe
/// to resume from after a crash.
struct RunFooter {
  uint64_t records = 0;
  uint64_t checksum = 0;
};

inline constexpr uint32_t kRunFooterMagic = 0x464E5552;  // "RUNF" LE
inline constexpr size_t kRunFooterBytes =
    sizeof(uint32_t) + 2 * sizeof(uint64_t);

inline void EncodeRunFooter(const RunFooter& footer, char out[]) {
  std::memcpy(out, &kRunFooterMagic, sizeof(kRunFooterMagic));
  std::memcpy(out + 4, &footer.records, sizeof(footer.records));
  std::memcpy(out + 12, &footer.checksum, sizeof(footer.checksum));
}

[[nodiscard]] inline bool DecodeRunFooter(const char in[], RunFooter* footer) {
  uint32_t magic = 0;
  std::memcpy(&magic, in, sizeof(magic));
  if (magic != kRunFooterMagic) return false;
  std::memcpy(&footer->records, in + 4, sizeof(footer->records));
  std::memcpy(&footer->checksum, in + 12, sizeof(footer->checksum));
  return true;
}

/// One map task's spill output: the file path plus its r run extents.
struct SpillFile {
  std::string path;
  std::vector<RunExtent> runs;

  /// On-disk size of the file: record bytes of every run plus the
  /// per-run footers (RunExtent::bytes counts records only).
  uint64_t TotalBytes() const {
    uint64_t n = runs.size() * kRunFooterBytes;
    for (const auto& r : runs) n += r.bytes;
    return n;
  }
};

/// Name of map task `task_index`'s spill file inside `dir`.
std::string SpillFilePath(const std::string& dir, uint32_t task_index);

// ---- Writer ---------------------------------------------------------------

/// Writes one map task's runs to its spill file. Usage:
///   SpillFileWriter<K, V> w;
///   w.Open(path, buffer_bytes);
///   for each reduce task p: w.BeginRun(); w.Append(rec)...;
///   SpillFile f = w.Finish();   // or propagate the error
template <typename K, typename V>
  requires Spillable<K> && Spillable<V>
class SpillFileWriter {
 public:
  [[nodiscard]] Status Open(const std::string& path, size_t buffer_bytes,
              uint64_t inject_failure_after_bytes = 0) {
    ERLB_FAULT_POINT("spill.open");
    file_.path = path;
    Status s = writer_.Open(path, buffer_bytes);
    if (!s.ok()) return s;
    if (inject_failure_after_bytes != 0) {
      writer_.InjectFailureAfter(inject_failure_after_bytes);
    }
    return Status::OK();
  }

  /// Starts the next run (in reduce-task order), sealing the previous
  /// run with its footer.
  [[nodiscard]] Status BeginRun() {
    ERLB_RETURN_NOT_OK(SealCurrentRun());
    RunExtent e;
    e.offset = writer_.bytes_written();
    file_.runs.push_back(e);
    run_hash_.Reset();
    in_run_ = true;
    return Status::OK();
  }

  /// Appends one record to the current run.
  [[nodiscard]] Status Append(const K& key, const V& value) {
    ERLB_FAULT_POINT("spill.append");
    // The length prefix is patched into the scratch buffer so the whole
    // record is one contiguous write and one checksum update — this is
    // the engine's hottest loop.
    scratch_.assign(sizeof(uint32_t), '\0');
    SpillCodec<K>::Encode(key, &scratch_);
    SpillCodec<V>::Encode(value, &scratch_);
    const size_t payload = scratch_.size() - sizeof(uint32_t);
    // The u32 framing caps one record at 4 GiB; a larger payload would
    // wrap the prefix and corrupt the file, so fail loudly instead.
    if (payload > std::numeric_limits<uint32_t>::max()) {
      return Status::InvalidArgument(
          "spill record exceeds the 4 GiB framing limit (" +
          std::to_string(payload) + " bytes)");
    }
    uint32_t len = static_cast<uint32_t>(payload);
    std::memcpy(scratch_.data(), &len, sizeof(len));
    Status s = writer_.Append(scratch_.data(), scratch_.size());
    if (!s.ok()) return s;
    run_hash_.Update(scratch_.data(), scratch_.size());
    RunExtent& run = file_.runs.back();
    run.bytes = writer_.bytes_written() - run.offset;
    ++run.records;
    return Status::OK();
  }

  /// Seals the last run, flushes (durably if `sync`), closes, and
  /// returns the extents. Checkpointed spill files pass sync = true so
  /// the bytes are on disk before the atomic rename publishes them.
  [[nodiscard]] Result<SpillFile> Finish(bool sync = false) {
    ERLB_FAULT_POINT("spill.finish");
    ERLB_RETURN_NOT_OK(SealCurrentRun());
    if (sync) {
      ERLB_RETURN_NOT_OK(writer_.Sync());
    }
    Status s = writer_.Close();
    if (!s.ok()) return s;
    return std::move(file_);
  }

  uint64_t bytes_written() const { return writer_.bytes_written(); }

 private:
  [[nodiscard]] Status SealCurrentRun() {
    if (!in_run_) return Status::OK();
    in_run_ = false;
    const RunExtent& run = file_.runs.back();
    char buf[kRunFooterBytes];
    EncodeRunFooter(RunFooter{run.records, run_hash_.Digest()}, buf);
    return writer_.Append(buf, sizeof(buf));
  }

  BufferedFileWriter writer_;
  SpillFile file_;
  std::string scratch_;
  StreamChecksum run_hash_;
  bool in_run_ = false;
};

// ---- Cursor ---------------------------------------------------------------

/// Streams one run of a spill file, record by record, through a bounded
/// read buffer. Satisfies the merge-source interface of
/// mr::LoserTreeMergeCursors (exhausted/head/Pop). A read or decode error
/// marks the cursor exhausted and is reported through status() — the
/// merge drains normally and the caller checks statuses afterwards.
template <typename K, typename V>
  requires Spillable<K> && Spillable<V>
class RunCursor {
 public:
  using value_type = std::pair<K, V>;

  RunCursor() = default;

  [[nodiscard]] Status Open(const std::string& path, const RunExtent& extent,
              size_t buffer_bytes) {
    ERLB_FAULT_POINT("spill.open_run");
    remaining_ = extent.records;
    bytes_left_ = extent.bytes;
    expected_records_ = extent.records;
    run_hash_.Reset();
    footer_checked_ = false;
    status_ = reader_.Open(path, buffer_bytes);
    if (!status_.ok()) {
      remaining_ = 0;
      return status_;
    }
    status_ = reader_.Seek(extent.offset);
    if (!status_.ok()) {
      remaining_ = 0;
      return status_;
    }
    Advance();
    return status_;
  }

  bool exhausted() const { return !has_cur_; }
  const value_type& head() const { return cur_; }

  value_type Pop() {
    value_type out = std::move(cur_);
    Advance();
    return out;
  }

  const Status& status() const { return status_; }

 private:
  void Advance() {
    has_cur_ = false;
    if (!status_.ok()) return;
    if (remaining_ == 0) {
      VerifyFooter();
      return;
    }
    uint32_t len = 0;
    // Validate every length prefix against the run extent before
    // allocating: a truncated or bit-flipped prefix must surface as a
    // clean IOError, never as a garbage-sized read.
    if (bytes_left_ < sizeof(len)) {
      status_ = Status::IOError("spill run truncated in " + reader_.path());
      return;
    }
    status_ = reader_.ReadExact(&len, sizeof(len));
    if (!status_.ok()) return;
    bytes_left_ -= sizeof(len);
    if (len > bytes_left_) {
      status_ = Status::IOError("spill record overruns its run in " +
                                reader_.path());
      return;
    }
    payload_.resize(len);
    status_ = reader_.ReadExact(payload_.data(), len);
    if (!status_.ok()) return;
    bytes_left_ -= len;
    run_hash_.Update(&len, sizeof(len));
    run_hash_.Update(payload_.data(), payload_.size());
    const char* p = payload_.data();
    const char* end = p + payload_.size();
    if (!SpillCodec<K>::Decode(&p, end, &cur_.first) ||
        !SpillCodec<V>::Decode(&p, end, &cur_.second) || p != end) {
      status_ = Status::IOError("corrupt spill record in " + reader_.path());
      return;
    }
    --remaining_;
    has_cur_ = true;
  }

  // Reads and checks the run footer once the records are consumed; the
  // count and checksum must match what was actually read.
  void VerifyFooter() {
    if (footer_checked_ || !status_.ok()) return;
    footer_checked_ = true;
    if (bytes_left_ != 0) {
      status_ = Status::IOError("spill run has trailing bytes in " +
                                reader_.path());
      return;
    }
    char buf[kRunFooterBytes];
    status_ = reader_.ReadExact(buf, sizeof(buf));
    if (!status_.ok()) {
      status_ = Status::IOError("spill run footer missing in " +
                                reader_.path() + ": " +
                                std::string(status_.message()));
      return;
    }
    RunFooter footer;
    if (!DecodeRunFooter(buf, &footer)) {
      status_ = Status::IOError("bad spill run footer magic in " +
                                reader_.path());
      return;
    }
    if (footer.records != expected_records_ ||
        footer.checksum != run_hash_.Digest()) {
      status_ = Status::IOError("spill run checksum mismatch in " +
                                reader_.path());
    }
  }

  BufferedFileReader reader_;
  uint64_t remaining_ = 0;
  uint64_t bytes_left_ = 0;
  uint64_t expected_records_ = 0;
  StreamChecksum run_hash_;
  bool footer_checked_ = false;
  value_type cur_{};
  bool has_cur_ = false;
  std::vector<char> payload_;
  Status status_;
};

}  // namespace mr
}  // namespace erlb

#endif  // ERLB_MR_SPILL_H_
