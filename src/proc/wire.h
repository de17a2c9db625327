// Length-prefixed frame protocol for the coordinator <-> worker control
// channel of the multi-process execution mode (proc/coordinator.h).
//
// Control flow is tiny and infrequent (task assignment, heartbeat,
// completion/error status); the data plane never touches these frames —
// spill runs and commit records travel through the shared job directory.
// A frame on the wire is
//
//   u32 length | u8 type | payload          (length = 1 + payload bytes)
//
// with all integers little-endian, matching the SpillCodec convention so
// the whole system has one byte-order story. The parser is incremental:
// the coordinator reads nonblocking sockets and feeds whatever bytes
// arrive; frames pop out as they complete.
#ifndef ERLB_PROC_WIRE_H_
#define ERLB_PROC_WIRE_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

#include "common/status.h"

namespace erlb {
namespace proc {

/// Control-frame types. Parent -> worker: kAssign, kShutdown.
/// Worker -> parent: kHeartbeat, kDone, kFailed.
/// Types 16+ belong to the erlb_serve daemon protocol (serve/protocol.h),
/// which reuses this framing so the whole system has one wire story.
enum class FrameType : uint8_t {
  kAssign = 1,     // u32 phase | u32 task | bytes payload
  kShutdown = 2,   // empty — worker exits cleanly
  kHeartbeat = 3,  // u32 phase | u32 task — about to run this task
  kDone = 4,       // u32 phase | u32 task — result committed to disk
  kFailed = 5,     // u32 phase | u32 task | u32 code | bytes message
  // erlb_serve daemon (client -> server):
  kServeProbe = 16,  // u32 count | count x entity — probe-linkage batch
  kServeAdmin = 17,  // u8 op | op-specific body (serve/protocol.h)
  // erlb_serve daemon (server -> client):
  kServeResult = 18,  // u64 count | count x (u64 a, u64 b) match pairs
  kServeAck = 19,     // op-specific body (stats, counts); empty = plain ok
  kServeError = 20,   // u32 status code | bytes message
};

struct Frame {
  FrameType type = FrameType::kShutdown;
  std::string payload;
};

/// Upper bound on a single frame's payload; anything larger is a
/// protocol error (assignment payloads are extent tables, a few KiB at
/// most — a giant length prefix means a corrupt or hostile stream).
inline constexpr uint32_t kMaxFramePayload = 1u << 26;

// Payload building blocks (little-endian, like SpillCodec).
void PutU32(uint32_t v, std::string* out);
void PutU64(uint64_t v, std::string* out);
/// u32 length prefix + raw bytes.
void PutBytes(std::string_view bytes, std::string* out);

/// Sequential reader over a payload; every Get returns false on
/// truncation and leaves the reader poisoned.
class PayloadReader {
 public:
  explicit PayloadReader(std::string_view payload)
      : p_(payload.data()), end_(payload.data() + payload.size()) {}

  [[nodiscard]] bool GetU32(uint32_t* v);
  [[nodiscard]] bool GetU64(uint64_t* v);
  [[nodiscard]] bool GetBytes(std::string* out);

  /// True iff every byte was consumed and nothing was truncated.
  [[nodiscard]] bool AtEnd() const { return ok_ && p_ == end_; }
  /// Bytes not yet consumed (0 once a read has failed).
  [[nodiscard]] size_t remaining() const {
    return ok_ ? static_cast<size_t>(end_ - p_) : 0;
  }

 private:
  const char* p_;
  const char* end_;
  bool ok_ = true;
};

/// Serializes one frame, ready for write(2)/send(2).
[[nodiscard]] std::string EncodeFrame(FrameType type,
                                      std::string_view payload);

/// Incremental frame decoder over an arbitrary byte stream.
class FrameParser {
 public:
  /// Appends raw bytes received from the peer.
  void Feed(const char* data, size_t n);

  /// Extracts the next complete frame. Returns false when more bytes are
  /// needed or the stream is poisoned (check status()).
  [[nodiscard]] bool Next(Frame* frame);

  /// Non-OK once an oversized or malformed length prefix was seen; the
  /// stream cannot be resynchronized after that.
  [[nodiscard]] const Status& status() const { return status_; }

 private:
  std::string buf_;
  size_t pos_ = 0;  // consumed prefix of buf_
  Status status_;
};

/// Blocking send of one frame over `fd`, handling EINTR and partial
/// writes. Uses MSG_NOSIGNAL so a dead peer surfaces as EPIPE instead of
/// killing the process with SIGPIPE.
[[nodiscard]] Status SendFrame(int fd, FrameType type,
                               std::string_view payload);

/// Blocking receive of one complete frame from `fd`. The caller owns the
/// parser and must reuse it across calls on the same fd: frames arrive
/// back-to-back, and bytes past the first frame stay buffered in
/// `parser` for the next call. IOError("peer closed") on clean EOF.
[[nodiscard]] Status RecvFrame(int fd, FrameParser* parser, Frame* frame);

}  // namespace proc
}  // namespace erlb

#endif  // ERLB_PROC_WIRE_H_
