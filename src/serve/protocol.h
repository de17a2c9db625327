// erlb_serve request/response payloads over the proc/wire.h framing.
//
// One connection carries a sequence of request frames, each answered by
// exactly one response frame:
//
//   kServeProbe  u32 count | count x entity         -> kServeResult | kServeError
//   kServeAdmin  u8 op | op body                    -> kServeAck    | kServeError
//
//   entity       u64 id | u32 source | u64 cluster | u32 nfields
//                | nfields x (u32 len | bytes)
//   kServeResult u64 count | count x (u64 a, u64 b)
//   kServeAck    op-specific body (stats encodes SessionStats; other ops
//                reply empty)
//   kServeError  u32 status code | u32 len | bytes message
//
// All integers little-endian (the PutU32/PutU64 convention shared with
// the multi-process control channel and the spill format).
#ifndef ERLB_SERVE_PROTOCOL_H_
#define ERLB_SERVE_PROTOCOL_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "er/entity.h"
#include "er/match_result.h"
#include "proc/wire.h"
#include "serve/session.h"

namespace erlb {
namespace serve {

/// Admin operations (first payload byte of a kServeAdmin frame).
enum class AdminOp : uint8_t {
  kInsert = 1,    // u32 count | count x entity
  kRemove = 2,    // u32 count | count x u64 id
  kStats = 3,     // empty
  // 4 was the plan-cache flush; it is retired and rejected as unknown.
  kShutdown = 5,  // empty — daemon acks, then exits
};

// ---- requests -------------------------------------------------------------

[[nodiscard]] std::string EncodeProbeRequest(
    const std::vector<er::Entity>& probes);
[[nodiscard]] Result<std::vector<er::Entity>> DecodeProbeRequest(
    std::string_view payload);

[[nodiscard]] std::string EncodeInsertRequest(
    const std::vector<er::Entity>& entities);
[[nodiscard]] std::string EncodeRemoveRequest(
    const std::vector<uint64_t>& ids);
[[nodiscard]] std::string EncodeAdminRequest(AdminOp op);  // empty-body ops

/// Splits a kServeAdmin payload into its op byte + body.
[[nodiscard]] Result<AdminOp> DecodeAdminOp(std::string_view payload,
                                            std::string_view* body);
[[nodiscard]] Result<std::vector<er::Entity>> DecodeInsertBody(
    std::string_view body);
[[nodiscard]] Result<std::vector<uint64_t>> DecodeRemoveBody(
    std::string_view body);

// ---- responses ------------------------------------------------------------

[[nodiscard]] std::string EncodeMatches(const er::MatchResult& matches);
[[nodiscard]] Result<er::MatchResult> DecodeMatches(
    std::string_view payload);

[[nodiscard]] std::string EncodeStats(const SessionStats& stats);
[[nodiscard]] Result<SessionStats> DecodeStats(std::string_view payload);

[[nodiscard]] std::string EncodeError(const Status& status);
/// The Status carried by a kServeError payload (always non-OK);
/// InvalidArgument if the payload itself is malformed.
[[nodiscard]] Status DecodeError(std::string_view payload);

// ---- building blocks ------------------------------------------------------

void EncodeEntity(const er::Entity& entity, std::string* out);
[[nodiscard]] bool DecodeEntity(proc::PayloadReader* reader,
                                er::Entity* entity);

/// Client convenience: sends one request frame and receives its response,
/// translating kServeError into the carried Status. `parser` must be
/// reused across calls on the same fd (wire.h contract).
[[nodiscard]] Result<proc::Frame> RoundTrip(int fd,
                                            proc::FrameParser* parser,
                                            proc::FrameType type,
                                            std::string_view payload);

}  // namespace serve
}  // namespace erlb

#endif  // ERLB_SERVE_PROTOCOL_H_
