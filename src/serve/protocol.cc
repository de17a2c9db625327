#include "serve/protocol.h"

#include <utility>

namespace erlb {
namespace serve {

namespace {

constexpr uint32_t kMaxBatchEntities = 1u << 20;

// The fewest bytes each counted item can encode to. A count beyond
// remaining() / k is malformed and must not size an allocation.
constexpr size_t kMinFieldBytes = 4;    // u32 length prefix
constexpr size_t kMinEntityBytes = 24;  // id, source, cluster, nfields
constexpr size_t kIdBytes = 8;

Status Malformed(const char* what) {
  return Status::InvalidArgument(std::string("malformed serve payload: ") +
                                 what);
}

}  // namespace

void EncodeEntity(const er::Entity& entity, std::string* out) {
  proc::PutU64(entity.id, out);
  // The source tag travels as a u32 so the reader's primitives cover it.
  proc::PutU32(static_cast<uint32_t>(entity.source), out);
  proc::PutU64(entity.cluster_id, out);
  proc::PutU32(static_cast<uint32_t>(entity.fields.size()), out);
  for (const auto& field : entity.fields) proc::PutBytes(field, out);
}

bool DecodeEntity(proc::PayloadReader* reader, er::Entity* entity) {
  uint64_t id = 0;
  uint32_t source = 0;
  uint64_t cluster = 0;
  uint32_t nfields = 0;
  if (!reader->GetU64(&id) || !reader->GetU32(&source) || source > 1 ||
      !reader->GetU64(&cluster) || !reader->GetU32(&nfields) ||
      nfields > kMaxBatchEntities ||
      nfields > reader->remaining() / kMinFieldBytes) {
    return false;
  }
  entity->id = id;
  entity->source = static_cast<er::Source>(source);
  entity->cluster_id = cluster;
  entity->fields.clear();
  entity->fields.reserve(nfields);
  for (uint32_t i = 0; i < nfields; ++i) {
    std::string field;
    if (!reader->GetBytes(&field)) return false;
    entity->fields.push_back(std::move(field));
  }
  return true;
}

std::string EncodeProbeRequest(const std::vector<er::Entity>& probes) {
  std::string out;
  proc::PutU32(static_cast<uint32_t>(probes.size()), &out);
  for (const auto& p : probes) EncodeEntity(p, &out);
  return out;
}

Result<std::vector<er::Entity>> DecodeProbeRequest(
    std::string_view payload) {
  proc::PayloadReader reader(payload);
  uint32_t count = 0;
  if (!reader.GetU32(&count) || count > kMaxBatchEntities ||
      count > reader.remaining() / kMinEntityBytes) {
    return Malformed("probe count");
  }
  std::vector<er::Entity> probes(count);
  for (auto& p : probes) {
    if (!DecodeEntity(&reader, &p)) return Malformed("probe entity");
  }
  if (!reader.AtEnd()) return Malformed("trailing bytes");
  return probes;
}

std::string EncodeInsertRequest(const std::vector<er::Entity>& entities) {
  std::string out;
  out.push_back(static_cast<char>(AdminOp::kInsert));
  proc::PutU32(static_cast<uint32_t>(entities.size()), &out);
  for (const auto& e : entities) EncodeEntity(e, &out);
  return out;
}

std::string EncodeRemoveRequest(const std::vector<uint64_t>& ids) {
  std::string out;
  out.push_back(static_cast<char>(AdminOp::kRemove));
  proc::PutU32(static_cast<uint32_t>(ids.size()), &out);
  for (uint64_t id : ids) proc::PutU64(id, &out);
  return out;
}

std::string EncodeAdminRequest(AdminOp op) {
  return std::string(1, static_cast<char>(op));
}

Result<AdminOp> DecodeAdminOp(std::string_view payload,
                              std::string_view* body) {
  if (payload.empty()) return Malformed("empty admin frame");
  const auto op = static_cast<AdminOp>(static_cast<uint8_t>(payload[0]));
  switch (op) {
    case AdminOp::kInsert:
    case AdminOp::kRemove:
    case AdminOp::kStats:
    case AdminOp::kShutdown:
      *body = payload.substr(1);
      return op;
  }
  return Malformed("unknown admin op");
}

Result<std::vector<er::Entity>> DecodeInsertBody(std::string_view body) {
  // Same shape as a probe request body.
  return DecodeProbeRequest(body);
}

Result<std::vector<uint64_t>> DecodeRemoveBody(std::string_view body) {
  proc::PayloadReader reader(body);
  uint32_t count = 0;
  if (!reader.GetU32(&count) || count > kMaxBatchEntities ||
      count > reader.remaining() / kIdBytes) {
    return Malformed("remove count");
  }
  std::vector<uint64_t> ids(count);
  for (auto& id : ids) {
    if (!reader.GetU64(&id)) return Malformed("remove id");
  }
  if (!reader.AtEnd()) return Malformed("trailing bytes");
  return ids;
}

std::string EncodeMatches(const er::MatchResult& matches) {
  std::string out;
  proc::PutU64(matches.pairs().size(), &out);
  for (const auto& pair : matches.pairs()) {
    proc::PutU64(pair.first, &out);
    proc::PutU64(pair.second, &out);
  }
  return out;
}

Result<er::MatchResult> DecodeMatches(std::string_view payload) {
  proc::PayloadReader reader(payload);
  uint64_t count = 0;
  if (!reader.GetU64(&count) || count > proc::kMaxFramePayload / 16) {
    return Malformed("pair count");
  }
  er::MatchResult matches;
  for (uint64_t i = 0; i < count; ++i) {
    uint64_t a = 0;
    uint64_t b = 0;
    if (!reader.GetU64(&a) || !reader.GetU64(&b)) {
      return Malformed("pair");
    }
    matches.Add(a, b);
  }
  if (!reader.AtEnd()) return Malformed("trailing bytes");
  return matches;
}

std::string EncodeStats(const SessionStats& stats) {
  std::string out;
  proc::PutU64(stats.corpus_entities, &out);
  proc::PutU64(stats.corpus_blocks, &out);
  proc::PutU64(stats.probes_served, &out);
  proc::PutU64(stats.batches_run, &out);
  proc::PutU64(stats.probes_skipped, &out);
  proc::PutU64(stats.inserts, &out);
  proc::PutU64(stats.removes, &out);
  proc::PutU64(stats.plan_cache.hits, &out);
  proc::PutU64(stats.plan_cache.misses, &out);
  proc::PutU64(stats.plan_cache.evictions, &out);
  proc::PutU64(stats.plan_cache.invalidations, &out);
  proc::PutU64(stats.plan_cache.entries, &out);
  return out;
}

Result<SessionStats> DecodeStats(std::string_view payload) {
  proc::PayloadReader reader(payload);
  SessionStats stats;
  uint64_t* const fields[] = {
      &stats.corpus_entities,         &stats.corpus_blocks,
      &stats.probes_served,           &stats.batches_run,
      &stats.probes_skipped,          &stats.inserts,
      &stats.removes,                 &stats.plan_cache.hits,
      &stats.plan_cache.misses,       &stats.plan_cache.evictions,
      &stats.plan_cache.invalidations, &stats.plan_cache.entries,
  };
  for (uint64_t* field : fields) {
    if (!reader.GetU64(field)) return Malformed("stats field");
  }
  if (!reader.AtEnd()) return Malformed("trailing bytes");
  return stats;
}

std::string EncodeError(const Status& status) {
  std::string out;
  proc::PutU32(static_cast<uint32_t>(status.code()), &out);
  proc::PutBytes(status.message(), &out);
  return out;
}

Status DecodeError(std::string_view payload) {
  proc::PayloadReader reader(payload);
  uint32_t code = 0;
  std::string message;
  if (!reader.GetU32(&code) || !reader.GetBytes(&message) ||
      !reader.AtEnd()) {
    return Malformed("error frame");
  }
  if (code == static_cast<uint32_t>(StatusCode::kOk) ||
      code > static_cast<uint32_t>(StatusCode::kDeadlineExceeded)) {
    return Malformed("error code");
  }
  return Status(static_cast<StatusCode>(code), std::move(message));
}

Result<proc::Frame> RoundTrip(int fd, proc::FrameParser* parser,
                              proc::FrameType type,
                              std::string_view payload) {
  ERLB_RETURN_NOT_OK(proc::SendFrame(fd, type, payload));
  proc::Frame response;
  ERLB_RETURN_NOT_OK(proc::RecvFrame(fd, parser, &response));
  if (response.type == proc::FrameType::kServeError) {
    return DecodeError(response.payload);
  }
  return response;
}

}  // namespace serve
}  // namespace erlb
