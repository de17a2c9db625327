// Serving subsystem tests: the resident ServeSession must answer probe
// batches without perturbing the corpus (differential against snapshots),
// enforce all-or-nothing admin mutations, and answer a repeated probe
// identically until the corpus changes; the Batcher must coalesce
// concurrent requests and slice results per caller; the wire codecs must
// round-trip; and the in-process server must serve the full socket
// protocol including both serve.* fault sites.
#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "common/fault.h"
#include "er/blocking.h"
#include "er/matcher.h"
#include "proc/wire.h"
#include "serve/batcher.h"
#include "serve/protocol.h"
#include "serve/server.h"
#include "serve/session.h"

namespace erlb {
namespace {

er::Entity MakeEntity(uint64_t id, std::string title) {
  er::Entity e;
  e.id = id;
  e.fields = {std::move(title)};
  return e;
}

class ServeTest : public ::testing::Test {
 protected:
  void TearDown() override { FaultInjector::Global().Reset(); }

  serve::SessionOptions SmallOptions() {
    serve::SessionOptions options;
    options.num_corpus_partitions = 2;
    options.num_reduce_tasks = 4;
    options.num_workers = 2;
    return options;
  }

  /// Seeds `session` with six products in three prefix blocks.
  void Seed(serve::ServeSession* session) {
    const std::vector<er::Entity> corpus = {
        MakeEntity(1, "alpha one"),   MakeEntity(2, "alpha two"),
        MakeEntity(3, "alpha three"), MakeEntity(4, "beta one"),
        MakeEntity(5, "beta two"),    MakeEntity(6, "gamma one")};
    ASSERT_TRUE(session->Insert(corpus).ok());
  }

  er::PrefixBlocking blocking_{0, 3};
  er::EditDistanceMatcher matcher_{0.8};
};

TEST_F(ServeTest, ProbeLinksAndLeavesCorpusByteIdentical) {
  serve::ServeSession session(&blocking_, &matcher_, SmallOptions());
  Seed(&session);
  const bdm::Bdm before_bdm = session.BdmSnapshot();
  const auto before_corpus = session.CorpusSnapshot();

  auto result = session.ProbeBatch({MakeEntity(100, "alpha one")});
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_EQ(result->size(), 1u);
  EXPECT_EQ(result->pairs()[0].first, 1u);
  EXPECT_EQ(result->pairs()[0].second, 100u);

  // Differential: the probe batch must not leave a trace.
  const bdm::Bdm after_bdm = session.BdmSnapshot();
  EXPECT_EQ(after_bdm.ContentHash(), before_bdm.ContentHash());
  EXPECT_EQ(after_bdm.TotalEntities(), before_bdm.TotalEntities());
  const auto after_corpus = session.CorpusSnapshot();
  ASSERT_EQ(after_corpus.size(), before_corpus.size());
  for (size_t i = 0; i < after_corpus.size(); ++i) {
    EXPECT_EQ(after_corpus[i].id, before_corpus[i].id);
    EXPECT_EQ(after_corpus[i].fields, before_corpus[i].fields);
  }
}

TEST_F(ServeTest, ProbesWithoutKeysAreSkippedNotFatal) {
  serve::ServeSession session(&blocking_, &matcher_, SmallOptions());
  Seed(&session);
  auto result =
      session.ProbeBatch({MakeEntity(100, ""), MakeEntity(101, "   ")});
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->empty());
  const auto stats = session.Stats();
  EXPECT_EQ(stats.probes_skipped, 2u);
  EXPECT_EQ(stats.probes_served, 0u);
}

TEST_F(ServeTest, ProbeIdCollisionIsRejectedWithoutSideEffects) {
  serve::ServeSession session(&blocking_, &matcher_, SmallOptions());
  Seed(&session);
  const uint64_t hash = session.BdmSnapshot().ContentHash();
  auto result = session.ProbeBatch(
      {MakeEntity(100, "alpha one"), MakeEntity(3, "beta one")});
  EXPECT_TRUE(result.status().IsInvalidArgument());
  EXPECT_EQ(session.BdmSnapshot().ContentHash(), hash);
}

TEST_F(ServeTest, InsertAndRemoveAreAllOrNothing) {
  serve::ServeSession session(&blocking_, &matcher_, SmallOptions());
  Seed(&session);
  const uint64_t hash = session.BdmSnapshot().ContentHash();

  // Duplicate id against the corpus fails the whole insert batch.
  EXPECT_TRUE(session
                  .Insert({MakeEntity(7, "delta one"),
                           MakeEntity(1, "delta two")})
                  .IsInvalidArgument());
  EXPECT_EQ(session.Stats().corpus_entities, 6u);
  EXPECT_EQ(session.BdmSnapshot().ContentHash(), hash);
  // Entity without a blocking key, same story.
  EXPECT_TRUE(session.Insert({MakeEntity(8, "")}).IsInvalidArgument());
  // Unknown id fails the whole remove batch.
  EXPECT_TRUE(session.Remove({6, 999}).IsNotFound());
  EXPECT_EQ(session.Stats().corpus_entities, 6u);
  EXPECT_EQ(session.BdmSnapshot().ContentHash(), hash);

  // A valid remove takes effect and the record stops matching.
  ASSERT_TRUE(session.Remove({1}).ok());
  EXPECT_EQ(session.Stats().corpus_entities, 5u);
  auto result = session.ProbeBatch({MakeEntity(100, "alpha one")});
  ASSERT_TRUE(result.ok());
  for (const auto& pair : result->pairs()) {
    EXPECT_NE(pair.first, 1u);
  }
}

TEST_F(ServeTest, RepeatedProbeIsStableUntilCorpusChanges) {
  serve::ServeSession session(&blocking_, &matcher_, SmallOptions());
  Seed(&session);
  auto first = session.ProbeBatch({MakeEntity(100, "alpha one")});
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  ASSERT_FALSE(first->empty());

  // Every batch plans afresh over the same BDM: identical pairs.
  auto repeat = session.ProbeBatch({MakeEntity(100, "alpha one")});
  ASSERT_TRUE(repeat.ok());
  EXPECT_EQ(repeat->pairs(), first->pairs());

  // A record that blocks (and matches) with the probe adds exactly one
  // pair, and keeps every earlier one.
  ASSERT_TRUE(session.Insert({MakeEntity(7, "alpha one")}).ok());
  auto after_insert = session.ProbeBatch({MakeEntity(100, "alpha one")});
  ASSERT_TRUE(after_insert.ok());
  ASSERT_EQ(after_insert->size(), first->size() + 1);
  er::MatchResult expected = *first;
  expected.Add(7, 100);
  EXPECT_TRUE(after_insert->SameAs(expected));

  // There is no plan cache: its counters stay zero.
  const serve::PlanCacheStats cache = session.Stats().plan_cache;
  EXPECT_EQ(cache.hits, 0u);
  EXPECT_EQ(cache.misses, 0u);
  EXPECT_EQ(cache.evictions, 0u);
  EXPECT_EQ(cache.invalidations, 0u);
  EXPECT_EQ(cache.entries, 0u);
}

TEST_F(ServeTest, BatcherCoalescesAndSlicesPerCaller) {
  serve::ServeSession session(&blocking_, &matcher_, SmallOptions());
  Seed(&session);
  serve::BatcherOptions options;
  options.max_batch_probes = 3;
  options.max_delay_ms = 200;
  serve::Batcher batcher(&session, options);

  // Three concurrent callers, each probing a different corpus record; the
  // size threshold (3 probes) fires one coalesced run.
  er::MatchResult results[3];
  Status statuses[3];
  const char* titles[3] = {"alpha one", "beta one", "gamma one"};
  const uint64_t expect_corpus[3] = {1, 4, 6};
  std::vector<std::thread> threads;
  for (int t = 0; t < 3; ++t) {
    threads.emplace_back([&, t] {
      auto r = batcher.Probe(
          {MakeEntity(100 + static_cast<uint64_t>(t), titles[t])});
      if (r.ok()) {
        results[t] = std::move(*r);
      } else {
        statuses[t] = r.status();
      }
    });
  }
  for (auto& thread : threads) thread.join();

  for (int t = 0; t < 3; ++t) {
    ASSERT_TRUE(statuses[t].ok()) << statuses[t].ToString();
    ASSERT_GE(results[t].size(), 1u) << "caller " << t;
    for (const auto& pair : results[t].pairs()) {
      // Every delivered pair involves this caller's probe id.
      EXPECT_EQ(pair.second, 100u + static_cast<uint64_t>(t));
      EXPECT_EQ(pair.first, expect_corpus[t]);
    }
  }
  batcher.Stop();
  const auto stats = batcher.Stats();
  EXPECT_EQ(stats.probes, 3u);
  EXPECT_LE(stats.batches, 3u);
  EXPECT_GE(stats.largest_batch, 1u);

  // Stopped batcher rejects new work.
  EXPECT_TRUE(batcher.Probe({MakeEntity(500, "alpha one")})
                  .status()
                  .IsFailedPrecondition());
  // Empty probe short-circuits regardless.
  EXPECT_TRUE(batcher.Probe({}).ok());
}

TEST_F(ServeTest, BatchFaultFailsRequestsButBatcherSurvives) {
  serve::ServeSession session(&blocking_, &matcher_, SmallOptions());
  Seed(&session);
  serve::BatcherOptions options;
  options.max_batch_probes = 1;
  serve::Batcher batcher(&session, options);

  FaultSpec spec;
  spec.code = StatusCode::kUnavailable;
  ASSERT_TRUE(FaultInjector::Global().Arm("serve.batch", spec).ok());

  auto failed = batcher.Probe({MakeEntity(100, "alpha one")});
  EXPECT_TRUE(failed.status().IsUnavailable())
      << failed.status().ToString();
  // One-shot fault: the next batch runs normally on the same drainer.
  auto ok = batcher.Probe({MakeEntity(101, "alpha one")});
  ASSERT_TRUE(ok.ok()) << ok.status().ToString();
  EXPECT_EQ(ok->size(), 1u);
}

TEST_F(ServeTest, ProtocolCodecsRoundTrip) {
  er::Entity entity = MakeEntity(42, "alpha one");
  entity.fields.push_back("second field");
  entity.cluster_id = 9;
  entity.source = er::Source::kS;

  // Probe request.
  auto probes = serve::DecodeProbeRequest(
      serve::EncodeProbeRequest({entity, MakeEntity(43, "beta")}));
  ASSERT_TRUE(probes.ok());
  ASSERT_EQ(probes->size(), 2u);
  EXPECT_EQ((*probes)[0].id, 42u);
  EXPECT_EQ((*probes)[0].fields, entity.fields);
  EXPECT_EQ((*probes)[0].cluster_id, 9u);
  EXPECT_EQ((*probes)[0].source, er::Source::kS);

  // Admin bodies (`body` borrows from the encoded frame, which must
  // outlive it — as the real server's Frame does).
  std::string_view body;
  const std::string insert_frame = serve::EncodeInsertRequest({entity});
  auto op = serve::DecodeAdminOp(insert_frame, &body);
  ASSERT_TRUE(op.ok());
  EXPECT_EQ(*op, serve::AdminOp::kInsert);
  auto entities = serve::DecodeInsertBody(body);
  ASSERT_TRUE(entities.ok());
  EXPECT_EQ(entities->at(0).id, 42u);

  const std::string remove_frame = serve::EncodeRemoveRequest({7, 8});
  op = serve::DecodeAdminOp(remove_frame, &body);
  ASSERT_TRUE(op.ok());
  EXPECT_EQ(*op, serve::AdminOp::kRemove);
  auto ids = serve::DecodeRemoveBody(body);
  ASSERT_TRUE(ids.ok());
  EXPECT_EQ(*ids, (std::vector<uint64_t>{7, 8}));

  // Matches.
  er::MatchResult matches;
  matches.Add(3, 100);
  matches.Add(5, 101);
  auto decoded = serve::DecodeMatches(serve::EncodeMatches(matches));
  ASSERT_TRUE(decoded.ok());
  EXPECT_TRUE(decoded->SameAs(matches));

  // Stats.
  serve::SessionStats stats;
  stats.corpus_entities = 6;
  stats.plan_cache.hits = 3;
  auto stats_rt = serve::DecodeStats(serve::EncodeStats(stats));
  ASSERT_TRUE(stats_rt.ok());
  EXPECT_EQ(stats_rt->corpus_entities, 6u);
  EXPECT_EQ(stats_rt->plan_cache.hits, 3u);

  // Errors.
  const Status carried = serve::DecodeError(
      serve::EncodeError(Status::NotFound("no such record")));
  EXPECT_TRUE(carried.IsNotFound());
  EXPECT_EQ(carried.message(), "no such record");

  // Malformed payloads are InvalidArgument, not crashes.
  EXPECT_TRUE(serve::DecodeProbeRequest("junk").status()
                  .IsInvalidArgument());
  EXPECT_TRUE(serve::DecodeMatches("x").status().IsInvalidArgument());
  EXPECT_TRUE(serve::DecodeAdminOp("", &body).status()
                  .IsInvalidArgument());
  // Op bytes outside the enum, and the retired plan-cache flush (4), are
  // unknown ops.
  for (const char op_byte : {'\x00', '\x04', '\x06'}) {
    EXPECT_TRUE(serve::DecodeAdminOp(std::string(1, op_byte), &body)
                    .status()
                    .IsInvalidArgument())
        << static_cast<int>(op_byte);
  }
  EXPECT_TRUE(serve::DecodeError("").IsInvalidArgument());
}

TEST_F(ServeTest, ProtocolRejectsCountsBeyondThePayload) {
  // Counts are bounded by the bytes left before anything is sized by
  // them: a short frame claiming 2^20 entities, ids or fields is
  // malformed.
  std::string probe;
  proc::PutU32(1u << 20, &probe);
  probe.append(16, '\0');
  EXPECT_TRUE(serve::DecodeProbeRequest(probe).status().IsInvalidArgument());

  std::string remove;
  proc::PutU32(1u << 20, &remove);
  remove.append(8, '\0');
  EXPECT_TRUE(serve::DecodeRemoveBody(remove).status().IsInvalidArgument());

  std::string fields;
  proc::PutU32(1, &fields);         // one entity
  proc::PutU64(42, &fields);        // id
  proc::PutU32(0, &fields);         // source R
  proc::PutU64(0, &fields);         // cluster
  proc::PutU32(1u << 20, &fields);  // field count
  proc::PutBytes("only one", &fields);
  EXPECT_TRUE(serve::DecodeProbeRequest(fields).status().IsInvalidArgument());
}

TEST_F(ServeTest, ProtocolCapsFieldsPerEntity) {
  // A well-formed entity with more than 2^20 (empty) fields is still
  // rejected: the cap bounds what one frame can make the server allocate.
  auto entity_with_fields = [](uint32_t nfields) {
    std::string frame;
    proc::PutU32(1, &frame);        // one entity
    proc::PutU64(42, &frame);       // id
    proc::PutU32(0, &frame);        // source R
    proc::PutU64(0, &frame);        // cluster
    proc::PutU32(nfields, &frame);  // field count
    for (uint32_t i = 0; i < nfields; ++i) proc::PutBytes("", &frame);
    return frame;
  };
  EXPECT_TRUE(serve::DecodeProbeRequest(entity_with_fields((1u << 20) + 1))
                  .status()
                  .IsInvalidArgument());
  auto at_cap = serve::DecodeProbeRequest(entity_with_fields(1u << 20));
  ASSERT_TRUE(at_cap.ok());
  EXPECT_EQ(at_cap->at(0).fields.size(), size_t{1} << 20);
}

TEST_F(ServeTest, ServerServesProtocolOverSocket) {
  serve::ServeSession session(&blocking_, &matcher_, SmallOptions());
  Seed(&session);
  serve::ServerOptions options;
  options.socket_path =
      "/tmp/erlb_test_serve_" + std::to_string(::getpid()) + ".sock";
  serve::Server server(&session, options);
  ASSERT_TRUE(server.Start().ok());

  // An armed intake fault drops exactly one connection; the client sees
  // EOF instead of a response, and the next connection works.
  FaultSpec spec;
  ASSERT_TRUE(FaultInjector::Global().Arm("serve.accept", spec).ok());
  {
    auto fd = serve::Server::Connect(options.socket_path);
    ASSERT_TRUE(fd.ok());
    proc::FrameParser parser;
    auto dropped = serve::RoundTrip(
        *fd, &parser, proc::FrameType::kServeAdmin,
        serve::EncodeAdminRequest(serve::AdminOp::kStats));
    EXPECT_FALSE(dropped.ok());
    static_cast<void>(::close(*fd));
  }

  auto fd = serve::Server::Connect(options.socket_path);
  ASSERT_TRUE(fd.ok()) << fd.status().ToString();
  proc::FrameParser parser;

  // Probe over the wire.
  auto response = serve::RoundTrip(
      *fd, &parser, proc::FrameType::kServeProbe,
      serve::EncodeProbeRequest({MakeEntity(100, "alpha one")}));
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  ASSERT_EQ(response->type, proc::FrameType::kServeResult);
  auto matches = serve::DecodeMatches(response->payload);
  ASSERT_TRUE(matches.ok());
  EXPECT_EQ(matches->size(), 1u);

  // A server-side error comes back as a kServeError frame = a non-OK
  // RoundTrip (remove of an unknown id).
  auto error = serve::RoundTrip(*fd, &parser, proc::FrameType::kServeAdmin,
                                serve::EncodeRemoveRequest({12345}));
  EXPECT_TRUE(error.status().IsNotFound()) << error.status().ToString();

  // The retired admin op 4 (plan-cache flush) is a typed error, sent as a
  // raw frame, and the session is left as it was.
  const uint64_t hash_before = session.BdmSnapshot().ContentHash();
  ASSERT_TRUE(proc::SendFrame(*fd, proc::FrameType::kServeAdmin,
                              std::string(1, '\x04'))
                  .ok());
  proc::Frame retired;
  ASSERT_TRUE(proc::RecvFrame(*fd, &parser, &retired).ok());
  EXPECT_EQ(retired.type, proc::FrameType::kServeError);
  EXPECT_TRUE(serve::DecodeError(retired.payload).IsInvalidArgument());
  EXPECT_EQ(session.BdmSnapshot().ContentHash(), hash_before);
  EXPECT_EQ(session.Stats().corpus_entities, 6u);

  // Stats over the wire reflect the traffic.
  response = serve::RoundTrip(
      *fd, &parser, proc::FrameType::kServeAdmin,
      serve::EncodeAdminRequest(serve::AdminOp::kStats));
  ASSERT_TRUE(response.ok());
  auto stats = serve::DecodeStats(response->payload);
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->corpus_entities, 6u);
  EXPECT_EQ(stats->probes_served, 1u);

  // Shutdown request releases WaitForShutdown.
  response = serve::RoundTrip(
      *fd, &parser, proc::FrameType::kServeAdmin,
      serve::EncodeAdminRequest(serve::AdminOp::kShutdown));
  ASSERT_TRUE(response.ok());
  static_cast<void>(::close(*fd));
  server.WaitForShutdown();
  server.Stop();
}

}  // namespace
}  // namespace erlb
