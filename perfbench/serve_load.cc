// The serve_mixed workload: an in-process erlb_serve daemon (ServeSession
// + Server on a Unix socket, configured as examples/erlb_serve.cpp does)
// under a closed loop of kConnections clients. Each client sends one
// request at a time and waits for the reply; every kWriteEvery-th request
// is a write that alternately inserts a record and removes the record it
// inserted, so the corpus size stays steady. Inserted records carry a
// blocking key no probe shares, so every probe's matches are those of the
// base corpus — checked after the window against core::ReferenceLink.
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common.h"
#include "common/json.h"
#include "common/random.h"
#include "common/stopwatch.h"
#include "core/reference.h"
#include "er/blocking.h"
#include "er/matcher.h"
#include "gen/perturb.h"
#include "gen/product_gen.h"
#include "serve/protocol.h"
#include "serve/server.h"
#include "serve/session.h"
#include "workloads.h"

using namespace erlb;

namespace perfbench {

namespace {

constexpr int kConnections = 4;
constexpr uint64_t kCorpusSize = 20000;
constexpr int kWriteEvery = 10;
/// Daemon start-ups timed per thread for setup_s.
constexpr int kSetupReps = 150;
/// Distinct probes per connection; a connection cycles through its own.
constexpr size_t kProbesPerConnection = 5000;
constexpr uint64_t kProbeIdBase = 900000000;
constexpr uint64_t kInsertIdBase = 800000000;
/// tail_s is the p99 of each kTailGroup consecutively answered probes
/// (10 beyond each p99), median over the groups: a host stall of a
/// fraction of a second then moves one group's p99, not the run's.
constexpr size_t kTailGroup = 1000;

using Clock = std::chrono::steady_clock;

double MillisBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

int Fail(const std::string& message) {
  std::fprintf(stderr, "perfbench: %s\n", message.c_str());
  return 1;
}

struct Inputs {
  std::vector<er::Entity> corpus;
  /// kConnections * kProbesPerConnection probes; probe i has id
  /// kProbeIdBase + i and belongs to connection i / kProbesPerConnection.
  std::vector<er::Entity> probes;
};

Result<Inputs> MakeInputs(uint64_t seed) {
  gen::ProductConfig config;
  config.num_entities = kCorpusSize;
  config.duplicate_fraction = 0.0;
  config.seed = seed;
  Inputs inputs;
  ERLB_ASSIGN_OR_RETURN(inputs.corpus, gen::GenerateProducts(config));
  Pcg32 rng(seed * 2 + 1);
  for (size_t i = 0; i < kConnections * kProbesPerConnection; ++i) {
    const auto& base = inputs.corpus[rng.NextBounded(
        static_cast<uint32_t>(inputs.corpus.size()))];
    er::Entity probe;
    probe.id = kProbeIdBase + i;
    probe.fields = {gen::Perturb(base.title(), 2, 3, &rng)};
    inputs.probes.push_back(std::move(probe));
  }
  return inputs;
}

/// The record connection `conn` inserts with its `n`-th insert. The "~"
/// prefix gives it a blocking key no generated title has.
er::Entity InsertedRecord(int conn, uint64_t n) {
  er::Entity e;
  e.id = kInsertIdBase + static_cast<uint64_t>(conn) * 1000000 + n;
  const std::string number = std::to_string(n);
  e.fields = {std::string("~") + static_cast<char>('a' + conn) +
              "x inserted record " + number};
  return e;
}

/// A started daemon: the session and the server in front of it. The
/// server is declared last so it is destroyed first.
struct Daemon {
  std::unique_ptr<serve::ServeSession> session;
  std::unique_ptr<serve::Server> server;
};

/// Stops the server, then drops the session it serves.
void StopDaemon(Daemon* daemon) {
  daemon->server.reset();
  daemon->session.reset();
}

Result<Daemon> StartDaemon(const er::BlockingFunction* blocking,
                           const er::Matcher* matcher,
                           const std::vector<er::Entity>& corpus,
                           const std::string& socket_path) {
  serve::SessionOptions session_options;
  session_options.num_workers = 4;
  Daemon daemon;
  daemon.session = std::make_unique<serve::ServeSession>(blocking, matcher,
                                                         session_options);
  ERLB_RETURN_NOT_OK(daemon.session->Insert(corpus));
  serve::ServerOptions server_options;
  server_options.socket_path = socket_path;
  daemon.server =
      std::make_unique<serve::Server>(daemon.session.get(), server_options);
  ERLB_RETURN_NOT_OK(daemon.server->Start());
  return daemon;
}

/// What one client connection saw during the window.
struct ClientLog {
  std::vector<double> probe_ms;
  /// When each answered probe completed, parallel to probe_ms.
  std::vector<Clock::time_point> probe_done;
  std::vector<double> write_ms;
  /// (probe index, matches returned) for every answered probe.
  std::vector<std::pair<size_t, er::MatchResult>> answers;
  int64_t requests = 0;
  int64_t failures = 0;
  double codec_ms = 0;
};

void RunClient(int conn, const std::string& socket_path,
               const Inputs& inputs, Clock::time_point deadline,
               ClientLog* log) {
  auto fd = serve::Server::Connect(socket_path);
  if (!fd.ok()) {
    ++log->requests;
    ++log->failures;
    return;
  }
  proc::FrameParser parser;
  uint64_t probes_sent = 0, inserts = 0;
  bool holds_insert = false;
  for (int64_t i = 0; Clock::now() < deadline; ++i) {
    ++log->requests;
    if (i % kWriteEvery == kWriteEvery - 1) {
      const er::Entity record = InsertedRecord(conn, inserts);
      const std::string payload =
          holds_insert ? serve::EncodeRemoveRequest({record.id})
                       : serve::EncodeInsertRequest({record});
      const auto start = Clock::now();
      auto response = serve::RoundTrip(
          *fd, &parser, proc::FrameType::kServeAdmin, payload);
      log->write_ms.push_back(MillisBetween(start, Clock::now()));
      if (!response.ok() || response->type != proc::FrameType::kServeAck) {
        ++log->failures;
        continue;
      }
      if (holds_insert) ++inserts;
      holds_insert = !holds_insert;
      continue;
    }
    const size_t index =
        static_cast<size_t>(conn) * kProbesPerConnection +
        probes_sent++ % kProbesPerConnection;
    const auto start = Clock::now();
    const std::string payload =
        serve::EncodeProbeRequest({inputs.probes[index]});
    const auto sent = Clock::now();
    auto response = serve::RoundTrip(*fd, &parser,
                                     proc::FrameType::kServeProbe, payload);
    const auto received = Clock::now();
    if (!response.ok() || response->type != proc::FrameType::kServeResult) {
      ++log->failures;
      continue;
    }
    auto matches = serve::DecodeMatches(response->payload);
    const auto done = Clock::now();
    if (!matches.ok()) {
      ++log->failures;
      continue;
    }
    log->codec_ms += MillisBetween(start, sent) + MillisBetween(received, done);
    log->probe_ms.push_back(MillisBetween(start, done));
    log->probe_done.push_back(done);
    log->answers.emplace_back(index, std::move(*matches));
  }
  static_cast<void>(::close(*fd));
}

/// Outcome of one timed window against one daemon.
struct Window {
  /// Probe latencies of all connections, in the order the probes completed.
  std::vector<double> probe_ms;
  std::vector<double> write_ms;
  int64_t requests = 0;
  int64_t failures = 0;
  double codec_ms = 0;
  double seconds = 0;
  double cpu_s = 0;
  std::vector<std::pair<size_t, er::MatchResult>> answers;
  serve::BatcherStats batcher;
  serve::SessionStats session;
};

Window RunWindow(Daemon* daemon, const std::string& socket_path,
                 const Inputs& inputs, double seconds) {
  std::vector<ClientLog> logs(kConnections);
  const double cpu_before = ProcessTreeCpuSeconds();
  Stopwatch watch;
  const auto deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(seconds));
  std::vector<std::thread> clients;
  for (int c = 0; c < kConnections; ++c) {
    clients.emplace_back(RunClient, c, std::cref(socket_path),
                         std::cref(inputs), deadline, &logs[c]);
  }
  for (auto& client : clients) client.join();

  Window w;
  w.seconds = watch.ElapsedSeconds();
  w.cpu_s = ProcessTreeCpuSeconds() - cpu_before;
  w.batcher = daemon->server->batcher_stats();
  w.session = daemon->session->Stats();
  std::vector<std::pair<Clock::time_point, double>> probes;
  for (auto& log : logs) {
    for (size_t i = 0; i < log.probe_ms.size(); ++i) {
      probes.emplace_back(log.probe_done[i], log.probe_ms[i]);
    }
    w.write_ms.insert(w.write_ms.end(), log.write_ms.begin(),
                      log.write_ms.end());
    w.requests += log.requests;
    w.failures += log.failures;
    w.codec_ms += log.codec_ms;
    for (auto& answer : log.answers) w.answers.push_back(std::move(answer));
  }
  std::sort(probes.begin(), probes.end());
  for (const auto& probe : probes) w.probe_ms.push_back(probe.second);
  return w;
}

/// Median over groups of kTailGroup consecutive probes of each group's
/// p99; the plain p99 when there is not one full group.
double TailMs(const std::vector<double>& probe_ms) {
  std::vector<double> p99s;
  for (size_t begin = 0; begin + kTailGroup <= probe_ms.size();
       begin += kTailGroup) {
    p99s.push_back(Quantile(
        std::vector<double>(probe_ms.begin() + begin,
                            probe_ms.begin() + begin + kTailGroup),
        0.99));
  }
  return p99s.empty() ? Quantile(probe_ms, 0.99) : Quantile(p99s, 0.5);
}

/// Number of answered probes whose matches differ from
/// core::ReferenceLink(corpus, probe), computed on four threads.
int64_t WrongAnswers(const Window& w, const Inputs& inputs,
                     const er::BlockingFunction& blocking,
                     const er::Matcher& matcher) {
  std::set<size_t> used;
  for (const auto& answer : w.answers) used.insert(answer.first);
  std::vector<std::vector<er::Entity>> chunks(4);
  size_t k = 0;
  for (size_t index : used) {
    chunks[k++ % chunks.size()].push_back(inputs.probes[index]);
  }
  std::vector<er::MatchResult> references(chunks.size());
  std::vector<std::thread> threads;
  for (size_t c = 0; c < chunks.size(); ++c) {
    threads.emplace_back([&, c] {
      references[c] =
          core::ReferenceLink(inputs.corpus, chunks[c], blocking, matcher);
    });
  }
  for (auto& thread : threads) thread.join();

  std::map<uint64_t, std::vector<er::MatchPair>> expected;
  for (const auto& reference : references) {
    for (const auto& pair : reference.pairs()) {
      expected[std::max(pair.first, pair.second)].push_back(pair);
    }
  }
  int64_t wrong = 0;
  for (const auto& [index, matches] : w.answers) {
    er::MatchResult got = matches;
    got.Canonicalize();
    auto it = expected.find(inputs.probes[index].id);
    const std::vector<er::MatchPair> none;
    if (got.pairs() != (it == expected.end() ? none : it->second)) ++wrong;
  }
  return wrong;
}

}  // namespace

int RunServe(uint64_t seed, double seconds, bool traced,
             const std::string& dir) {
  auto inputs = MakeInputs(seed);
  if (!inputs.ok()) return Fail(inputs.status().ToString());
  er::PrefixBlocking plain_blocking(0, 3);
  er::EditDistanceMatcher plain_matcher(0.8);
  for (int c = 0; c < kConnections; ++c) {
    const std::string key = plain_blocking.Key(InsertedRecord(c, 0));
    for (const auto& probe : inputs->probes) {
      if (plain_blocking.Key(probe) == key) {
        return Fail("inserted key " + key + " collides with a probe");
      }
    }
  }
  const std::string socket_path = dir + "/daemon.sock";

  // setup_s: daemon start to ready (corpus load + Start), each set-up
  // thread on its own socket.
  auto setup_s = MedianOnAllCores(
      kConnections, kSetupReps, [&](uint32_t thread) -> Result<double> {
        Stopwatch watch;
        ERLB_ASSIGN_OR_RETURN(
            Daemon started,
            StartDaemon(&plain_blocking, &plain_matcher, inputs->corpus,
                        dir + "/setup-" + std::to_string(thread) + ".sock"));
        const double seconds = watch.ElapsedSeconds();
        StopDaemon(&started);
        return seconds;
      });
  if (!setup_s.ok()) return Fail(setup_s.status().ToString());
  auto daemon = StartDaemon(&plain_blocking, &plain_matcher, inputs->corpus,
                            socket_path);
  if (!daemon.ok()) return Fail(daemon.status().ToString());

  Window plain = RunWindow(&*daemon, socket_path, *inputs, seconds);
  StopDaemon(&*daemon);
  const double peak_rss_mb = ProcessTreePeakRssMb();
  int64_t failed = plain.failures +
                   WrongAnswers(plain, *inputs, plain_blocking, plain_matcher);
  int64_t attempted = plain.requests;
  if (plain.probe_ms.empty()) return Fail("no probe was answered");

  const double probe_p50_ms = Quantile(plain.probe_ms, 0.5);
  Json e2e = Json::Object{};
  e2e.Add("wall_s", probe_p50_ms / 1e3);
  e2e.Add("tail_s", TailMs(plain.probe_ms) / 1e3);
  e2e.Add("cpu_s", plain.cpu_s / static_cast<double>(plain.probe_ms.size()));
  e2e.Add("peak_rss_mb", peak_rss_mb);
  e2e.Add("setup_s", *setup_s);

  const auto& cache = plain.session.plan_cache;
  const uint64_t lookups = cache.hits + cache.misses;
  Json layers = Json::Object{};
  layers.Add("serve.probe_per_s",
             static_cast<double>(plain.probe_ms.size()) / plain.seconds);
  layers.Add("serve.write_p50_ms", Quantile(plain.write_ms, 0.5));
  layers.Add("serve.write_p95_ms", Quantile(plain.write_ms, 0.95));
  layers.Add("serve.batches", plain.batcher.batches);
  layers.Add("serve.probes_per_batch",
             plain.batcher.batches == 0
                 ? 0.0
                 : static_cast<double>(plain.batcher.probes) /
                       static_cast<double>(plain.batcher.batches));
  layers.Add("serve.largest_batch", plain.batcher.largest_batch);
  layers.Add("serve.plan_cache_hit_ratio",
             lookups == 0 ? 0.0
                          : static_cast<double>(cache.hits) /
                                static_cast<double>(lookups));
  layers.Add("serve.plan_cache_invalidations", cache.invalidations);
  layers.Add("serve.client_codec_us",
             plain.codec_ms * 1e3 /
                 static_cast<double>(plain.probe_ms.size()));

  if (traced) {
    // A second daemon over the decorated blocking function and matcher;
    // its window yields the er.* call profile and the tracing overhead.
    SharedCounters counters;
    TimedBlocking timed_blocking(&plain_blocking, &counters.blocking());
    TimedMatcher timed_matcher(&plain_matcher, &counters.matcher());
    auto timed_daemon = StartDaemon(&timed_blocking, &timed_matcher,
                                    inputs->corpus, socket_path);
    if (!timed_daemon.ok()) return Fail(timed_daemon.status().ToString());
    counters.matcher().Reset();
    counters.blocking().Reset();
    Window timed = RunWindow(&*timed_daemon, socket_path, *inputs, seconds);
    StopDaemon(&*timed_daemon);
    failed += timed.failures +
              WrongAnswers(timed, *inputs, plain_blocking, plain_matcher);
    attempted += timed.requests;
    if (timed.probe_ms.empty()) return Fail("no traced probe was answered");
    AddCallMetrics(counters.matcher().Total(), counters.blocking().Total(),
                   &layers);
    layers.Add("trace.overhead_ratio",
               Quantile(timed.probe_ms, 0.5) / probe_p50_ms);
  }

  Json out = Json::Object{};
  out.Add("attempted", attempted);
  out.Add("failed", failed);
  out.Add("probes", static_cast<uint64_t>(plain.probe_ms.size()));
  out.Add("writes", static_cast<uint64_t>(plain.write_ms.size()));
  out.Add("e2e", std::move(e2e));
  out.Add("layers", std::move(layers));
  PrintResult(out);
  return 0;
}

}  // namespace perfbench
