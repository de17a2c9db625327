// erlb_serve: the long-lived ER service — daemon and client CLI in one
// binary. The daemon holds a product corpus resident (entities + CSR
// BDM) and answers probe-linkage and admin requests over a Unix domain
// socket; the client subcommands speak the serve/protocol.h frames to a
// running daemon.
//
//   $ ./erlb_serve serve <socket> [corpus_size]   # prints "LISTENING <socket>"
//   $ ./erlb_serve probe <socket> <title>...
//   $ ./erlb_serve insert <socket> <id> <title>
//   $ ./erlb_serve remove <socket> <id>...
//   $ ./erlb_serve stats <socket>
//   $ ./erlb_serve shutdown <socket>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "er/blocking.h"
#include "er/matcher.h"
#include "gen/product_gen.h"
#include "serve/protocol.h"
#include "serve/server.h"
#include "serve/session.h"

using namespace erlb;

namespace {

int Usage() {
  std::fprintf(
      stderr,
      "usage: erlb_serve serve <socket> [corpus_size]\n"
      "       erlb_serve probe <socket> <title>...\n"
      "       erlb_serve insert <socket> <id> <title>\n"
      "       erlb_serve remove <socket> <id>...\n"
      "       erlb_serve stats|shutdown <socket>\n");
  return 2;
}

int Fail(const Status& status) {
  std::fprintf(stderr, "erlb_serve: %s\n", status.ToString().c_str());
  return 1;
}

int RunDaemon(const std::string& socket_path, uint64_t corpus_size) {
  static er::PrefixBlocking blocking(0, 3);
  static er::EditDistanceMatcher matcher(0.8);

  serve::SessionOptions session_options;
  serve::ServeSession session(&blocking, &matcher, session_options);

  gen::ProductConfig cfg;
  cfg.num_entities = corpus_size;
  cfg.duplicate_fraction = 0.0;
  cfg.seed = 51;
  auto corpus = gen::GenerateProducts(cfg);
  if (!corpus.ok()) return Fail(corpus.status());
  if (Status seeded = session.Insert(*corpus); !seeded.ok()) {
    return Fail(seeded);
  }

  serve::ServerOptions server_options;
  server_options.socket_path = socket_path;
  serve::Server server(&session, server_options);
  if (Status started = server.Start(); !started.ok()) {
    return Fail(started);
  }
  std::printf("LISTENING %s\n", socket_path.c_str());
  std::printf("corpus: %llu entities\n",
              static_cast<unsigned long long>(corpus->size()));
  std::fflush(stdout);
  server.WaitForShutdown();
  server.Stop();
  std::printf("daemon exiting\n");
  return 0;
}

/// Sends one request frame and prints the response; shared by every
/// client subcommand.
int RunClient(const std::string& socket_path, proc::FrameType type,
              const std::string& payload) {
  auto fd = serve::Server::Connect(socket_path);
  if (!fd.ok()) return Fail(fd.status());
  proc::FrameParser parser;
  auto response = serve::RoundTrip(*fd, &parser, type, payload);
  static_cast<void>(::close(*fd));
  if (!response.ok()) return Fail(response.status());

  switch (response->type) {
    case proc::FrameType::kServeResult: {
      auto matches = serve::DecodeMatches(response->payload);
      if (!matches.ok()) return Fail(matches.status());
      std::printf("pairs=%zu\n", matches->size());
      for (const auto& pair : matches->pairs()) {
        std::printf("%llu,%llu\n",
                    static_cast<unsigned long long>(pair.first),
                    static_cast<unsigned long long>(pair.second));
      }
      return 0;
    }
    case proc::FrameType::kServeAck: {
      if (response->payload.empty()) {
        std::printf("ok\n");
        return 0;
      }
      auto stats = serve::DecodeStats(response->payload);
      if (!stats.ok()) return Fail(stats.status());
      std::printf("corpus_entities=%llu\n"
                  "corpus_blocks=%llu\n"
                  "probes_served=%llu\n"
                  "batches_run=%llu\n"
                  "probes_skipped=%llu\n"
                  "inserts=%llu\n"
                  "removes=%llu\n",
                  static_cast<unsigned long long>(stats->corpus_entities),
                  static_cast<unsigned long long>(stats->corpus_blocks),
                  static_cast<unsigned long long>(stats->probes_served),
                  static_cast<unsigned long long>(stats->batches_run),
                  static_cast<unsigned long long>(stats->probes_skipped),
                  static_cast<unsigned long long>(stats->inserts),
                  static_cast<unsigned long long>(stats->removes));
      return 0;
    }
    default:
      return Fail(Status::InvalidArgument(
          "unexpected response frame type " +
          std::to_string(static_cast<int>(response->type))));
  }
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 3) return Usage();
  const std::string command = argv[1];
  const std::string socket_path = argv[2];

  if (command == "serve") {
    const uint64_t corpus_size =
        argc > 3 ? std::strtoull(argv[3], nullptr, 10) : 2000;
    return RunDaemon(socket_path, corpus_size);
  }
  if (command == "probe") {
    if (argc < 4) return Usage();
    // Probe ids live in a range far above the generator's corpus ids.
    std::vector<er::Entity> probes;
    for (int i = 3; i < argc; ++i) {
      er::Entity probe;
      probe.id = 900000000ull + static_cast<uint64_t>(i - 3);
      probe.fields = {argv[i]};
      probes.push_back(std::move(probe));
    }
    return RunClient(socket_path, proc::FrameType::kServeProbe,
                     serve::EncodeProbeRequest(probes));
  }
  if (command == "insert") {
    if (argc != 5) return Usage();
    er::Entity entity;
    entity.id = std::strtoull(argv[3], nullptr, 10);
    entity.fields = {argv[4]};
    return RunClient(socket_path, proc::FrameType::kServeAdmin,
                     serve::EncodeInsertRequest({entity}));
  }
  if (command == "remove") {
    if (argc < 4) return Usage();
    std::vector<uint64_t> ids;
    for (int i = 3; i < argc; ++i) {
      ids.push_back(std::strtoull(argv[i], nullptr, 10));
    }
    return RunClient(socket_path, proc::FrameType::kServeAdmin,
                     serve::EncodeRemoveRequest(ids));
  }
  if (command == "stats" || command == "shutdown") {
    const auto op = command == "stats" ? serve::AdminOp::kStats
                                       : serve::AdminOp::kShutdown;
    return RunClient(socket_path, proc::FrameType::kServeAdmin,
                     serve::EncodeAdminRequest(op));
  }
  return Usage();
}
