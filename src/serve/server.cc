#include "serve/server.h"

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/fault.h"
#include "common/logging.h"
#include "serve/protocol.h"

namespace erlb {
namespace serve {

namespace {

Status ErrnoStatus(const char* what) {
  return Status::IOError(std::string(what) + ": " +
                         std::strerror(errno));
}

Status FillAddress(const std::string& path, sockaddr_un* addr) {
  std::memset(addr, 0, sizeof(*addr));
  addr->sun_family = AF_UNIX;
  if (path.empty() || path.size() >= sizeof(addr->sun_path)) {
    return Status::InvalidArgument("bad socket path: \"" + path + "\"");
  }
  std::memcpy(addr->sun_path, path.data(), path.size());
  return Status::OK();
}

}  // namespace

Server::Server(ServeSession* session, ServerOptions options)
    : session_(session),
      options_(std::move(options)),
      batcher_(session, options_.batcher) {}

Server::~Server() { Stop(); }

Status Server::Start() {
  ERLB_CHECK(!started_);
  sockaddr_un addr;
  ERLB_RETURN_NOT_OK(FillAddress(options_.socket_path, &addr));
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) return ErrnoStatus("socket");
  // A stale socket file from a dead daemon would fail the bind.
  static_cast<void>(::unlink(options_.socket_path.c_str()));
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    const Status status = ErrnoStatus("bind");
    static_cast<void>(::close(fd));
    return status;
  }
  if (::listen(fd, 16) != 0) {
    const Status status = ErrnoStatus("listen");
    static_cast<void>(::close(fd));
    return status;
  }
  {
    MutexLock lock(&mu_);
    listen_fd_ = fd;
  }
  started_ = true;
  accept_thread_ = std::thread([this] { AcceptLoop(); });
  return Status::OK();
}

void Server::AcceptLoop() {
  while (true) {
    int listen_fd;
    {
      MutexLock lock(&mu_);
      if (stopping_) return;
      listen_fd = listen_fd_;
    }
    const int client = ::accept(listen_fd, nullptr, nullptr);
    if (client < 0) {
      if (errno == EINTR) continue;
      // Stop() shut the listener down; anything else is equally fatal
      // for the accept loop.
      return;
    }
    // An injected intake fault drops this one connection (the client
    // sees EOF); the daemon keeps serving everyone else.
    const Status intake = FaultInjector::Global().Hit("serve.accept");
    if (!intake.ok()) {
      static_cast<void>(::close(client));
      continue;
    }
    MutexLock lock(&mu_);
    if (stopping_) {
      static_cast<void>(::close(client));
      return;
    }
    conn_fds_.push_back(client);
    conn_threads_.emplace_back(
        [this, client] { HandleConnection(client); });
  }
}

Status Server::HandleFrame(int fd, const proc::Frame& frame,
                           bool* shutdown) {
  switch (frame.type) {
    case proc::FrameType::kServeProbe: {
      Result<std::vector<er::Entity>> probes =
          DecodeProbeRequest(frame.payload);
      if (!probes.ok()) {
        return proc::SendFrame(fd, proc::FrameType::kServeError,
                               EncodeError(probes.status()));
      }
      Result<er::MatchResult> matches =
          batcher_.Probe(std::move(*probes));
      if (!matches.ok()) {
        return proc::SendFrame(fd, proc::FrameType::kServeError,
                               EncodeError(matches.status()));
      }
      return proc::SendFrame(fd, proc::FrameType::kServeResult,
                             EncodeMatches(*matches));
    }
    case proc::FrameType::kServeAdmin: {
      std::string_view body;
      Result<AdminOp> op = DecodeAdminOp(frame.payload, &body);
      if (!op.ok()) {
        return proc::SendFrame(fd, proc::FrameType::kServeError,
                               EncodeError(op.status()));
      }
      Status result;
      std::string ack;
      switch (*op) {
        case AdminOp::kInsert: {
          Result<std::vector<er::Entity>> entities = DecodeInsertBody(body);
          result = entities.ok() ? session_->Insert(*entities)
                                 : entities.status();
          break;
        }
        case AdminOp::kRemove: {
          Result<std::vector<uint64_t>> ids = DecodeRemoveBody(body);
          result = ids.ok() ? session_->Remove(*ids) : ids.status();
          break;
        }
        case AdminOp::kStats:
          ack = EncodeStats(session_->Stats());
          break;
        case AdminOp::kShutdown:
          *shutdown = true;
          break;
      }
      if (!result.ok()) {
        return proc::SendFrame(fd, proc::FrameType::kServeError,
                               EncodeError(result));
      }
      return proc::SendFrame(fd, proc::FrameType::kServeAck, ack);
    }
    default:
      return proc::SendFrame(
          fd, proc::FrameType::kServeError,
          EncodeError(Status::InvalidArgument(
              "unexpected frame type " +
              std::to_string(static_cast<int>(frame.type)))));
  }
}

void Server::HandleConnection(int fd) {
  proc::FrameParser parser;
  bool shutdown = false;
  while (!shutdown) {
    proc::Frame frame;
    if (!proc::RecvFrame(fd, &parser, &frame).ok()) break;
    if (!HandleFrame(fd, frame, &shutdown).ok()) break;
  }
  MutexLock lock(&mu_);
  if (shutdown) {
    shutdown_requested_ = true;
    shutdown_cv_.NotifyAll();
  }
  conn_fds_.erase(std::remove(conn_fds_.begin(), conn_fds_.end(), fd),
                  conn_fds_.end());
  static_cast<void>(::close(fd));
}

void Server::WaitForShutdown() {
  MutexLock lock(&mu_);
  while (!shutdown_requested_) shutdown_cv_.Wait(&mu_);
}

void Server::Stop() {
  if (!started_ || stopped_) return;
  stopped_ = true;
  {
    MutexLock lock(&mu_);
    stopping_ = true;
    shutdown_requested_ = true;
    shutdown_cv_.NotifyAll();
    // Wakes the blocked accept(2); the loop exits on its error return.
    static_cast<void>(::shutdown(listen_fd_, SHUT_RDWR));
    // Wakes connection threads blocked in recv(2) with EOF.
    for (int fd : conn_fds_) {
      static_cast<void>(::shutdown(fd, SHUT_RDWR));
    }
  }
  accept_thread_.join();
  // Connection threads deregister themselves; joining drains the set.
  // New entries cannot appear: the accept loop is gone.
  std::vector<std::thread> threads;
  {
    MutexLock lock(&mu_);
    threads.swap(conn_threads_);
  }
  for (auto& t : threads) t.join();
  {
    MutexLock lock(&mu_);
    static_cast<void>(::close(listen_fd_));
    listen_fd_ = -1;
  }
  static_cast<void>(::unlink(options_.socket_path.c_str()));
  batcher_.Stop();
}

Result<int> Server::Connect(const std::string& socket_path) {
  sockaddr_un addr;
  ERLB_RETURN_NOT_OK(FillAddress(socket_path, &addr));
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) return ErrnoStatus("socket");
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                sizeof(addr)) != 0) {
    const Status status = ErrnoStatus("connect");
    static_cast<void>(::close(fd));
    return status;
  }
  return fd;
}

}  // namespace serve
}  // namespace erlb
