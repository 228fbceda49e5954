#include "net/fusion_server.h"

#include <arpa/inet.h>
#include <errno.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <string.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <mutex>
#include <unordered_map>

#include "common/string_util.h"
#include "core/fusion_method.h"
#include "persist/binary_io.h"

namespace fuser {
namespace net {
namespace {

using Clock = std::chrono::steady_clock;

Status Errno(const char* what) {
  return Status::IoError(StrFormat("%s: %s", what, strerror(errno)));
}

Status SetNonBlocking(int fd) {
  const int flags = fcntl(fd, F_GETFL, 0);
  if (flags < 0 || fcntl(fd, F_SETFL, flags | O_NONBLOCK) < 0) {
    return Errno("fcntl(O_NONBLOCK)");
  }
  return Status::OK();
}

/// The request's id is always the first payload field, so even a payload
/// that later fails to decode can usually be answered with the right id.
uint64_t PeekRequestId(const std::string& payload) {
  if (payload.size() < 8) return 0;
  return persist::LoadU64LE(payload.data());
}

}  // namespace

// ---------------------------------------------------------------------------
// Worker: one event-loop thread owning a set of connections.
// ---------------------------------------------------------------------------

class FusionServer::Worker {
 public:
  Worker(FusionServer* server, size_t max_payload_bytes)
      : server_(server), max_payload_bytes_(max_payload_bytes) {}

  ~Worker() {
    Join();
    for (auto& [fd, conn] : connections_) close(fd);
    if (wake_pipe_[0] >= 0) close(wake_pipe_[0]);
    if (wake_pipe_[1] >= 0) close(wake_pipe_[1]);
  }

  Status Start() {
    if (pipe(wake_pipe_) < 0) return Errno("pipe");
    FUSER_RETURN_IF_ERROR(SetNonBlocking(wake_pipe_[0]));
    FUSER_RETURN_IF_ERROR(SetNonBlocking(wake_pipe_[1]));
    thread_ = std::thread([this] { Loop(); });
    return Status::OK();
  }

  /// Called from the acceptor thread: hand over a freshly accepted fd.
  void Enqueue(int fd) {
    {
      std::lock_guard<std::mutex> lock(inbox_mu_);
      inbox_.push_back(fd);
    }
    Wake();
  }

  void RequestStop() {
    stop_.store(true, std::memory_order_release);
    Wake();
  }

  void Join() {
    if (thread_.joinable()) thread_.join();
  }

 private:
  struct Connection {
    FrameReader reader;
    std::string wbuf;
    size_t wpos = 0;
    Clock::time_point last_active;
    bool close_after_flush = false;

    explicit Connection(size_t max_payload)
        : reader(max_payload), last_active(Clock::now()) {}
    size_t pending_bytes() const { return wbuf.size() - wpos; }
  };

  void Wake() {
    const char byte = 1;
    // A full pipe already guarantees a pending wakeup.
    (void)!write(wake_pipe_[1], &byte, 1);
  }

  void Loop() {
    const int idle_ms = server_->options_.idle_timeout_ms;
    // Bounded wait so idle sweeps and the stop flag are checked even on a
    // silent socket set.
    const int wait_ms = idle_ms > 0 ? std::min(idle_ms, 50) : 50;
    std::vector<pollfd> fds;
    while (!stop_.load(std::memory_order_acquire)) {
      AdoptNewConnections();
      // The wake pipe, then every connection; POLLOUT only while a reply
      // is still waiting for socket space.
      fds.assign(1, pollfd{wake_pipe_[0], POLLIN, 0});
      for (const auto& [fd, conn] : connections_) {
        const short events = conn.pending_bytes() > 0 ? POLLIN | POLLOUT
                                                      : POLLIN;
        fds.push_back(pollfd{fd, events, 0});
      }
      if (poll(fds.data(), fds.size(), wait_ms) < 0) {
        if (errno == EINTR) continue;
        return;
      }
      if (fds[0].revents != 0) {
        char scratch[256];
        while (read(wake_pipe_[0], scratch, sizeof(scratch)) > 0) {
        }
      }
      for (size_t i = 1; i < fds.size(); ++i) {
        const pollfd& ready = fds[i];
        if (ready.revents == 0) continue;
        Connection& conn = connections_.at(ready.fd);
        bool alive = (ready.revents & (POLLERR | POLLNVAL)) == 0;
        if (alive && (ready.revents & (POLLIN | POLLHUP)) != 0) {
          alive = HandleReadable(ready.fd, conn);
        }
        if (alive && (ready.revents & POLLOUT) != 0) {
          alive = FlushWrites(ready.fd, conn);
        }
        if (!alive) CloseConnection(ready.fd);
      }
      if (idle_ms > 0) SweepIdle(idle_ms);
    }
    Drain();
  }

  void AdoptNewConnections() {
    std::vector<int> fresh;
    {
      std::lock_guard<std::mutex> lock(inbox_mu_);
      fresh.swap(inbox_);
    }
    for (int fd : fresh) {
      if (SetNonBlocking(fd).ok()) {
        connections_.emplace(fd, Connection(max_payload_bytes_));
      } else {
        close(fd);
      }
    }
  }

  /// Reads everything available; returns false when the connection died.
  bool HandleReadable(int fd, Connection& conn) {
    char buf[64 * 1024];
    bool got_bytes = false;
    while (true) {
      const ssize_t n = read(fd, buf, sizeof(buf));
      if (n > 0) {
        conn.reader.Append(buf, static_cast<size_t>(n));
        got_bytes = true;
        continue;
      }
      if (n == 0) return false;  // peer closed
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      if (errno == EINTR) continue;
      return false;
    }
    if (got_bytes) conn.last_active = Clock::now();
    ProcessFrames(conn);
    return FlushWrites(fd, conn);
  }

  /// Pulls complete frames out of the read buffer and appends responses.
  void ProcessFrames(Connection& conn) {
    WireFrame frame;
    while (!conn.close_after_flush) {
      auto next = conn.reader.Next(&frame);
      if (!next.ok()) {
        // Stream integrity lost: one fatal error frame, then close.
        SendError(conn, ErrorReply::FromStatus(0, next.status(),
                                               /*fatal=*/true));
        conn.close_after_flush = true;
        return;
      }
      if (!*next) return;  // need more bytes
      Dispatch(frame, conn);
    }
  }

  /// Appends the request's reply frame, or a non-fatal kError carrying the
  /// id the request's payload starts with.
  void Dispatch(const WireFrame& frame, Connection& conn) {
    StatusOr<std::string> reply = Answer(frame);
    if (!reply.ok()) {
      SendError(conn, ErrorReply::FromStatus(PeekRequestId(frame.payload),
                                             reply.status(),
                                             /*fatal=*/false));
      return;
    }
    conn.wbuf += *reply;
    server_->requests_served_.fetch_add(1, std::memory_order_relaxed);
  }

  /// The one request path: decode, method lookup, backend call, encoded
  /// reply frame. Any failure along it is the status the kError carries.
  StatusOr<std::string> Answer(const WireFrame& frame) const {
    const ScoringBackend& backend = *server_->backend_;
    switch (frame.type) {
      case MessageType::kScore:
        return Scored<ScoreRequest>(
            frame.payload,
            [&](ScoreRequest& req,
                const MethodSpec& spec) -> StatusOr<std::string> {
              // A point read is a batch of one.
              FUSER_ASSIGN_OR_RETURN(BackendBatch scored,
                                     backend.ScoreBatch(spec, {req.triple}));
              return EncodeFrame(MessageType::kScoreReply,
                                 ScoreReply{req.request_id, scored.snapshot_id,
                                            scored.scores[0]}
                                     .Encode());
            });
      case MessageType::kScoreBatch:
        return Scored<ScoreBatchRequest>(
            frame.payload,
            [&](ScoreBatchRequest& req,
                const MethodSpec& spec) -> StatusOr<std::string> {
              FUSER_ASSIGN_OR_RETURN(BackendBatch scored,
                                     backend.ScoreBatch(spec, req.triples));
              return EncodeFrame(
                  MessageType::kScoreBatchReply,
                  ScoreBatchReply{req.request_id, scored.snapshot_id,
                                  std::move(scored.scores)}
                      .Encode());
            });
      case MessageType::kScoreObservation:
        return Scored<ScoreObservationRequest>(
            frame.payload,
            [&](ScoreObservationRequest& req,
                const MethodSpec& spec) -> StatusOr<std::string> {
              AdHocObservation observation;
              observation.providers = std::move(req.providers);
              observation.in_scope = std::move(req.in_scope);
              FUSER_ASSIGN_OR_RETURN(
                  BackendScore scored,
                  backend.ScoreObservation(spec, observation));
              return EncodeFrame(MessageType::kScoreObservationReply,
                                 ScoreReply{req.request_id,
                                            scored.snapshot_id, scored.score}
                                     .Encode());
            });
      case MessageType::kStats: {
        StatsRequest req;
        FUSER_RETURN_IF_ERROR(req.Decode(frame.payload));
        FUSER_ASSIGN_OR_RETURN(BackendInfo info, backend.Info());
        StatsReply reply;
        reply.request_id = req.request_id;
        reply.snapshot_id = info.snapshot_id;
        reply.dataset_version = info.dataset_version;
        reply.num_triples = info.num_triples;
        reply.num_sources = info.num_sources;
        reply.num_shards = info.num_shards;
        reply.requests_served =
            server_->requests_served_.load(std::memory_order_relaxed);
        return EncodeFrame(MessageType::kStatsReply, reply.Encode());
      }
      default:
        return Status::InvalidArgument(
            StrFormat("unknown message type %u",
                      static_cast<uint32_t>(frame.type)));
    }
  }

  /// Decodes a scoring request, resolves its method name, and hands both
  /// to `score`.
  template <typename Request, typename ScoreFn>
  static StatusOr<std::string> Scored(const std::string& payload,
                                      ScoreFn score) {
    Request req;
    FUSER_RETURN_IF_ERROR(req.Decode(payload));
    FUSER_ASSIGN_OR_RETURN(MethodSpec spec, ParseMethodSpec(req.method));
    return score(req, spec);
  }

  void SendError(Connection& conn, const ErrorReply& reply) {
    conn.wbuf += EncodeFrame(MessageType::kError, reply.Encode());
    server_->errors_sent_.fetch_add(1, std::memory_order_relaxed);
  }

  /// Writes as much of the pending buffer as the socket accepts; returns
  /// false when the connection died or finished a close-after-flush.
  bool FlushWrites(int fd, Connection& conn) {
    while (conn.pending_bytes() > 0) {
      const ssize_t n = write(fd, conn.wbuf.data() + conn.wpos,
                              conn.pending_bytes());
      if (n > 0) {
        conn.wpos += static_cast<size_t>(n);
        conn.last_active = Clock::now();
        continue;
      }
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
      if (n < 0 && errno == EINTR) continue;
      return false;
    }
    if (conn.pending_bytes() == 0) {
      conn.wbuf.clear();
      conn.wpos = 0;
      if (conn.close_after_flush) return false;
    }
    return true;
  }

  void SweepIdle(int idle_ms) {
    const auto now = Clock::now();
    std::vector<int> expired;
    for (const auto& [fd, conn] : connections_) {
      const auto idle = std::chrono::duration_cast<std::chrono::milliseconds>(
                            now - conn.last_active)
                            .count();
      if (idle >= idle_ms) expired.push_back(fd);
    }
    for (int fd : expired) CloseConnection(fd);
  }

  /// Graceful-shutdown tail: answer every request already received in
  /// full, then flush pending responses until done or the drain deadline.
  void Drain() {
    AdoptNewConnections();
    const auto deadline =
        Clock::now() +
        std::chrono::milliseconds(server_->options_.drain_timeout_ms);
    // One final read sweep picks up requests that reached the kernel
    // buffer before the listener closed.
    std::vector<int> dead;
    for (auto& [fd, conn] : connections_) {
      if (!HandleReadable(fd, conn)) dead.push_back(fd);
    }
    for (int fd : dead) CloseConnection(fd);
    while (Clock::now() < deadline) {
      std::vector<pollfd> pending;
      dead.clear();
      for (auto& [fd, conn] : connections_) {
        if (!FlushWrites(fd, conn)) {
          dead.push_back(fd);
        } else if (conn.pending_bytes() > 0) {
          pending.push_back(pollfd{fd, POLLOUT, 0});
        }
      }
      for (int fd : dead) CloseConnection(fd);
      if (pending.empty()) break;
      if (poll(pending.data(), pending.size(), 20) < 0 && errno != EINTR) {
        break;
      }
    }
    for (const auto& [fd, conn] : connections_) close(fd);
    connections_.clear();
  }

  void CloseConnection(int fd) {
    close(fd);
    connections_.erase(fd);
  }

  FusionServer* server_;
  size_t max_payload_bytes_;
  int wake_pipe_[2] = {-1, -1};
  std::thread thread_;
  std::atomic<bool> stop_{false};
  std::mutex inbox_mu_;
  std::vector<int> inbox_;
  std::unordered_map<int, Connection> connections_;
};

// ---------------------------------------------------------------------------
// FusionServer
// ---------------------------------------------------------------------------

FusionServer::FusionServer(const ScoringBackend* backend,
                           FusionServerOptions options)
    : backend_(backend), options_(options) {
  if (options_.num_workers == 0) options_.num_workers = 1;
}

FusionServer::~FusionServer() { Stop(); }

Status FusionServer::Start() {
  if (running_.exchange(true, std::memory_order_acq_rel)) {
    return Status::FailedPrecondition("server already running");
  }
  stopping_.store(false, std::memory_order_release);
  Status started = Open();
  // The one failure-cleanup path: Stop() closes whatever Open() opened and
  // joins whatever it spawned.
  if (!started.ok()) Stop();
  return started;
}

Status FusionServer::Open() {
  listen_fd_ = socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) return Errno("socket");
  const int one = 1;
  setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(options_.port);
  if (bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) <
      0) {
    return Errno("bind");
  }
  if (listen(listen_fd_, options_.listen_backlog) < 0) return Errno("listen");
  socklen_t addr_len = sizeof(addr);
  if (getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr),
                  &addr_len) < 0) {
    return Errno("getsockname");
  }
  port_ = ntohs(addr.sin_port);
  FUSER_RETURN_IF_ERROR(SetNonBlocking(listen_fd_));
  if (pipe(stop_pipe_) < 0) return Errno("pipe");
  for (size_t w = 0; w < options_.num_workers; ++w) {
    workers_.push_back(
        std::make_unique<Worker>(this, options_.max_payload_bytes));
    FUSER_RETURN_IF_ERROR(workers_.back()->Start());
  }
  acceptor_ = std::thread([this] { AcceptLoop(); });
  return Status::OK();
}

void FusionServer::AcceptLoop() {
  size_t next_worker = 0;
  while (!stopping_.load(std::memory_order_acquire)) {
    pollfd fds[2];
    fds[0].fd = listen_fd_;
    fds[0].events = POLLIN;
    fds[0].revents = 0;
    fds[1].fd = stop_pipe_[0];
    fds[1].events = POLLIN;
    fds[1].revents = 0;
    const int n = poll(fds, 2, 500);
    if (n < 0) {
      if (errno == EINTR) continue;
      return;
    }
    if ((fds[1].revents & POLLIN) != 0) return;  // Stop() woke us
    if ((fds[0].revents & POLLIN) == 0) continue;
    while (true) {
      const int fd = accept(listen_fd_, nullptr, nullptr);
      if (fd < 0) break;  // EAGAIN (or a transient error): back to poll
      const int one = 1;
      setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
      connections_accepted_.fetch_add(1, std::memory_order_relaxed);
      workers_[next_worker]->Enqueue(fd);
      next_worker = (next_worker + 1) % workers_.size();
    }
  }
}

void FusionServer::Stop() {
  if (!running_.exchange(false, std::memory_order_acq_rel)) return;
  stopping_.store(true, std::memory_order_release);
  if (acceptor_.joinable()) {
    const char byte = 1;
    (void)!write(stop_pipe_[1], &byte, 1);
    acceptor_.join();
  }
  // The listener closes before the workers drain: no new connections can
  // race the drain phase. Every close is guarded so that Stop() also
  // unwinds a Start() that failed partway.
  if (listen_fd_ >= 0) close(listen_fd_);
  listen_fd_ = -1;
  for (auto& worker : workers_) worker->RequestStop();
  for (auto& worker : workers_) worker->Join();
  workers_.clear();
  for (int& fd : stop_pipe_) {
    if (fd >= 0) close(fd);
    fd = -1;
  }
}

ServerCounters FusionServer::counters() const {
  ServerCounters counters;
  counters.connections_accepted =
      connections_accepted_.load(std::memory_order_relaxed);
  counters.requests_served =
      requests_served_.load(std::memory_order_relaxed);
  counters.errors_sent = errors_sent_.load(std::memory_order_relaxed);
  return counters;
}

}  // namespace net
}  // namespace fuser
