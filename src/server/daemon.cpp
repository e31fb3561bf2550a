#include "server/daemon.h"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include "server/payload.h"
#include "server/wire.h"

namespace sc::server {

namespace {

/// Poll timeout for every cooperative-shutdown wait point.
constexpr int kPollMs = 200;

[[noreturn]] void fail(const std::string& what) {
  throw std::runtime_error("ProxyDaemon: " + what + ": " +
                           std::strerror(errno));
}

}  // namespace

ProxyDaemon::ProxyDaemon(ServiceEngine& engine, DaemonConfig config)
    : engine_(engine), config_(config) {}

ProxyDaemon::~ProxyDaemon() { stop(); }

void ProxyDaemon::start() {
  if (started_) throw std::runtime_error("ProxyDaemon: already started");
  // Accept-gate: the daemon never serves from unaudited state. A cold
  // start passes trivially; a warm (recovered) start must prove every
  // invariant — occupancy, policy index, pending observations — before
  // the first connection is possible. ServiceEngine::try_recover already
  // degrades bad recoveries to cold starts, so a failure here means a
  // genuine in-memory inconsistency worth refusing to serve.
  {
    const sim::AuditReport report = engine_.audit();
    if (!report.ok()) {
      throw std::runtime_error("ProxyDaemon: pre-serve " + report.to_string());
    }
  }
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (listen_fd_ < 0) fail("socket");
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(config_.port);
  if (::bind(listen_fd_, reinterpret_cast<const sockaddr*>(&addr),
             sizeof addr) < 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    fail("bind");
  }
  socklen_t len = sizeof addr;
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len) <
      0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    fail("getsockname");
  }
  port_ = ntohs(addr.sin_port);
  if (::listen(listen_fd_, config_.listen_backlog) < 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    fail("listen");
  }

  started_ = true;
  stop_.store(false, std::memory_order_relaxed);
  accept_thread_ = std::thread([this] { accept_loop(); });
  ticker_thread_ = std::thread([this] { ticker_loop(); });
}

void ProxyDaemon::stop() {
  if (!started_) return;
  stop_.store(true, std::memory_order_relaxed);
  tick_cv_.notify_all();
  if (accept_thread_.joinable()) accept_thread_.join();
  if (ticker_thread_.joinable()) ticker_thread_.join();
  // Connection threads observe stop_ at their next poll timeout.
  std::list<Connection> conns;
  {
    const std::lock_guard<std::mutex> lock(conn_mu_);
    conns.swap(conns_);
  }
  for (Connection& c : conns) c.thread.join();
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  started_ = false;
}

std::size_t ProxyDaemon::tracked_connections() const {
  const std::lock_guard<std::mutex> lock(conn_mu_);
  return conns_.size();
}

void ProxyDaemon::reap_finished() {
  // A thread that set its done flag has left handle_connection, so the
  // join returns at once.
  const std::lock_guard<std::mutex> lock(conn_mu_);
  for (auto it = conns_.begin(); it != conns_.end();) {
    if (it->done) {
      it->thread.join();
      it = conns_.erase(it);
    } else {
      ++it;
    }
  }
}

void ProxyDaemon::accept_loop() {
  // Log fd exhaustion once per episode, not once per rejected accept —
  // a saturated daemon must not also saturate its log.
  bool fd_exhaustion_logged = false;
  while (!stop_.load(std::memory_order_relaxed)) {
    reap_finished();
    pollfd p{listen_fd_, POLLIN, 0};
    const int r = ::poll(&p, 1, kPollMs);
    if (r < 0) {
      if (errno == EINTR) continue;
      return;
    }
    if (r == 0) continue;
    const int fd =
        ::accept4(listen_fd_, nullptr, nullptr, SOCK_CLOEXEC);
    if (fd < 0) {
      // accept() failures must never kill the accept loop: a peer that
      // aborted mid-handshake (ECONNABORTED) or a signal (EINTR) is
      // routine, and fd exhaustion (EMFILE/ENFILE) is an overload
      // condition to ride out — back off so existing connections can
      // finish and return their fds, then keep accepting.
      if (errno == EMFILE || errno == ENFILE) {
        if (!fd_exhaustion_logged) {
          fd_exhaustion_logged = true;
          std::fprintf(stderr,
                       "ProxyDaemon: accept: %s (fd exhaustion; backing off "
                       "until connections drain)\n",
                       std::strerror(errno));
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(100));
      }
      continue;
    }
    fd_exhaustion_logged = false;
    // Bound how long a stalled peer can pin a thread mid-frame; the
    // idle case waits in poll(), not read(), so this only fires on
    // genuinely wedged connections.
    timeval tv{};
    tv.tv_sec = 5;
    ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof tv);
    ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof tv);
    // Request/response framing with small request frames: without
    // TCP_NODELAY, Nagle + delayed ACK turns every exchange into a
    // ~40ms stall on loopback.
    int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
    connections_.fetch_add(1, std::memory_order_relaxed);
    const std::lock_guard<std::mutex> lock(conn_mu_);
    Connection& conn = conns_.emplace_back();
    conn.thread = std::thread([this, fd, &conn] {
      handle_connection(fd);
      conn.done = true;
    });
  }
}

void ProxyDaemon::ticker_loop() {
  std::unique_lock<std::mutex> lock(tick_mu_);
  const auto interval = std::chrono::duration<double>(
      std::max(config_.tick_interval_s, 1e-3));
  while (!stop_.load(std::memory_order_relaxed)) {
    tick_cv_.wait_for(lock, interval, [this] {
      return stop_.load(std::memory_order_relaxed);
    });
    if (stop_.load(std::memory_order_relaxed)) return;
    engine_.tick();
    // Periodic snapshots ride the ticker (no-op without a persist dir).
    engine_.maybe_snapshot();
  }
}

void ProxyDaemon::handle_connection(int fd) {
  std::vector<std::uint8_t> body;
  // A reply goes out as `reply` (status and fixed fields) followed by
  // `payload_n` bytes of `payload` in one gather write. GET payloads are
  // filled straight into `payload`, which is never zero-filled and grows
  // only when a longer range arrives (at most kMaxGetLength).
  std::vector<std::uint8_t> reply;
  std::unique_ptr<std::uint8_t[]> payload;
  std::size_t payload_capacity = 0;
  // Per-connection session state: a contiguous run of GETs for one
  // object is one streaming session (engine.h's offset == 0 contract).
  bool streaming = false;
  std::uint64_t session_object = 0;
  std::uint64_t high_water = 0;
  auto last_activity = std::chrono::steady_clock::now();

  while (!stop_.load(std::memory_order_relaxed)) {
    pollfd p{fd, POLLIN, 0};
    const int r = ::poll(&p, 1, kPollMs);
    if (r < 0) {
      if (errno == EINTR) continue;
      break;
    }
    if (r == 0) {
      // Idle: no frame pending. Disconnect silent connections after
      // the configured timeout so they cannot hold a thread + fd
      // forever (the client sees a clean close and reconnects).
      if (config_.idle_timeout_s > 0 &&
          std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                        last_activity)
                  .count() > config_.idle_timeout_s) {
        break;
      }
      continue;
    }
    if (!wire::read_frame(fd, body)) break;
    last_activity = std::chrono::steady_clock::now();

    reply.clear();
    std::size_t payload_n = 0;
    if (body.empty()) {
      reply.push_back(wire::kBadRequest);
    } else if (body[0] == wire::kOpGet) {
      wire::GetRequest req;
      if (!wire::decode_get(body.data(), body.size(), req)) {
        reply.push_back(wire::kBadRequest);
      } else {
        const ServeResult res =
            engine_.serve_range(req.object, req.offset, req.length);
        if (res.status != wire::kOk) {
          reply.push_back(res.status);
        } else {
          if (streaming && session_object != req.object) {
            engine_.end_session(session_object, high_water);
            high_water = 0;
          }
          streaming = true;
          session_object = req.object;
          high_water = std::max(high_water, req.offset + req.length);
          // The upstream stall happens here — outside the engine lock,
          // on this connection's thread only.
          if (res.origin_wall_s > 0) {
            std::this_thread::sleep_for(
                std::chrono::duration<double>(res.origin_wall_s));
          }
          reply.push_back(wire::kOk);
          wire::put_u64(reply, res.cache_bytes);
          wire::put_u64(reply, res.origin_bytes);
          wire::put_f64(reply, res.delay_s);
          payload_n = static_cast<std::size_t>(req.length);
          if (payload_n > payload_capacity) {
            payload.reset(new std::uint8_t[payload_n]);
            payload_capacity = payload_n;
          }
          fill_payload(req.object, req.offset, payload.get(), payload_n);
        }
      }
    } else if (body[0] == wire::kOpStat) {
      if (body.size() != wire::kStatRequestSize) {
        reply.push_back(wire::kBadRequest);
      } else {
        const std::uint64_t object = wire::get_u64(body.data() + 1);
        if (object >= engine_.catalog().size()) {
          reply.push_back(wire::kBadObject);
        } else {
          reply.push_back(wire::kOk);
          wire::put_u64(reply, engine_.object_size(object));
          wire::put_u64(reply, engine_.cached_bytes(object));
        }
      }
    } else if (body[0] == wire::kOpStats) {
      const std::string json = engine_.stats_json();
      reply.push_back(wire::kOk);
      reply.insert(reply.end(), json.begin(), json.end());
    } else if (body[0] == wire::kOpAudit) {
      const std::string json = engine_.audit().to_json();
      reply.push_back(wire::kOk);
      reply.insert(reply.end(), json.begin(), json.end());
    } else {
      reply.push_back(wire::kBadRequest);
    }
    if (!wire::write_frame(fd, reply.data(), reply.size(), payload.get(),
                           payload_n)) {
      break;
    }
  }

  if (streaming) engine_.end_session(session_object, high_water);
  ::close(fd);
}

}  // namespace sc::server
