// The TCP front of the serving engine.
//
// ProxyDaemon binds a loopback-reachable listening socket, accepts
// connections on a poll-based accept loop, and serves each connection
// from its own thread speaking the wire protocol (server/wire.h). A
// ticker thread drives ServiceEngine::tick() on a fixed wall-clock
// period so estimator state ages even across idle stretches.
//
// Threading model: thread-per-connection. The engine serializes every
// decision behind its single mutex; connection threads only contend for
// the microseconds a decision takes, then sleep origin stalls and do
// socket IO unlocked. Shutdown is cooperative — every blocking point
// (accept, idle reads) is a poll with a short timeout that re-checks
// the stop flag, and receive/send timeouts on connection sockets bound
// how long a mid-frame peer can hold a thread — so stop() joins every
// thread and closes every fd it opened (the loopback integration test
// asserts no fd leaks across a full start/serve/stop cycle). A
// connection thread marks itself done as it exits, and the accept loop
// joins finished threads as it goes, so a long-lived daemon holds a
// thread only for each open connection, not for every one it served.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <list>
#include <mutex>
#include <thread>

#include "server/engine.h"

namespace sc::server {

struct DaemonConfig {
  /// TCP port to bind on 127.0.0.1; 0 picks an ephemeral port (read it
  /// back with port() after start()).
  std::uint16_t port = 0;
  /// Wall-clock period of the estimator ticker.
  double tick_interval_s = 0.1;
  int listen_backlog = 64;
  /// Disconnect a connection that has sent no complete frame for this
  /// many wall seconds (0 disables). Bounds how long an idle or wedged
  /// client can hold a connection thread + fd; a client mid-request is
  /// unaffected because activity resets on every frame.
  double idle_timeout_s = 0.0;
};

class ProxyDaemon {
 public:
  explicit ProxyDaemon(ServiceEngine& engine, DaemonConfig config = {});
  ~ProxyDaemon();

  ProxyDaemon(const ProxyDaemon&) = delete;
  ProxyDaemon& operator=(const ProxyDaemon&) = delete;

  /// Bind, listen, and spawn the accept + ticker threads. Throws
  /// std::runtime_error when the socket cannot be set up.
  void start();

  /// Stop accepting, join every thread, close every fd. Idempotent;
  /// also run by the destructor.
  void stop();

  /// The bound TCP port (valid after start()).
  [[nodiscard]] std::uint16_t port() const noexcept { return port_; }

  /// Connections accepted so far.
  [[nodiscard]] std::size_t connections_accepted() const noexcept {
    return connections_.load(std::memory_order_relaxed);
  }

  /// Connection threads not yet joined: the open connections plus any
  /// that finished since the accept loop last reaped.
  [[nodiscard]] std::size_t tracked_connections() const;

 private:
  struct Connection {
    std::thread thread;
    std::atomic<bool> done{false};  // set by the thread as it exits
  };

  void accept_loop();
  void reap_finished();
  void ticker_loop();
  void handle_connection(int fd);

  ServiceEngine& engine_;
  DaemonConfig config_;
  int listen_fd_ = -1;
  std::uint16_t port_ = 0;
  std::atomic<bool> stop_{false};
  bool started_ = false;
  std::atomic<std::size_t> connections_{0};
  std::thread accept_thread_;
  std::thread ticker_thread_;
  mutable std::mutex conn_mu_;  // guards conns_
  std::list<Connection> conns_;  // stable addresses for the done flags
  std::mutex tick_mu_;  // pairs with tick_cv_ for prompt shutdown
  std::condition_variable tick_cv_;
};

}  // namespace sc::server
