// The serve workloads: serve_small and serve_large.
//
// An untraced repetition spawns a fresh proxy_daemon on an ephemeral
// loopback port, opens four load connections, runs an open-loop phase
// (fixed GET count on a Poisson schedule) and then a closed-loop phase,
// reads STATS and AUDIT over a fifth connection, and stops the daemon
// with SIGTERM. The daemon's peak RSS comes from wait4().
//
// The traced repetition runs a ServiceEngine in this process behind a
// benchmark-side connection loop that makes the public calls
// ProxyDaemon::handle_connection makes, in the same order, with a span
// around each; the engine's policy and estimator are the registry's own
// wrapped in the traced specs (traced.h), so the decision inside
// serve_range is timed too. Server and client spans share a
// (connection, sequence) id, so each request's time outside the server —
// loopback transport and scheduling — is its round trip minus its server
// span.
#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "loadgen.h"
#include "server/client.h"
#include "server/engine.h"
#include "server/payload.h"
#include "server/wire.h"
#include "spans.h"
#include "stats/summary.h"
#include "traced.h"
#include "workloads.h"

#ifndef SC_PROXY_DAEMON
#define SC_PROXY_DAEMON "proxy_daemon"
#endif

namespace perfbench {

namespace {

namespace wire = sc::server::wire;

constexpr std::size_t kConnections = 4;
constexpr double kZipfAlpha = 0.73;
/// Poll timeout of every blocking wait, as in the daemon.
constexpr int kPollMs = 200;
/// The traced run writes the spans of each connection's first GETs.
constexpr std::uint32_t kWrittenSpansPerConnection = 4096;

struct ServeShape {
  SessionShape session;
  double open_rate_per_s = 0.0;
  double open_seconds = 0.8;
  double closed_seconds = 0.5;
};

ServeShape shape_for(const std::string& workload) {
  ServeShape s;
  if (workload == "serve_small") {
    s.session = SessionShape{4096, 64 * 1024, 0.4};
    s.open_rate_per_s = 40'000;
  } else {
    s.session = SessionShape{256 * 1024, 1024 * 1024, 0.4};
    s.open_rate_per_s = 6'000;
  }
  return s;
}

sc::server::ServiceConfig service_config(std::uint64_t seed) {
  sc::server::ServiceConfig c;
  c.objects = 2000;
  c.seed = seed;
  c.policy = "pb";
  c.estimator = "ewma";
  c.cache_fraction = 0.02;
  return c;
}

std::vector<std::string> daemon_args(const sc::server::ServiceConfig& c) {
  char cache[32];
  std::snprintf(cache, sizeof cache, "%.17g", c.cache_fraction);
  return {SC_PROXY_DAEMON,
          "--port=0",
          "--policy=" + c.policy,
          "--estimator=" + c.estimator,
          std::string("--cache=") + cache,
          "--objects=" + std::to_string(c.objects),
          "--seed=" + std::to_string(c.seed)};
}

/// A number field of a flat JSON object such as the STATS reply.
double json_number(const std::string& json, const std::string& key) {
  const std::string needle = "\"" + key + "\": ";
  const auto pos = json.find(needle);
  if (pos == std::string::npos) {
    throw std::runtime_error("no \"" + key + "\" in " + json);
  }
  return std::strtod(json.c_str() + pos + needle.size(), nullptr);
}

/// A proxy_daemon child process serving on an ephemeral port.
class DaemonProcess {
 public:
  explicit DaemonProcess(const std::vector<std::string>& args) {
    int out[2];
    if (::pipe2(out, O_CLOEXEC) != 0) {
      throw std::runtime_error(std::string("pipe: ") + std::strerror(errno));
    }
    std::vector<char*> argv;
    for (const std::string& a : args) argv.push_back(const_cast<char*>(a.c_str()));
    argv.push_back(nullptr);
    const pid_t parent = ::getpid();
    pid_ = ::fork();
    if (pid_ == 0) {
      // The daemon dies with this process, even if it is killed before
      // stop() runs. Only async-signal-safe calls until exec.
      ::prctl(PR_SET_PDEATHSIG, SIGKILL);
      if (::getppid() != parent) ::_exit(127);
      ::dup2(out[1], STDOUT_FILENO);
      ::execv(argv[0], argv.data());
      ::_exit(127);
    }
    ::close(out[1]);
    out_ = out[0];
    if (pid_ < 0) {
      ::close(out_);
      throw std::runtime_error(std::string("fork: ") + std::strerror(errno));
    }
    // The daemon prints "LISTENING <port>" once it accepts connections.
    const std::int64_t deadline = now_ns() + 30'000'000'000LL;
    for (;;) {
      const auto at = output_.find("LISTENING ");
      if (at != std::string::npos &&
          output_.find('\n', at) != std::string::npos) {
        port_ = static_cast<std::uint16_t>(
            std::strtoul(output_.c_str() + at + 10, nullptr, 10));
        return;
      }
      if (!read_some(deadline)) {
        ::kill(pid_, SIGKILL);
        ::waitpid(pid_, nullptr, 0);
        ::close(out_);
        throw std::runtime_error("proxy_daemon did not start: " + output_);
      }
    }
  }

  ~DaemonProcess() {
    if (pid_ > 0) {
      ::kill(pid_, SIGKILL);
      ::waitpid(pid_, nullptr, 0);
    }
    if (out_ >= 0) ::close(out_);
  }

  DaemonProcess(const DaemonProcess&) = delete;
  DaemonProcess& operator=(const DaemonProcess&) = delete;

  [[nodiscard]] std::uint16_t port() const noexcept { return port_; }

  /// Stop with SIGTERM (a graceful shutdown), drain the output and reap
  /// the process. Returns its peak RSS in MB, or nullopt when it did not
  /// exit with status 0.
  std::optional<double> stop() {
    ::kill(pid_, SIGTERM);
    const std::int64_t deadline = now_ns() + 30'000'000'000LL;
    while (read_some(deadline)) {
    }
    if (now_ns() >= deadline) ::kill(pid_, SIGKILL);  // hung: not a clean exit
    int status = 0;
    rusage usage{};
    const pid_t reaped = ::wait4(pid_, &status, 0, &usage);
    pid_ = -1;
    if (reaped < 0 || !WIFEXITED(status) || WEXITSTATUS(status) != 0) {
      return std::nullopt;
    }
    return static_cast<double>(usage.ru_maxrss) / 1024.0;
  }

 private:
  /// Append available output; false on EOF, error or deadline.
  bool read_some(std::int64_t deadline_ns) {
    const auto left_ms = (deadline_ns - now_ns()) / 1'000'000;
    if (left_ms <= 0) return false;
    pollfd p{out_, POLLIN, 0};
    const int r = ::poll(&p, 1, static_cast<int>(left_ms));
    if (r < 0 && errno == EINTR) return true;
    if (r <= 0) return false;
    char buf[4096];
    const ssize_t n = ::read(out_, buf, sizeof buf);
    if (n < 0 && errno == EINTR) return true;
    if (n <= 0) return false;
    output_.append(buf, static_cast<std::size_t>(n));
    return true;
  }

  pid_t pid_ = -1;
  int out_ = -1;
  std::uint16_t port_ = 0;
  std::string output_;
};

/// The benchmark-side server of the traced repetition: listens on an
/// ephemeral port and serves each accepted connection on its own thread
/// with ProxyDaemon::handle_connection's calls, plus the estimator
/// ticker. Every span lands in the serving thread's own vector.
class TracedServer {
 public:
  explicit TracedServer(sc::server::ServiceEngine& engine) : engine_(engine) {
    // The daemon's accept gate: never serve unaudited state.
    if (!engine_.audit().ok()) {
      throw std::runtime_error("TracedServer: engine failed its audit");
    }
    listen_fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    socklen_t len = sizeof addr;
    if (listen_fd_ < 0 ||
        ::bind(listen_fd_, reinterpret_cast<const sockaddr*>(&addr),
               sizeof addr) < 0 ||
        ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len) <
            0 ||
        ::listen(listen_fd_, 64) < 0) {
      const std::string err = std::strerror(errno);
      if (listen_fd_ >= 0) ::close(listen_fd_);
      throw std::runtime_error("TracedServer: cannot listen: " + err);
    }
    port_ = ntohs(addr.sin_port);
    accept_thread_ = std::thread([this] { accept_loop(); });
    ticker_thread_ = std::thread([this] { ticker_loop(); });
  }

  ~TracedServer() { stop(); }
  TracedServer(const TracedServer&) = delete;
  TracedServer& operator=(const TracedServer&) = delete;

  [[nodiscard]] std::uint16_t port() const noexcept { return port_; }

  /// Join every thread (connections end when their clients close) and
  /// close the listening socket. Idempotent.
  void stop() {
    stop_.store(true);
    if (accept_thread_.joinable()) accept_thread_.join();
    if (ticker_thread_.joinable()) ticker_thread_.join();
    for (std::thread& t : conn_threads_) {
      if (t.joinable()) t.join();
    }
    if (listen_fd_ >= 0) {
      ::close(listen_fd_);
      listen_fd_ = -1;
    }
  }

  /// Every recorded span (call after stop()).
  [[nodiscard]] std::vector<Span> spans() const {
    std::vector<Span> all = tick_spans_;
    for (const auto& s : conn_spans_) all.insert(all.end(), s->begin(), s->end());
    return all;
  }

 private:
  void accept_loop() {
    while (!stop_.load()) {
      pollfd p{listen_fd_, POLLIN, 0};
      if (::poll(&p, 1, kPollMs) <= 0) continue;
      const int fd = ::accept4(listen_fd_, nullptr, nullptr, SOCK_CLOEXEC);
      if (fd < 0) continue;
      timeval tv{};
      tv.tv_sec = 5;
      ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof tv);
      ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof tv);
      const int one = 1;
      ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
      conn_spans_.push_back(std::make_unique<std::vector<Span>>());
      std::vector<Span>* spans = conn_spans_.back().get();
      spans->reserve(1 << 18);
      conn_threads_.emplace_back([this, fd, spans] { serve(fd, *spans); });
    }
  }

  void ticker_loop() {
    std::uint32_t seq = 0;
    while (!stop_.load()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(100));
      const std::int64_t start = now_ns();
      engine_.tick();
      engine_.maybe_snapshot();
      tick_spans_.push_back(Span{0, seq++, Layer::kTick, start, now_ns(), 0});
    }
  }

  void serve(int fd, std::vector<Span>& spans) {
    sockaddr_in peer{};
    socklen_t len = sizeof peer;
    ::getpeername(fd, reinterpret_cast<sockaddr*>(&peer), &len);
    const std::uint32_t conn = ntohs(peer.sin_port);
    std::vector<std::uint8_t> body;
    std::vector<std::uint8_t> reply;
    bool streaming = false;
    std::uint64_t session_object = 0;
    std::uint64_t high_water = 0;
    const auto span = [&](std::uint32_t seq, Layer layer, std::int64_t start,
                          std::uint64_t bytes = 0) {
      const std::int64_t end = now_ns();
      spans.push_back(Span{conn, seq, layer, start, end, bytes});
      return end;
    };
    std::uint32_t seq = 0;
    while (!stop_.load()) {
      pollfd p{fd, POLLIN, 0};
      const int r = ::poll(&p, 1, kPollMs);
      if (r < 0 && errno != EINTR) break;
      if (r <= 0) continue;
      const std::int64_t ready = now_ns();
      if (!wire::read_frame(fd, body)) break;
      wire::GetRequest req;
      const bool is_get = !body.empty() && body[0] == wire::kOpGet &&
                          wire::decode_get(body.data(), body.size(), req);
      std::int64_t t = span(seq, Layer::kWireRead, ready);
      reply.clear();
      if (!is_get) {
        reply.push_back(wire::kBadRequest);
      } else {
        const sc::server::ServeResult res =
            engine_.serve_range(req.object, req.offset, req.length);
        t = span(seq, Layer::kServeRange, t);
        if (res.status != wire::kOk) {
          reply.push_back(res.status);
        } else {
          if (streaming && session_object != req.object) {
            engine_.end_session(session_object, high_water);
            t = span(seq, Layer::kEndSession, t);
            high_water = 0;
          }
          streaming = true;
          session_object = req.object;
          high_water = std::max(high_water, req.offset + req.length);
          if (res.origin_wall_s > 0) {
            std::this_thread::sleep_for(
                std::chrono::duration<double>(res.origin_wall_s));
          }
          reply.reserve(wire::kGetResponseHeader + req.length);
          reply.push_back(wire::kOk);
          wire::put_u64(reply, res.cache_bytes);
          wire::put_u64(reply, res.origin_bytes);
          wire::put_f64(reply, res.delay_s);
          const std::size_t header = reply.size();
          reply.resize(header + req.length);
          t = now_ns();
          sc::server::fill_payload(req.object, req.offset,
                                   reply.data() + header, req.length);
          span(seq, Layer::kPayload, t, req.length);
        }
      }
      t = now_ns();
      const bool written = wire::write_frame(fd, reply.data(), reply.size());
      span(seq, Layer::kWireWrite, t);
      span(seq, Layer::kRequest, ready);
      ++seq;
      if (!written) break;
    }
    if (streaming) engine_.end_session(session_object, high_water);
    ::close(fd);
  }

  sc::server::ServiceEngine& engine_;
  int listen_fd_ = -1;
  std::uint16_t port_ = 0;
  std::atomic<bool> stop_{false};
  // Written by the accept thread only; read after it is joined.
  std::vector<std::unique_ptr<std::vector<Span>>> conn_spans_;
  std::vector<std::thread> conn_threads_;
  std::vector<Span> tick_spans_;  // ticker thread only
  std::thread accept_thread_;
  std::thread ticker_thread_;
};

void check_phases(const PhaseResult& open, const PhaseResult& closed,
                  Checks& checks) {
  for (const PhaseResult* phase : {&open, &closed}) {
    if (!phase->first_error.empty()) {
      std::fprintf(stderr, "GET failed: %s\n", phase->first_error.c_str());
    }
  }
  checks.expect(open.failed + closed.failed == 0,
                "every GET answered kOk with its length; sampled payloads "
                "match fill_payload");
}

Values run_untraced(const ServeShape& shape, std::uint64_t seed,
                    const sc::workload::Catalog& catalog,
                    const sc::stats::ZipfLike& popularity,
                    WorkloadResult& result) {
  const std::int64_t start = now_ns();
  DaemonProcess daemon(daemon_args(service_config(seed)));
  Connections connections = connect_all(daemon.port(), kConnections, catalog,
                                        popularity, shape.session, seed);
  const double setup_s = static_cast<double>(now_ns() - start) * 1e-9;

  PhaseResult open = run_open_loop(connections, shape.open_rate_per_s,
                                   shape.open_seconds, seed, false);
  sc::server::ProxyClient control("127.0.0.1", daemon.port());
  const std::string after_open = control.stats();
  const PhaseResult closed =
      run_closed_loop(connections, shape.closed_seconds, false);
  const std::string after_closed = control.stats();
  const std::string audit = control.audit();
  control.close();
  connections.clear();
  const std::optional<double> peak_rss_mb = daemon.stop();

  check_phases(open, closed, result.checks);
  result.checks.expect(
      json_number(after_open, "requests") == static_cast<double>(open.attempted) &&
          json_number(after_closed, "requests") ==
              static_cast<double>(open.attempted + closed.attempted),
      "STATS requests equal the generator's GET count");
  result.checks.expect(audit.find("\"ok\": true") != std::string::npos,
                       "AUDIT is clean after the run");
  result.checks.expect(peak_rss_mb.has_value(),
                       "proxy_daemon exits 0 on SIGTERM");
  result.attempted += open.attempted + closed.attempted;
  result.failed += open.failed + closed.failed;

  Values v;
  v["req_per_s"] = static_cast<double>(closed.attempted) / closed.wall_s;
  v["p50_ms"] = sc::stats::percentile(open.latency_s, 50.0) * 1e3;
  v["p90_ms"] = sc::stats::percentile(open.latency_s, 90.0) * 1e3;
  v["setup_s"] = setup_s;
  v["peak_rss_mb"] = peak_rss_mb.value_or(0.0);
  v["mb_per_s"] = static_cast<double>(closed.payload_bytes) / closed.wall_s / 1e6;
  // Over the open-loop phase: a fixed GET count, so the cache has seen
  // the same traffic however fast the program runs.
  v["outcome.traffic_reduction"] = json_number(after_open, "byte_hit_ratio");
  v["outcome.delay_s"] = json_number(after_open, "mean_delay_s");
  v["cache.hit_ratio"] = json_number(after_open, "hit_ratio");
  v["client.p99_ms"] = sc::stats::percentile(open.latency_s, 99.0) * 1e3;
  v["gen.late_p99_ms"] = sc::stats::percentile(open.late_s, 99.0) * 1e3;
  return v;
}

double percentile_us(std::vector<double> ns, double p) {
  return ns.empty() ? 0.0 : sc::stats::percentile(std::move(ns), p) * 1e-3;
}

Values run_traced(const ServeShape& shape, std::uint64_t seed,
                  const sc::workload::Catalog& catalog,
                  const sc::stats::ZipfLike& popularity,
                  const std::string& trace_out, WorkloadResult& result) {
  // The engine builds the decision path through the registry; the
  // traced specs put spans around it (traced.h).
  register_traced_components();
  DecisionSpans decision;
  set_decision_sink(&decision);
  sc::server::ServiceConfig config = service_config(seed);
  config.policy = "traced:of=" + config.policy;
  config.estimator = "traced:of=" + config.estimator;
  sc::server::ServiceEngine engine(config);
  TracedServer server(engine);
  Connections connections = connect_all(server.port(), kConnections, catalog,
                                        popularity, shape.session, seed);
  PhaseResult open = run_open_loop(connections, shape.open_rate_per_s,
                                   shape.open_seconds, seed, true);
  PhaseResult closed = run_closed_loop(connections, shape.closed_seconds, true);
  const sc::server::ServiceStats stats = engine.snapshot();
  const bool audit_ok = engine.audit().ok();
  connections.clear();
  server.stop();
  set_decision_sink(nullptr);

  check_phases(open, closed, result.checks);
  result.checks.expect(
      stats.requests == open.attempted + closed.attempted,
      "STATS requests equal the generator's GET count");
  result.checks.expect(audit_ok, "AUDIT is clean after the run");
  result.attempted += open.attempted + closed.attempted;
  result.failed += open.failed + closed.failed;

  std::vector<Span> spans = server.spans();
  std::vector<double> serve_ns;
  LayerTotals totals[static_cast<int>(Layer::kClientRoundTrip) + 1];
  std::uint64_t payload_bytes = 0;
  std::unordered_map<std::uint64_t, std::int64_t> request_ns;
  for (const Span& s : spans) {
    LayerTotals& t = totals[static_cast<int>(s.layer)];
    ++t.calls;
    t.ns += s.end_ns - s.start_ns;
    if (s.layer == Layer::kServeRange) {
      serve_ns.push_back(static_cast<double>(s.end_ns - s.start_ns));
    } else if (s.layer == Layer::kPayload) {
      payload_bytes += s.bytes;
    } else if (s.layer == Layer::kRequest) {
      request_ns[(std::uint64_t{s.conn} << 32) | s.seq] = s.end_ns - s.start_ns;
    }
  }
  // Transport: each round trip minus its own request's server span.
  LayerTotals transport;
  for (const PhaseResult* phase : {&open, &closed}) {
    for (const Span& s : phase->spans) {
      const auto it = request_ns.find((std::uint64_t{s.conn} << 32) | s.seq);
      if (it == request_ns.end()) continue;
      ++transport.calls;
      transport.ns += (s.end_ns - s.start_ns) - it->second;
    }
  }
  result.checks.expect(transport.calls == open.attempted + closed.attempted,
                       "every client round trip matches one server span");

  const auto mean_us = [&](Layer layer) {
    return totals[static_cast<int>(layer)].mean_ns() * 1e-3;
  };
  const auto total_ns = [&](Layer layer) {
    return static_cast<double>(totals[static_cast<int>(layer)].ns);
  };
  const double requests = static_cast<double>(totals[0].calls);
  Values v = decision_metrics(decision, totals[0].calls);
  v["wire.read_us"] = mean_us(Layer::kWireRead);
  v["server.serve_range_us"] = mean_us(Layer::kServeRange);
  v["server.serve_range_p90_us"] = percentile_us(serve_ns, 90.0);
  v["server.payload_ns_per_kib"] =
      payload_bytes > 0
          ? total_ns(Layer::kPayload) / (static_cast<double>(payload_bytes) / 1024.0)
          : 0.0;
  v["wire.write_us"] = mean_us(Layer::kWireWrite);
  v["server.end_session_us"] = mean_us(Layer::kEndSession);
  v["server.tick_us"] = mean_us(Layer::kTick);
  // The request span minus its children: reply-buffer build and any
  // origin stall sleep.
  v["server.other_us"] =
      requests > 0
          ? std::max(0.0, (total_ns(Layer::kRequest) - total_ns(Layer::kWireRead) -
                           total_ns(Layer::kServeRange) -
                           total_ns(Layer::kEndSession) -
                           total_ns(Layer::kPayload) -
                           total_ns(Layer::kWireWrite)) /
                              requests * 1e-3)
          : 0.0;
  v["client.transport_us"] = transport.per_call_ns() * 1e-3;
  v["traced_p50_ms"] = sc::stats::percentile(open.latency_s, 50.0) * 1e3;

  if (!trace_out.empty()) {
    std::vector<Span> written;
    for (const std::vector<Span>* list : {&spans, &open.spans, &closed.spans}) {
      for (const Span& s : *list) {
        if (s.layer == Layer::kTick || s.seq < kWrittenSpansPerConnection) {
          written.push_back(s);
        }
      }
    }
    if (!write_spans(trace_out, written)) {
      std::fprintf(stderr, "warning: cannot write %s\n", trace_out.c_str());
    }
  }
  return v;
}

}  // namespace

bool is_serve_workload(const std::string& name) {
  return name == "serve_small" || name == "serve_large";
}

WorkloadResult run_serve_workload(const RunOptions& options) {
  const ServeShape shape = shape_for(options.workload);
  // Both ends of the protocol derive the catalog from (objects, seed).
  const sc::server::ServiceConfig config = service_config(options.seed);
  const sc::workload::Catalog catalog =
      sc::server::ServiceEngine::make_catalog(config.objects, config.seed);
  const sc::stats::ZipfLike popularity(catalog.size(), kZipfAlpha);

  WorkloadResult result;
  const std::int64_t start = now_ns();
  Values traced;
  if (options.trace) {
    traced = run_traced(shape, options.seed, catalog, popularity,
                        options.trace_out, result);
  }
  const std::size_t min_reps = options.trace ? 1 : 3;
  for (std::size_t rep = 0;
       another_rep(rep, min_reps, start, options.seconds); ++rep) {
    Values v = run_untraced(shape, options.seed, catalog, popularity, result);
    std::fprintf(stderr,
                 "%s rep %zu: %.0f GET/s closed, %.1f MB/s, p50 %.3f ms, "
                 "p90 %.3f ms, p99 %.3f ms (open, %.0f GET/s)\n",
                 options.workload.c_str(), rep + 1, v["req_per_s"],
                 v["mb_per_s"], v["p50_ms"], v["p90_ms"], v["client.p99_ms"],
                 shape.open_rate_per_s);
    result.reps.push_back(std::move(v));
  }
  if (options.trace) {
    result.layers = traced;
    for (const char* key :
         {"outcome.traffic_reduction", "outcome.delay_s", "cache.hit_ratio",
          "client.p99_ms", "gen.late_p99_ms"}) {
      result.layers[key] = median_of(result.reps, key);
    }
    result.layers["trace.overhead"] =
        traced["traced_p50_ms"] / median_of(result.reps, "p50_ms");
    result.layers.erase("traced_p50_ms");
  }
  return result;
}

}  // namespace perfbench
