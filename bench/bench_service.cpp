// bench_service: closed-loop load generator for the proxy daemon.
//
// Drives concurrent client sessions of range GETs against a
// ServiceEngine — either a daemon spun up in-process on an ephemeral
// loopback port (the default; fully self-contained) or an externally
// launched proxy_daemon via --connect=HOST:PORT (what the CI server
// smoke does). Each client thread replays Zipf-popularity sessions:
// pick an object, stream its prefix in fixed-size ranges up to a
// per-session byte budget, optionally departing early (the paper's §5
// partial-viewing behavior), then move to the next object — which is
// exactly the daemon's session boundary.
//
// Reported (and written to BENCH_service.json with --json): request
// hit ratio, byte hit ratio, total served bytes, requests/sec, and
// client-observed p50/p95/p99 service latency via the shared
// stats::summarize_latencies helper (SNIPPETS.md Snippet 1's
// percentile-reporting serve loop, as a first-class trajectory
// metric). `allocations_per_request` is recorded as -1: a threaded
// socket service's allocation count is scheduling-dependent, and the
// sentinel tells tools/check_perf.py to skip its deterministic
// allocation gate while still gating requests_per_sec.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <exception>
#include <memory>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "bench/harness.h"
#include "core/registry.h"
#include "server/client.h"
#include "server/daemon.h"
#include "server/payload.h"
#include "server/wire.h"
#include "util/cli.h"
#include "util/rng.h"
#include "workload/object_catalog.h"

namespace {

struct ServiceBenchConfig {
  std::size_t clients = 4;
  std::size_t sessions = 2000;       // total, divided across clients
  std::uint64_t chunk = 256 * 1024;  // range size per GET
  std::uint64_t session_bytes = 1024 * 1024;  // per-session prefix budget
  double zipf_alpha = 0.73;
  double depart_probability = 0.4;  // early departure (else full budget)
  bool verify = false;              // byte-check every response payload
  std::string json_path;
  std::optional<std::string> connect;  // HOST:PORT (external daemon)
  sc::server::ServiceConfig service;   // in-process daemon config
};

struct ClientTotals {
  std::size_t requests = 0;
  std::size_t hits = 0;
  std::size_t sessions = 0;
  double cache_bytes = 0.0;
  double origin_bytes = 0.0;
  std::vector<double> latencies_s;
};

/// Zipf CDF over objects by popularity rank (object i has rank i + 1,
/// matching the catalog generator).
std::vector<double> zipf_cdf(std::size_t n, double alpha) {
  std::vector<double> cdf(n);
  double sum = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    sum += 1.0 / std::pow(static_cast<double>(i + 1), alpha);
    cdf[i] = sum;
  }
  for (double& v : cdf) v /= sum;
  return cdf;
}

std::size_t sample_zipf(const std::vector<double>& cdf, double u) {
  const auto it = std::lower_bound(cdf.begin(), cdf.end(), u);
  return it == cdf.end() ? cdf.size() - 1
                         : static_cast<std::size_t>(it - cdf.begin());
}

void run_client(const ServiceBenchConfig& cfg, const std::string& host,
                std::uint16_t port, const sc::workload::Catalog& catalog,
                const std::vector<double>& cdf, std::uint64_t seed,
                std::size_t sessions, ClientTotals& totals) {
  sc::server::ProxyClient client(host, port);
  sc::util::Rng rng(seed);
  totals.latencies_s.reserve(sessions * 8);
  for (std::size_t s = 0; s < sessions; ++s) {
    const std::size_t object = sample_zipf(cdf, rng.uniform());
    const auto size =
        static_cast<std::uint64_t>(catalog.object(object).size_bytes);
    std::uint64_t budget = std::min(cfg.session_bytes, size);
    if (rng.uniform() < cfg.depart_probability) {
      budget = static_cast<std::uint64_t>(
          static_cast<double>(budget) * rng.uniform(0.05, 1.0));
    }
    std::uint64_t offset = 0;
    while (offset < budget) {
      const std::uint64_t len = std::min<std::uint64_t>(
          std::min<std::uint64_t>(cfg.chunk, budget - offset),
          sc::server::wire::kMaxGetLength);
      const auto start = std::chrono::steady_clock::now();
      const auto reply = client.get(object, offset, len);
      totals.latencies_s.push_back(
          std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                        start)
              .count());
      if (reply.status != sc::server::wire::kOk) {
        throw std::runtime_error("bench_service: GET rejected with status " +
                                 std::to_string(reply.status));
      }
      if (cfg.verify) {
        for (std::size_t i = 0; i < reply.data.size(); ++i) {
          if (reply.data[i] !=
              sc::server::payload_byte(object, offset + i)) {
            throw std::runtime_error(
                "bench_service: payload mismatch in object " +
                std::to_string(object));
          }
        }
      }
      ++totals.requests;
      if (reply.cache_bytes > 0) ++totals.hits;
      totals.cache_bytes += static_cast<double>(reply.cache_bytes);
      totals.origin_bytes += static_cast<double>(reply.origin_bytes);
      offset += len;
    }
    ++totals.sessions;
  }
}

int run(int argc, char** argv) {
  const sc::util::Cli cli(argc, argv);
  if (cli.has("help")) {
    std::printf(
        "usage: %s [flags]\n\n"
        "  --quick                reduced load (CI smoke)\n"
        "  --connect=HOST:PORT    drive an external proxy_daemon\n"
        "                         (default: in-process daemon)\n"
        "  --clients=N            concurrent client threads (default 4)\n"
        "  --sessions=N           total streaming sessions (default 2000)\n"
        "  --chunk=BYTES          range size per GET (default 262144)\n"
        "  --session-bytes=BYTES  per-session prefix budget (default 1 MiB)\n"
        "  --zipf=A --depart=P    popularity skew / early-departure prob\n"
        "  --objects=N --seed=S   catalog shape (must match the daemon's)\n"
        "  --policy/--estimator/--scenario/--cache/--cache-bytes\n"
        "  --origin-latency-ms=F --origin-time-scale=F   (in-process only)\n"
        "  --verify               byte-check every response payload\n"
        "  --json=PATH            write the BENCH_service.json perf record\n"
        "\n%s",
        cli.program().c_str(), sc::core::registry::help().c_str());
    return 0;
  }
  cli.check_unknown({"quick", "connect", "clients", "sessions", "chunk",
                     "session-bytes", "zipf", "depart", "objects", "seed",
                     "policy", "estimator", "scenario", "cache",
                     "cache-bytes", "origin-latency-ms", "origin-time-scale",
                     "verify", "json", "help"});

  ServiceBenchConfig cfg;
  if (cli.get_or("quick", false)) {
    cfg.clients = 4;
    cfg.sessions = 400;
  }
  cfg.clients = static_cast<std::size_t>(
      cli.get_or("clients", static_cast<long long>(cfg.clients)));
  cfg.sessions = static_cast<std::size_t>(
      cli.get_or("sessions", static_cast<long long>(cfg.sessions)));
  cfg.chunk = static_cast<std::uint64_t>(
      cli.get_or("chunk", static_cast<long long>(cfg.chunk)));
  cfg.session_bytes = static_cast<std::uint64_t>(cli.get_or(
      "session-bytes", static_cast<long long>(cfg.session_bytes)));
  cfg.zipf_alpha = cli.get_or("zipf", cfg.zipf_alpha);
  cfg.depart_probability = cli.get_or("depart", cfg.depart_probability);
  cfg.verify = cli.get_or("verify", false);
  cfg.json_path = cli.get_or("json", std::string());
  if (const auto v = cli.get("connect")) cfg.connect = *v;
  if (cfg.clients == 0 || cfg.sessions == 0 || cfg.chunk == 0) {
    throw std::invalid_argument(
        "--clients, --sessions, and --chunk must be positive");
  }

  cfg.service.objects =
      static_cast<std::size_t>(cli.get_or("objects", 2000LL));
  cfg.service.seed = static_cast<std::uint64_t>(cli.get_or("seed", 42LL));
  cfg.service.policy = cli.get_or("policy", cfg.service.policy);
  cfg.service.estimator = cli.get_or("estimator", cfg.service.estimator);
  cfg.service.origin.scenario =
      cli.get_or("scenario", cfg.service.origin.scenario);
  cfg.service.cache_fraction =
      cli.get_or("cache", cfg.service.cache_fraction);
  cfg.service.cache_capacity_bytes = cli.get_or("cache-bytes", 0.0);
  cfg.service.origin.latency_s = cli.get_or("origin-latency-ms", 0.0) / 1e3;
  cfg.service.origin.time_scale = cli.get_or("origin-time-scale", 0.0);

  // The client side needs object sizes: the catalog is a deterministic
  // function of (objects, seed) on both ends of the protocol.
  const sc::workload::Catalog catalog = sc::server::ServiceEngine::make_catalog(
      cfg.service.objects, cfg.service.seed);
  const std::vector<double> cdf =
      zipf_cdf(catalog.size(), cfg.zipf_alpha);

  // In-process daemon unless --connect points elsewhere.
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;
  std::unique_ptr<sc::server::ServiceEngine> engine;
  std::unique_ptr<sc::server::ProxyDaemon> daemon;
  if (cfg.connect) {
    const auto colon = cfg.connect->rfind(':');
    if (colon == std::string::npos) {
      throw std::invalid_argument("--connect expects HOST:PORT");
    }
    host = cfg.connect->substr(0, colon);
    port = static_cast<std::uint16_t>(
        std::stoi(cfg.connect->substr(colon + 1)));
  } else {
    engine = std::make_unique<sc::server::ServiceEngine>(cfg.service);
    daemon = std::make_unique<sc::server::ProxyDaemon>(*engine);
    daemon->start();
    port = daemon->port();
  }
  std::printf("bench_service: %zu clients x %zu sessions against %s:%u "
              "(policy=%s estimator=%s)\n",
              cfg.clients, cfg.sessions, host.c_str(), port,
              cfg.service.policy.c_str(), cfg.service.estimator.c_str());

  // Divide sessions across clients (remainder to the first threads).
  std::vector<ClientTotals> totals(cfg.clients);
  std::vector<std::thread> threads;
  threads.reserve(cfg.clients);
  // A protocol or verify failure on a client thread must surface as a
  // clean `error:` exit, not std::terminate; capture the first one and
  // rethrow it on the main thread after join.
  std::mutex error_mutex;
  std::exception_ptr first_error;
  const std::uint64_t allocs_before = sc::bench::allocation_count();
  const auto start = std::chrono::steady_clock::now();
  sc::util::Rng seeder(cfg.service.seed);
  for (std::size_t c = 0; c < cfg.clients; ++c) {
    const std::size_t share =
        cfg.sessions / cfg.clients + (c < cfg.sessions % cfg.clients ? 1 : 0);
    const std::uint64_t seed =
        seeder.fork("service-client-" + std::to_string(c)).seed();
    threads.emplace_back([&, c, share, seed] {
      try {
        run_client(cfg, host, port, catalog, cdf, seed, share, totals[c]);
      } catch (...) {
        const std::lock_guard<std::mutex> lock(error_mutex);
        if (!first_error) first_error = std::current_exception();
      }
    });
  }
  for (std::thread& t : threads) t.join();
  if (first_error) std::rethrow_exception(first_error);
  const double wall_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  const std::uint64_t allocs = sc::bench::allocation_count() - allocs_before;

  ClientTotals sum;
  std::vector<double> latencies;
  for (ClientTotals& t : totals) {
    sum.requests += t.requests;
    sum.hits += t.hits;
    sum.sessions += t.sessions;
    sum.cache_bytes += t.cache_bytes;
    sum.origin_bytes += t.origin_bytes;
    latencies.insert(latencies.end(), t.latencies_s.begin(),
                     t.latencies_s.end());
  }
  const double total_bytes = sum.cache_bytes + sum.origin_bytes;
  const double hit_ratio =
      sum.requests > 0
          ? static_cast<double>(sum.hits) / static_cast<double>(sum.requests)
          : 0.0;
  const double byte_hit_ratio =
      total_bytes > 0 ? sum.cache_bytes / total_bytes : 0.0;
  const double rps =
      wall_s > 0 ? static_cast<double>(sum.requests) / wall_s : 0.0;
  const sc::stats::LatencySummary lat =
      sc::stats::summarize_latencies(latencies);

  std::printf("served %zu range GETs in %zu sessions, %.1f MB total\n",
              sum.requests, sum.sessions, total_bytes / 1e6);
  std::printf("hit ratio %.4f, byte hit ratio %.4f, %.0f requests/sec\n",
              hit_ratio, byte_hit_ratio, rps);
  sc::bench::print_latency_summary("service latency", lat);
  if (daemon) {
    daemon->stop();
    std::printf("server stats: %s\n", engine->stats_json().c_str());
  }

  if (!cfg.json_path.empty()) {
    sc::bench::PerfRecord()
        .text("bench", "bench_service")
        .count("clients", cfg.clients)
        .count("sessions", sum.sessions)
        .count("requests", sum.requests)
        .fixed("bytes_total", total_bytes, 0)
        .fixed("hit_ratio", hit_ratio, 6)
        .fixed("byte_hit_ratio", byte_hit_ratio, 6)
        .fixed("latency_p50_ms", lat.p50 * 1e3, 6)
        .fixed("latency_p95_ms", lat.p95 * 1e3, 6)
        .fixed("latency_p99_ms", lat.p99 * 1e3, 6)
        .fixed("latency_mean_ms", lat.mean * 1e3, 6)
        .flag("lto", SC_LTO != 0)
        .fixed("wall_s", wall_s, 6)
        .fixed("requests_per_sec", rps, 0)
        .count("allocations", allocs)
        .fixed("allocations_per_request", -1.0, 1)
        .write(cfg.json_path);
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return sc::util::guarded_main(run, argc, argv);
}
