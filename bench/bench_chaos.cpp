// bench_chaos: the chaos/soak scenario family.
//
// Two phases, both keyed on the deterministic fault layer (net/fault.h,
// docs/CHAOS.md):
//
//  1. Simulator soak — a SweepRunner grid of (policy x fault plan)
//     cells over generated workloads, re-run at two thread counts. The
//     invariants checked in-process, any violation is a hard error:
//       * bit-identical metrics across thread counts under every plan
//       * denied_requests == 0 exactly for the fault-free cells
//       * averaged occupancy never exceeds the configured budget
//       * denied bytes never exceed requested bytes (conservation)
//
//  2. Live outage drill — an in-process ServiceEngine + ProxyDaemon
//     with a wall-clock fault plan (warm window, full origin outage,
//     recovery window) under closed-loop client load. Checked:
//       * every kOk reply conserves bytes (cache + origin == length)
//       * the daemon survives the outage: typed kOriginDown errors
//         only, no crash, no fd leak across start/drill/stop
//       * cached objects keep serving during the outage (degraded
//         hits), cold objects fail typed and admission stays off
//       * the post-outage rolling hit ratio returns to >= 90% of the
//         pre-outage ratio within --recovery-bound-s wall seconds
//
//  3. Crash drill — an out-of-process proxy_daemon with crash-safe
//     persistence enabled, SIGKILLed mid-load and restarted from its
//     snapshot + journal (docs/SERVER.md, "Persistence & recovery").
//     Checked:
//       * every kOk payload byte-verifies against the deterministic
//         splitmix64 content (wrong recovered state cannot hide)
//       * the restarted daemon reports warm_start and passes a full
//         AUDIT before serving
//       * `warm_recovery_s` (time for the hit ratio to reach 90% of the
//         pre-crash level) is measurably below `cold_recovery_s` from a
//         cold reference daemon, and both are committed + gated
//
// An optional long soak (--soak-s=N) interleaves flapping fault windows
// with periodic in-process and wire-level StateAuditor passes, failing
// on the first violated invariant.
//
// The --json record (BENCH_chaos.json) carries the standard perf
// fields plus `error_rate` (kOriginDown replies / drill requests),
// `recovery_s`, `warm_recovery_s`, and `cold_recovery_s`, gated by
// tools/check_perf.py against the committed trajectory.
// `allocations_per_request` is the -1 sentinel: the drill's allocation
// count is scheduling-dependent.
#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <exception>
#include <filesystem>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <sys/wait.h>
#include <unistd.h>

#include "bench/harness.h"
#include "core/registry.h"
#include "core/sweep.h"
#include "net/fault.h"
#include "server/client.h"
#include "server/daemon.h"
#include "server/payload.h"
#include "server/wire.h"
#include "util/cli.h"
#include "util/rng.h"

namespace {

using sc::core::AveragedMetrics;
using sc::core::SweepCell;

struct ChaosConfig {
  // Simulator soak.
  std::size_t runs = 2;
  std::size_t requests = 20000;
  std::size_t objects = 400;
  std::size_t threads = 4;
  std::uint64_t seed = 42;
  // Live drill timeline (wall seconds from daemon start).
  double warmup_s = 1.5;
  double outage_s = 2.0;
  double post_s = 2.5;
  double recovery_bound_s = 5.0;
  std::size_t clients = 2;
  std::string json_path;
  // Crash drill.
  std::string daemon_bin;     // resolved next to our own binary by default
  std::string persist_dir;    // default: a fresh temp dir
  double crash_load_s = 2.0;  // pre-crash load window
  double crash_post_s = 2.5;  // post-restart observation window
  // Long soak (0 = skip).
  double soak_s = 0.0;
};

void check(bool ok, const std::string& what) {
  if (!ok) throw std::runtime_error("bench_chaos: invariant violated: " + what);
}

void check_identical(const AveragedMetrics& a, const AveragedMetrics& b,
                     const std::string& label) {
  check(a.traffic_reduction == b.traffic_reduction &&
            a.delay_s == b.delay_s && a.quality == b.quality &&
            a.added_value == b.added_value && a.hit_ratio == b.hit_ratio &&
            a.fill_bytes == b.fill_bytes &&
            a.occupancy_bytes == b.occupancy_bytes &&
            a.denied_requests == b.denied_requests &&
            a.denied_bytes == b.denied_bytes,
        "thread-count determinism (" + label + ")");
}

std::string window_spec(const char* fmt, double a, double b, double c = 0.0) {
  char buf[128];
  std::snprintf(buf, sizeof buf, fmt, a, b, c);
  return buf;
}

// ------------------------------------------------------- simulator soak

struct SoakResult {
  std::size_t cells = 0;
  std::size_t requests_simulated = 0;
  double wall_s = 0.0;
  double denied_requests = 0.0;
};

SoakResult simulator_soak(const ChaosConfig& cfg) {
  sc::core::ExperimentConfig base;
  base.workload.catalog.num_objects = cfg.objects;
  base.workload.trace.num_requests = cfg.requests;
  base.runs = cfg.runs;
  base.base_seed = cfg.seed;
  base.sim.policy = "pb";
  const double capacity =
      sc::core::capacity_for_fraction(base.workload.catalog, 0.05);
  base.sim.cache_capacity_bytes = capacity;

  // Place fault windows inside the measured half of the trace (warmup
  // discards the first half; the span follows from the arrival rate).
  const double span = static_cast<double>(cfg.requests) /
                      base.workload.trace.arrival_rate_per_s;
  const std::vector<std::string> plans = {
      std::string(),  // the control cell: provably inert
      window_spec("fault:outage=%g+%g", 0.55 * span, 0.2 * span),
      window_spec("fault:degrade=%g+%gx0.3", 0.55 * span, 0.3 * span),
      window_spec("fault:flap=%g+%g@%g", 0.55 * span, 0.3 * span,
                  0.02 * span),
      window_spec("fault:blackout=%g+%g", 0.5 * span, 0.5 * span),
  };
  std::vector<SweepCell> cells;
  for (const char* policy : {"pb", "lru"}) {
    for (const std::string& plan : plans) {
      cells.push_back(SweepCell{policy, -1.0, 0.05, {}, plan, {}});
    }
  }

  const auto scenario = sc::core::constant_scenario();
  sc::core::ExperimentConfig serial = base;
  serial.threads = 1;
  sc::core::ExperimentConfig parallel = base;
  parallel.threads = cfg.threads;

  const auto start = std::chrono::steady_clock::now();
  const auto a = sc::core::SweepRunner(serial, scenario).run(cells);
  const auto b = sc::core::SweepRunner(parallel, scenario).run(cells);
  SoakResult result;
  result.wall_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  result.cells = cells.size();
  result.requests_simulated = 2 * cells.size() * cfg.runs * cfg.requests;

  for (std::size_t i = 0; i < cells.size(); ++i) {
    const std::string label = std::string(cells[i].policy) + " / " +
                              (cells[i].fault.empty() ? "none"
                                                      : cells[i].fault);
    check_identical(a[i], b[i], label);
    if (cells[i].fault.empty()) {
      check(a[i].denied_requests == 0.0 && a[i].denied_bytes == 0.0,
            "empty plan denied nothing (" + label + ")");
    }
    check(a[i].occupancy_bytes <= capacity + 1e-6,
          "occupancy within budget (" + label + ")");
    check(a[i].denied_bytes >= 0.0 && a[i].denied_requests >= 0.0,
          "denied accounting non-negative (" + label + ")");
    result.denied_requests += a[i].denied_requests;
    std::printf("  soak %-28s denied/run %8.1f  occupancy %.2e\n",
                label.c_str(), a[i].denied_requests, a[i].occupancy_bytes);
  }
  // The outage and flap cells must actually have denied something, or
  // the soak is vacuous.
  check(result.denied_requests > 0.0, "fault cells denied requests");
  return result;
}

// ---------------------------------------------------------- live drill

struct Sample {
  double t = 0.0;   // wall seconds since daemon start
  bool ok = false;  // kOk (vs kOriginDown)
  bool hit = false; // kOk with cache_bytes > 0
};

struct DrillResult {
  std::size_t requests = 0;
  std::size_t errors = 0;  // kOriginDown replies
  double error_rate = 0.0;
  double pre_hit_ratio = 0.0;
  double recovery_s = 0.0;
  double wall_s = 0.0;
};

void drill_client(const std::string& host, std::uint16_t port,
                  const sc::workload::Catalog& catalog, std::uint64_t seed,
                  std::chrono::steady_clock::time_point epoch, double until_s,
                  std::vector<Sample>& samples) {
  sc::server::ProxyClient client(host, port);
  sc::util::Rng rng(seed);
  const auto hot = catalog.size() / 2;  // re-referenced half of the corpus
  while (true) {
    const double now =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - epoch)
            .count();
    if (now >= until_s) break;
    const auto object = static_cast<std::uint64_t>(
        rng.uniform() * static_cast<double>(hot));
    const std::uint64_t size =
        static_cast<std::uint64_t>(catalog.object(object).size_bytes);
    const std::uint64_t budget = std::min<std::uint64_t>(size, 128 * 1024);
    for (std::uint64_t off = 0; off < budget; off += 64 * 1024) {
      const std::uint64_t len = std::min<std::uint64_t>(64 * 1024,
                                                        budget - off);
      const auto reply = client.get(object, off, len);
      Sample s;
      s.t = std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                          epoch)
                .count();
      if (reply.status == sc::server::wire::kOk) {
        // Byte conservation on every successful reply.
        if (reply.cache_bytes + reply.origin_bytes != len ||
            reply.data.size() != len) {
          throw std::runtime_error(
              "bench_chaos: reply does not conserve bytes");
        }
        s.ok = true;
        s.hit = reply.cache_bytes > 0;
      } else if (reply.status == sc::server::wire::kOriginDown) {
        s.ok = false;  // typed, transient: exactly what the drill expects
      } else {
        throw std::runtime_error("bench_chaos: unexpected status " +
                                 std::to_string(reply.status));
      }
      samples.push_back(s);
      if (!s.ok) break;  // give up on this session, pick a new object
    }
  }
}

std::size_t open_fd_count() {
  return static_cast<std::size_t>(std::distance(
      std::filesystem::directory_iterator("/proc/self/fd"),
      std::filesystem::directory_iterator{}));
}

double hit_ratio_between(const std::vector<Sample>& samples, double t0,
                         double t1) {
  std::size_t ok = 0, hits = 0;
  for (const Sample& s : samples) {
    if (s.t < t0 || s.t >= t1 || !s.ok) continue;
    ++ok;
    hits += s.hit ? 1 : 0;
  }
  return ok > 0 ? static_cast<double>(hits) / static_cast<double>(ok) : 0.0;
}

DrillResult live_drill(const ChaosConfig& cfg) {
  const std::size_t fds_before = open_fd_count();
  const double outage_end = cfg.warmup_s + cfg.outage_s;
  const double drill_end = outage_end + cfg.post_s;

  sc::server::ServiceConfig service;
  service.objects = 256;
  service.seed = cfg.seed;
  service.policy = "lru";  // deterministic admission: prefixes get cached
  service.estimator = "oracle";
  service.cache_fraction = 0.1;
  service.origin.fault =
      window_spec("fault:outage=%g+%g", cfg.warmup_s, cfg.outage_s);
  service.max_retries = 2;
  service.retry_backoff_s = 0.02;
  service.retry_backoff_max_s = 0.1;

  sc::server::ServiceEngine engine(service);
  sc::server::DaemonConfig daemon_config;
  daemon_config.idle_timeout_s = 10.0;
  sc::server::ProxyDaemon daemon(engine, daemon_config);
  daemon.start();
  const auto epoch = std::chrono::steady_clock::now();

  std::vector<std::vector<Sample>> per_client(cfg.clients);
  std::vector<std::thread> threads;
  std::mutex error_mutex;
  std::exception_ptr first_error;
  sc::util::Rng seeder(cfg.seed);
  for (std::size_t c = 0; c < cfg.clients; ++c) {
    const std::uint64_t seed =
        seeder.fork("chaos-client-" + std::to_string(c)).seed();
    threads.emplace_back([&, c, seed] {
      try {
        drill_client("127.0.0.1", daemon.port(), engine.catalog(), seed,
                     epoch, drill_end, per_client[c]);
      } catch (...) {
        const std::lock_guard<std::mutex> lock(error_mutex);
        if (!first_error) first_error = std::current_exception();
      }
    });
  }
  for (std::thread& t : threads) t.join();
  if (first_error) std::rethrow_exception(first_error);

  DrillResult result;
  result.wall_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - epoch)
          .count();
  std::vector<Sample> samples;
  for (auto& v : per_client) {
    samples.insert(samples.end(), v.begin(), v.end());
  }
  result.requests = samples.size();
  for (const Sample& s : samples) result.errors += s.ok ? 0 : 1;
  result.error_rate =
      result.requests > 0
          ? static_cast<double>(result.errors) /
                static_cast<double>(result.requests)
          : 0.0;

  // The outage actually bit (typed errors), and the engine saw it the
  // same way (counters + no fd leak after stop below).
  check(result.errors > 0, "outage produced typed kOriginDown errors");
  const sc::server::ServiceStats stats = engine.snapshot();
  check(stats.origin_down > 0, "engine counted origin_down");
  check(stats.degraded_hits > 0,
        "cached objects kept serving during the outage");
  check(stats.occupancy_bytes <= stats.capacity_bytes,
        "live occupancy within budget");

  // Recovery: the second half of the warm window is the pre-outage
  // reference; after the window closes, find the first 0.25 s bucket
  // whose hit ratio is back to >= 90% of it. Recovery is stamped at the
  // bucket's UPPER edge — the measurement cannot resolve below the
  // bucket, and a 0.0 record would make the check_perf.py proportional
  // recovery gate vacuous for every future run.
  result.pre_hit_ratio =
      hit_ratio_between(samples, 0.5 * cfg.warmup_s, cfg.warmup_s);
  check(result.pre_hit_ratio > 0.0, "warm phase produced cache hits");
  result.recovery_s = cfg.post_s;  // pessimistic default: never recovered
  constexpr double kBucket = 0.25;
  for (double t = outage_end; t + kBucket <= drill_end + 1e-9; t += kBucket) {
    if (hit_ratio_between(samples, t, t + kBucket) >=
        0.9 * result.pre_hit_ratio) {
      result.recovery_s = (t + kBucket) - outage_end;
      break;
    }
  }
  check(result.recovery_s <= cfg.recovery_bound_s,
        "hit ratio recovered within the committed bound");

  daemon.stop();
  check(open_fd_count() == fds_before, "no fd leak across the drill");
  return result;
}

// ---------------------------------------------------------- crash drill

struct CrashResult {
  std::size_t requests = 0;
  double pre_crash_hit_ratio = 0.0;
  double warm_recovery_s = 0.0;
  double cold_recovery_s = 0.0;
  double wall_s = 0.0;
};

/// A proxy_daemon child process with its stdout piped back (the drill
/// parses "LISTENING <port>").
struct DaemonProc {
  pid_t pid = -1;
  std::uint16_t port = 0;
  std::FILE* out = nullptr;

  void close_out() {
    if (out != nullptr) {
      std::fclose(out);
      out = nullptr;
    }
  }
};

DaemonProc spawn_daemon(const std::string& bin,
                        const std::vector<std::string>& args) {
  int fds[2];
  if (::pipe(fds) != 0) {
    throw std::runtime_error("bench_chaos: pipe failed");
  }
  const pid_t pid = ::fork();
  if (pid < 0) {
    ::close(fds[0]);
    ::close(fds[1]);
    throw std::runtime_error("bench_chaos: fork failed");
  }
  if (pid == 0) {
    ::dup2(fds[1], STDOUT_FILENO);
    ::close(fds[0]);
    ::close(fds[1]);
    std::vector<char*> argv;
    argv.push_back(const_cast<char*>(bin.c_str()));
    for (const std::string& a : args) {
      argv.push_back(const_cast<char*>(a.c_str()));
    }
    argv.push_back(nullptr);
    ::execv(bin.c_str(), argv.data());
    _exit(127);
  }
  ::close(fds[1]);
  DaemonProc proc;
  proc.pid = pid;
  proc.out = ::fdopen(fds[0], "r");
  if (proc.out == nullptr) {
    ::close(fds[0]);
    ::kill(pid, SIGKILL);
    ::waitpid(pid, nullptr, 0);
    throw std::runtime_error("bench_chaos: fdopen failed");
  }
  char line[256];
  while (std::fgets(line, sizeof line, proc.out) != nullptr) {
    unsigned port = 0;
    if (std::sscanf(line, "LISTENING %u", &port) == 1) {
      proc.port = static_cast<std::uint16_t>(port);
      return proc;
    }
  }
  proc.close_out();
  ::waitpid(pid, nullptr, 0);
  throw std::runtime_error("bench_chaos: daemon " + bin +
                           " exited before LISTENING (missing binary or "
                           "bad flags?)");
}

void terminate_daemon(DaemonProc& proc, int sig) {
  if (proc.pid < 0) return;
  ::kill(proc.pid, sig);
  int status = 0;
  while (::waitpid(proc.pid, &status, 0) < 0 && errno == EINTR) {
  }
  proc.close_out();
  if (sig == SIGTERM &&
      !(WIFEXITED(status) && WEXITSTATUS(status) == 0)) {
    throw std::runtime_error(
        "bench_chaos: daemon did not shut down cleanly on SIGTERM");
  }
  proc.pid = -1;
}

/// Closed-loop load for the crash drill: one single-range session per
/// object pick (offset 0 only), so hits come purely from cross-restart
/// cache state, and every kOk payload byte-verified against the
/// deterministic splitmix64 content. Tolerates the daemon dying
/// mid-request (the SIGKILL moment) by returning quietly.
void crash_client(std::uint16_t port, const sc::workload::Catalog& catalog,
                  std::uint64_t seed,
                  std::chrono::steady_clock::time_point epoch, double until_s,
                  std::vector<Sample>& samples) {
  sc::util::Rng rng(seed);
  const auto hot = catalog.size() / 2;
  try {
    sc::server::ProxyClient client("127.0.0.1", port);
    while (true) {
      const double now = std::chrono::duration<double>(
                             std::chrono::steady_clock::now() - epoch)
                             .count();
      if (now >= until_s) break;
      const auto object = static_cast<std::uint64_t>(
          rng.uniform() * static_cast<double>(hot));
      const std::uint64_t size =
          static_cast<std::uint64_t>(catalog.object(object).size_bytes);
      const std::uint64_t len = std::min<std::uint64_t>(size, 64 * 1024);
      const auto reply = client.get(object, 0, len);
      Sample s;
      s.t = std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                          epoch)
                .count();
      if (reply.status == sc::server::wire::kOk) {
        if (reply.data.size() != len) {
          throw std::runtime_error("bench_chaos: short crash-drill payload");
        }
        // Byte verification: content is a pure function of (object,
        // offset), so stale or corrupt recovered state cannot serve a
        // wrong byte without tripping this.
        std::vector<std::uint8_t> expect(len);
        sc::server::fill_payload(object, 0, expect.data(), len);
        if (std::memcmp(reply.data.data(), expect.data(), len) != 0) {
          throw std::runtime_error(
              "bench_chaos: crash-drill payload mismatch");
        }
        s.ok = true;
        s.hit = reply.cache_bytes > 0;
      } else if (reply.status != sc::server::wire::kOriginDown) {
        throw std::runtime_error("bench_chaos: unexpected crash-drill status " +
                                 std::to_string(reply.status));
      }
      samples.push_back(s);
    }
  } catch (const std::runtime_error& e) {
    // Transport failures are expected exactly when the daemon is
    // SIGKILLed under us; anything mentioning payloads is a real bug.
    const std::string what = e.what();
    if (what.find("payload") != std::string::npos) throw;
  }
}

/// Run `clients` crash_client threads against `port` until `until_s`,
/// merging their samples (sorted by time).
std::vector<Sample> crash_load(const ChaosConfig& cfg, std::uint16_t port,
                               const sc::workload::Catalog& catalog,
                               std::chrono::steady_clock::time_point epoch,
                               double until_s, const char* tag) {
  std::vector<std::vector<Sample>> per_client(cfg.clients);
  std::vector<std::thread> threads;
  std::mutex error_mutex;
  std::exception_ptr first_error;
  sc::util::Rng seeder(cfg.seed);
  for (std::size_t c = 0; c < cfg.clients; ++c) {
    const std::uint64_t seed =
        seeder.fork(std::string("crash-") + tag + std::to_string(c)).seed();
    threads.emplace_back([&, c, seed] {
      try {
        crash_client(port, catalog, seed, epoch, until_s, per_client[c]);
      } catch (...) {
        const std::lock_guard<std::mutex> lock(error_mutex);
        if (!first_error) first_error = std::current_exception();
      }
    });
  }
  for (std::thread& t : threads) t.join();
  if (first_error) std::rethrow_exception(first_error);
  std::vector<Sample> samples;
  for (auto& v : per_client) {
    samples.insert(samples.end(), v.begin(), v.end());
  }
  std::sort(samples.begin(), samples.end(),
            [](const Sample& a, const Sample& b) { return a.t < b.t; });
  return samples;
}

/// Upper edge of the first 0.25 s bucket (seconds since `epoch`-relative
/// 0) whose hit ratio reaches `threshold`; `bound_s` when none does.
/// Returning the upper edge (not the lower) keeps the value strictly
/// positive even when the very first bucket recovers — a 0.0 baseline
/// would make the check_perf.py recovery-regression gates vacuous.
double recovery_time(const std::vector<Sample>& samples, double threshold,
                     double bound_s) {
  constexpr double kBucket = 0.25;
  for (double t = 0.0; t + kBucket <= bound_s + 1e-9; t += kBucket) {
    if (hit_ratio_between(samples, t, t + kBucket) >= threshold) {
      return t + kBucket;
    }
  }
  return bound_s;
}

CrashResult crash_drill(const ChaosConfig& cfg) {
  const auto t0 = std::chrono::steady_clock::now();

  // The daemon binary lives next to ours unless overridden.
  std::string bin = cfg.daemon_bin;
  if (bin.empty()) {
    bin = (std::filesystem::read_symlink("/proc/self/exe").parent_path() /
           "proxy_daemon")
              .string();
  }

  // Bench-owned scratch dirs are removed by the guard on success and on
  // every throw path; a user-supplied --persist-dir is left alone (CI
  // uploads it as a failure artifact).
  std::optional<sc::bench::TempDir> scratch;
  std::string dir = cfg.persist_dir;
  if (dir.empty()) {
    scratch.emplace("/tmp/sc-chaos-persist-");
    dir = scratch->path();
  } else {
    std::filesystem::create_directories(dir);
  }
  const std::string cold_dir = dir + "/cold";

  // Catalog mirror (same objects/seed as the daemon) for sizes.
  constexpr std::size_t kObjects = 256;
  const auto catalog =
      sc::server::ServiceEngine::make_catalog(kObjects, cfg.seed);

  // LRU + oracle with capacity covering the hot half and a real
  // per-miss origin stall: a cold cache pays ~latency per miss while it
  // repopulates, a warm (recovered) cache hits immediately — that gap
  // IS the measured warm-vs-cold recovery difference.
  const auto daemon_args = [&](const std::string& persist) {
    return std::vector<std::string>{
        "--port=0",
        "--objects=" + std::to_string(kObjects),
        "--seed=" + std::to_string(cfg.seed),
        "--policy=lru",
        "--estimator=oracle",
        "--cache=0.6",
        "--origin-latency-ms=10",
        "--tick-ms=50",
        "--snapshot-interval-s=0.25",
        "--persist-dir=" + persist,
    };
  };

  CrashResult result;

  // --- Phase A: load, then SIGKILL mid-load --------------------------
  DaemonProc victim = spawn_daemon(bin, daemon_args(dir));
  const auto epoch_a = std::chrono::steady_clock::now();
  std::thread killer([&] {
    std::this_thread::sleep_for(
        std::chrono::duration<double>(cfg.crash_load_s));
    ::kill(victim.pid, SIGKILL);  // no warning, no flush — the real thing
  });
  // Clients run past the kill instant so the daemon dies under load.
  const auto pre = crash_load(cfg, victim.port, catalog, epoch_a,
                              cfg.crash_load_s + 0.5, "pre");
  killer.join();
  int status = 0;
  while (::waitpid(victim.pid, &status, 0) < 0 && errno == EINTR) {
  }
  victim.close_out();
  check(WIFSIGNALED(status) && WTERMSIG(status) == SIGKILL,
        "victim daemon died by SIGKILL");
  result.requests += pre.size();

  result.pre_crash_hit_ratio = hit_ratio_between(
      pre, std::max(0.0, cfg.crash_load_s - 0.5), cfg.crash_load_s);
  check(result.pre_crash_hit_ratio > 0.0,
        "pre-crash load produced cache hits");
  const double threshold = 0.9 * result.pre_crash_hit_ratio;

  // --- Phase B: restart from the snapshot + journal ------------------
  DaemonProc warm = spawn_daemon(bin, daemon_args(dir));
  {
    sc::server::ProxyClient probe("127.0.0.1", warm.port);
    const std::string stats = probe.stats();
    check(stats.find("\"warm_start\": true") != std::string::npos,
          "restarted daemon reports warm_start (stats: " + stats + ")");
    const std::string audit = probe.audit();
    check(audit.find("\"ok\": true") != std::string::npos,
          "restarted daemon passes AUDIT (" + audit + ")");
  }
  const auto epoch_b = std::chrono::steady_clock::now();
  const auto post =
      crash_load(cfg, warm.port, catalog, epoch_b, cfg.crash_post_s, "post");
  result.requests += post.size();
  result.warm_recovery_s = recovery_time(post, threshold, cfg.crash_post_s);
  terminate_daemon(warm, SIGTERM);  // graceful: flushes a final snapshot

  // --- Phase C: cold reference ---------------------------------------
  std::filesystem::create_directories(cold_dir);
  DaemonProc cold = spawn_daemon(bin, daemon_args(cold_dir));
  {
    sc::server::ProxyClient probe("127.0.0.1", cold.port);
    check(probe.stats().find("\"warm_start\": false") != std::string::npos,
          "cold reference daemon starts cold");
  }
  const auto epoch_c = std::chrono::steady_clock::now();
  const auto cold_samples =
      crash_load(cfg, cold.port, catalog, epoch_c, cfg.crash_post_s, "cold");
  result.requests += cold_samples.size();
  result.cold_recovery_s =
      recovery_time(cold_samples, threshold, cfg.crash_post_s);
  terminate_daemon(cold, SIGTERM);

  check(result.warm_recovery_s < result.cold_recovery_s,
        "warm recovery beats cold (warm " +
            std::to_string(result.warm_recovery_s) + " s vs cold " +
            std::to_string(result.cold_recovery_s) + " s)");
  check(result.warm_recovery_s <= cfg.recovery_bound_s,
        "warm recovery within the committed bound");

  result.wall_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  return result;
}

// ------------------------------------------------------------ long soak

/// Interleave flapping fault windows with client load and periodic
/// integrity audits (in-process StateAuditor + the AUDIT wire frame),
/// failing on the first violated invariant.
void long_soak(const ChaosConfig& cfg) {
  sc::server::ServiceConfig service;
  service.objects = 256;
  service.seed = cfg.seed;
  service.policy = "lru";
  service.estimator = "ewma";  // exercises the observation queue too
  service.cache_fraction = 0.1;
  service.origin.fault =
      window_spec("fault:flap=%g+%g@%g", 0.5, cfg.soak_s, 0.4);
  service.max_retries = 1;
  service.retry_backoff_s = 0.01;
  service.retry_backoff_max_s = 0.05;

  sc::server::ServiceEngine engine(service);
  sc::server::DaemonConfig daemon_config;
  daemon_config.idle_timeout_s = 10.0;
  sc::server::ProxyDaemon daemon(engine, daemon_config);
  daemon.start();
  const auto epoch = std::chrono::steady_clock::now();

  std::atomic<bool> stop{false};
  std::mutex error_mutex;
  std::exception_ptr first_error;
  const auto record_error = [&] {
    const std::lock_guard<std::mutex> lock(error_mutex);
    if (!first_error) first_error = std::current_exception();
    stop.store(true);
  };

  // Auditor thread: every 0.5 s, a full in-process StateAuditor pass
  // plus the same check over the wire.
  std::thread auditor([&] {
    try {
      sc::server::ProxyClient client("127.0.0.1", daemon.port());
      std::size_t audits = 0;
      while (!stop.load()) {
        std::this_thread::sleep_for(std::chrono::milliseconds(500));
        if (stop.load()) break;
        const auto report = engine.audit();
        check(report.ok(), "soak audit #" + std::to_string(audits) + ": " +
                               report.to_string());
        const std::string wire_report = client.audit();
        check(wire_report.find("\"ok\": true") != std::string::npos,
              "soak wire audit #" + std::to_string(audits) + ": " +
                  wire_report);
        ++audits;
      }
      std::printf("  soak: %zu periodic audits, all clean\n", audits);
    } catch (...) {
      record_error();
    }
  });

  std::vector<std::thread> threads;
  std::vector<std::vector<Sample>> per_client(cfg.clients);
  sc::util::Rng seeder(cfg.seed);
  for (std::size_t c = 0; c < cfg.clients; ++c) {
    const std::uint64_t seed =
        seeder.fork("soak-client-" + std::to_string(c)).seed();
    threads.emplace_back([&, c, seed] {
      try {
        drill_client("127.0.0.1", daemon.port(), engine.catalog(), seed,
                     epoch, cfg.soak_s, per_client[c]);
      } catch (...) {
        record_error();
      }
    });
  }
  for (std::thread& t : threads) t.join();
  stop.store(true);
  auditor.join();
  if (first_error) std::rethrow_exception(first_error);

  // One final audit after the load stops, then a clean shutdown.
  const auto final_report = engine.audit();
  check(final_report.ok(), "final soak audit: " + final_report.to_string());
  std::size_t requests = 0;
  for (const auto& v : per_client) requests += v.size();
  daemon.stop();
  std::printf("  soak OK: %zu requests over %.1f s under a flapping "
              "origin\n",
              requests, cfg.soak_s);
}

int run(int argc, char** argv) {
  const sc::util::Cli cli(argc, argv);
  if (cli.has("help")) {
    std::printf(
        "usage: %s [flags]\n\n"
        "  --quick              reduced soak + drill (CI smoke)\n"
        "  --runs=N             soak replications per cell (default 2)\n"
        "  --requests=N         soak trace length (default 20000)\n"
        "  --objects=N          soak catalog size (default 400)\n"
        "  --threads=N          parallel soak thread count (default 4)\n"
        "  --clients=N          drill client threads (default 2)\n"
        "  --warmup-s=F         drill warm window before the outage\n"
        "  --outage-s=F         drill outage window length\n"
        "  --post-s=F           drill observation window after recovery\n"
        "  --recovery-bound-s=F committed recovery bound (default 5)\n"
        "  --crash-load-s=F     crash-drill pre-crash load window\n"
        "  --crash-post-s=F     crash-drill post-restart window\n"
        "  --daemon-bin=PATH    proxy_daemon binary for the crash drill\n"
        "                       (default: next to this binary)\n"
        "  --persist-dir=PATH   crash-drill persistence directory\n"
        "                       (default: a fresh /tmp dir; kept so CI\n"
        "                       can upload it on failure)\n"
        "  --soak-s=N           optional long soak with periodic audits\n"
        "  --seed=S             base seed (default 42)\n"
        "  --json=PATH          write the BENCH_chaos.json perf record\n",
        cli.program().c_str());
    return 0;
  }
  cli.check_unknown({"quick", "runs", "requests", "objects", "threads",
                     "clients", "warmup-s", "outage-s", "post-s",
                     "recovery-bound-s", "crash-load-s", "crash-post-s",
                     "daemon-bin", "persist-dir", "soak-s", "seed", "json",
                     "help"});

  ChaosConfig cfg;
  if (cli.get_or("quick", false)) {
    cfg.requests = 8000;
    cfg.warmup_s = 1.0;
    cfg.outage_s = 1.5;
    cfg.post_s = 2.0;
  }
  cfg.runs = static_cast<std::size_t>(
      cli.get_or("runs", static_cast<long long>(cfg.runs)));
  cfg.requests = static_cast<std::size_t>(
      cli.get_or("requests", static_cast<long long>(cfg.requests)));
  cfg.objects = static_cast<std::size_t>(
      cli.get_or("objects", static_cast<long long>(cfg.objects)));
  cfg.threads = static_cast<std::size_t>(
      cli.get_or("threads", static_cast<long long>(cfg.threads)));
  cfg.clients = static_cast<std::size_t>(
      cli.get_or("clients", static_cast<long long>(cfg.clients)));
  cfg.warmup_s = cli.get_or("warmup-s", cfg.warmup_s);
  cfg.outage_s = cli.get_or("outage-s", cfg.outage_s);
  cfg.post_s = cli.get_or("post-s", cfg.post_s);
  cfg.recovery_bound_s = cli.get_or("recovery-bound-s", cfg.recovery_bound_s);
  cfg.crash_load_s = cli.get_or("crash-load-s", cfg.crash_load_s);
  cfg.crash_post_s = cli.get_or("crash-post-s", cfg.crash_post_s);
  cfg.daemon_bin = cli.get_or("daemon-bin", std::string());
  cfg.persist_dir = cli.get_or("persist-dir", std::string());
  cfg.soak_s = cli.get_or("soak-s", cfg.soak_s);
  cfg.seed = static_cast<std::uint64_t>(cli.get_or("seed", 42LL));
  cfg.json_path = cli.get_or("json", std::string());
  if (cfg.runs == 0 || cfg.requests == 0 || cfg.clients == 0 ||
      cfg.warmup_s <= 0 || cfg.outage_s <= 0 || cfg.post_s <= 0 ||
      cfg.crash_load_s <= 0 || cfg.crash_post_s <= 0 || cfg.soak_s < 0) {
    throw std::invalid_argument("bench_chaos: all knobs must be positive");
  }

  std::printf("bench_chaos phase 1: simulator soak (%zu requests x %zu "
              "runs, threads 1 vs %zu)\n",
              cfg.requests, cfg.runs, cfg.threads);
  const SoakResult soak = simulator_soak(cfg);
  std::printf("soak OK: %zu cells x 2 thread configs, %zu requests in "
              "%.2f s, %.0f denied/run total\n",
              soak.cells, soak.requests_simulated, soak.wall_s,
              soak.denied_requests);

  std::printf("bench_chaos phase 2: live outage drill (warm %.1fs, outage "
              "%.1fs, post %.1fs, %zu clients)\n",
              cfg.warmup_s, cfg.outage_s, cfg.post_s, cfg.clients);
  const DrillResult drill = live_drill(cfg);
  std::printf("drill OK: %zu requests, %zu typed errors (rate %.4f), "
              "pre-outage hit ratio %.3f, recovery %.2f s (bound %.1f s)\n",
              drill.requests, drill.errors, drill.error_rate,
              drill.pre_hit_ratio, drill.recovery_s, cfg.recovery_bound_s);

  std::printf("bench_chaos phase 3: crash drill (load %.1fs, SIGKILL, "
              "restart, observe %.1fs, then a cold reference)\n",
              cfg.crash_load_s, cfg.crash_post_s);
  const CrashResult crash = crash_drill(cfg);
  std::printf("crash drill OK: %zu requests, pre-crash hit ratio %.3f, "
              "warm recovery %.2f s vs cold %.2f s\n",
              crash.requests, crash.pre_crash_hit_ratio,
              crash.warm_recovery_s, crash.cold_recovery_s);

  if (cfg.soak_s > 0) {
    std::printf("bench_chaos phase 4: long soak (%.1f s, audits every "
                "0.5 s)\n",
                cfg.soak_s);
    long_soak(cfg);
  }

  if (!cfg.json_path.empty()) {
    const double rps =
        soak.wall_s > 0
            ? static_cast<double>(soak.requests_simulated) / soak.wall_s
            : 0.0;
    sc::bench::PerfRecord()
        .text("bench", "bench_chaos")
        .count("threads", cfg.threads)
        .count("runs", cfg.runs)
        .count("requests_per_run", cfg.requests)
        .count("objects", cfg.objects)
        .count("simulations", 2 * soak.cells * cfg.runs)
        .count("requests_simulated", soak.requests_simulated)
        .count("drill_requests", drill.requests)
        .count("drill_errors", drill.errors)
        .fixed("error_rate", drill.error_rate, 6)
        .fixed("recovery_s", drill.recovery_s, 6)
        .fixed("warm_recovery_s", crash.warm_recovery_s, 6)
        .fixed("cold_recovery_s", crash.cold_recovery_s, 6)
        .fixed("pre_outage_hit_ratio", drill.pre_hit_ratio, 6)
        .flag("lto", SC_LTO != 0)
        .fixed("wall_s", soak.wall_s + drill.wall_s + crash.wall_s, 6)
        .fixed("requests_per_sec", rps, 0)
        .count("allocations", sc::bench::allocation_count())
        .fixed("allocations_per_request", -1.0, 1)
        .fixed("peak_rss_mb", sc::bench::peak_rss_mb(), 3)
        .write(cfg.json_path);
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return sc::util::guarded_main(run, argc, argv);
}
