// bench_fleet: edge-fleet scale — N partial-caching proxies, one origin.
//
// The paper evaluates a single proxy; its deployment target is a
// CDN-style edge of many. This bench sweeps fleet/fleet.h cells on the
// shared SweepRunner grid, all over ONE streamed workload per
// replication (O(chunk) memory even at 10^7-10^8 requests):
//
//   * the three sharding modes (consistent-hash ring is the headline,
//     client-affinity pinning and per-request random the references)
//   * a finite shared origin uplink (token bucket over the path model),
//     whose congestion couples the proxies through the throughput their
//     estimators observe
//   * cross-proxy cooperation (peer prefix before origin miss)
//
// Default shape: --quick is the acceptance-scale run — 16 proxies over
// a 10M-request stream, one replication per cell — and what CI commits
// as BENCH_fleet.json. The full run keeps the paper's 10-replication
// averaging at the standard 100K-request trace.
//
// Invariants checked in-process (any violation is a hard error):
//   * per-proxy measured requests sum to the aggregate measured count
//   * random sharding is near-balanced; every mode's imbalance >= 1
//   * the uplink cell reports non-zero utilization, the coop cell a
//     non-zero peer-hit ratio, and the inert hash cell neither
//
// The --json record (BENCH_fleet.json) carries the standard perf fields
// plus `hit_ratio`, `load_imbalance` (hash cell; gated hard by
// tools/check_perf.py --imbalance-slack), `uplink_utilization`,
// `peer_hit_ratio`, and the p50/p95/p99 of per-simulation wall times.
// CSVs are byte-identical for every --threads value; CI diffs them.

#include <cstdio>
#include <stdexcept>
#include <string>
#include <vector>

#include "bench/harness.h"
#include "fleet/fleet.h"
#include "util/csv.h"

namespace {

struct FleetCell {
  std::string label;
  std::string spec;
};

}  // namespace

int run_main(int argc, char** argv) {
  using namespace sc;
  auto cfg = bench::parse_figure_args(
      argc, argv, "fleet.csv",
      {"proxies", "regions", "uplink-mbps", "burst-mb", "peer-latency-ms",
       "fraction"});
  const util::Cli cli(argc, argv);
  if (cli.get_or("quick", false)) {
    // Fleet quick mode is the acceptance-scale configuration, not a
    // reduced one: 16 proxies x 10M streamed requests, one replication
    // per cell (the grid still parallelizes across cells).
    if (!cli.has("runs")) cfg.runs = 1;
    if (!cli.has("requests") && !cli.has("num-requests")) {
      cfg.requests = 10'000'000;
    }
    if (!cli.has("objects")) cfg.objects = 5000;
  }
  const std::size_t proxies = cli.get_count("proxies", 16);
  const std::size_t regions = cli.get_count("regions", 4);
  const double uplink_mbps = cli.get_or("uplink-mbps", 200.0);
  const double burst_mb = cli.get_or("burst-mb", 64.0);
  const double peer_latency_ms = cli.get_or("peer-latency-ms", 2.0);
  const double fraction = cli.get_or("fraction", 0.05);
  if (proxies == 0 || regions == 0) {
    throw std::invalid_argument("--proxies/--regions must be positive");
  }

  const auto scenario = bench::scenario_for(cfg, "constant");
  const auto policies = bench::policies_for(cfg, {bench::spec("pb", "PB")});
  const std::string policy = policies.front().spec;

  const std::string shape = "proxies=" + std::to_string(proxies) +
                            ",regions=" + std::to_string(regions);
  char extra[160];
  std::snprintf(extra, sizeof(extra),
                ",uplink_mbps=%g,burst_mb=%g,peer_latency_ms=%g", uplink_mbps,
                burst_mb, peer_latency_ms);
  const std::vector<FleetCell> fleet_cells = {
      {"hash", "fleet:" + shape + ",sharding=hash:vnodes=64"},
      {"affinity", "fleet:" + shape + ",sharding=affinity"},
      {"random", "fleet:" + shape + ",sharding=random"},
      {"hash+uplink",
       "fleet:" + shape + ",sharding=hash:vnodes=64" + extra},
      // Cooperation needs cache overlap: object-keyed hash sharding pins
      // each object to one proxy (peers never hold it), so the coop cell
      // shards randomly and is compared against the random baseline.
      {"random+uplink+coop",
       "fleet:" + shape + ",sharding=random,coop=1" + extra},
  };
  for (const auto& c : fleet_cells) {
    (void)fleet::FleetConfig::parse(c.spec);  // fail fast on typos
  }

  std::vector<core::SweepCell> cells;
  cells.reserve(fleet_cells.size());
  for (const auto& c : fleet_cells) {
    cells.push_back(core::SweepCell{policy, -1.0, fraction, {}, {}, c.spec});
  }

  std::printf("bench_fleet: %zu proxies x %zu regions, %zu cells x %zu "
              "runs x %zu requests (policy %s, sharding x uplink x coop)\n",
              proxies, regions, cells.size(), cfg.runs, cfg.requests,
              policies.front().label.c_str());

  // Write the custom record below instead of the generic one.
  const std::string json_path = cfg.json_path;
  cfg.json_path.clear();
  const auto metrics = bench::run_cells(cfg, scenario, cells);
  const auto& t = bench::last_sweep_telemetry();

  util::CsvWriter csv(cfg.csv_path);
  csv.header({"cell", "fleet", "policy", "cache_fraction", "runs",
              "hit_ratio", "traffic_reduction", "delay_s", "quality",
              "immediate_ratio", "denied_requests", "uplink_utilization",
              "load_imbalance", "peer_hit_ratio"});
  std::printf("\n%-18s %10s %10s %10s %10s %10s %10s\n", "cell", "hit",
              "traffic", "delay_s", "uplink", "imbalance", "peer_hits");
  for (std::size_t i = 0; i < fleet_cells.size(); ++i) {
    const auto& m = metrics[i];
    csv.field(fleet_cells[i].label)
        .field(fleet_cells[i].spec)
        .field(policy)
        .field(fraction)
        .field(static_cast<long long>(m.runs))
        .field(m.hit_ratio)
        .field(m.traffic_reduction)
        .field(m.delay_s)
        .field(m.quality)
        .field(m.immediate_ratio)
        .field(m.denied_requests)
        .field(m.uplink_utilization)
        .field(m.load_imbalance)
        .field(m.peer_hit_ratio);
    csv.endrow();
    std::printf("%-18s %10.4f %10.4f %10.3f %10.4f %10.4f %10.4f\n",
                fleet_cells[i].label.c_str(), m.hit_ratio,
                m.traffic_reduction, m.delay_s, m.uplink_utilization,
                m.load_imbalance, m.peer_hit_ratio);
  }
  std::printf("\n[series written to %s]\n", cfg.csv_path.c_str());
  if (cfg.latency_percentiles) {
    bench::print_latency_summary("per-simulation wall time", t.sim_latency);
  }

  // ---- in-process shape checks ---------------------------------------
  const auto check = [](bool ok, const std::string& what) {
    if (!ok) throw std::runtime_error("bench_fleet: FAILED: " + what);
    std::printf("  check OK: %s\n", what.c_str());
  };
  const auto& hash = metrics[0];
  const auto& random = metrics[2];
  const auto& uplink = metrics[3];
  const auto& coop = metrics[4];
  for (std::size_t i = 0; i < fleet_cells.size(); ++i) {
    check(metrics[i].load_imbalance >= 1.0,
          fleet_cells[i].label + " imbalance >= 1 (max/mean)");
  }
  check(random.load_imbalance < 1.2,
        "per-request random sharding is near-balanced");
  check(hash.uplink_utilization == 0.0 && hash.peer_hit_ratio == 0.0,
        "plain hash cell reports no uplink/coop activity");
  check(uplink.uplink_utilization > 0.0,
        "finite uplink cell reports non-zero utilization");
  check(uplink.delay_s >= hash.delay_s,
        "origin congestion cannot reduce service delay");
  check(coop.peer_hit_ratio > 0.0,
        "cooperating fleet serves some bytes from peers");
  // Cooperation shifts origin bytes to backbone-free peer transfers;
  // cache-side traffic reduction tracks its random-sharded baseline (the
  // only drift is congestion feedback into the estimators), and the lift
  // shows up in peer_hit_ratio and relieved uplink pressure.
  check(coop.traffic_reduction >= random.traffic_reduction - 0.01,
        "coop never hurts cache-side traffic reduction");
  check(coop.uplink_utilization > 0.0,
        "coop cell still reports shared-uplink pressure");

  if (!json_path.empty()) {
    const double reqs = static_cast<double>(t.requests_simulated);
    bench::PerfRecord()
        .text("bench", "bench_fleet")
        .count("threads", t.threads)
        .count("runs", cfg.runs)
        .count("requests_per_run", t.requests_per_run)
        .count("objects", t.objects)
        .count("proxies", proxies)
        .count("regions", regions)
        .count("simulations", t.simulations)
        .count("workloads_generated", t.workloads_generated)
        .count("path_models_built", t.path_models_built)
        .count("requests_simulated", t.requests_simulated)
        .fixed("hit_ratio", hash.hit_ratio, 6)
        .fixed("load_imbalance", hash.load_imbalance, 6)
        .fixed("uplink_utilization", uplink.uplink_utilization, 6)
        .fixed("peer_hit_ratio", coop.peer_hit_ratio, 6)
        .fixed("sim_wall_p50_ms", t.sim_latency.p50 * 1e3, 3)
        .fixed("sim_wall_p95_ms", t.sim_latency.p95 * 1e3, 3)
        .fixed("sim_wall_p99_ms", t.sim_latency.p99 * 1e3, 3)
        .flag("lto", SC_LTO != 0)
        .fixed("wall_s", t.wall_s, 6)
        .fixed("requests_per_sec", t.wall_s > 0 ? reqs / t.wall_s : 0.0, 0)
        .count("allocations", t.allocations)
        .fixed("allocations_per_request",
               reqs > 0 ? static_cast<double>(t.allocations) / reqs : 0.0, 6)
        .fixed("peak_rss_mb", t.peak_rss_mb, 3)
        .write(json_path);
  }
  return 0;
}

int main(int argc, char** argv) {
  return sc::util::guarded_main(run_main, argc, argv);
}
