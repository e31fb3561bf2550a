// Edge-fleet simulation: N independent partial-caching proxies sharing
// one origin (the ROADMAP's "edge-fleet scale" item).
//
// The paper evaluates a single cache in front of bottlenecked paths; its
// deployment target is a CDN-style edge of many proxies. A fleet cell is
// N copies of the single-cell proxy — each a sim::DecisionKernel over
// its own byte-budget cache::PartialStore, policy, and estimator — run
// by the simulator's own request loop (sim/run_loop.h) on the same
// engines (sim/arena.h), which routes every request of the shared
// workload::RequestStream through a client→proxy assignment layer
// (fleet/sharding.h). The loop takes the fleet-only state below as one
// optional FleetRun argument; three couplings sit on top, each
// flag-gated so a trivial fleet degenerates to the single-cell
// simulator:
//
//   * Shared origin uplink: every proxy's misses drain one token bucket
//     (`uplink_mbps` refill, `burst_mb` depth) layered over the §2.2
//     path model. A drained bucket delays the origin stream, lowering
//     the throughput passive estimators observe — origin congestion
//     couples the proxies, which single-cell sweeps cannot express.
//   * Cross-proxy cooperation (`coop=1`): before paying the origin for
//     a miss remainder, a proxy serves what it can from the largest
//     peer prefix at a per-hop latency penalty; peer bytes count as
//     shared (backbone-free) traffic and never cross the uplink.
//   * Scoped fault plans (net/fault.h): each proxy compiles the cell's
//     FaultPlan for its own net::FaultScope{proxy, region}, so
//     `outage=...@region0` takes down exactly the proxies of region 0
//     (regions partition proxies into contiguous equal blocks).
//
// Determinism contract: one fleet run is a single sequential pass over
// the request stream (the shared token bucket must be drained in global
// arrival order), a pure function of (stream, config, seed). Grid
// parallelism comes from core::SweepRunner running fleet *cells*
// concurrently — results are bit-identical at every --threads, and a
// 10⁸-request fleet stays O(stream_chunk) in memory.
//
// Inertness oracle (tests/test_fleet.cpp): a single-proxy fleet with no
// uplink, no cooperation, and an unscoped fault plan executes the
// single-cell expression stream of the same loop body — every field of
// the aggregate result is identical to the standalone simulator's.
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "fleet/sharding.h"
#include "net/path_process.h"
#include "sim/simulator.h"
#include "stats/empirical.h"

namespace sc::fleet {

/// One fleet cell's shape, parsed from the registry-style spec
/// `fleet:proxies=16,regions=4,sharding=hash:vnodes=64,uplink_mbps=200,
/// burst_mb=8,coop=1,peer_latency_ms=2`.
struct FleetConfig {
  std::size_t proxies = 16;
  /// Fault-scope regions; proxies are partitioned into `regions`
  /// contiguous equal blocks (region_of). Must be in [1, proxies].
  std::size_t regions = 1;
  ShardingConfig sharding{};
  /// Shared origin uplink refill rate in megabits/second; 0 disables
  /// the token bucket entirely (infinite uplink, the inert default).
  double uplink_mbps = 0.0;
  /// Token-bucket depth in megabytes (only meaningful with a finite
  /// uplink).
  double burst_mb = 8.0;
  /// Peer hit lookup before origin miss.
  bool coop = false;
  /// Per-hop latency charged when any peer bytes are used (seconds).
  double peer_latency_s = 0.002;

  /// Parse a fleet spec string. Throws util::SpecError (with
  /// did-you-mean) on unknown names/parameters and invalid values.
  [[nodiscard]] static FleetConfig parse(const std::string& text);

  /// Canonical spec string; parse() of the result reproduces the config.
  [[nodiscard]] std::string to_string() const;

  /// Region of proxy `p`: contiguous equal blocks, e.g. 8 proxies x 2
  /// regions -> proxies 0-3 are region 0, proxies 4-7 region 1.
  [[nodiscard]] std::uint32_t region_of(std::size_t proxy) const noexcept {
    return static_cast<std::uint32_t>(proxy * regions / proxies);
  }
};

/// The shared origin uplink: a token bucket refilled at `rate` bytes/s
/// up to `burst` bytes. acquire() is called in global request-arrival
/// order (time only moves forward), consumes the transfer's bytes, and
/// returns the extra seconds the transfer waits for tokens it drained
/// past the bucket.
class UplinkBucket {
 public:
  UplinkBucket(double rate_bytes_per_s, double burst_bytes)
      : rate_(rate_bytes_per_s),
        burst_(burst_bytes),
        tokens_(burst_bytes) {}

  [[nodiscard]] bool enabled() const noexcept { return rate_ > 0.0; }

  /// Consume `bytes` at `now_s`; returns the queueing delay (0 when the
  /// bucket covers the transfer).
  double acquire(double now_s, double bytes) {
    if (rate_ <= 0.0 || bytes <= 0.0) return 0.0;
    if (now_s > last_s_) {
      tokens_ = std::min(burst_, tokens_ + (now_s - last_s_) * rate_);
      last_s_ = now_s;
    }
    total_bytes_ += bytes;
    if (tokens_ >= bytes) {
      tokens_ -= bytes;
      return 0.0;
    }
    const double deficit = bytes - tokens_;
    tokens_ = 0.0;
    return deficit / rate_;
  }

  /// Total bytes that crossed the uplink (for utilization reporting).
  [[nodiscard]] double total_bytes() const noexcept { return total_bytes_; }

 private:
  double rate_;
  double burst_;
  double tokens_;
  double last_s_ = 0.0;
  double total_bytes_ = 0.0;
};

/// Per-proxy load diagnostics, accumulated over the measured window
/// (same window as the aggregate §3.3 metrics).
struct ProxyStats {
  std::uint64_t requests = 0;
  /// Requests that found any locally cached prefix.
  std::uint64_t hits = 0;
  /// Requests that used any peer bytes (cooperation).
  std::uint64_t peer_assisted = 0;
  std::uint64_t denied_requests = 0;
  double denied_bytes = 0.0;
  double origin_bytes = 0.0;
  double peer_bytes = 0.0;
  double fill_bytes = 0.0;
};

struct FleetResult {
  /// Request-order aggregate over the whole fleet; for a single-proxy
  /// inert fleet this equals the single-cell SimulationResult
  /// field-for-field.
  sim::SimulationResult aggregate;
  std::vector<ProxyStats> per_proxy;
  /// Origin bytes / (uplink rate x trace time span); 0 with an infinite
  /// uplink. Can exceed 1: demand beyond the refill rate is queued, not
  /// dropped.
  double uplink_utilization = 0.0;
  /// max/mean of per-proxy measured request counts (1.0 = perfectly
  /// balanced).
  double load_imbalance = 1.0;
  /// Fraction of measured requests that used any peer bytes.
  double peer_hit_ratio = 0.0;
};

/// The fleet-only state of one pass of the request loop
/// (sim::run_request_loop): request routing, the shared uplink bucket,
/// cooperation, the scope each proxy compiles the fault plan for, and
/// the per-proxy stats the loop accumulates. A null FleetRun is the
/// single cell: faults compile for the standalone net::FaultScope{} and
/// no per-proxy stats are kept.
struct FleetRun {
  /// `run_seed` is the run's root seed (SimulationConfig::seed); the
  /// sharder draws from its tag-keyed "sharding" fork.
  FleetRun(const FleetConfig& fleet, std::uint64_t run_seed);

  const FleetConfig* config;
  Sharder sharder;
  UplinkBucket uplink;
  /// Peer lookup on misses (FleetConfig::coop with more than one proxy).
  bool coop;
  std::vector<ProxyStats> per_proxy;
  /// Arrival times of the first and last request (uplink utilization).
  double t_first = 0.0;
  double t_last = 0.0;

  /// The cell's result: the loop's request-order `aggregate` plus the
  /// per-proxy stats (moved out; call once) and the fleet diagnostics
  /// derived from them.
  [[nodiscard]] FleetResult finish(sim::SimulationResult aggregate);
};

/// One simulation of `config`'s (policy, estimator) pair on its engine
/// from `arena` (sim/arena.h): a fleet cell of `*fleet`, or the single
/// cell when `fleet` is null (then only `aggregate` is set and the fleet
/// diagnostics keep their defaults). `seed` is the run's root seed and
/// overrides `config.seed`; `path_model` must be non-null (its callers
/// build it before the call). sim::Simulator, run_fleet and
/// core::SweepRunner all run through here.
[[nodiscard]] FleetResult run_cell(
    sim::SimulationArena& arena, const workload::RequestStream& stream,
    const FleetConfig* fleet, const sim::SimulationConfig& config,
    std::uint64_t seed, std::shared_ptr<const net::PathModel> path_model);

/// Run one fleet cell over `stream`. `config` supplies the per-proxy
/// component specs, the *aggregate* cache budget
/// (cache_capacity_bytes / proxies per proxy), interactivity and
/// patching extensions, the fault plan, and the run seed. `path_model`
/// may be null, in which case it is `net::PathModel::for_seed` of
/// `config.seed`, as in sim::Simulator (`base`/`ratio` must then be
/// non-null).
/// Validates its arguments and runs the cell on a run-local arena.
[[nodiscard]] FleetResult run_fleet(
    const workload::RequestStream& stream, const FleetConfig& fleet,
    const sim::SimulationConfig& config,
    std::shared_ptr<const net::PathModel> path_model,
    const stats::EmpiricalDistribution* base,
    const stats::EmpiricalDistribution* ratio);

}  // namespace sc::fleet
