// The daemon's stand-in for upstream origin servers.
//
// The live proxy needs something on the far side of the backbone. A
// SimulatedOrigin reuses the exact bandwidth machinery the simulator
// trusts: a registry scenario spec ("constant", "nlanr", "measured",
// "timeseries:path=...") builds an immutable net::PathModel whose
// per-path means play the role of each origin's path bandwidth, and a
// net::PathSampler draws the instantaneous value per fetch. The origin
// converts a fetch of N bytes at bandwidth b into a *wall-clock* stall
// of `latency_s + time_scale * (N / b)` seconds, which the serving
// thread sleeps outside the engine lock — so cache hits answer at
// memory speed while misses pay a tunable, bandwidth-proportional
// upstream penalty, and passive estimators observe real completion
// times. time_scale defaults to 0 (latency-only): simulated transfer
// times are minutes long, and replaying them 1:1 would make every
// bench run take hours.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "net/fault.h"
#include "net/path_process.h"

namespace sc::server {

struct OriginConfig {
  /// Registry bandwidth scenario spec; drives per-path mean draws and
  /// the variability mode, exactly as in the simulator.
  std::string scenario = "constant";
  /// Fixed per-fetch wall latency in seconds (connection setup / RTT).
  double latency_s = 0.0;
  /// Wall seconds slept per *simulated* transfer second (N / b). 0
  /// keeps fetches latency-only.
  double time_scale = 0.0;
  /// Deterministic fault plan on the daemon's wall clock (net/fault.h;
  /// the same spec grammar the simulator sweeps). Outage/flap windows
  /// zero the sampled bandwidth, degrade windows scale it, blackout
  /// windows drop estimator observations. "" / "none" injects nothing.
  std::string fault;
};

class SimulatedOrigin {
 public:
  /// Build the path model from `config.scenario` with one path per
  /// catalog object (the paper's per-object origin path), seeded the
  /// same way the simulator seeds its paths (net::PathModel::for_seed).
  SimulatedOrigin(std::size_t n_paths, const OriginConfig& config,
                  std::uint64_t seed);

  [[nodiscard]] const net::PathModel& model() const noexcept {
    return *model_;
  }
  [[nodiscard]] const OriginConfig& config() const noexcept {
    return config_;
  }

  /// Instantaneous bandwidth of `path` at engine time `now_s`
  /// (bytes/second, simulated units), scaled by any active fault
  /// window — 0 while the origin is unreachable. Mutates sampler state
  /// — callers serialize (the engine invokes this under its lock).
  /// The sampler draw happens even when the path is down so the
  /// post-recovery bandwidth stream is the identical sequence a
  /// fault-free run would have produced.
  [[nodiscard]] double bandwidth(net::PathId path, double now_s) {
    const double bw = sampler_.sample_bandwidth(path, now_s);
    return faults_.empty() ? bw : bw * faults_.bandwidth_scale(path, now_s);
  }

  /// True when `path` can reach this origin at `now_s` (always true
  /// without a fault plan).
  [[nodiscard]] bool available(net::PathId path, double now_s) const {
    return faults_.empty() || !faults_.origin_down(path, now_s);
  }

  /// The compiled fault schedule (empty without a plan). Stable address
  /// for the engine's kernel hookup (blackout filtering).
  [[nodiscard]] const net::FaultSchedule& faults() const noexcept {
    return faults_;
  }

  /// Wall-clock stall for fetching `bytes` at `bandwidth` from this
  /// origin. Pure; the caller sleeps it outside any lock.
  [[nodiscard]] double wall_delay_s(double bytes, double bandwidth) const {
    const double transfer_s = bandwidth > 0 ? bytes / bandwidth : 0.0;
    return config_.latency_s + config_.time_scale * transfer_s;
  }

 private:
  OriginConfig config_;
  std::shared_ptr<const net::PathModel> model_;
  net::PathSampler sampler_;
  net::FaultSchedule faults_;
};

}  // namespace sc::server
