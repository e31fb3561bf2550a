#include "fleet/fleet.h"

#include <algorithm>
#include <cstdio>
#include <optional>
#include <stdexcept>
#include <utility>

#include "sim/arena.h"
#include "util/rng.h"
#include "util/spec.h"

namespace sc::fleet {

FleetConfig FleetConfig::parse(const std::string& text) {
  const util::Spec spec = util::Spec::parse(text);
  if (spec.name != "fleet") {
    std::string msg =
        "unknown fleet spec \"" + spec.name + "\" (valid: fleet";
    if (const auto near = util::closest_match(spec.name, {"fleet"})) {
      msg += "; did you mean \"" + *near + "\"?";
    }
    throw util::SpecError(msg + ")");
  }
  spec.require_only({"proxies", "regions", "sharding", "uplink_mbps",
                     "burst_mb", "coop", "peer_latency_ms"});
  FleetConfig config;
  const long long proxies = spec.get_int("proxies", 16);
  if (proxies < 1 || proxies > 4096) {
    throw util::SpecError("fleet spec \"" + text +
                          "\": proxies must be in [1, 4096]");
  }
  config.proxies = static_cast<std::size_t>(proxies);
  const long long regions = spec.get_int("regions", 1);
  if (regions < 1 || static_cast<std::size_t>(regions) > config.proxies) {
    throw util::SpecError("fleet spec \"" + text +
                          "\": regions must be in [1, proxies]");
  }
  config.regions = static_cast<std::size_t>(regions);
  config.sharding = ShardingConfig::parse(spec.get_string("sharding", ""));
  config.uplink_mbps = spec.get_double("uplink_mbps", 0.0);
  if (config.uplink_mbps < 0) {
    throw util::SpecError("fleet spec \"" + text +
                          "\": uplink_mbps must be >= 0 (0 = unlimited)");
  }
  config.burst_mb = spec.get_double("burst_mb", 8.0);
  if (config.burst_mb <= 0) {
    throw util::SpecError("fleet spec \"" + text +
                          "\": burst_mb must be > 0");
  }
  config.coop = spec.get_bool("coop", false);
  const double peer_latency_ms = spec.get_double("peer_latency_ms", 2.0);
  if (peer_latency_ms < 0) {
    throw util::SpecError("fleet spec \"" + text +
                          "\": peer_latency_ms must be >= 0");
  }
  config.peer_latency_s = peer_latency_ms / 1000.0;
  return config;
}

std::string FleetConfig::to_string() const {
  std::string out = "fleet:proxies=" + std::to_string(proxies) +
                    ",regions=" + std::to_string(regions) +
                    ",sharding=" + sharding.to_string();
  char buf[64];
  std::snprintf(buf, sizeof buf, ",uplink_mbps=%g,burst_mb=%g", uplink_mbps,
                burst_mb);
  out += buf;
  if (coop) out += ",coop=1";
  std::snprintf(buf, sizeof buf, ",peer_latency_ms=%g",
                peer_latency_s * 1000.0);
  out += buf;
  return out;
}

FleetRun::FleetRun(const FleetConfig& fleet, std::uint64_t run_seed)
    : config(&fleet),
      uplink(fleet.uplink_mbps * 125000.0, fleet.burst_mb * 1.0e6),
      coop(fleet.coop && fleet.proxies > 1),
      per_proxy(fleet.proxies) {
  sharder.compile(fleet.sharding, fleet.proxies,
                  util::Rng(run_seed).fork("sharding").seed());
}

FleetResult FleetRun::finish(sim::SimulationResult aggregate) {
  FleetResult result;
  result.aggregate = std::move(aggregate);
  result.per_proxy = std::move(per_proxy);

  std::uint64_t max_requests = 0;
  std::uint64_t sum_requests = 0;
  std::uint64_t peer_assisted = 0;
  for (const ProxyStats& ps : result.per_proxy) {
    max_requests = std::max(max_requests, ps.requests);
    sum_requests += ps.requests;
    peer_assisted += ps.peer_assisted;
  }
  if (sum_requests > 0) {
    result.load_imbalance = static_cast<double>(max_requests) *
                            static_cast<double>(result.per_proxy.size()) /
                            static_cast<double>(sum_requests);
    result.peer_hit_ratio = static_cast<double>(peer_assisted) /
                            static_cast<double>(sum_requests);
  }
  if (uplink.enabled() && t_last > t_first) {
    result.uplink_utilization =
        uplink.total_bytes() /
        (config->uplink_mbps * 125000.0 * (t_last - t_first));
  }
  return result;
}

FleetResult run_cell(sim::SimulationArena& arena,
                     const workload::RequestStream& stream,
                     const FleetConfig* fleet,
                     const sim::SimulationConfig& config, std::uint64_t seed,
                     std::shared_ptr<const net::PathModel> path_model,
                     const stats::EmpiricalDistribution* base,
                     const stats::EmpiricalDistribution* ratio) {
  std::optional<FleetRun> run;
  if (fleet != nullptr) run.emplace(*fleet, seed);
  sim::MonoRunContext context;
  context.stream = &stream;
  context.model = std::move(path_model);
  context.base = base;
  context.ratio = ratio;
  context.config = &config;
  context.seed = seed;
  context.fleet = run.has_value() ? &*run : nullptr;
  sim::SimulationResult result =
      sim::acquire_mono_engine(arena, config)->run(context);
  if (!run.has_value()) return FleetResult{std::move(result), {}};
  return run->finish(std::move(result));
}

FleetResult run_fleet(const workload::RequestStream& stream,
                      const FleetConfig& fleet,
                      const sim::SimulationConfig& config,
                      std::shared_ptr<const net::PathModel> path_model,
                      const stats::EmpiricalDistribution* base,
                      const stats::EmpiricalDistribution* ratio) {
  if (fleet.proxies == 0) {
    throw std::invalid_argument("run_fleet: proxies == 0");
  }
  if (stream.num_requests() == 0) {
    throw std::invalid_argument("run_fleet: empty request trace");
  }
  if (config.cache_capacity_bytes < 0) {
    throw std::invalid_argument("run_fleet: negative cache capacity");
  }
  if (path_model == nullptr && (base == nullptr || ratio == nullptr)) {
    throw std::invalid_argument("run_fleet: null path model");
  }
  sim::SimulationArena arena;
  return run_cell(arena, stream, &fleet, config, config.seed,
                  std::move(path_model), base, ratio);
}

}  // namespace sc::fleet
