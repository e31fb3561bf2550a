// The edge-fleet layer (fleet/fleet.h, fleet/sharding.h): spec parsing
// with did-you-mean diagnostics, the single-proxy inertness oracle (a
// trivial fleet is field-identical to the single-cell simulator), the
// determinism contract (thread count never changes a fleet metric),
// sharding balance properties under Zipf skew, regional fault scoping,
// and the uplink/cooperation coupling semantics.

#include "fleet/fleet.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/experiment.h"
#include "core/sweep.h"
#include "net/fault.h"
#include "util/rng.h"
#include "util/spec.h"
#include "workload/request_stream.h"

namespace sc {
namespace {

using core::AveragedMetrics;
using core::ExperimentConfig;
using core::SweepCell;
using core::SweepRunner;
using fleet::FleetConfig;
using fleet::FleetResult;
using fleet::ShardingConfig;

ExperimentConfig small_config() {
  ExperimentConfig cfg;
  cfg.workload.catalog.num_objects = 200;
  cfg.workload.trace.num_requests = 4000;
  cfg.runs = 2;
  cfg.base_seed = 311;
  return cfg;
}

/// The shared-RNG contract used by core::SweepRunner: catalog draws
/// first, then the trace; a synthetic stream snapshots the post-catalog
/// state.
workload::RequestStream stream_for(const workload::WorkloadConfig& cfg,
                                   std::uint64_t seed) {
  util::Rng rng(seed);
  auto catalog = std::make_shared<const workload::Catalog>(
      workload::Catalog::generate(cfg.catalog, rng));
  return workload::RequestStream::synthetic(catalog, cfg.trace,
                                            std::move(rng));
}

/// Direct run_fleet call with the same seed/capacity derivation a sweep
/// cell would use.
FleetResult run_direct(const std::string& fleet_spec,
                       const std::string& fault_spec = "",
                       std::size_t requests = 20000,
                       std::size_t objects = 300) {
  workload::WorkloadConfig wl;
  wl.catalog.num_objects = objects;
  wl.trace.num_requests = requests;
  const auto stream = stream_for(wl, 97);
  sim::SimulationConfig config;
  config.policy = "pb";
  config.cache_capacity_bytes = core::capacity_for_fraction(wl.catalog, 0.05);
  config.fault = net::FaultPlan::parse(fault_spec);
  config.seed = 97;
  const auto scenario = core::constant_scenario();
  return fleet::run_fleet(stream, FleetConfig::parse(fleet_spec), config,
                          nullptr, &scenario.base, &scenario.ratio);
}

void expect_identical(const AveragedMetrics& a, const AveragedMetrics& b) {
  EXPECT_EQ(a.runs, b.runs);
  EXPECT_EQ(a.traffic_reduction, b.traffic_reduction);
  EXPECT_EQ(a.traffic_reduction_sd, b.traffic_reduction_sd);
  EXPECT_EQ(a.delay_s, b.delay_s);
  EXPECT_EQ(a.delay_s_sd, b.delay_s_sd);
  EXPECT_EQ(a.quality, b.quality);
  EXPECT_EQ(a.quality_sd, b.quality_sd);
  EXPECT_EQ(a.added_value, b.added_value);
  EXPECT_EQ(a.added_value_sd, b.added_value_sd);
  EXPECT_EQ(a.hit_ratio, b.hit_ratio);
  EXPECT_EQ(a.immediate_ratio, b.immediate_ratio);
  EXPECT_EQ(a.fill_bytes, b.fill_bytes);
  EXPECT_EQ(a.occupancy_bytes, b.occupancy_bytes);
  EXPECT_EQ(a.denied_requests, b.denied_requests);
  EXPECT_EQ(a.denied_bytes, b.denied_bytes);
  EXPECT_EQ(a.uplink_utilization, b.uplink_utilization);
  EXPECT_EQ(a.load_imbalance, b.load_imbalance);
  EXPECT_EQ(a.peer_hit_ratio, b.peer_hit_ratio);
}

// ----------------------------------------------------------- spec parsing

TEST(FleetConfig, ParsesAndRoundTrips) {
  const FleetConfig cfg = FleetConfig::parse(
      "fleet:proxies=8,regions=4,sharding=hash:vnodes=32,uplink_mbps=200,"
      "burst_mb=16,coop=1,peer_latency_ms=3");
  EXPECT_EQ(cfg.proxies, 8u);
  EXPECT_EQ(cfg.regions, 4u);
  EXPECT_EQ(cfg.sharding.mode, ShardingConfig::Mode::kHash);
  EXPECT_EQ(cfg.sharding.vnodes, 32u);
  EXPECT_EQ(cfg.uplink_mbps, 200.0);
  EXPECT_EQ(cfg.burst_mb, 16.0);
  EXPECT_TRUE(cfg.coop);
  EXPECT_EQ(cfg.peer_latency_s, 0.003);
  const FleetConfig again = FleetConfig::parse(cfg.to_string());
  EXPECT_EQ(again.to_string(), cfg.to_string());
  EXPECT_EQ(again.proxies, cfg.proxies);
  EXPECT_EQ(again.sharding.vnodes, cfg.sharding.vnodes);
}

TEST(FleetConfig, UnknownNamesAndParamsSuggestClosest) {
  try {
    (void)FleetConfig::parse("flete:proxies=4");
    FAIL() << "expected SpecError";
  } catch (const util::SpecError& e) {
    EXPECT_NE(std::string(e.what()).find("fleet"), std::string::npos)
        << e.what();
  }
  EXPECT_THROW((void)FleetConfig::parse("fleet:proxys=4"), util::SpecError);
  EXPECT_THROW((void)FleetConfig::parse("fleet:sharding=hsah"),
               util::SpecError);
}

TEST(FleetConfig, RejectsInvalidShapes) {
  EXPECT_THROW((void)FleetConfig::parse("fleet:proxies=0"), util::SpecError);
  // More regions than proxies cannot partition the fleet.
  EXPECT_THROW((void)FleetConfig::parse("fleet:proxies=2,regions=3"),
               util::SpecError);
  EXPECT_THROW((void)FleetConfig::parse("fleet:uplink_mbps=-1"),
               util::SpecError);
  EXPECT_THROW((void)FleetConfig::parse("fleet:sharding=hash:vnodes=0"),
               util::SpecError);
}

TEST(FleetConfig, RegionsPartitionProxiesContiguously) {
  const FleetConfig cfg = FleetConfig::parse("fleet:proxies=8,regions=2");
  for (std::size_t p = 0; p < 4; ++p) EXPECT_EQ(cfg.region_of(p), 0u);
  for (std::size_t p = 4; p < 8; ++p) EXPECT_EQ(cfg.region_of(p), 1u);
}

// ------------------------------------------------- single-proxy inertness

TEST(Fleet, SingleProxyFleetFieldIdenticalToSimulator) {
  // A 1-proxy fleet with no uplink, no cooperation, and an unscoped
  // fault plan must execute the exact expression stream of the
  // single-cell simulator: every metric field bit-identical.
  const auto scenario = core::constant_scenario();
  std::vector<SweepCell> cells;
  cells.push_back(SweepCell{"pb", -1.0, 0.05, {}, {}, {}});
  cells.push_back(SweepCell{"pb", -1.0, 0.05, {}, {}, "fleet:proxies=1"});
  // Also under a fault plan: an unscoped plan applies to proxy 0 exactly
  // as it does standalone. The window sits inside the measured second
  // half of the ~26k-second trace so denials actually register.
  cells.push_back(
      SweepCell{"pb", -1.0, 0.05, {}, "fault:outage=15000+5000", {}});
  cells.push_back(SweepCell{"pb", -1.0, 0.05, {}, "fault:outage=15000+5000",
                            "fleet:proxies=1"});
  const auto results = SweepRunner(small_config(), scenario).run(cells);
  expect_identical(results[0], results[1]);
  expect_identical(results[2], results[3]);
  // Fleet diagnostics stay at their inert values on both sides.
  EXPECT_EQ(results[1].uplink_utilization, 0.0);
  EXPECT_EQ(results[1].load_imbalance, 1.0);
  EXPECT_EQ(results[1].peer_hit_ratio, 0.0);
  EXPECT_GT(results[2].denied_requests, 0.0);
}

// ------------------------------------------------------------ determinism

TEST(Fleet, ThreadCountNeverChangesAnyFleetMetric) {
  const auto scenario = core::constant_scenario();
  std::vector<SweepCell> cells;
  for (const char* spec :
       {"fleet:proxies=4,sharding=hash:vnodes=16",
        "fleet:proxies=4,sharding=affinity", "fleet:proxies=4,sharding=random",
        "fleet:proxies=4,regions=2,uplink_mbps=50,coop=1"}) {
    cells.push_back(SweepCell{"pb", -1.0, 0.05, {}, {}, spec});
  }
  ExperimentConfig serial = small_config();
  serial.threads = 1;
  ExperimentConfig parallel = small_config();
  parallel.threads = 4;
  const auto a = SweepRunner(serial, scenario).run(cells);
  const auto b = SweepRunner(parallel, scenario).run(cells);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) expect_identical(a[i], b[i]);
}

// ------------------------------------------------------- sharding balance

TEST(Sharder, HashLookupMatchesALowerBoundReferenceRing) {
  // An independent ring, built with compile()'s point formula and
  // searched with std::lower_bound (wrapping past the top point), must
  // pick the same proxy as the indexed lookup for every object id.
  struct RingPoint {
    std::uint64_t point;
    std::uint32_t proxy;
  };
  const std::pair<std::size_t, std::size_t> shapes[] = {
      {2, 1}, {3, 7}, {16, 64}, {64, 512}};
  std::size_t wraps = 0;
  for (const auto& [proxies, vnodes] : shapes) {
    for (const std::uint64_t seed : {0ull, 311ull, 0xDEADBEEFCAFEF00Dull}) {
      std::vector<RingPoint> ring;
      for (std::size_t p = 0; p < proxies; ++p) {
        for (std::size_t v = 0; v < vnodes; ++v) {
          ring.push_back(RingPoint{
              util::splitmix64(
                  seed ^ util::splitmix64(0x9E3779B97F4A7C15ull * (p + 1) +
                                          0xBF58476D1CE4E5B9ull * (v + 1))),
              static_cast<std::uint32_t>(p)});
        }
      }
      std::sort(ring.begin(), ring.end(),
                [](const RingPoint& a, const RingPoint& b) {
                  return a.point < b.point ||
                         (a.point == b.point && a.proxy < b.proxy);
                });
      ShardingConfig config;
      config.mode = ShardingConfig::Mode::kHash;
      config.vnodes = vnodes;
      fleet::Sharder sharder;
      sharder.compile(config, proxies, seed);
      for (std::uint64_t i = 0; i < 100000; ++i) {
        // Dense small ids, then ids spread over the whole 64-bit range.
        const workload::ObjectId object =
            i < 50000 ? i : util::splitmix64(seed + i);
        const std::uint64_t h =
            util::splitmix64(seed ^ util::splitmix64(object + 1));
        const auto it = std::lower_bound(
            ring.begin(), ring.end(), h,
            [](const RingPoint& rp, std::uint64_t key) {
              return rp.point < key;
            });
        wraps += it == ring.end();
        const std::uint32_t expect =
            it != ring.end() ? it->proxy : ring.front().proxy;
        ASSERT_EQ(sharder.proxy_for(i, object), expect)
            << "ring " << proxies << "x" << vnodes << " seed " << seed
            << " object " << object;
      }
    }
  }
  EXPECT_GT(wraps, 0u);  // the wrap-around branch was exercised
}

TEST(Fleet, HashShardingBoundedImbalanceUnderZipf) {
  const FleetResult r =
      run_direct("fleet:proxies=16,sharding=hash:vnodes=64");
  ASSERT_EQ(r.per_proxy.size(), 16u);
  std::uint64_t sum = 0;
  for (const auto& p : r.per_proxy) {
    EXPECT_GT(p.requests, 0u) << "a proxy received no measured requests";
    sum += p.requests;
  }
  EXPECT_EQ(sum, r.aggregate.measured_requests);
  // Object-keyed consistent hashing concentrates each hot object on one
  // proxy, so some imbalance is expected under Zipf skew — but vnodes
  // spread the ring enough to bound it well below pathological.
  EXPECT_GE(r.load_imbalance, 1.0);
  EXPECT_LT(r.load_imbalance, 2.5);
}

TEST(Fleet, RandomShardingIsNearBalanced) {
  const FleetResult r = run_direct("fleet:proxies=16,sharding=random");
  EXPECT_GE(r.load_imbalance, 1.0);
  EXPECT_LT(r.load_imbalance, 1.2);
}

TEST(Fleet, AffinityShardingRoutesEachClientToOneProxy) {
  const FleetResult r =
      run_direct("fleet:proxies=16,sharding=affinity:clients=64");
  // 64 synthetic clients over 16 proxies: balanced within hash noise.
  EXPECT_GE(r.load_imbalance, 1.0);
  EXPECT_LT(r.load_imbalance, 3.0);
}

// --------------------------------------------------- regional fault scope

TEST(Fleet, RegionalOutageDeniesOnlyTheTargetedRegion) {
  // Proxies 0-1 are region 0, proxies 2-3 region 1. A whole-trace
  // outage scoped to region 0 must deny misses there and nowhere else.
  const FleetResult r =
      run_direct("fleet:proxies=4,regions=2,sharding=random",
                 "fault:outage=0+999999999@r0");
  ASSERT_EQ(r.per_proxy.size(), 4u);
  EXPECT_GT(r.per_proxy[0].denied_requests, 0u);
  EXPECT_GT(r.per_proxy[1].denied_requests, 0u);
  EXPECT_EQ(r.per_proxy[2].denied_requests, 0u);
  EXPECT_EQ(r.per_proxy[3].denied_requests, 0u);
  EXPECT_GT(r.aggregate.metrics.denied_requests(), 0u);
}

TEST(Fleet, ProxyScopedOutageDeniesOnlyThatProxy) {
  const FleetResult r =
      run_direct("fleet:proxies=4,sharding=random",
                 "fault:outage=0+999999999@p2");
  ASSERT_EQ(r.per_proxy.size(), 4u);
  for (std::size_t p = 0; p < 4; ++p) {
    if (p == 2) {
      EXPECT_GT(r.per_proxy[p].denied_requests, 0u);
    } else {
      EXPECT_EQ(r.per_proxy[p].denied_requests, 0u) << "proxy " << p;
    }
  }
}

// ------------------------------------------------- uplink and cooperation

TEST(Fleet, FiniteUplinkCongestionAddsDelayAndReportsUtilization) {
  const FleetResult free =
      run_direct("fleet:proxies=4,sharding=hash:vnodes=16");
  const FleetResult tight = run_direct(
      "fleet:proxies=4,sharding=hash:vnodes=16,uplink_mbps=10,burst_mb=1");
  EXPECT_EQ(free.uplink_utilization, 0.0);
  EXPECT_GT(tight.uplink_utilization, 0.0);
  // Queueing on the shared uplink can only slow origin transfers.
  EXPECT_GE(tight.aggregate.metrics.average_delay_s(),
            free.aggregate.metrics.average_delay_s());
}

TEST(Fleet, CooperationServesPeerBytesAndLiftsTrafficReduction) {
  const FleetResult solo = run_direct("fleet:proxies=8,sharding=random");
  const FleetResult coop =
      run_direct("fleet:proxies=8,sharding=random,coop=1");
  EXPECT_EQ(solo.peer_hit_ratio, 0.0);
  EXPECT_GT(coop.peer_hit_ratio, 0.0);
  std::uint64_t assisted = 0;
  double peer_bytes = 0.0;
  for (const auto& p : coop.per_proxy) {
    assisted += p.peer_assisted;
    peer_bytes += p.peer_bytes;
  }
  EXPECT_GT(assisted, 0u);
  EXPECT_GT(peer_bytes, 0.0);
  // Peer bytes shift origin traffic to backbone-free shared traffic:
  // the cache-only reduction ratio is untouched, the backbone ratio
  // (cache + shared over total) strictly rises.
  EXPECT_GT(coop.aggregate.metrics.backbone_reduction_ratio(),
            solo.aggregate.metrics.backbone_reduction_ratio());
}

}  // namespace
}  // namespace sc
