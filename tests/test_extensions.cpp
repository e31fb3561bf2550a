// Tests for the proxy-side patching extension (stream sharing). Client
// session dynamics are tested in test_interactivity.cpp.

#include <gtest/gtest.h>

#include "net/bandwidth_model.h"
#include "net/variability.h"
#include "sim/simulator.h"

namespace sc::sim {
namespace {

workload::Workload make_workload(std::size_t objects, std::size_t requests,
                                 std::uint64_t seed,
                                 double arrival_rate = 0.15) {
  workload::WorkloadConfig cfg;
  cfg.catalog.num_objects = objects;
  cfg.trace.num_requests = requests;
  cfg.trace.arrival_rate_per_s = arrival_rate;
  util::Rng rng(seed);
  return workload::generate_workload(cfg, rng);
}

SimulationConfig pb_config(double capacity) {
  SimulationConfig cfg;
  cfg.cache_capacity_bytes = capacity;
  cfg.policy = "pb";
  cfg.seed = 5;
  return cfg;
}

TEST(Patching, SharesConcurrentStreams) {
  // High arrival rate => many overlapping requests for hot objects.
  const auto w = make_workload(50, 20000, 4, /*arrival_rate=*/5.0);
  const auto base = net::nlanr_base_model();
  const auto ratio = net::constant_variability_model();

  auto patched = pb_config(1e9);
  patched.patching.enabled = true;
  const auto rp = Simulator(w, base, ratio, patched).run();
  const auto rn = Simulator(w, base, ratio, pb_config(1e9)).run();

  EXPECT_GT(rp.metrics.bytes_shared(), 0.0);
  EXPECT_EQ(rn.metrics.bytes_shared(), 0.0);
  // Shared bytes come out of origin traffic; totals are conserved.
  EXPECT_NEAR(rp.metrics.bytes_from_origin() + rp.metrics.bytes_shared() +
                  rp.metrics.bytes_from_cache(),
              rn.metrics.bytes_from_origin() + rn.metrics.bytes_from_cache(),
              1.0);
  // Backbone reduction strictly improves; cache-only reduction is equal
  // (mathematically: patching moves bytes between the origin and shared
  // accumulators, so the sums agree only up to summation order).
  EXPECT_GT(rp.metrics.backbone_reduction_ratio(),
            rn.metrics.backbone_reduction_ratio());
  EXPECT_NEAR(rp.metrics.traffic_reduction_ratio(),
              rn.metrics.traffic_reduction_ratio(), 1e-12);
}

TEST(Patching, NoSharingWhenRequestsNeverOverlap) {
  // Deterministic trace: requests spaced far beyond any object duration,
  // so no stream is ever still in flight when the next request lands.
  workload::WorkloadConfig wcfg;
  wcfg.catalog.num_objects = 20;
  util::Rng rng(5);
  auto catalog = workload::Catalog::generate(wcfg.catalog, rng);
  std::vector<workload::Request> trace;
  for (std::size_t i = 0; i < 200; ++i) {
    trace.push_back(workload::Request{static_cast<double>(i) * 1e6, i % 20});
  }
  const workload::Workload w{std::move(catalog), std::move(trace)};
  const auto base = net::nlanr_base_model();
  const auto ratio = net::constant_variability_model();
  auto patched = pb_config(1e9);
  patched.patching.enabled = true;
  const auto r = Simulator(w, base, ratio, patched).run();
  EXPECT_DOUBLE_EQ(r.metrics.bytes_shared(), 0.0);
}

TEST(Patching, ComposesWithCaching) {
  // Caching + patching together beat either alone on backbone bytes.
  const auto w = make_workload(80, 20000, 6, /*arrival_rate=*/2.0);
  const auto base = net::nlanr_base_model();
  const auto ratio = net::constant_variability_model();

  auto neither = pb_config(0.0);
  auto cache_only = pb_config(2e10);
  auto patch_only = pb_config(0.0);
  patch_only.patching.enabled = true;
  auto both = pb_config(2e10);
  both.patching.enabled = true;

  const double r00 =
      Simulator(w, base, ratio, neither).run().metrics
          .backbone_reduction_ratio();
  const double r10 =
      Simulator(w, base, ratio, cache_only).run().metrics
          .backbone_reduction_ratio();
  const double r01 =
      Simulator(w, base, ratio, patch_only).run().metrics
          .backbone_reduction_ratio();
  const double r11 =
      Simulator(w, base, ratio, both).run().metrics
          .backbone_reduction_ratio();
  EXPECT_DOUBLE_EQ(r00, 0.0);
  EXPECT_GT(r11, r10);
  EXPECT_GT(r11, r01);
}

TEST(Patching, MetricsBackboneEqualsTrafficWhenOff) {
  const auto w = make_workload(100, 5000, 7);
  const auto r = Simulator(w, net::nlanr_base_model(),
                           net::constant_variability_model(), pb_config(1e10))
                     .run();
  EXPECT_DOUBLE_EQ(r.metrics.backbone_reduction_ratio(),
                   r.metrics.traffic_reduction_ratio());
}

}  // namespace
}  // namespace sc::sim
