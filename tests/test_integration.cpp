// End-to-end integration tests: miniature versions of the paper's
// experiments asserting the qualitative results (who wins) that the full
// bench harnesses reproduce at scale.

#include <gtest/gtest.h>

#include <map>

#include "cache/offline_opt.h"
#include "core/experiment.h"
#include "workload/workload_stats.h"

namespace sc::core {
namespace {

AveragedMetrics run_policy(const std::string& policy,
                           const Scenario& scenario, double fraction) {
  ExperimentConfig cfg;
  cfg.workload.catalog.num_objects = 600;
  cfg.workload.trace.num_requests = 30000;
  cfg.runs = 4;
  cfg.base_seed = 77;
  cfg.sim.policy = policy;
  cfg.sim.cache_capacity_bytes =
      capacity_for_fraction(cfg.workload.catalog, fraction);
  return run_experiment(cfg, scenario);
}

TEST(PaperShapes, Fig5ConstantBandwidthOrdering) {
  const auto scenario = constant_scenario();
  const auto fi = run_policy("if", scenario, 0.05);
  const auto pb = run_policy("pb", scenario, 0.05);
  const auto ib = run_policy("ib", scenario, 0.05);

  // (a) traffic reduction: IF > IB > PB.
  EXPECT_GT(fi.traffic_reduction, ib.traffic_reduction);
  EXPECT_GT(ib.traffic_reduction, pb.traffic_reduction);
  // (b) delay: PB < IB < IF.
  EXPECT_LT(pb.delay_s, ib.delay_s);
  EXPECT_LT(ib.delay_s, fi.delay_s);
  // (c) quality: PB > IB > IF.
  EXPECT_GT(pb.quality, ib.quality);
  EXPECT_GT(ib.quality, fi.quality);
}

TEST(PaperShapes, Fig5CacheSizeMonotonicity) {
  const auto scenario = constant_scenario();
  for (const std::string policy : {"if", "ib"}) {
    const auto small = run_policy(policy, scenario, 0.01);
    const auto large = run_policy(policy, scenario, 0.10);
    EXPECT_GT(large.traffic_reduction, small.traffic_reduction);
    EXPECT_LT(large.delay_s, small.delay_s);
  }
}

TEST(PaperShapes, Fig7HighVariabilityErasesPbEdge) {
  const auto scenario = nlanr_variability_scenario();
  const auto pb = run_policy("pb", scenario, 0.10);
  const auto ib = run_policy("ib", scenario, 0.10);
  // §4.3: "IB caching is no worse than PB caching" under high variability.
  EXPECT_LE(ib.delay_s, pb.delay_s * 1.10);
}

TEST(PaperShapes, VariabilityInflatesDelayForAllPolicies) {
  for (const std::string policy : {"if", "pb", "ib"}) {
    const auto constant = run_policy(policy, constant_scenario(), 0.05);
    const auto variable =
        run_policy(policy, nlanr_variability_scenario(), 0.05);
    EXPECT_GT(variable.delay_s, constant.delay_s) << policy;
    EXPECT_LT(variable.quality, constant.quality + 1e-9) << policy;
  }
}

TEST(PaperShapes, Fig8LowVariabilityRestoresPb) {
  const auto scenario = measured_variability_scenario();
  const auto fi = run_policy("if", scenario, 0.05);
  const auto pb = run_policy("pb", scenario, 0.05);
  EXPECT_LT(pb.delay_s, fi.delay_s);
  EXPECT_GT(pb.quality, fi.quality);
}

TEST(PaperShapes, Fig9TrafficFallsWithE) {
  const auto scenario = nlanr_variability_scenario();
  const auto e0 = run_policy("hybrid:e=0.0", scenario, 0.10);
  const auto e5 = run_policy("hybrid:e=0.5", scenario, 0.10);
  const auto e1 = run_policy("hybrid:e=1.0", scenario, 0.10);
  EXPECT_GT(e0.traffic_reduction, e5.traffic_reduction);
  EXPECT_GT(e5.traffic_reduction, e1.traffic_reduction);
}

TEST(PaperShapes, Fig10ValueOrderingConstantBandwidth) {
  const auto scenario = constant_scenario();
  const auto fi = run_policy("if", scenario, 0.05);
  const auto pbv = run_policy("pbv", scenario, 0.05);
  const auto ibv = run_policy("ibv", scenario, 0.05);
  EXPECT_GT(pbv.added_value, ibv.added_value);
  EXPECT_GT(ibv.added_value, fi.added_value);
  EXPECT_GT(fi.traffic_reduction, ibv.traffic_reduction);
  EXPECT_GT(ibv.traffic_reduction, pbv.traffic_reduction);
}

TEST(PaperShapes, NetworkObliviousBaselinesTrailOnDelay) {
  const auto scenario = constant_scenario();
  const auto pb = run_policy("pb", scenario, 0.05);
  const auto lru = run_policy("lru", scenario, 0.05);
  const auto lfu = run_policy("lfu", scenario, 0.05);
  EXPECT_LT(pb.delay_s, lru.delay_s);
  EXPECT_LT(pb.delay_s, lfu.delay_s);
}

TEST(PaperShapes, OnlinePbApproachesOfflineOptimum) {
  // §2.3/§2.4: the online PB replacement approximates the fractional-
  // knapsack optimum. Compare the achieved measured-window delay against
  // the offline bound computed with oracle rates + bandwidths.
  ExperimentConfig cfg;
  cfg.workload.catalog.num_objects = 400;
  cfg.workload.trace.num_requests = 40000;
  cfg.runs = 1;
  cfg.parallel = false;
  cfg.sim.policy = "pb";
  cfg.sim.cache_capacity_bytes =
      capacity_for_fraction(cfg.workload.catalog, 0.08);

  // Regenerate the identical workload + paths the experiment used.
  util::Rng run_rng(util::splitmix64(cfg.base_seed));
  util::Rng wl_rng = run_rng.fork("workload");
  const auto w = workload::generate_workload(cfg.workload, wl_rng);
  net::PathModelConfig pcfg;
  const auto paths = net::PathModel::for_seed(
      w.catalog.size(), constant_scenario().base, constant_scenario().ratio,
      pcfg, run_rng.fork("paths").seed());

  cache::OfflineInputs inputs;
  const auto counts = workload::request_counts(w);
  inputs.lambda.assign(counts.begin(), counts.end());
  inputs.bandwidth = paths->means();
  const auto opt = cache::optimal_fractional(w.catalog, inputs,
                                             cfg.sim.cache_capacity_bytes);

  const auto online = run_experiment(cfg, constant_scenario());
  // The online policy can't beat the offline optimum...
  EXPECT_GE(online.delay_s, opt.expected_delay_s * 0.9);
  // ...but should land within a small constant factor of it.
  EXPECT_LT(online.delay_s, opt.expected_delay_s * 3.0 + 5.0);
}

}  // namespace
}  // namespace sc::core
