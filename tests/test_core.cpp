#include <gtest/gtest.h>

#include "core/experiment.h"
#include "net/bandwidth_model.h"
#include "net/variability.h"

namespace sc::core {
namespace {

TEST(Scenarios, NamedScenariosHaveExpectedModes) {
  EXPECT_EQ(constant_scenario().mode, net::VariationMode::kConstant);
  EXPECT_EQ(nlanr_variability_scenario().mode, net::VariationMode::kIidRatio);
  EXPECT_EQ(measured_variability_scenario().mode,
            net::VariationMode::kIidRatio);
  EXPECT_EQ(timeseries_scenario(net::MeasuredPath::kInria).mode,
            net::VariationMode::kTimeSeries);
  // Variability ordering across scenarios.
  EXPECT_LT(measured_variability_scenario().ratio.cov(),
            nlanr_variability_scenario().ratio.cov());
}

TEST(CapacityForFraction, MatchesPaperAxis) {
  workload::CatalogConfig cfg;  // Table 1 defaults => ~790 GB corpus
  const double full = capacity_for_fraction(cfg, 1.0);
  EXPECT_NEAR(full / (1024.0 * 1024 * 1024), 790.0, 40.0);
  EXPECT_DOUBLE_EQ(capacity_for_fraction(cfg, 0.0), 0.0);
  // 0.5% of the corpus ~ 4 GB (the paper's smallest cache).
  EXPECT_NEAR(capacity_for_fraction(cfg, 0.005) / (1024.0 * 1024 * 1024),
              4.0, 0.5);
  EXPECT_THROW((void)capacity_for_fraction(cfg, -0.1),
               std::invalid_argument);
}

TEST(PaperCacheFractions, CoversPublishedRange) {
  const auto fracs = paper_cache_fractions();
  ASSERT_GE(fracs.size(), 4u);
  EXPECT_DOUBLE_EQ(fracs.front(), 0.005);  // 4 GB
  EXPECT_DOUBLE_EQ(fracs.back(), 0.169);   // 128 GB
  for (std::size_t i = 1; i < fracs.size(); ++i) {
    EXPECT_GT(fracs[i], fracs[i - 1]);
  }
}

ExperimentConfig small_experiment() {
  ExperimentConfig e;
  e.workload.catalog.num_objects = 150;
  e.workload.trace.num_requests = 6000;
  e.runs = 4;
  e.sim.policy = "pb";
  e.sim.cache_capacity_bytes =
      capacity_for_fraction(e.workload.catalog, 0.05);
  return e;
}

TEST(RunExperiment, ParallelEqualsSerial) {
  auto cfg = small_experiment();
  cfg.parallel = true;
  const auto par = run_experiment(cfg, constant_scenario());
  cfg.parallel = false;
  const auto ser = run_experiment(cfg, constant_scenario());
  EXPECT_DOUBLE_EQ(par.delay_s, ser.delay_s);
  EXPECT_DOUBLE_EQ(par.traffic_reduction, ser.traffic_reduction);
  EXPECT_DOUBLE_EQ(par.added_value, ser.added_value);
}

TEST(RunExperiment, ReportsCrossRunSpread) {
  const auto m = run_experiment(small_experiment(), constant_scenario());
  EXPECT_EQ(m.runs, 4u);
  EXPECT_GT(m.delay_s, 0.0);
  EXPECT_GT(m.delay_s_sd, 0.0);  // independent workloads per run
  EXPECT_GE(m.quality, 0.0);
  EXPECT_LE(m.quality, 1.0);
}

TEST(RunExperiment, SameSeedReproducible) {
  const auto a = run_experiment(small_experiment(), constant_scenario());
  const auto b = run_experiment(small_experiment(), constant_scenario());
  EXPECT_DOUBLE_EQ(a.delay_s, b.delay_s);
  EXPECT_DOUBLE_EQ(a.added_value, b.added_value);
}

TEST(RunExperiment, SeedChangesResults) {
  auto cfg = small_experiment();
  const auto a = run_experiment(cfg, constant_scenario());
  cfg.base_seed += 1;
  const auto b = run_experiment(cfg, constant_scenario());
  EXPECT_NE(a.delay_s, b.delay_s);
}

TEST(RunExperiment, RejectsZeroRuns) {
  auto cfg = small_experiment();
  cfg.runs = 0;
  EXPECT_THROW((void)run_experiment(cfg, constant_scenario()),
               std::invalid_argument);
}

TEST(RunExperiment, SharedSeedsPairPoliciesOnSameWorkloads) {
  // Different policies under the same base_seed see identical workloads
  // and path tables: their traffic totals must coincide.
  auto cfg_pb = small_experiment();
  auto cfg_if = small_experiment();
  cfg_if.sim.policy = "if";
  const auto pb = run_experiment(cfg_pb, constant_scenario());
  const auto fi = run_experiment(cfg_if, constant_scenario());
  // Paired design: same request byte volume, different split.
  EXPECT_NE(pb.traffic_reduction, fi.traffic_reduction);
  EXPECT_NE(pb.delay_s, fi.delay_s);
}

}  // namespace
}  // namespace sc::core
