// Client session dynamics (sim/interactivity.h): spec parsing, the
// built-in empirical session-length model, truncation semantics in the
// request loop, and the hard "full == pre-session-dynamics simulator"
// regression contract.

#include "sim/interactivity.h"

#include <gtest/gtest.h>

#include <string>

#include "core/builder.h"
#include "core/experiment.h"
#include "core/registry.h"
#include "sim/simulator.h"
#include "workload/generator.h"

namespace sc::sim {
namespace {

TEST(InteractivitySpec, ParsesEveryMode) {
  EXPECT_EQ(InteractivityConfig::parse("full").mode, InteractivityMode::kFull);
  EXPECT_FALSE(InteractivityConfig::parse("full").enabled());

  const auto exp = InteractivityConfig::parse("exp:mean=600");
  EXPECT_EQ(exp.mode, InteractivityMode::kExponential);
  EXPECT_DOUBLE_EQ(exp.mean_s, 600.0);
  EXPECT_TRUE(exp.enabled());
  // Alias + default mean.
  EXPECT_EQ(InteractivityConfig::parse("exponential").mode,
            InteractivityMode::kExponential);
  EXPECT_DOUBLE_EQ(InteractivityConfig::parse("exp").mean_s, 1800.0);

  EXPECT_EQ(InteractivityConfig::parse("empirical").mode,
            InteractivityMode::kEmpirical);
  EXPECT_EQ(InteractivityConfig::parse("trace").mode,
            InteractivityMode::kTrace);
}

TEST(InteractivitySpec, RoundTripsThroughToString) {
  for (const std::string spec :
       {"full", "exp:mean=600", "empirical", "trace"}) {
    const auto parsed = InteractivityConfig::parse(spec);
    EXPECT_EQ(InteractivityConfig::parse(parsed.to_string()).mode,
              parsed.mode)
        << spec;
  }
}

TEST(InteractivitySpec, RejectsBadSpecs) {
  EXPECT_THROW((void)InteractivityConfig::parse("sessions"),
               util::SpecError);
  EXPECT_THROW((void)InteractivityConfig::parse("exp:mean=0"),
               util::SpecError);
  EXPECT_THROW((void)InteractivityConfig::parse("exp:mean=-5"),
               util::SpecError);
  EXPECT_THROW((void)InteractivityConfig::parse("full:mean=3"),
               util::SpecError);
  EXPECT_THROW((void)InteractivityConfig::parse("exp:rate=2"),
               util::SpecError);
  // Did-you-mean on a near miss.
  try {
    (void)InteractivityConfig::parse("empiricall");
    FAIL() << "expected SpecError";
  } catch (const util::SpecError& e) {
    EXPECT_NE(std::string(e.what()).find("empirical"), std::string::npos);
  }
}

TEST(EmpiricalModel, InverseCdfIsMonotoneAndBounded) {
  double prev = 0.0;
  for (int i = 0; i <= 100; ++i) {
    const double f = empirical_viewed_fraction(i / 100.0);
    EXPECT_GE(f, prev);
    EXPECT_GT(f, 0.0);
    EXPECT_LE(f, 1.0);
    prev = f;
  }
  // The published shape: about half of the sessions end within the
  // first tenth of the object, and the top of the CDF watches through.
  EXPECT_LE(empirical_viewed_fraction(0.5), 0.10 + 1e-12);
  EXPECT_DOUBLE_EQ(empirical_viewed_fraction(1.0), 1.0);
}

TEST(SampleViewedFraction, ModeSemantics) {
  util::Rng rng(11);
  const InteractivityConfig full;  // default == full
  EXPECT_DOUBLE_EQ(
      sample_viewed_fraction(full, 600.0, workload::kFullSession, rng), 1.0);

  InteractivityConfig trace;
  trace.mode = InteractivityMode::kTrace;
  // Recorded durations replay; missing recordings mean full sessions.
  EXPECT_DOUBLE_EQ(sample_viewed_fraction(trace, 600.0, 150.0, rng), 0.25);
  EXPECT_DOUBLE_EQ(sample_viewed_fraction(trace, 600.0, 9000.0, rng), 1.0);
  EXPECT_DOUBLE_EQ(
      sample_viewed_fraction(trace, 600.0, workload::kFullSession, rng), 1.0);

  InteractivityConfig exp;
  exp.mode = InteractivityMode::kExponential;
  exp.mean_s = 300.0;
  double acc = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const double f =
        sample_viewed_fraction(exp, 1e9, workload::kFullSession, rng);
    EXPECT_GE(f, 0.0);
    EXPECT_LE(f, 1.0);
    acc += f * 1e9;  // viewing seconds (duration huge => never capped)
  }
  EXPECT_NEAR(acc / n, 300.0, 10.0);
}

core::ExperimentConfig tiny_config() {
  core::ExperimentConfig cfg;
  cfg.workload.catalog.num_objects = 100;
  cfg.workload.trace.num_requests = 2500;
  cfg.runs = 2;
  cfg.base_seed = 5;
  cfg.sim.cache_capacity_bytes =
      core::capacity_for_fraction(cfg.workload.catalog, 0.05);
  return cfg;
}

TEST(SessionDynamics, FullModeIsFieldIdenticalToDefaultConfig) {
  // The oracle contract: an explicit "full" interactivity config must be
  // indistinguishable from a config that never mentions interactivity,
  // under bandwidth variability and patching.
  const auto scenario = core::measured_variability_scenario();
  core::ExperimentConfig a = tiny_config();
  a.sim.patching.enabled = true;
  core::ExperimentConfig b = a;
  b.sim.interactivity = sim::InteractivityConfig::parse("full");

  const auto ma = core::run_experiment(a, scenario);
  const auto mb = core::run_experiment(b, scenario);
  EXPECT_EQ(ma.traffic_reduction, mb.traffic_reduction);
  EXPECT_EQ(ma.delay_s, mb.delay_s);
  EXPECT_EQ(ma.quality, mb.quality);
  EXPECT_EQ(ma.added_value, mb.added_value);
  EXPECT_EQ(ma.hit_ratio, mb.hit_ratio);
  EXPECT_EQ(ma.immediate_ratio, mb.immediate_ratio);
  EXPECT_EQ(ma.fill_bytes, mb.fill_bytes);
  EXPECT_EQ(ma.occupancy_bytes, mb.occupancy_bytes);
}

SimulationResult run_one(const std::string& interactivity,
                         const workload::Workload& w, bool patching = false) {
  const auto scenario = core::constant_scenario();
  SimulationConfig cfg;
  cfg.cache_capacity_bytes =
      core::capacity_for_fraction(workload::CatalogConfig{}, 0.001);
  cfg.policy = "pb";
  cfg.seed = 77;
  cfg.patching.enabled = patching;
  cfg.interactivity = InteractivityConfig::parse(interactivity);
  return Simulator(w, scenario.base, scenario.ratio, cfg).run();
}

TEST(SessionDynamics, TruncationShrinksByteDemandAndIsAccounted) {
  workload::WorkloadConfig wcfg;
  wcfg.catalog.num_objects = 150;
  wcfg.trace.num_requests = 4000;
  util::Rng rng(3);
  const auto w = workload::generate_workload(wcfg, rng);

  const auto full = run_one("full", w);
  const auto partial = run_one("empirical", w);

  // Full sessions: no truncation recorded, fraction 1.
  EXPECT_DOUBLE_EQ(full.metrics.truncated_ratio(), 0.0);
  EXPECT_DOUBLE_EQ(full.metrics.average_viewed_fraction(), 1.0);

  // Partial sessions: most clients leave early, so far fewer origin
  // bytes ship, and the session stats say so.
  EXPECT_GT(partial.metrics.truncated_ratio(), 0.5);
  EXPECT_LT(partial.metrics.average_viewed_fraction(), 0.6);
  EXPECT_LT(partial.metrics.bytes_from_origin(),
            0.6 * full.metrics.bytes_from_origin());
  // Startup metrics are re-derived over the viewed prefix: watching
  // less can only shrink the prefetch deficit.
  EXPECT_LE(partial.metrics.average_delay_s(),
            full.metrics.average_delay_s());
  EXPECT_GE(partial.metrics.average_quality(),
            full.metrics.average_quality());
}

TEST(SessionDynamics, TraceModeReplaysRecordedDurations) {
  workload::WorkloadConfig wcfg;
  wcfg.catalog.num_objects = 80;
  wcfg.trace.num_requests = 2000;
  util::Rng rng(4);
  auto w = workload::generate_workload(wcfg, rng);

  // Without recordings, "trace" interactivity degenerates to full.
  const auto full = run_one("full", w);
  const auto unrecorded = run_one("trace", w);
  EXPECT_EQ(unrecorded.metrics.bytes_from_origin(),
            full.metrics.bytes_from_origin());
  EXPECT_DOUBLE_EQ(unrecorded.metrics.truncated_ratio(), 0.0);

  // Record ten-second sessions everywhere: almost nothing ships.
  for (auto& r : w.requests) r.view_s = 10.0;
  const auto recorded = run_one("trace", w);
  EXPECT_GT(recorded.metrics.truncated_ratio(), 0.99);
  EXPECT_LT(recorded.metrics.bytes_from_origin(),
            0.02 * full.metrics.bytes_from_origin());
}

TEST(SessionDynamics, PatchingSharesOnlyTheTruncatedStream) {
  // With patching on, an early-departing originator stops its shared
  // stream at departure; followers can only share what is still being
  // transmitted. The run must stay well-formed (shared <= origin bytes
  // saved) and truncated flights must shrink sharing vs full sessions.
  workload::WorkloadConfig wcfg;
  wcfg.catalog.num_objects = 40;  // hot catalog => real stream overlap
  wcfg.trace.num_requests = 4000;
  wcfg.trace.arrival_rate_per_s = 2.0;
  util::Rng rng(6);
  auto w = workload::generate_workload(wcfg, rng);

  const auto full = run_one("full", w, /*patching=*/true);
  ASSERT_GT(full.metrics.bytes_shared(), 0.0);

  for (auto& r : w.requests) r.view_s = 30.0;
  const auto truncated = run_one("trace", w, /*patching=*/true);
  EXPECT_LT(truncated.metrics.bytes_shared(), full.metrics.bytes_shared());
}

TEST(SessionDynamics, EarlyDepartureBoostsTrafficReductionForPrefixCaches) {
  // Prefix caching stores exactly the bytes early leavers watch, so the
  // cache-served *share* rises when sessions terminate early.
  workload::WorkloadConfig wcfg;
  wcfg.catalog.num_objects = 300;
  wcfg.trace.num_requests = 15000;
  util::Rng rng(3);
  const auto w = workload::generate_workload(wcfg, rng);
  const auto scenario = core::constant_scenario();
  const auto run = [&](const std::string& interactivity) {
    SimulationConfig cfg;
    cfg.cache_capacity_bytes = 3e10;
    cfg.policy = "pb";
    cfg.seed = 5;
    cfg.interactivity = InteractivityConfig::parse(interactivity);
    return Simulator(w, scenario.base, scenario.ratio, cfg).run();
  };
  EXPECT_GT(run("empirical").metrics.traffic_reduction_ratio(),
            run("full").metrics.traffic_reduction_ratio());
}

TEST(SessionDynamics, BuilderAndRegistryWireTheSpec) {
  // End-to-end through the fluent builder (the path every example and
  // bench CLI uses).
  const auto metrics = core::ExperimentBuilder()
                           .policy("pb")
                           .scenario("constant")
                           .objects(100)
                           .requests(2000)
                           .runs(2)
                           .cache_fraction(0.05)
                           .interactivity("exp:mean=300")
                           .run();
  EXPECT_EQ(metrics.runs, 2u);
  EXPECT_THROW((void)core::ExperimentBuilder().interactivity("bogus"),
               util::SpecError);
}

}  // namespace
}  // namespace sc::sim
