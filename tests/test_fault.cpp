// The fault-injection layer (net/fault.h): spec parsing with
// did-you-mean diagnostics, schedule determinism, the inertness
// guarantee (an empty plan is field-identical to no plan at every
// thread count and on both engines), and the chaos invariants the soak
// harness relies on (denied accounting, occupancy bounds, recovery).

#include "net/fault.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/builder.h"
#include "core/registry.h"
#include "core/sweep.h"
#include "util/spec.h"
#include "virtual_components.h"

namespace sc {
namespace {

using net::FaultPlan;
using net::FaultSchedule;
using net::FaultWindow;

// ---------------------------------------------------------------- parsing

TEST(FaultPlan, EmptySpellingsAllYieldTheEmptyPlan) {
  EXPECT_TRUE(FaultPlan::parse("").empty());
  EXPECT_TRUE(FaultPlan::parse("none").empty());
  EXPECT_TRUE(FaultPlan::parse("fault").empty());
  EXPECT_EQ(FaultPlan::parse("").to_string(), "none");
}

TEST(FaultPlan, BuilderValidatesAndWiresTheSpec) {
  core::ExperimentBuilder builder;
  builder.fault("fault:outage=120+60");
  EXPECT_EQ(builder.config().sim.fault.outages().size(), 1u);
  builder.fault("none");
  EXPECT_TRUE(builder.config().sim.fault.empty());
  EXPECT_THROW((void)core::ExperimentBuilder().fault("fault:outge=1+1"),
               util::SpecError);
}

TEST(FaultPlan, ParsesEveryFamilyAndRoundTrips) {
  const std::string spec =
      "fault:outage=120+60/500+30,degrade=300+120x0.25@3,"
      "blackout=150+90,flap=600+300@20";
  const FaultPlan plan = FaultPlan::parse(spec);
  ASSERT_EQ(plan.outages().size(), 2u);
  EXPECT_EQ(plan.outages()[0].start_s, 120.0);
  EXPECT_EQ(plan.outages()[0].duration_s, 60.0);
  EXPECT_EQ(plan.outages()[1].start_s, 500.0);
  ASSERT_EQ(plan.degrades().size(), 1u);
  EXPECT_EQ(plan.degrades()[0].scale, 0.25);
  EXPECT_EQ(plan.degrades()[0].path, 3u);
  ASSERT_EQ(plan.blackouts().size(), 1u);
  ASSERT_EQ(plan.flaps().size(), 1u);
  EXPECT_EQ(plan.flaps()[0].period_s, 20.0);
  // to_string is canonical: parsing it reproduces the plan.
  const FaultPlan again = FaultPlan::parse(plan.to_string());
  EXPECT_EQ(again.to_string(), plan.to_string());
  ASSERT_EQ(again.outages().size(), 2u);
  EXPECT_EQ(again.degrades()[0].scale, 0.25);
}

TEST(FaultPlan, DegradeWithoutPathAffectsAllPaths) {
  const FaultPlan plan = FaultPlan::parse("fault:degrade=10+5x0.5");
  ASSERT_EQ(plan.degrades().size(), 1u);
  EXPECT_EQ(plan.degrades()[0].path, FaultWindow::kAllPaths);
}

TEST(FaultPlan, UnknownNameSuggestsClosest) {
  try {
    (void)FaultPlan::parse("fautl:outage=1+1");
    FAIL() << "expected SpecError";
  } catch (const util::SpecError& e) {
    EXPECT_NE(std::string(e.what()).find("did you mean \"fault\""),
              std::string::npos)
        << e.what();
  }
}

TEST(FaultPlan, UnknownParameterSuggestsClosest) {
  try {
    (void)FaultPlan::parse("fault:outge=1+1");
    FAIL() << "expected SpecError";
  } catch (const util::SpecError& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("unknown parameter"), std::string::npos) << msg;
    EXPECT_NE(msg.find("did you mean \"outage\""), std::string::npos) << msg;
  }
}

TEST(FaultPlan, RejectsMalformedWindows) {
  EXPECT_THROW((void)FaultPlan::parse("fault:outage=120"), util::SpecError);
  EXPECT_THROW((void)FaultPlan::parse("fault:outage=120+0"), util::SpecError);
  EXPECT_THROW((void)FaultPlan::parse("fault:outage=-5+10"), util::SpecError);
  EXPECT_THROW((void)FaultPlan::parse("fault:outage=a+b"), util::SpecError);
  EXPECT_THROW((void)FaultPlan::parse("fault:outage=1+2x0.5"),
               util::SpecError);  // outage takes no scale suffix
  EXPECT_THROW((void)FaultPlan::parse("fault:degrade=1+2"), util::SpecError);
  EXPECT_THROW((void)FaultPlan::parse("fault:degrade=1+2x0"), util::SpecError);
  EXPECT_THROW((void)FaultPlan::parse("fault:degrade=1+2x1"), util::SpecError);
  EXPECT_THROW((void)FaultPlan::parse("fault:degrade=1+2x0.5@-1"),
               util::SpecError);
  EXPECT_THROW((void)FaultPlan::parse("fault:flap=1+2"), util::SpecError);
  EXPECT_THROW((void)FaultPlan::parse("fault:flap=1+2@0"), util::SpecError);
  EXPECT_THROW((void)FaultPlan::parse("none:outage=1+1"), util::SpecError);
}

// ------------------------------------------------------------ fleet scope

TEST(FaultPlan, ParsesScopeSuffixesAndRoundTrips) {
  const FaultPlan plan = FaultPlan::parse(
      "fault:outage=10+5@region2/20+5@p1,degrade=0+9x0.5@3@r0,"
      "flap=0+100@20@proxy4");
  ASSERT_EQ(plan.outages().size(), 2u);
  EXPECT_EQ(plan.outages()[0].scope, FaultWindow::Scope::kRegion);
  EXPECT_EQ(plan.outages()[0].scope_id, 2u);
  EXPECT_EQ(plan.outages()[1].scope, FaultWindow::Scope::kProxy);
  EXPECT_EQ(plan.outages()[1].scope_id, 1u);
  ASSERT_EQ(plan.degrades().size(), 1u);
  EXPECT_EQ(plan.degrades()[0].path, 3u);
  EXPECT_EQ(plan.degrades()[0].scope, FaultWindow::Scope::kRegion);
  EXPECT_EQ(plan.degrades()[0].scope_id, 0u);
  ASSERT_EQ(plan.flaps().size(), 1u);
  EXPECT_EQ(plan.flaps()[0].scope, FaultWindow::Scope::kProxy);
  EXPECT_EQ(plan.flaps()[0].scope_id, 4u);
  // Canonical form round-trips the scopes.
  const FaultPlan again = FaultPlan::parse(plan.to_string());
  EXPECT_EQ(again.to_string(), plan.to_string());
  EXPECT_EQ(again.outages()[0].scope, FaultWindow::Scope::kRegion);
  EXPECT_EQ(again.flaps()[0].scope_id, 4u);
}

TEST(FaultPlan, RejectsMalformedScopes) {
  EXPECT_THROW((void)FaultPlan::parse("fault:outage=1+2@x3"),
               util::SpecError);
  EXPECT_THROW((void)FaultPlan::parse("fault:outage=1+2@r"),
               util::SpecError);
  EXPECT_THROW((void)FaultPlan::parse("fault:outage=1+2@r-1"),
               util::SpecError);
  EXPECT_THROW((void)FaultPlan::parse("fault:outage=1+2@r1.5"),
               util::SpecError);
}

TEST(FaultPlan, ScopedToFiltersByProxyAndRegion) {
  const FaultPlan plan = FaultPlan::parse(
      "fault:outage=10+5@r0/10+5@p3/10+5,blackout=0+4@r1");
  const net::FaultScope region0{3, 0};   // proxy 3 sits in region 0
  const net::FaultScope region1{0, 1};   // proxy 0 sits in region 1
  const FaultPlan for_r0 = plan.scoped_to(region0);
  // Region-0 windows, the proxy-3 window, and the global window apply.
  EXPECT_EQ(for_r0.outages().size(), 3u);
  EXPECT_TRUE(for_r0.blackouts().empty());
  const FaultPlan for_r1 = plan.scoped_to(region1);
  // Only the global outage and the region-1 blackout apply.
  EXPECT_EQ(for_r1.outages().size(), 1u);
  EXPECT_EQ(for_r1.blackouts().size(), 1u);
}

TEST(FaultSchedule, StandaloneCompileIgnoresScopedWindows) {
  // The default FaultScope (standalone: no proxy, no region) matches
  // only global windows, so scoped plans stay inert in the single-cell
  // simulator and the daemon without any call-site changes.
  FaultSchedule s;
  s.compile(FaultPlan::parse("fault:outage=0+1000@r0"), 4, 7);
  EXPECT_FALSE(s.origin_down(0, 500.0));
  FaultSchedule scoped;
  scoped.compile(FaultPlan::parse("fault:outage=0+1000@r0"), 4, 7,
                 net::FaultScope{0, 0});
  EXPECT_TRUE(scoped.origin_down(0, 500.0));
}

// --------------------------------------------------------------- schedule

TEST(FaultSchedule, OutageWindowsCutEveryPath) {
  FaultSchedule s;
  s.compile(FaultPlan::parse("fault:outage=100+50"), 8, 7);
  EXPECT_FALSE(s.origin_down(0, 99.0));
  EXPECT_TRUE(s.origin_down(0, 100.0));
  EXPECT_TRUE(s.origin_down(7, 149.0));
  EXPECT_FALSE(s.origin_down(7, 150.0));
  EXPECT_EQ(s.bandwidth_scale(3, 120.0), 0.0);
  EXPECT_EQ(s.bandwidth_scale(3, 99.0), 1.0);
  EXPECT_EQ(s.next_all_clear(120.0), 150.0);
  EXPECT_EQ(s.next_all_clear(151.0), 151.0);
}

TEST(FaultSchedule, OverlappingDegradesMultiplyAndRespectPath) {
  FaultSchedule s;
  s.compile(FaultPlan::parse("fault:degrade=0+100x0.5/0+100x0.5@2"), 4, 7);
  EXPECT_EQ(s.bandwidth_scale(0, 50.0), 0.5);   // all-path window only
  EXPECT_EQ(s.bandwidth_scale(2, 50.0), 0.25);  // both windows stack
  EXPECT_EQ(s.bandwidth_scale(0, 150.0), 1.0);  // outside every window
}

TEST(FaultSchedule, BlackoutIsIndependentOfOutage) {
  FaultSchedule s;
  s.compile(FaultPlan::parse("fault:blackout=10+10"), 2, 7);
  EXPECT_TRUE(s.blackout(15.0));
  EXPECT_FALSE(s.blackout(25.0));
  EXPECT_FALSE(s.origin_down(0, 15.0));
}

TEST(FaultSchedule, FlapIsDeterministicPerSeedAndDesynchronizedAcrossPaths) {
  const FaultPlan plan = FaultPlan::parse("fault:flap=0+1000@20");
  FaultSchedule a, b, c;
  a.compile(plan, 32, 1234);
  b.compile(plan, 32, 1234);
  c.compile(plan, 32, 99);
  bool any_seed_difference = false;
  bool any_path_difference = false;
  for (std::uint32_t p = 0; p < 32; ++p) {
    for (double t = 0.5; t < 1000.0; t += 7.0) {
      // Same (plan, seed, path, t) -> same answer, always.
      ASSERT_EQ(a.origin_down(p, t), b.origin_down(p, t));
      if (a.origin_down(p, t) != c.origin_down(p, t)) {
        any_seed_difference = true;
      }
      if (p > 0 && a.origin_down(p, t) != a.origin_down(0, t)) {
        any_path_difference = true;
      }
    }
    // 50% duty cycle: the path is down about half the window.
    std::size_t down = 0, total = 0;
    for (double t = 0.5; t < 1000.0; t += 0.5) {
      down += a.origin_down(p, t) ? 1 : 0;
      ++total;
    }
    const double duty = static_cast<double>(down) / static_cast<double>(total);
    EXPECT_NEAR(duty, 0.5, 0.05) << "path " << p;
  }
  EXPECT_TRUE(any_seed_difference);
  EXPECT_TRUE(any_path_difference);
}

// ----------------------------------------------------- simulator semantics

core::ExperimentConfig chaos_config() {
  core::ExperimentConfig cfg;
  cfg.workload.catalog.num_objects = 200;
  cfg.workload.trace.num_requests = 4000;
  cfg.runs = 2;
  cfg.base_seed = 101;
  cfg.sim.policy = "pb";
  cfg.sim.cache_capacity_bytes =
      core::capacity_for_fraction(cfg.workload.catalog, 0.05);
  return cfg;
}

// ~4000 requests at 0.15/s span ~26k simulated seconds; this window
// sits squarely inside the measured second half.
constexpr const char* kMeasuredOutage = "fault:outage=15000+5000";

void expect_field_identical(const core::AveragedMetrics& a,
                            const core::AveragedMetrics& b) {
  EXPECT_EQ(a.runs, b.runs);
  EXPECT_EQ(a.traffic_reduction, b.traffic_reduction);
  EXPECT_EQ(a.traffic_reduction_sd, b.traffic_reduction_sd);
  EXPECT_EQ(a.delay_s, b.delay_s);
  EXPECT_EQ(a.quality, b.quality);
  EXPECT_EQ(a.added_value, b.added_value);
  EXPECT_EQ(a.hit_ratio, b.hit_ratio);
  EXPECT_EQ(a.immediate_ratio, b.immediate_ratio);
  EXPECT_EQ(a.fill_bytes, b.fill_bytes);
  EXPECT_EQ(a.occupancy_bytes, b.occupancy_bytes);
  EXPECT_EQ(a.denied_requests, b.denied_requests);
  EXPECT_EQ(a.denied_bytes, b.denied_bytes);
}

TEST(FaultSimulation, EmptyPlanIsFieldIdenticalToNoPlan) {
  const auto scenario = core::constant_scenario();
  const auto base = core::run_experiment(chaos_config(), scenario);

  for (const char* spelling : {"", "none", "fault"}) {
    core::ExperimentConfig cfg = chaos_config();
    cfg.sim.fault = net::FaultPlan::parse(spelling);
    const auto with_plan = core::run_experiment(cfg, scenario);
    expect_field_identical(base, with_plan);
    EXPECT_EQ(with_plan.denied_requests, 0.0);
    EXPECT_EQ(with_plan.denied_bytes, 0.0);
  }
}

TEST(FaultSimulation, OutageDeniesRequestsAndKeepsOccupancyBounded) {
  const auto scenario = core::constant_scenario();
  core::ExperimentConfig cfg = chaos_config();
  cfg.sim.fault = net::FaultPlan::parse(kMeasuredOutage);
  const auto faulted = core::run_experiment(cfg, scenario);
  const auto clean = core::run_experiment(chaos_config(), scenario);

  EXPECT_GT(faulted.denied_requests, 0.0);
  EXPECT_GT(faulted.denied_bytes, 0.0);
  EXPECT_LE(faulted.occupancy_bytes, cfg.sim.cache_capacity_bytes);
  // Denied bytes never crossed the backbone: the faulted run ships
  // strictly less origin traffic than the clean run.
  EXPECT_LT(faulted.traffic_reduction, 1.0);
  EXPECT_EQ(clean.denied_requests, 0.0);
}

TEST(FaultSimulation, ResultsIdenticalAcrossThreadCounts) {
  const auto scenario = core::constant_scenario();
  std::vector<core::SweepCell> cells;
  cells.push_back(core::SweepCell{"pb", -1.0, 0.05, {}, kMeasuredOutage, {}});
  cells.push_back(
      core::SweepCell{"if", -1.0, 0.05, {},
                      "fault:degrade=14000+6000x0.3", {}});
  cells.push_back(core::SweepCell{"pb", -1.0, 0.02, {}, {}, {}});

  core::ExperimentConfig serial = chaos_config();
  serial.threads = 1;
  core::ExperimentConfig parallel = chaos_config();
  parallel.threads = 4;
  const auto a = core::SweepRunner(serial, scenario).run(cells);
  const auto b = core::SweepRunner(parallel, scenario).run(cells);
  ASSERT_EQ(a.size(), cells.size());
  for (std::size_t i = 0; i < cells.size(); ++i) {
    expect_field_identical(a[i], b[i]);
  }
  EXPECT_GT(a[0].denied_requests, 0.0);
  EXPECT_EQ(a[2].denied_requests, 0.0);
}

TEST(FaultSimulation, KernelAndVirtualEnginesAgreeUnderFaults) {
  const auto scenario = core::constant_scenario();
  for (const char* plan :
       {kMeasuredOutage, "fault:degrade=14000+8000x0.25",
        "fault:flap=14000+8000@120", "fault:blackout=14000+8000"}) {
    core::ExperimentConfig kernel = chaos_config();
    kernel.sim.estimator = "ewma";  // exercise the observation path too
    kernel.sim.fault = net::FaultPlan::parse(plan);
    core::ExperimentConfig virt = kernel;
    virt.sim.policy = testing::virtual_spec(kernel.sim.policy);
    virt.sim.estimator = testing::virtual_spec(kernel.sim.estimator);
    const auto a = core::run_experiment(kernel, scenario);
    const auto b = core::run_experiment(virt, scenario);
    expect_field_identical(a, b);
  }
}

TEST(FaultSimulation, BlackoutStarvesPassiveEstimatorsOnly) {
  const auto scenario = core::constant_scenario();
  // Blanket blackout: a passive (ewma) estimator never sees a single
  // completion observation, so its beliefs — and the delay/quality
  // metrics they drive — change; the oracle ignores observations and
  // must be untouched.
  core::ExperimentConfig ewma_clean = chaos_config();
  ewma_clean.sim.estimator = "ewma";
  core::ExperimentConfig ewma_dark = ewma_clean;
  ewma_dark.sim.fault = net::FaultPlan::parse("fault:blackout=0+1000000");

  const auto clean = core::run_experiment(ewma_clean, scenario);
  const auto dark = core::run_experiment(ewma_dark, scenario);
  EXPECT_NE(clean.delay_s, dark.delay_s);
  EXPECT_EQ(dark.denied_requests, 0.0);  // data plane untouched

  core::ExperimentConfig oracle_clean = chaos_config();
  core::ExperimentConfig oracle_dark = oracle_clean;
  oracle_dark.sim.fault = net::FaultPlan::parse("fault:blackout=0+1000000");
  expect_field_identical(core::run_experiment(oracle_clean, scenario),
                         core::run_experiment(oracle_dark, scenario));
}

TEST(FaultSimulation, RecoveryRestoresServiceAfterTheWindow) {
  // Outage covering only the first part of the measured half: requests
  // after next_all_clear() must again be served with origin help (no
  // sticky failure state). A full-trace outage denies strictly more.
  const auto scenario = core::constant_scenario();
  core::ExperimentConfig partial = chaos_config();
  partial.sim.fault = net::FaultPlan::parse("fault:outage=14000+3000");
  core::ExperimentConfig full = chaos_config();
  full.sim.fault = net::FaultPlan::parse("fault:outage=13000+1000000");
  const auto p = core::run_experiment(partial, scenario);
  const auto f = core::run_experiment(full, scenario);
  EXPECT_GT(p.denied_requests, 0.0);
  EXPECT_GT(f.denied_requests, 4.0 * p.denied_requests);
  // After recovery the cache keeps admitting: fills happened.
  EXPECT_GT(p.fill_bytes, 0.0);
}

TEST(FaultSimulation, SweepCellFaultOverridesBase) {
  const auto scenario = core::constant_scenario();
  core::ExperimentConfig cfg = chaos_config();
  core::SweepCell faulted;
  faulted.fault = kMeasuredOutage;
  core::SweepCell clean;
  const auto res =
      core::SweepRunner(cfg, scenario).run({faulted, clean});
  EXPECT_GT(res[0].denied_requests, 0.0);
  EXPECT_EQ(res[1].denied_requests, 0.0);
  // A bad cell spec fails eagerly, before any simulation runs.
  core::SweepCell bad;
  bad.fault = "fault:outge=1+1";
  EXPECT_THROW((void)core::SweepRunner(cfg, scenario).run({bad}),
               util::SpecError);
}

}  // namespace
}  // namespace sc
