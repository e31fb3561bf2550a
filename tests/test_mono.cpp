// Engine identity: the kernel engines of the dispatch table (sim/arena.h)
// must be observationally indistinguishable from the virtual engine that
// runs user-registered components.
//
// Both engines share one loop body (sim/run_loop.h) and construct their
// components with identical parameters and RNG streams, so their results
// are not merely close — they are field-identical, for every registered
// (policy, estimator) pair, single cell and fleet cell alike, and arena
// reuse across back-to-back simulations is bit-identical to fresh
// construction. Every matrix compares SPEC (a kernel engine) against
// "test-virtual:of=SPEC" (tests/virtual_components.h: the registry's own
// SPEC component behind a forwarding wrapper, so it takes the virtual
// engine).

#include "sim/arena.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/registry.h"
#include "core/sweep.h"
#include "fleet/fleet.h"
#include "virtual_components.h"
#include "workload/trace.h"

namespace sc::sim {
namespace {

using testing::virtual_spec;

core::ExperimentConfig small_config() {
  core::ExperimentConfig cfg;
  cfg.workload.catalog.num_objects = 120;
  cfg.workload.trace.num_requests = 3000;
  cfg.runs = 2;
  cfg.base_seed = 77;
  cfg.sim.cache_capacity_bytes =
      core::capacity_for_fraction(cfg.workload.catalog, 0.05);
  return cfg;
}

/// The same experiment with both components on the virtual engine.
core::ExperimentConfig virtual_twin(core::ExperimentConfig cfg) {
  cfg.sim.policy = virtual_spec(cfg.sim.policy);
  cfg.sim.estimator = virtual_spec(cfg.sim.estimator);
  return cfg;
}

/// Registered names of one axis, minus the components test binaries
/// register themselves.
std::vector<std::string> builtin_names(core::registry::Kind kind) {
  std::vector<std::string> out;
  for (const std::string& name : core::registry::names(kind)) {
    if (name.rfind("test-", 0) != 0) out.push_back(name);
  }
  return out;
}

void expect_bit_identical(const core::AveragedMetrics& a,
                          const core::AveragedMetrics& b,
                          const std::string& label) {
  EXPECT_EQ(a.runs, b.runs) << label;
  EXPECT_EQ(a.traffic_reduction, b.traffic_reduction) << label;
  EXPECT_EQ(a.traffic_reduction_sd, b.traffic_reduction_sd) << label;
  EXPECT_EQ(a.delay_s, b.delay_s) << label;
  EXPECT_EQ(a.delay_s_sd, b.delay_s_sd) << label;
  EXPECT_EQ(a.quality, b.quality) << label;
  EXPECT_EQ(a.quality_sd, b.quality_sd) << label;
  EXPECT_EQ(a.added_value, b.added_value) << label;
  EXPECT_EQ(a.added_value_sd, b.added_value_sd) << label;
  EXPECT_EQ(a.hit_ratio, b.hit_ratio) << label;
  EXPECT_EQ(a.immediate_ratio, b.immediate_ratio) << label;
  EXPECT_EQ(a.fill_bytes, b.fill_bytes) << label;
  EXPECT_EQ(a.occupancy_bytes, b.occupancy_bytes) << label;
  EXPECT_EQ(a.denied_requests, b.denied_requests) << label;
  EXPECT_EQ(a.denied_bytes, b.denied_bytes) << label;
  EXPECT_EQ(a.uplink_utilization, b.uplink_utilization) << label;
  EXPECT_EQ(a.load_imbalance, b.load_imbalance) << label;
  EXPECT_EQ(a.peer_hit_ratio, b.peer_hit_ratio) << label;
}

void expect_results_identical(const SimulationResult& a,
                              const SimulationResult& b,
                              const std::string& label) {
  const MetricsCollector& x = a.metrics;
  const MetricsCollector& y = b.metrics;
  EXPECT_EQ(a.policy_name, b.policy_name) << label;
  EXPECT_EQ(a.warmup_requests, b.warmup_requests) << label;
  EXPECT_EQ(a.measured_requests, b.measured_requests) << label;
  EXPECT_EQ(a.final_occupancy_bytes, b.final_occupancy_bytes) << label;
  EXPECT_EQ(a.final_cached_objects, b.final_cached_objects) << label;
  EXPECT_EQ(a.estimator_overhead_packets, b.estimator_overhead_packets)
      << label;
  EXPECT_EQ(x.requests(), y.requests()) << label;
  EXPECT_EQ(x.traffic_reduction_ratio(), y.traffic_reduction_ratio()) << label;
  EXPECT_EQ(x.backbone_reduction_ratio(), y.backbone_reduction_ratio())
      << label;
  EXPECT_EQ(x.average_delay_s(), y.average_delay_s()) << label;
  EXPECT_EQ(x.average_quality(), y.average_quality()) << label;
  EXPECT_EQ(x.total_added_value(), y.total_added_value()) << label;
  EXPECT_EQ(x.hit_ratio(), y.hit_ratio()) << label;
  EXPECT_EQ(x.immediate_ratio(), y.immediate_ratio()) << label;
  EXPECT_EQ(x.bytes_from_cache(), y.bytes_from_cache()) << label;
  EXPECT_EQ(x.bytes_shared(), y.bytes_shared()) << label;
  EXPECT_EQ(x.bytes_from_origin(), y.bytes_from_origin()) << label;
  EXPECT_EQ(x.fill_bytes(), y.fill_bytes()) << label;
  EXPECT_EQ(x.denied_requests(), y.denied_requests()) << label;
  EXPECT_EQ(x.denied_bytes(), y.denied_bytes()) << label;
  EXPECT_EQ(x.average_viewed_fraction(), y.average_viewed_fraction())
      << label;
  EXPECT_EQ(x.truncated_ratio(), y.truncated_ratio()) << label;
}

void expect_fleets_identical(const fleet::FleetResult& a,
                             const fleet::FleetResult& b,
                             const std::string& label) {
  expect_results_identical(a.aggregate, b.aggregate, label);
  EXPECT_EQ(a.uplink_utilization, b.uplink_utilization) << label;
  EXPECT_EQ(a.load_imbalance, b.load_imbalance) << label;
  EXPECT_EQ(a.peer_hit_ratio, b.peer_hit_ratio) << label;
  ASSERT_EQ(a.per_proxy.size(), b.per_proxy.size()) << label;
  for (std::size_t p = 0; p < a.per_proxy.size(); ++p) {
    const fleet::ProxyStats& x = a.per_proxy[p];
    const fleet::ProxyStats& y = b.per_proxy[p];
    const std::string at = label + " proxy " + std::to_string(p);
    EXPECT_EQ(x.requests, y.requests) << at;
    EXPECT_EQ(x.hits, y.hits) << at;
    EXPECT_EQ(x.peer_assisted, y.peer_assisted) << at;
    EXPECT_EQ(x.denied_requests, y.denied_requests) << at;
    EXPECT_EQ(x.denied_bytes, y.denied_bytes) << at;
    EXPECT_EQ(x.origin_bytes, y.origin_bytes) << at;
    EXPECT_EQ(x.peer_bytes, y.peer_bytes) << at;
    EXPECT_EQ(x.fill_bytes, y.fill_bytes) << at;
  }
}

TEST(EngineDispatch, CoversEveryBuiltinPairAndAliases) {
  // Every registered builtin spelling — canonical names AND aliases on
  // both axes — must resolve to a kernel engine (aliases are resolved
  // through the registry, so one added there is covered here
  // automatically).
  const auto spellings = [](core::registry::Kind kind) {
    std::vector<std::string> out;
    for (const auto& info : core::registry::list(kind)) {
      // Skip components test binaries register themselves (they are
      // out-of-table by design).
      if (info.name.rfind("test-", 0) == 0) continue;
      out.push_back(info.name);
      out.insert(out.end(), info.aliases.begin(), info.aliases.end());
    }
    return out;
  };
  SimulationConfig cfg;
  for (const auto& policy : spellings(core::registry::Kind::kPolicy)) {
    for (const auto& estimator :
         spellings(core::registry::Kind::kEstimator)) {
      cfg.policy = policy;
      cfg.estimator = estimator;
      EXPECT_TRUE(mono_dispatchable(cfg)) << policy << " x " << estimator;
    }
  }
  cfg.policy = "pb-v:e=0.7";
  cfg.estimator = "passive-ewma";
  EXPECT_TRUE(mono_dispatchable(cfg));
  cfg.policy = "no-such-policy";
  EXPECT_FALSE(mono_dispatchable(cfg));
  cfg.policy = virtual_spec("pb");
  EXPECT_FALSE(mono_dispatchable(cfg));
}

TEST(EngineDispatch, EveryPairGetsAnEngineAndUnknownSpecsFail) {
  SimulationArena arena;
  SimulationConfig cfg;
  cfg.policy = virtual_spec("pb");
  cfg.estimator = "ewma";
  MonoEngineBase* engine = acquire_mono_engine(arena, cfg);
  ASSERT_NE(engine, nullptr);
  EXPECT_EQ(acquire_mono_engine(arena, cfg), engine);  // cached per pair
  cfg.policy = "no-such-policy";
  EXPECT_THROW((void)acquire_mono_engine(arena, cfg), util::SpecError);
  cfg.policy = "pb";
  cfg.estimator = "ewma:frequency=2";
  EXPECT_THROW((void)acquire_mono_engine(arena, cfg), util::SpecError);
}

TEST(EngineDispatch, KernelAndVirtualFieldIdenticalForEveryRegisteredPair) {
  // The tentpole contract: for every registered (policy, estimator)
  // pair — parameterized variants included — the kernel engine and the
  // virtual engine produce field-identical AveragedMetrics. Exercised
  // under iid bandwidth variability so the sampler stream, estimator
  // observations, and value policies all participate.
  const auto scenario = core::measured_variability_scenario();
  std::vector<std::string> policies =
      builtin_names(core::registry::Kind::kPolicy);
  policies.push_back("hybrid:e=0.5");
  policies.push_back("pbv:e=0.7");
  std::vector<std::string> estimators =
      builtin_names(core::registry::Kind::kEstimator);
  estimators.push_back("ewma:alpha=0.5,prior_kbps=80");
  estimators.push_back("probe:interval_s=600");

  for (const auto& policy : policies) {
    for (const auto& estimator : estimators) {
      core::ExperimentConfig cfg = small_config();
      cfg.sim.policy = policy;
      cfg.sim.estimator = estimator;
      const auto kernel = core::run_experiment(cfg, scenario);
      const auto virt = core::run_experiment(virtual_twin(cfg), scenario);
      expect_bit_identical(kernel, virt, policy + " x " + estimator);
    }
  }
}

TEST(EngineDispatch, ExtensionsRunIdenticallyOnBothEngines) {
  // Viewing + patching change the loop's byte accounting; both engines
  // must agree there too.
  const auto scenario = core::constant_scenario();
  core::ExperimentConfig cfg = small_config();
  cfg.sim.policy = "pb";
  cfg.sim.viewing.enabled = true;
  cfg.sim.patching.enabled = true;

  const auto kernel = core::run_experiment(cfg, scenario);
  const auto virt = core::run_experiment(virtual_twin(cfg), scenario);
  expect_bit_identical(kernel, virt, "pb + viewing + patching");
}

TEST(EngineDispatch, EveryInteractivityModeRunsIdenticallyOnBothEngines) {
  // Session dynamics draw inside the shared loop body; the engines must
  // agree for every mode, with and without patching, and across the
  // estimator kinds (observation scheduling interacts with the
  // truncated transfers).
  const auto scenario = core::measured_variability_scenario();
  for (const char* mode : {"full", "exp:mean=900", "empirical", "trace"}) {
    for (const bool patching : {false, true}) {
      for (const char* estimator : {"oracle", "ewma:alpha=0.3"}) {
        core::ExperimentConfig cfg = small_config();
        cfg.sim.policy = "pb";
        cfg.sim.estimator = estimator;
        cfg.sim.patching.enabled = patching;
        cfg.sim.interactivity = sim::InteractivityConfig::parse(mode);

        const auto kernel = core::run_experiment(cfg, scenario);
        const auto virt = core::run_experiment(virtual_twin(cfg), scenario);
        expect_bit_identical(kernel, virt,
                             std::string("interactivity=") + mode +
                                 (patching ? " + patching" : "") + " x " +
                                 estimator);
      }
    }
  }
}

/// The grid over `cells` on both engines: every cell's policy and the
/// base estimator wrapped for the virtual run.
void expect_grid_identical_on_both_engines(
    const core::ExperimentConfig& cfg, const core::Scenario& scenario,
    const std::vector<core::SweepCell>& cells) {
  std::vector<core::SweepCell> virtual_cells = cells;
  for (core::SweepCell& cell : virtual_cells) {
    cell.policy = virtual_spec(cell.policy);
  }
  core::ExperimentConfig virtual_cfg = cfg;
  virtual_cfg.sim.estimator = virtual_spec(cfg.sim.estimator);
  const auto kernel = core::SweepRunner(cfg, scenario).run(cells);
  const auto virt = core::SweepRunner(virtual_cfg, scenario).run(virtual_cells);
  ASSERT_EQ(kernel.size(), cells.size());
  ASSERT_EQ(virt.size(), cells.size());
  for (std::size_t i = 0; i < cells.size(); ++i) {
    expect_bit_identical(kernel[i], virt[i],
                         cells[i].policy + "/" + cells[i].interactivity +
                             "/" + cells[i].fleet);
  }
}

TEST(EngineDispatch, TraceScenarioGridIdenticalOnBothEngines) {
  // The trace-replay scenario feeds one shared workload (with recorded
  // per-session viewing durations) through both engines; a mixed grid
  // over policies, fractions, and interactivity modes must be
  // field-identical.
  workload::WorkloadConfig wcfg;
  wcfg.catalog.num_objects = 90;
  wcfg.trace.num_requests = 2500;
  util::Rng wl_rng(31);
  auto recorded = workload::generate_workload(wcfg, wl_rng);
  util::Rng view_rng(32);
  for (auto& r : recorded.requests) {
    if (view_rng.uniform() < 0.6) r.view_s = view_rng.uniform(15.0, 4000.0);
  }
  const auto trace_path =
      std::filesystem::temp_directory_path() / "sc_mono_trace.trace";
  workload::write_trace(recorded, trace_path);

  const auto scenario = core::registry::make_scenario(
      "trace:file=" + trace_path.string() + ",bw=measured");
  std::filesystem::remove(trace_path);
  ASSERT_NE(scenario.replay, nullptr);

  std::vector<core::SweepCell> cells;
  for (const char* policy : {"pb", "ib", "lru"}) {
    for (const char* mode : {"full", "trace", "empirical"}) {
      cells.push_back(core::SweepCell{policy, -1.0, 0.05, mode, {}, {}});
    }
  }
  expect_grid_identical_on_both_engines(small_config(), scenario, cells);
}

TEST(EngineDispatch, SweepGridIdenticalOnBothEngines) {
  // Whole-grid regression: shared workloads + shared path models + the
  // per-worker arenas across a mixed grid.
  std::vector<core::SweepCell> cells;
  for (const char* policy : {"pb", "ib", "lru"}) {
    for (const double fraction : {0.01, 0.05}) {
      cells.push_back(core::SweepCell{policy, -1.0, fraction, {}, {}, {}});
    }
  }
  expect_grid_identical_on_both_engines(
      small_config(), core::measured_variability_scenario(), cells);
}

// ------------------------------------------------------------ fleet cells

/// The fleet cells of the matrix: 4 proxies, hash sharding or random
/// sharding with cooperation, a finite shared uplink, and (via
/// fleet_config) patching, exp sessions and an outage of region 1.
const char* const kFleetSpecs[] = {
    "fleet:proxies=4,regions=2,sharding=hash:vnodes=16,uplink_mbps=20,"
    "burst_mb=2",
    "fleet:proxies=4,regions=2,sharding=random,coop=1,uplink_mbps=20,"
    "burst_mb=2"};

// The 3000-request trace spans ~20k seconds; the outage sits inside the
// measured second half.
constexpr const char* kRegionOutage = "fault:outage=12000+4000@region1";

SimulationConfig fleet_config(const std::string& policy,
                              const std::string& estimator,
                              const workload::CatalogConfig& catalog) {
  SimulationConfig config;
  config.policy = policy;
  config.estimator = estimator;
  config.cache_capacity_bytes = core::capacity_for_fraction(catalog, 0.05);
  config.patching.enabled = true;
  config.interactivity = InteractivityConfig::parse("exp:mean=600");
  config.fault = net::FaultPlan::parse(kRegionOutage);
  config.path_config.mode = net::VariationMode::kIidRatio;
  config.seed = 4242;
  return config;
}

TEST(EngineDispatch, FleetCellsIdenticalOnBothEnginesForEveryRegisteredPair) {
  // A fleet cell is N proxies on the same loop and the same engines:
  // per proxy, per field, the kernel engine equals the virtual engine
  // for every registered pair.
  const auto scenario = core::measured_variability_scenario();
  workload::WorkloadConfig wcfg = small_config().workload;
  util::Rng wl_rng(88);
  const auto stream = workload::RequestStream::replay(
      std::make_shared<const workload::Workload>(
          workload::generate_workload(wcfg, wl_rng)));
  std::uint64_t denied = 0;
  for (const auto& policy : builtin_names(core::registry::Kind::kPolicy)) {
    for (const auto& estimator :
         builtin_names(core::registry::Kind::kEstimator)) {
      const SimulationConfig kernel_cfg =
          fleet_config(policy, estimator, wcfg.catalog);
      SimulationConfig virtual_cfg = kernel_cfg;
      virtual_cfg.policy = virtual_spec(policy);
      virtual_cfg.estimator = virtual_spec(estimator);
      for (const char* spec : kFleetSpecs) {
        const fleet::FleetConfig shape = fleet::FleetConfig::parse(spec);
        const auto kernel = fleet::run_fleet(stream, shape, kernel_cfg,
                                             nullptr, &scenario.base,
                                             &scenario.ratio);
        const auto virt = fleet::run_fleet(stream, shape, virtual_cfg,
                                           nullptr, &scenario.base,
                                           &scenario.ratio);
        expect_fleets_identical(kernel, virt,
                                policy + " x " + estimator + " " + spec);
        denied += kernel.aggregate.metrics.denied_requests();
        // Proxies 0-1 are region 0: the scoped outage never reaches them.
        EXPECT_EQ(kernel.per_proxy[0].denied_requests, 0u);
        EXPECT_EQ(kernel.per_proxy[1].denied_requests, 0u);
      }
    }
  }
  EXPECT_GT(denied, 0u);  // the outage actually bit
}

TEST(EngineDispatch, FleetSweepCellsIdenticalOnBothEngines) {
  // The same fleet cells through SweepRunner: per-worker arenas shared
  // with single cells, at several thread counts.
  std::vector<core::SweepCell> cells;
  for (const char* spec : kFleetSpecs) {
    cells.push_back(core::SweepCell{"pb", -1.0, 0.05, "exp:mean=600",
                                    kRegionOutage, spec});
  }
  cells.push_back(core::SweepCell{"pb", -1.0, 0.05, "exp:mean=600", {}, {}});
  core::ExperimentConfig cfg = small_config();
  cfg.sim.estimator = "ewma";
  cfg.sim.patching.enabled = true;
  for (const std::size_t threads : {1, 3}) {
    cfg.threads = threads;
    expect_grid_identical_on_both_engines(
        cfg, core::measured_variability_scenario(), cells);
  }
}

// ------------------------------------------------------------ arena reuse

TEST(EngineDispatch, ArenaReuseBitIdenticalToFreshConstruction) {
  // A worker's arena re-runs back-to-back simulations — different
  // workloads, seeds, capacities, interleaved (policy, estimator) pairs
  // — on rebound engines. Every rebound run must equal the run a fresh
  // arena (fresh engine, fresh state) produces.
  const auto scenario = core::measured_variability_scenario();
  const struct {
    const char* policy;
    const char* estimator;
    std::size_t objects;
    std::uint64_t seed;
    double fraction;
  } runs[] = {
      {"pb", "oracle", 150, 1, 0.05},
      {"lru", "ewma:alpha=0.3", 150, 2, 0.02},
      {"pb", "oracle", 100, 3, 0.08},  // same engine, new catalog size
      {"hybrid:e=0.5", "probe:interval_s=600", 150, 4, 0.05},
      {"pb", "oracle", 150, 1, 0.05},  // exact repeat of the first run
  };

  SimulationArena reused;
  for (const auto& r : runs) {
    workload::WorkloadConfig wcfg;
    wcfg.catalog.num_objects = r.objects;
    wcfg.trace.num_requests = 3000;
    util::Rng wl_rng(r.seed);
    const auto w = workload::generate_workload(wcfg, wl_rng);

    SimulationConfig cfg;
    cfg.policy = r.policy;
    cfg.estimator = r.estimator;
    cfg.cache_capacity_bytes =
        core::capacity_for_fraction(wcfg.catalog, r.fraction);
    cfg.path_config.mode = scenario.mode;
    cfg.seed = r.seed * 101;

    Simulator reused_sim(w, scenario.base, scenario.ratio, cfg);
    const auto via_reused = reused_sim.run(&reused);

    SimulationArena fresh;
    Simulator fresh_sim(w, scenario.base, scenario.ratio, cfg);
    const auto via_fresh = fresh_sim.run(&fresh);

    expect_results_identical(via_reused, via_fresh,
                             std::string(r.policy) + " x " + r.estimator);
  }
  // Engines were cached per distinct (policy, estimator) pair.
  EXPECT_EQ(reused.size(), 3u);
}

TEST(EngineDispatch, ArenaReuseBitIdenticalForTruncatedSessions) {
  // Session dynamics add per-run draw state (the "session" RNG stream)
  // and truncated in-flight bookkeeping; none of it may leak between a
  // rebound engine's back-to-back runs. Interleave interactivity modes
  // on one arena and compare every run against a fresh arena.
  const auto scenario = core::measured_variability_scenario();
  workload::WorkloadConfig wcfg;
  wcfg.catalog.num_objects = 120;
  wcfg.trace.num_requests = 3000;
  util::Rng wl_rng(9);
  auto w = workload::generate_workload(wcfg, wl_rng);
  util::Rng view_rng(10);
  for (auto& r : w.requests) {
    if (view_rng.uniform() < 0.5) r.view_s = view_rng.uniform(10.0, 2000.0);
  }

  SimulationArena reused;
  std::size_t run_no = 0;
  for (const char* mode :
       {"empirical", "full", "trace", "exp:mean=600", "empirical"}) {
    SimulationConfig cfg;
    cfg.policy = "pb";
    cfg.estimator = "ewma:alpha=0.3";
    cfg.cache_capacity_bytes = core::capacity_for_fraction(wcfg.catalog, 0.04);
    cfg.path_config.mode = scenario.mode;
    cfg.patching.enabled = true;
    cfg.interactivity = InteractivityConfig::parse(mode);
    cfg.seed = 500 + run_no++;

    Simulator reused_sim(w, scenario.base, scenario.ratio, cfg);
    const auto via_reused = reused_sim.run(&reused);

    SimulationArena fresh;
    Simulator fresh_sim(w, scenario.base, scenario.ratio, cfg);
    const auto via_fresh = fresh_sim.run(&fresh);

    expect_results_identical(via_reused, via_fresh,
                             std::string("interactivity=") + mode);
  }
  // One cached engine: every mode reuses the same (policy, estimator)
  // slot — interactivity is per-run config, not an engine key.
  EXPECT_EQ(reused.size(), 1u);
}

TEST(EngineDispatch, ArenaReuseAcrossFleetCellsBitIdenticalToFreshArena) {
  // Fleet cells reuse the per-worker arena: one engine grows and shrinks
  // between single cells and fleets of different sizes. Every run on
  // the reused arena must equal the same run on a fresh one.
  const auto scenario = core::measured_variability_scenario();
  workload::WorkloadConfig wcfg = small_config().workload;
  util::Rng wl_rng(17);
  const auto stream = workload::RequestStream::replay(
      std::make_shared<const workload::Workload>(
          workload::generate_workload(wcfg, wl_rng)));
  const struct {
    const char* policy;
    const char* estimator;
    const char* fleet;  // "" = single cell
  } runs[] = {
      {"pb", "ewma", ""},
      {"pb", "ewma", kFleetSpecs[0]},
      {"lru", "probe:interval_s=600", kFleetSpecs[1]},
      {"pb", "ewma", "fleet:proxies=2,sharding=random,coop=1"},
      {"pb", "ewma", ""},
      {"pb", "ewma", kFleetSpecs[1]},
      {"test-virtual:of=pb", "ewma", kFleetSpecs[0]},
      {"test-virtual:of=pb", "ewma", ""},
  };
  testing::register_virtual_components();

  const auto run_on = [&](SimulationArena& arena, const SimulationConfig& cfg,
                          const std::string& fleet_spec) {
    std::optional<fleet::FleetConfig> shape;
    if (!fleet_spec.empty()) {
      shape.emplace(fleet::FleetConfig::parse(fleet_spec));
    }
    return fleet::run_cell(arena, stream, shape ? &*shape : nullptr, cfg,
                           cfg.seed, nullptr, &scenario.base,
                           &scenario.ratio);
  };

  SimulationArena reused;
  std::uint64_t seed = 60;
  for (const auto& r : runs) {
    SimulationConfig cfg = fleet_config(r.policy, r.estimator, wcfg.catalog);
    cfg.seed = ++seed;
    SimulationArena fresh;
    expect_fleets_identical(run_on(reused, cfg, r.fleet),
                            run_on(fresh, cfg, r.fleet),
                            std::string(r.policy) + " x " + r.estimator +
                                " " + r.fleet);
  }
  EXPECT_EQ(reused.size(), 3u);
}

TEST(EngineDispatch, UserRegisteredSpecsRunOnTheVirtualEngineAndMatchBuiltins) {
  // A self-registered policy constructing the very same PbPolicy type is
  // out of the dispatch table, so it runs on the virtual engine — and
  // must still produce exactly the metrics the built-in "pb" kernel
  // engine produces.
  static const core::registry::PolicyRegistrar registrar(
      {"test-mono-pb", {}, "test-only PB clone (virtual engine)", {}},
      [](const util::Spec&, const core::registry::PolicyContext& ctx) {
        return std::make_unique<cache::PbPolicy>(ctx.catalog, ctx.estimator);
      });
  (void)registrar;

  SimulationConfig probe_cfg;
  probe_cfg.policy = "test-mono-pb";
  EXPECT_FALSE(mono_dispatchable(probe_cfg));

  const auto scenario = core::measured_variability_scenario();
  core::ExperimentConfig cfg = small_config();
  cfg.sim.policy = "test-mono-pb";
  const auto custom = core::run_experiment(cfg, scenario);
  cfg.sim.policy = "pb";
  const auto builtin = core::run_experiment(cfg, scenario);
  expect_bit_identical(custom, builtin, "test-mono-pb vs pb");
}

}  // namespace
}  // namespace sc::sim
