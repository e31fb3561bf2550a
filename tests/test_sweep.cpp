// The sweep execution engine's core guarantee: thread count and
// scheduling order never change any metric. A parallel sweep must be
// bit-identical to the serial path, and a sweep cell must be
// bit-identical to a standalone run_experiment of the same
// configuration (the shared workloads are exactly the ones each cell
// would have generated itself).

#include "core/sweep.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <memory>
#include <string>

#include "core/registry.h"
#include "sim/simulator.h"
#include "stats/summary.h"
#include "util/rng.h"
#include "util/spec.h"
#include "workload/generator.h"
#include "workload/trace.h"

namespace sc::core {
namespace {

ExperimentConfig small_config() {
  ExperimentConfig cfg;
  cfg.workload.catalog.num_objects = 200;
  cfg.workload.trace.num_requests = 4000;
  cfg.runs = 3;
  cfg.base_seed = 101;
  return cfg;
}

std::vector<SweepCell> fig5_shaped_cells() {
  // A miniature Fig-5 grid: 3 policies x 2 cache fractions.
  std::vector<SweepCell> cells;
  for (const char* policy : {"if", "pb", "ib"}) {
    for (const double fraction : {0.01, 0.05}) {
      cells.push_back(SweepCell{policy, -1.0, fraction, {}, {}, {}});
    }
  }
  return cells;
}

void expect_bit_identical(const AveragedMetrics& a, const AveragedMetrics& b) {
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
}

TEST(SweepRunner, ParallelBitIdenticalToSerial) {
  const auto cells = fig5_shaped_cells();
  const auto scenario = constant_scenario();

  ExperimentConfig serial_cfg = small_config();
  serial_cfg.threads = 1;
  const auto serial = SweepRunner(serial_cfg, scenario).run(cells);

  ExperimentConfig parallel_cfg = small_config();
  parallel_cfg.threads = 8;
  const auto parallel = SweepRunner(parallel_cfg, scenario).run(cells);

  ExperimentConfig off_cfg = small_config();
  off_cfg.parallel = false;
  const auto off = SweepRunner(off_cfg, scenario).run(cells);

  ASSERT_EQ(serial.size(), cells.size());
  ASSERT_EQ(parallel.size(), cells.size());
  for (std::size_t i = 0; i < cells.size(); ++i) {
    expect_bit_identical(serial[i], parallel[i]);
    expect_bit_identical(serial[i], off[i]);
  }
}

TEST(SweepRunner, CellMatchesStandaloneRunExperiment) {
  const auto scenario = constant_scenario();
  ExperimentConfig cfg = small_config();

  SweepCell cell;
  cell.policy = "pb";
  cell.cache_fraction = 0.05;
  const auto swept = SweepRunner(cfg, scenario).run({cell}).front();

  cfg.sim.policy = "pb";
  cfg.sim.cache_capacity_bytes =
      capacity_for_fraction(cfg.workload.catalog, 0.05);
  const auto standalone = run_experiment(cfg, scenario);
  expect_bit_identical(swept, standalone);
}

TEST(SweepRunner, CellsInheritBaseDefaults) {
  const auto scenario = constant_scenario();
  ExperimentConfig cfg = small_config();
  cfg.sim.policy = "ib";
  cfg.sim.cache_capacity_bytes =
      capacity_for_fraction(cfg.workload.catalog, 0.02);
  // An all-default cell is exactly the base experiment.
  const auto inherited = SweepRunner(cfg, scenario).run({SweepCell{}}).front();
  const auto direct = run_experiment(cfg, scenario);
  expect_bit_identical(inherited, direct);
}

TEST(SweepRunner, SharedPathModelsBitIdenticalToPerCellConstruction) {
  // The tentpole guarantee of the PathModel split: one immutable model
  // per replication, shared by every cell, produces exactly the metrics
  // of standalone simulations that draw their own model (the model
  // snapshots its post-draw RNG state, so samplers continue the
  // identical stream).
  const auto cells = fig5_shaped_cells();
  // Exercise the iid-ratio sampler path too, not just constant means.
  const auto scenario = measured_variability_scenario();
  const ExperimentConfig cfg = small_config();
  SweepStats sweep_stats;
  const auto swept = SweepRunner(cfg, scenario).run(cells, &sweep_stats);
  ASSERT_EQ(swept.size(), cells.size());
  EXPECT_EQ(sweep_stats.path_models_built, cfg.runs);

  for (std::size_t c = 0; c < cells.size(); ++c) {
    stats::RunningStats traffic, delay, quality, value, hit, immediate, fill,
        occupancy;
    for (std::size_t r = 0; r < cfg.runs; ++r) {
      // The sweep's paired-seed derivation: one workload stream and one
      // path seed per replication.
      const util::Rng run_rng(util::splitmix64(cfg.base_seed + 0x9e37 * r));
      util::Rng workload_rng = run_rng.fork("workload");
      const auto w = workload::generate_workload(cfg.workload, workload_rng);
      sim::SimulationConfig sim_cfg = cfg.sim;
      sim_cfg.policy = cells[c].policy;
      sim_cfg.cache_capacity_bytes =
          capacity_for_fraction(cfg.workload.catalog, cells[c].cache_fraction);
      sim_cfg.path_config.mode = scenario.mode;
      sim_cfg.seed = run_rng.fork("paths").seed();
      const auto result =
          sim::Simulator(w, scenario.base, scenario.ratio, sim_cfg).run();
      traffic.add(result.metrics.traffic_reduction_ratio());
      delay.add(result.metrics.average_delay_s());
      quality.add(result.metrics.average_quality());
      value.add(result.metrics.total_added_value());
      hit.add(result.metrics.hit_ratio());
      immediate.add(result.metrics.immediate_ratio());
      fill.add(result.metrics.fill_bytes());
      occupancy.add(result.final_occupancy_bytes);
    }
    // SweepRunner's mean/sd reduction, field for field.
    AveragedMetrics standalone;
    standalone.runs = cfg.runs;
    standalone.traffic_reduction = traffic.mean();
    standalone.traffic_reduction_sd = traffic.stddev();
    standalone.delay_s = delay.mean();
    standalone.delay_s_sd = delay.stddev();
    standalone.quality = quality.mean();
    standalone.quality_sd = quality.stddev();
    standalone.added_value = value.mean();
    standalone.added_value_sd = value.stddev();
    standalone.hit_ratio = hit.mean();
    standalone.immediate_ratio = immediate.mean();
    standalone.fill_bytes = fill.mean();
    standalone.occupancy_bytes = occupancy.mean();
    SCOPED_TRACE(c);
    expect_bit_identical(swept[c], standalone);
  }
}

TEST(SweepRunner, StatsCountWorkloadsAndModels) {
  // A 2-alpha x 2-policy grid over 3 runs: 4 workloads per run share
  // nothing across alphas, but all 4 cells share one path model per run.
  std::vector<SweepCell> cells;
  for (const char* policy : {"pb", "ib"}) {
    for (const double alpha : {0.6, 1.1}) {
      cells.push_back(SweepCell{policy, alpha, 0.05, {}, {}, {}});
    }
  }
  SweepStats stats;
  const auto r =
      SweepRunner(small_config(), constant_scenario()).run(cells, &stats);
  ASSERT_EQ(r.size(), cells.size());
  EXPECT_EQ(stats.workloads_generated, 2u * 3u);  // alphas x runs
  EXPECT_EQ(stats.path_models_built, 3u);         // runs only
}

TEST(SweepRunner, AlphaCellsShareNothingAcrossDistinctAlphas) {
  // Different alphas are different workloads: metrics must differ.
  const auto scenario = constant_scenario();
  std::vector<SweepCell> cells;
  cells.push_back(SweepCell{"pb", 0.5, 0.05, {}, {}, {}});
  cells.push_back(SweepCell{"pb", 1.2, 0.05, {}, {}, {}});
  const auto r = SweepRunner(small_config(), scenario).run(cells);
  EXPECT_NE(r[0].traffic_reduction, r[1].traffic_reduction);
}

TEST(SweepRunner, TraceReplaySharesOneWorkloadAcrossEverything) {
  // The trace scenario replays one immutable workload for every cell,
  // alpha, and replication: zero workloads generated, alpha ignored,
  // cache fractions resolved against the replayed catalog's actual
  // size, and results bit-identical to simulating the in-memory
  // workload directly.
  workload::WorkloadConfig wcfg;
  wcfg.catalog.num_objects = 150;
  wcfg.trace.num_requests = 3000;
  util::Rng rng(77);
  const auto w = workload::generate_workload(wcfg, rng);
  const auto trace_path =
      std::filesystem::temp_directory_path() / "sc_sweep_replay.trace";
  workload::write_trace(w, trace_path);
  const auto scenario =
      registry::make_scenario("trace:file=" + trace_path.string());
  std::filesystem::remove(trace_path);
  ASSERT_NE(scenario.stream, nullptr);
  ASSERT_EQ(scenario.stream->num_requests(), w.requests.size());

  std::vector<SweepCell> cells;
  cells.push_back(SweepCell{"pb", -1.0, 0.05, {}, {}, {}});
  cells.push_back(SweepCell{"pb", 0.9, 0.05, {}, {}, {}});  // alpha is ignored
  cells.push_back(SweepCell{"ib", -1.0, 0.02, {}, {}, {}});
  SweepStats stats;
  const auto r = SweepRunner(small_config(), scenario).run(cells, &stats);
  ASSERT_EQ(r.size(), cells.size());
  EXPECT_EQ(stats.workloads_generated, 0u);
  EXPECT_EQ(stats.path_models_built, small_config().runs);
  // Replications replay the same requests; only bandwidth draws differ.
  expect_bit_identical(r[0], r[1]);

  // Bit-identity with simulating the in-memory workload directly: the
  // replay path adds no transformation beyond file round-tripping.
  ExperimentConfig direct_cfg = small_config();
  direct_cfg.sim.policy = "pb";
  direct_cfg.sim.cache_capacity_bytes =
      0.05 * scenario.stream->catalog().total_bytes();
  Scenario direct = constant_scenario();
  direct.stream = std::make_shared<const workload::RequestStream>(
      workload::RequestStream::replay(
          std::make_shared<const workload::Workload>(w)));
  const auto direct_metrics = run_experiment(direct_cfg, direct);
  expect_bit_identical(r[0], direct_metrics);
}

TEST(SweepRunner, TraceGridIsIdenticalResidentOrStreamedFromDisk) {
  // The trace scenario holds a trace of up to 64M declared requests in
  // memory and re-streams a longer one from disk.
  // Both sources must give one grid (recorded viewing durations, every
  // interactivity reading of them, a cooperative fleet cell) identical
  // results field for field, and neither generates a workload.
  workload::WorkloadConfig wcfg;
  wcfg.catalog.num_objects = 120;
  wcfg.trace.num_requests = 3000;
  util::Rng rng(43);
  auto w = workload::generate_workload(wcfg, rng);
  util::Rng view_rng(44);
  for (auto& r : w.requests) {
    if (view_rng.uniform() < 0.5) r.view_s = view_rng.uniform(30.0, 3000.0);
  }
  const auto trace_path = std::filesystem::temp_directory_path() /
                          "sc_sweep_resident_or_disk.trace";
  workload::write_trace(w, trace_path);
  const Scenario resident = registry::make_scenario(
      "trace:file=" + trace_path.string() + ",bw=measured");
  Scenario from_disk = registry::make_scenario("measured");
  from_disk.stream = std::make_shared<const workload::RequestStream>(
      workload::RequestStream::trace_file(trace_path));

  std::vector<SweepCell> cells;
  cells.push_back(SweepCell{"pb", -1.0, 0.05, "full", {}, {}});
  cells.push_back(SweepCell{"ib", -1.0, 0.02, "trace", {}, {}});
  cells.push_back(SweepCell{"lru", -1.0, 0.05, "empirical", {}, {}});
  cells.push_back(SweepCell{
      "pb", -1.0, 0.05, "trace", {}, "fleet:proxies=2,sharding=random,coop=1"});
  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    ExperimentConfig cfg = small_config();
    cfg.sim.estimator = "ewma";
    cfg.threads = threads;
    SweepStats resident_stats;
    SweepStats disk_stats;
    const auto a = SweepRunner(cfg, resident).run(cells, &resident_stats);
    const auto b = SweepRunner(cfg, from_disk).run(cells, &disk_stats);
    EXPECT_EQ(resident_stats.workloads_generated, 0u);
    EXPECT_EQ(disk_stats.workloads_generated, 0u);
    ASSERT_EQ(a.size(), cells.size());
    ASSERT_EQ(b.size(), cells.size());
    for (std::size_t c = 0; c < cells.size(); ++c) {
      SCOPED_TRACE("cell " + std::to_string(c) + " threads " +
                   std::to_string(threads));
      expect_bit_identical(a[c], b[c]);
      EXPECT_EQ(a[c].denied_requests, b[c].denied_requests);
      EXPECT_EQ(a[c].denied_bytes, b[c].denied_bytes);
      EXPECT_EQ(a[c].uplink_utilization, b[c].uplink_utilization);
      EXPECT_EQ(a[c].load_imbalance, b[c].load_imbalance);
      EXPECT_EQ(a[c].peer_hit_ratio, b[c].peer_hit_ratio);
    }
  }
  std::filesystem::remove(trace_path);
}

TEST(SweepRunner, TraceScenarioSpecErrors) {
  EXPECT_THROW((void)registry::make_scenario("trace"), util::SpecError);
  EXPECT_THROW((void)registry::make_scenario("trace:bw=nlanr"),
               util::SpecError);
  EXPECT_THROW((void)registry::make_scenario(
                   "trace:file=/tmp/x.trace,frequency=2"),
               util::SpecError);
  // A trace replaying another trace as its bandwidth model is nonsense.
  const auto p = std::filesystem::temp_directory_path() / "sc_bw_self.trace";
  workload::WorkloadConfig wcfg;
  wcfg.catalog.num_objects = 3;
  wcfg.trace.num_requests = 5;
  util::Rng rng(1);
  workload::write_trace(workload::generate_workload(wcfg, rng), p);
  EXPECT_THROW((void)registry::make_scenario("trace:file=" + p.string() +
                                             ",bw=trace:file=" + p.string()),
               util::SpecError);
  // The size rule picks the source; there is no stream switch.
  EXPECT_THROW(
      (void)registry::make_scenario("trace:file=" + p.string() + ",stream=1"),
      util::SpecError);
  std::filesystem::remove(p);
  // Missing file: a useful runtime error, not a crash.
  EXPECT_THROW(
      (void)registry::make_scenario("trace:file=/no/such/file.trace"),
      std::runtime_error);
}

TEST(SweepRunner, EmptyCellListYieldsEmptyResult) {
  EXPECT_TRUE(
      SweepRunner(small_config(), constant_scenario()).run({}).empty());
}

TEST(SweepRunner, RejectsZeroRuns) {
  ExperimentConfig cfg = small_config();
  cfg.runs = 0;
  EXPECT_THROW(SweepRunner(cfg, constant_scenario()),
               std::invalid_argument);
}

TEST(SweepRunner, BadPolicySpecFailsEagerly) {
  std::vector<SweepCell> cells;
  cells.push_back(SweepCell{"no-such-policy", -1.0, 0.05, {}, {}, {}});
  SweepRunner runner(small_config(), constant_scenario());
  EXPECT_THROW((void)runner.run(cells), util::SpecError);
}

TEST(RunExperiment, StillRejectsZeroRuns) {
  ExperimentConfig cfg = small_config();
  cfg.runs = 0;
  EXPECT_THROW((void)run_experiment(cfg, constant_scenario()),
               std::invalid_argument);
}

}  // namespace
}  // namespace sc::core
