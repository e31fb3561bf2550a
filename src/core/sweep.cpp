#include "core/sweep.h"

#include <chrono>
#include <stdexcept>
#include <utility>

#include "core/registry.h"
#include "fleet/fleet.h"
#include "sim/arena.h"
#include "stats/summary.h"
#include "util/thread_pool.h"

namespace sc::core {

namespace {

/// Raw per-replication measurements, reduced into AveragedMetrics in run
/// order (the fold order matters for floating-point bit-identity).
struct RunOutcome {
  double traffic = 0.0;
  double delay = 0.0;
  double quality = 0.0;
  double value = 0.0;
  double hit = 0.0;
  double immediate = 0.0;
  double fill = 0.0;
  double occupancy = 0.0;
  double denied_requests = 0.0;
  double denied_bytes = 0.0;
  // Fleet cells only (0 / 1 / 0 otherwise).
  double uplink_utilization = 0.0;
  double load_imbalance = 1.0;
  double peer_hit_ratio = 0.0;
};

RunOutcome extract_outcome(const sim::SimulationResult& r) {
  RunOutcome out;
  out.traffic = r.metrics.traffic_reduction_ratio();
  out.delay = r.metrics.average_delay_s();
  out.quality = r.metrics.average_quality();
  out.value = r.metrics.total_added_value();
  out.hit = r.metrics.hit_ratio();
  out.immediate = r.metrics.immediate_ratio();
  out.fill = r.metrics.fill_bytes();
  out.occupancy = r.final_occupancy_bytes;
  out.denied_requests = static_cast<double>(r.metrics.denied_requests());
  out.denied_bytes = r.metrics.denied_bytes();
  return out;
}

/// One simulation over an already-built request stream. A pure function
/// of (stream, seeds, config): safe to run from any thread in any order
/// (cursors carry all iteration state, so concurrent simulations can
/// share one stream). `arena` is the executing worker's private engine
/// cache: the engine reuses its components and run state across every
/// simulation the worker executes (`sim_config.path_config.mode` was
/// already resolved against the scenario by SweepRunner::run). A fleet
/// cell runs the same engine with its fleet couplings attached.
RunOutcome simulate_one(const workload::RequestStream& stream,
                        const Scenario& scenario,
                        const sim::SimulationConfig& sim_config,
                        std::uint64_t path_seed,
                        std::shared_ptr<const net::PathModel> path_model,
                        sim::SimulationArena& arena,
                        const fleet::FleetConfig* fleet_config) {
  const fleet::FleetResult r =
      fleet::run_cell(arena, stream, fleet_config, sim_config, path_seed,
                      std::move(path_model), &scenario.base, &scenario.ratio);
  RunOutcome out = extract_outcome(r.aggregate);
  out.uplink_utilization = r.uplink_utilization;
  out.load_imbalance = r.load_imbalance;
  out.peer_hit_ratio = r.peer_hit_ratio;
  return out;
}

/// The per-replication seed stream, identical to the original serial
/// run_experiment derivation: every cell with the same run index shares
/// one workload seed and one path seed (the paired-seed design).
util::Rng run_rng(std::uint64_t base_seed, std::size_t run_index) {
  return util::Rng(util::splitmix64(base_seed + 0x9e37 * run_index));
}

AveragedMetrics reduce(const RunOutcome* outcomes, std::size_t runs) {
  stats::RunningStats traffic, delay, quality, value, hit, immediate, fill,
      occupancy, denied_requests, denied_bytes, uplink, imbalance, peer;
  for (std::size_t r = 0; r < runs; ++r) {
    const RunOutcome& o = outcomes[r];
    traffic.add(o.traffic);
    delay.add(o.delay);
    quality.add(o.quality);
    value.add(o.value);
    hit.add(o.hit);
    immediate.add(o.immediate);
    fill.add(o.fill);
    occupancy.add(o.occupancy);
    denied_requests.add(o.denied_requests);
    denied_bytes.add(o.denied_bytes);
    uplink.add(o.uplink_utilization);
    imbalance.add(o.load_imbalance);
    peer.add(o.peer_hit_ratio);
  }

  AveragedMetrics m;
  m.runs = runs;
  m.traffic_reduction = traffic.mean();
  m.traffic_reduction_sd = traffic.stddev();
  m.delay_s = delay.mean();
  m.delay_s_sd = delay.stddev();
  m.quality = quality.mean();
  m.quality_sd = quality.stddev();
  m.added_value = value.mean();
  m.added_value_sd = value.stddev();
  m.hit_ratio = hit.mean();
  m.immediate_ratio = immediate.mean();
  m.fill_bytes = fill.mean();
  m.occupancy_bytes = occupancy.mean();
  m.denied_requests = denied_requests.mean();
  m.denied_bytes = denied_bytes.mean();
  m.uplink_utilization = uplink.mean();
  m.load_imbalance = imbalance.mean();
  m.peer_hit_ratio = peer.mean();
  return m;
}

}  // namespace

SweepRunner::SweepRunner(ExperimentConfig base, Scenario scenario)
    : base_(std::move(base)), scenario_(std::move(scenario)) {
  if (base_.runs == 0) {
    throw std::invalid_argument("SweepRunner: runs == 0");
  }
}

std::vector<AveragedMetrics> SweepRunner::run(
    const std::vector<SweepCell>& cells, SweepStats* stats) const {
  if (stats != nullptr) *stats = SweepStats{};
  if (cells.empty()) return {};
  const std::size_t runs = base_.runs;

  // Resolve each cell against the base config, validating specs eagerly
  // so a typo fails here rather than inside a pool task. Each *distinct*
  // policy spec is validated once (cells repeat a handful of policies
  // across fractions/alphas, and a validation parse allocates).
  std::vector<sim::SimulationConfig> sims(cells.size());
  std::vector<std::shared_ptr<const fleet::FleetConfig>> fleets(cells.size());
  std::vector<double> cell_alpha(cells.size());
  std::vector<const std::string*> validated;
  const auto validate_policy_once = [&validated](const std::string& spec) {
    for (const std::string* seen : validated) {
      if (*seen == spec) return;
    }
    registry::validate(registry::Kind::kPolicy, spec);
    validated.push_back(&spec);
  };
  // Trace replay: one immutable request stream, loaded when the
  // scenario was made, shared by every cell and replication (no
  // generation at all). A materialized `replay` workload is wrapped in
  // a replay stream; `scenario_.stream` (trace:...,stream=1) is used
  // as-is and re-reads the file chunk-wise inside each simulation.
  std::shared_ptr<const workload::RequestStream> fixed = scenario_.stream;
  if (fixed == nullptr && scenario_.replay != nullptr) {
    fixed = std::make_shared<const workload::RequestStream>(
        workload::RequestStream::replay(scenario_.replay));
  }
  for (std::size_t c = 0; c < cells.size(); ++c) {
    sims[c] = base_.sim;
    // Resolve the scenario's variation mode up front so simulation tasks
    // can reference the cell config without copying it per replication.
    sims[c].path_config.mode = scenario_.mode;
    if (!cells[c].policy.empty()) sims[c].policy = cells[c].policy;
    validate_policy_once(sims[c].policy);
    if (cells[c].cache_fraction >= 0) {
      // A replayed catalog has a known actual size; the synthetic path
      // keeps the paper's expected-corpus x-axis convention.
      sims[c].cache_capacity_bytes =
          fixed != nullptr
              ? cells[c].cache_fraction * fixed->catalog().total_bytes()
              : capacity_for_fraction(base_.workload.catalog,
                                      cells[c].cache_fraction);
    }
    if (!cells[c].interactivity.empty()) {
      sims[c].interactivity =
          sim::InteractivityConfig::parse(cells[c].interactivity);
    }
    if (!cells[c].fault.empty()) {
      sims[c].fault = net::FaultPlan::parse(cells[c].fault);
    }
    if (!cells[c].fleet.empty()) {
      fleets[c] = std::make_shared<const fleet::FleetConfig>(
          fleet::FleetConfig::parse(cells[c].fleet));
    }
    cell_alpha[c] = cells[c].zipf_alpha >= 0 ? cells[c].zipf_alpha
                                             : base_.workload.trace.zipf_alpha;
  }
  registry::validate(registry::Kind::kEstimator, base_.sim.estimator);

  // Distinct alphas, in order of first appearance; each (alpha, run)
  // workload is generated exactly once and shared by every cell.
  std::vector<double> alphas;
  std::vector<std::size_t> alpha_of_cell(cells.size());
  for (std::size_t c = 0; c < cells.size(); ++c) {
    std::size_t a = 0;
    while (a < alphas.size() && alphas[a] != cell_alpha[c]) ++a;
    if (a == alphas.size()) alphas.push_back(cell_alpha[c]);
    alpha_of_cell[c] = a;
  }

  std::vector<std::uint64_t> path_seeds(runs);
  for (std::size_t r = 0; r < runs; ++r) {
    path_seeds[r] = run_rng(base_.base_seed, r).fork("paths").seed();
  }

  // Workload materialization policy (see ExperimentConfig::streaming):
  // short traces are cheaper to generate once per (alpha, run) and
  // replay from memory; long traces become regenerating streams whose
  // simulations re-derive the identical sequence in O(chunk) memory.
  const bool materialize =
      base_.streaming == workload::StreamingMode::kMaterialize ||
      (base_.streaming == workload::StreamingMode::kAuto &&
       base_.workload.trace.num_requests <= workload::kAutoStreamThreshold);
  std::vector<std::shared_ptr<const workload::RequestStream>> streams(
      fixed != nullptr ? 0 : alphas.size() * runs);
  const auto generate = [&](std::size_t task) {
    const std::size_t a = task / runs;
    const std::size_t r = task % runs;
    workload::WorkloadConfig wcfg = base_.workload;
    wcfg.trace.zipf_alpha = alphas[a];
    util::Rng workload_rng = run_rng(base_.base_seed, r).fork("workload");
    if (materialize) {
      streams[task] = std::make_shared<const workload::RequestStream>(
          workload::RequestStream::replay(
              std::make_shared<const workload::Workload>(
                  workload::generate_workload(wcfg, workload_rng))));
    } else {
      // The catalog consumes the head of the workload stream exactly as
      // generate_workload would; the stream snapshots the post-catalog
      // state so cursors regenerate the byte-identical request tail.
      auto catalog = std::make_shared<const workload::Catalog>(
          workload::Catalog::generate(wcfg.catalog, workload_rng));
      streams[task] = std::make_shared<const workload::RequestStream>(
          workload::RequestStream::synthetic(std::move(catalog), wcfg.trace,
                                             std::move(workload_rng)));
    }
  };

  // One immutable path model per replication, shared by every cell: the
  // per-path mean draws depend only on (base_seed, r) and the scenario,
  // never on the cell's policy, alpha, or cache fraction — bit-identical
  // to every simulation drawing its own (regression-tested in
  // test_sweep.cpp).
  std::vector<std::shared_ptr<const net::PathModel>> path_models(runs);
  net::PathModelConfig path_config = base_.sim.path_config;
  path_config.mode = scenario_.mode;
  const std::size_t n_paths = fixed != nullptr
                                  ? fixed->catalog().size()
                                  : base_.workload.catalog.num_objects;
  const auto build_model = [&](std::size_t r) {
    // Exactly the simulator's own derivation: Rng(seed).fork("paths").
    util::Rng rng(path_seeds[r]);
    path_models[r] = std::make_shared<const net::PathModel>(
        n_paths, scenario_.base, scenario_.ratio, path_config,
        rng.fork("paths"));
  };

  // Workload generation and model construction are independent; one task
  // list covers both so the pool drains them together.
  const std::size_t setup_tasks = streams.size() + path_models.size();
  const auto setup = [&](std::size_t task) {
    if (task < streams.size()) {
      generate(task);
    } else {
      build_model(task - streams.size());
    }
  };

  std::vector<RunOutcome> outcomes(cells.size() * runs);
  // One simulation arena per worker slot: each worker caches the
  // engines (and their reusable event queue / store /
  // heap / estimator state) for the spec pairs it executes, so
  // steady-state sweep allocations are O(workers x distinct specs), not
  // O(cells x replications).
  // Per-simulation wall times land in preallocated slots keyed by the
  // deterministic task index, so collection is thread-safe and the
  // reported distribution is scheduling-independent up to timing noise.
  std::vector<double> sim_wall(stats != nullptr ? outcomes.size() : 0);
  const auto simulate = [&](sim::SimulationArena& arena, std::size_t task) {
    const std::size_t c = task / runs;
    const std::size_t r = task % runs;
    const workload::RequestStream& stream =
        fixed != nullptr ? *fixed : *streams[alpha_of_cell[c] * runs + r];
    const auto start = std::chrono::steady_clock::now();
    outcomes[task] =
        simulate_one(stream, scenario_, sims[c], path_seeds[r],
                     path_models[r], arena, fleets[c].get());
    if (!sim_wall.empty()) {
      sim_wall[task] = std::chrono::duration<double>(
                           std::chrono::steady_clock::now() - start)
                           .count();
    }
  };

  const bool serial =
      !base_.parallel || base_.threads == 1 || cells.size() * runs == 1;
  if (serial) {
    sim::SimulationArena arena;
    for (std::size_t t = 0; t < setup_tasks; ++t) setup(t);
    for (std::size_t t = 0; t < outcomes.size(); ++t) simulate(arena, t);
  } else {
    std::unique_ptr<util::ThreadPool> owned;
    util::ThreadPool* pool;
    if (base_.threads == 0) {
      pool = &util::ThreadPool::shared();
    } else {
      owned = std::make_unique<util::ThreadPool>(base_.threads);
      pool = owned.get();
    }
    std::vector<sim::SimulationArena> arenas(pool->slot_count());
    pool->parallel_for(setup_tasks, setup);
    pool->parallel_for_slots(outcomes.size(),
                             [&](std::size_t slot, std::size_t task) {
                               simulate(arenas[slot], task);
                             });
  }

  if (stats != nullptr) {
    stats->workloads_generated = streams.size();
    stats->path_models_built = path_models.size();
    stats->sim_wall_s = std::move(sim_wall);
  }

  std::vector<AveragedMetrics> results;
  results.reserve(cells.size());
  for (std::size_t c = 0; c < cells.size(); ++c) {
    results.push_back(reduce(&outcomes[c * runs], runs));
  }
  return results;
}

}  // namespace sc::core
