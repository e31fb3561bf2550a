// Sweep-scale parallel execution engine.
//
// A figure bench evaluates a grid of (policy, zipf-alpha, cache-fraction)
// cells, each averaged over `runs` paired-seed replications. Running the
// grid one run_experiment call at a time regenerates the same seeded
// workloads for every cell and leaves cores idle between sweep points.
// SweepRunner instead:
//
//   1. builds each (alpha, replication) workload exactly once and
//      shares it immutably across all policies and cache fractions as a
//      workload::RequestStream — in-memory request columns for short
//      traces, a regenerating O(chunk)-memory stream for long ones
//      (ExperimentConfig::streaming) — the paired-seed design
//      guarantees every cell would have generated the identical
//      workload anyway;
//   2. flattens the whole grid into one (cell x replication) task list
//      executed on a single util::ThreadPool, so parallelism spans the
//      entire sweep instead of one sweep point.
//
// Results are BIT-IDENTICAL to the serial path: every task is a pure
// function of (workload, seeds, config), tasks write into preallocated
// slots, and per-cell reduction always folds replications in run order.
// Thread count and scheduling order therefore cannot affect any metric.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "core/experiment.h"

namespace sc::core {

/// One sweep grid cell. Fields left at their sentinel defaults inherit
/// the base ExperimentConfig's values.
struct SweepCell {
  /// Replacement policy spec ("" = base.sim.policy).
  std::string policy;
  /// Trace popularity skew (NaN / omit via negative = base alpha).
  double zipf_alpha = -1.0;
  /// Cache size as a fraction of the expected corpus size (negative =
  /// keep base.sim.cache_capacity_bytes as-is). Under a trace-replay
  /// scenario the fraction resolves against the replayed catalog's
  /// actual total size instead of the synthetic expectation.
  double cache_fraction = -1.0;
  /// Client interactivity spec ("" = base.sim.interactivity; see
  /// sim/interactivity.h) so one grid can sweep session-dynamics modes
  /// while sharing workloads across them.
  std::string interactivity;
  /// Fault-injection spec ("" = base.sim.fault; see net/fault.h, e.g.
  /// "fault:outage=120+60") so one grid can sweep chaos scenarios while
  /// sharing workloads and path models across them.
  std::string fault;
  /// Edge-fleet spec ("" = single-cell simulator; see fleet/fleet.h,
  /// e.g. "fleet:proxies=16,sharding=hash:vnodes=64,uplink_mbps=200").
  /// A fleet cell runs one sequential multi-proxy pass per replication
  /// over the same shared workload stream and path model; the cell's
  /// cache fraction is the fleet's *aggregate* budget (split evenly
  /// across proxies). Grid parallelism is across cells x replications,
  /// exactly as for single-cell sweeps, so results stay bit-identical
  /// at every --threads.
  std::string fleet;
};

/// What one SweepRunner::run call actually constructed (vs. the
/// cells x replications a naive grid would have built). Benches surface
/// these in their BENCH_*.json perf records.
struct SweepStats {
  /// Distinct (alpha, replication) workload streams built — each either
  /// in-memory request columns or a regenerating stream, per
  /// ExperimentConfig::streaming (0 under a trace scenario, which
  /// shares one immutable stream across the grid).
  std::size_t workloads_generated = 0;
  /// Immutable net::PathModel instances built: one per replication,
  /// shared by every cell.
  std::size_t path_models_built = 0;
  /// Wall-clock seconds of each individual simulation, indexed by the
  /// deterministic (cell * runs + replication) task slot regardless of
  /// thread count or scheduling. Feeds the benches'
  /// --latency-percentiles reporting (stats::summarize_latencies).
  std::vector<double> sim_wall_s;
};

class SweepRunner {
 public:
  /// `base` supplies the workload shape, simulation config (estimator,
  /// warmup, interactivity/patching), replication count, base seed, and
  /// the parallel/threads execution knobs shared by every cell.
  SweepRunner(ExperimentConfig base, Scenario scenario);

  /// Evaluate every cell; result[i] corresponds to cells[i]. Workloads
  /// are shared across cells per (alpha, replication) and path models
  /// per replication (see docs/PERF.md); execution
  /// uses base.parallel/base.threads (threads == 0 -> the process-wide
  /// shared pool, threads == 1 -> inline serial). `stats`, when given,
  /// receives construction counts for perf records.
  [[nodiscard]] std::vector<AveragedMetrics> run(
      const std::vector<SweepCell>& cells, SweepStats* stats = nullptr) const;

 private:
  ExperimentConfig base_;
  Scenario scenario_;
};

}  // namespace sc::core
