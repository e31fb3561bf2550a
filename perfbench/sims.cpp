// The simulator workloads: sim_const, sim_var and fleet16.
//
// Untraced repetitions run the grid on core::SweepRunner with one
// thread, exactly as the figure benches do. The traced repetition
// rebuilds the same kind of inputs and times each layer from here:
//
//   sim_*    instantiates sim::run_request_loop with two adapters — one
//            times cache::UtilityPolicy<K>::access, the other the
//            estimator kernel's estimate/observe — over components built
//            through the registry and reached by dynamic_cast. This is
//            the monomorphized engine's loop with spans around the calls.
//   fleet16  runs fleet::run_fleet with the "traced" policy and
//            estimator specs (traced.h), which wrap the registry's own
//            components and time the same calls on the fleet's virtual
//            path.
//
// Every traced cell must equal the untraced program on the same inputs
// field for field, which proves the spans did not change what ran.
// Stream fill, path sampling and sharding are timed by replaying their
// public calls over the run's own request stream, one span per block.
#include <cmath>
#include <cstdio>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "bench/harness.h"
#include "cache/policy.h"
#include "core/experiment.h"
#include "core/registry.h"
#include "core/sweep.h"
#include "fleet/fleet.h"
#include "fleet/sharding.h"
#include "net/estimator.h"
#include "sim/run_loop.h"
#include "sim/simulator.h"
#include "spans.h"
#include "stats/summary.h"
#include "traced.h"
#include "workload/request_stream.h"
#include "workloads.h"

namespace perfbench {

namespace {

constexpr std::size_t kObjects = 5000;
constexpr double kZipfAlpha = 0.73;

struct SimShape {
  std::string scenario;
  std::string estimator;
  std::string interactivity;
  std::size_t requests = 0;
  std::size_t replications = 0;
  std::vector<sc::core::SweepCell> cells;
};

SimShape shape_for(const std::string& workload) {
  SimShape s;
  if (workload == "fleet16") {
    s.scenario = "constant";
    s.estimator = "oracle";
    s.interactivity = "full";
    // Above workload::kAutoStreamThreshold, so the stream regenerates
    // inside each cell instead of replaying a vector.
    s.requests = 5'000'000;
    s.replications = 1;
    const std::string common = "fleet:proxies=16,regions=4,";
    const std::string uplink =
        ",uplink_mbps=200,burst_mb=64,peer_latency_ms=2";
    for (const char* sharding :
         {"sharding=hash:vnodes=64", "sharding=random,coop=1"}) {
      s.cells.push_back(
          sc::core::SweepCell{"pb", -1.0, 0.05, {}, {}, common + sharding + uplink});
    }
    return s;
  }
  const bool constant = workload == "sim_const";
  s.scenario = constant ? "constant" : "nlanr";
  s.estimator = constant ? "oracle" : "ewma";
  s.interactivity = constant ? "full" : "exp:mean=600";
  s.requests = constant ? 1'000'000 : 400'000;
  s.replications = constant ? 2 : 1;
  for (const char* policy : {"if", "pb", "ib"}) {
    for (const double fraction : sc::core::paper_cache_fractions()) {
      s.cells.push_back(sc::core::SweepCell{policy, -1.0, fraction, {}, {}, {}});
    }
  }
  return s;
}

bool is_fleet(const SimShape& shape) { return !shape.cells[0].fleet.empty(); }

sc::workload::WorkloadConfig workload_config(const SimShape& shape) {
  sc::workload::WorkloadConfig w;
  w.catalog.num_objects = kObjects;
  w.trace.num_requests = shape.requests;
  w.trace.zipf_alpha = kZipfAlpha;
  return w;
}

double mean_over(const std::vector<sc::core::AveragedMetrics>& metrics,
                 double sc::core::AveragedMetrics::*field) {
  double sum = 0.0;
  for (const auto& m : metrics) sum += m.*field;
  return sum / static_cast<double>(metrics.size());
}

bool same_metrics(const sc::core::AveragedMetrics& a,
                  const sc::core::AveragedMetrics& b) {
  return a.runs == b.runs && a.traffic_reduction == b.traffic_reduction &&
         a.traffic_reduction_sd == b.traffic_reduction_sd &&
         a.delay_s == b.delay_s && a.delay_s_sd == b.delay_s_sd &&
         a.quality == b.quality && a.quality_sd == b.quality_sd &&
         a.added_value == b.added_value &&
         a.added_value_sd == b.added_value_sd && a.hit_ratio == b.hit_ratio &&
         a.immediate_ratio == b.immediate_ratio &&
         a.fill_bytes == b.fill_bytes &&
         a.occupancy_bytes == b.occupancy_bytes &&
         a.denied_requests == b.denied_requests &&
         a.denied_bytes == b.denied_bytes &&
         a.uplink_utilization == b.uplink_utilization &&
         a.load_imbalance == b.load_imbalance &&
         a.peer_hit_ratio == b.peer_hit_ratio;
}

bool same_result(const sc::sim::SimulationResult& a,
                 const sc::sim::SimulationResult& b) {
  const sc::sim::MetricsCollector& x = a.metrics;
  const sc::sim::MetricsCollector& y = b.metrics;
  return a.policy_name == b.policy_name &&
         a.warmup_requests == b.warmup_requests &&
         a.measured_requests == b.measured_requests &&
         a.final_occupancy_bytes == b.final_occupancy_bytes &&
         a.final_cached_objects == b.final_cached_objects &&
         a.estimator_overhead_packets == b.estimator_overhead_packets &&
         x.requests() == y.requests() &&
         x.traffic_reduction_ratio() == y.traffic_reduction_ratio() &&
         x.backbone_reduction_ratio() == y.backbone_reduction_ratio() &&
         x.average_delay_s() == y.average_delay_s() &&
         x.average_quality() == y.average_quality() &&
         x.average_quality_quantized() == y.average_quality_quantized() &&
         x.total_added_value() == y.total_added_value() &&
         x.hit_ratio() == y.hit_ratio() &&
         x.immediate_ratio() == y.immediate_ratio() &&
         x.bytes_from_cache() == y.bytes_from_cache() &&
         x.bytes_shared() == y.bytes_shared() &&
         x.bytes_from_origin() == y.bytes_from_origin() &&
         x.fill_bytes() == y.fill_bytes() &&
         x.denied_requests() == y.denied_requests() &&
         x.denied_bytes() == y.denied_bytes() &&
         x.average_viewed_fraction() == y.average_viewed_fraction() &&
         x.truncated_ratio() == y.truncated_ratio() &&
         x.delay_stats().max() == y.delay_stats().max() &&
         x.quality_stats().min() == y.quality_stats().min();
}

bool same_fleet_result(const sc::fleet::FleetResult& a,
                       const sc::fleet::FleetResult& b) {
  if (!same_result(a.aggregate, b.aggregate) ||
      a.per_proxy.size() != b.per_proxy.size() ||
      a.uplink_utilization != b.uplink_utilization ||
      a.load_imbalance != b.load_imbalance ||
      a.peer_hit_ratio != b.peer_hit_ratio) {
    return false;
  }
  for (std::size_t p = 0; p < a.per_proxy.size(); ++p) {
    const auto& x = a.per_proxy[p];
    const auto& y = b.per_proxy[p];
    if (x.requests != y.requests || x.hits != y.hits ||
        x.peer_assisted != y.peer_assisted ||
        x.origin_bytes != y.origin_bytes || x.peer_bytes != y.peer_bytes ||
        x.fill_bytes != y.fill_bytes) {
      return false;
    }
  }
  return true;
}

/// Paper §4.1 (Fig. 5) orderings at every cache size. The grid holds
/// IF, PB and IB in that order, one cell per paper cache fraction.
void check_fig5_shape(const std::vector<sc::core::AveragedMetrics>& m,
                      Checks& checks) {
  const std::size_t n = sc::core::paper_cache_fractions().size();
  bool ok = m.size() == 3 * n;
  for (std::size_t f = 0; ok && f < n; ++f) {
    const auto& fi = m[f];
    const auto& pb = m[n + f];
    const auto& ib = m[2 * n + f];
    ok = fi.traffic_reduction > ib.traffic_reduction &&
         ib.traffic_reduction > pb.traffic_reduction &&
         pb.delay_s < ib.delay_s && ib.delay_s < fi.delay_s &&
         pb.quality > ib.quality && ib.quality > fi.quality;
  }
  checks.expect(ok,
                "Fig. 5 shape: traffic IF>IB>PB, delay PB<IB<IF, quality "
                "PB>IB>IF at every cache size");
}

/// The edge-fleet invariants that hold for fleet16's two cells (hash
/// sharding with a finite uplink; random sharding with an uplink and
/// cooperation).
void check_fleet_invariants(const std::vector<sc::core::AveragedMetrics>& m,
                            Checks& checks) {
  const auto& hash = m.at(0);
  const auto& coop = m.at(1);
  checks.expect(hash.load_imbalance >= 1.0 && coop.load_imbalance >= 1.0,
                "fleet: load imbalance (max/mean) >= 1");
  checks.expect(coop.load_imbalance < 1.2,
                "fleet: per-request random sharding is near-balanced");
  checks.expect(hash.uplink_utilization > 0.0 && coop.uplink_utilization > 0.0,
                "fleet: finite uplink reports non-zero utilization");
  checks.expect(hash.peer_hit_ratio == 0.0,
                "fleet: no peer hits without cooperation");
  checks.expect(coop.peer_hit_ratio > 0.0,
                "fleet: cooperating proxies serve some bytes from peers");
}

void check_sane(const std::vector<sc::core::AveragedMetrics>& metrics,
                Checks& checks) {
  bool ok = true;
  for (const auto& m : metrics) {
    ok = ok && m.traffic_reduction > 0.0 && m.traffic_reduction <= 1.0 &&
         std::isfinite(m.delay_s) && m.delay_s >= 0.0 && m.runs > 0;
  }
  checks.expect(ok, "every cell: 0 < traffic reduction <= 1, finite delay");
}

struct UntracedRep {
  Values values;
  std::vector<sc::core::AveragedMetrics> metrics;
};

UntracedRep run_untraced(const SimShape& shape, std::uint64_t seed) {
  const std::int64_t start = now_ns();
  sc::core::ExperimentConfig base;
  base.workload = workload_config(shape);
  base.sim.estimator = shape.estimator;
  base.sim.interactivity =
      sc::sim::InteractivityConfig::parse(shape.interactivity);
  base.runs = shape.replications;
  base.base_seed = seed;
  // One thread: the rate measures the program, not the pool's
  // scheduling on a shared host.
  base.parallel = false;
  base.threads = 1;
  const sc::core::SweepRunner runner(
      base, sc::core::registry::make_scenario(shape.scenario));
  sc::core::SweepStats stats;
  const std::uint64_t allocs_before = sc::bench::allocation_count();
  const std::int64_t sweep_start = now_ns();
  UntracedRep rep;
  rep.metrics = runner.run(shape.cells, &stats);
  const std::int64_t end = now_ns();
  const auto allocs =
      static_cast<double>(sc::bench::allocation_count() - allocs_before);

  double sim_s = 0.0;
  for (const double s : stats.sim_wall_s) sim_s += s;
  const double wall_s = static_cast<double>(end - start) * 1e-9;
  const double sweep_s = static_cast<double>(end - sweep_start) * 1e-9;
  const double requests = static_cast<double>(
      shape.cells.size() * shape.replications * shape.requests);

  Values& v = rep.values;
  v["req_per_s"] = requests / wall_s;
  v["p50_ms"] = sc::stats::percentile(stats.sim_wall_s, 50.0) * 1e3;
  v["p90_ms"] = sc::stats::percentile(stats.sim_wall_s, 90.0) * 1e3;
  v["setup_s"] = wall_s - sim_s;
  v["peak_rss_mb"] = sc::bench::peak_rss_mb();
  v["outcome.traffic_reduction"] =
      mean_over(rep.metrics, &sc::core::AveragedMetrics::traffic_reduction);
  v["outcome.delay_s"] =
      mean_over(rep.metrics, &sc::core::AveragedMetrics::delay_s);
  v["cache.hit_ratio"] =
      mean_over(rep.metrics, &sc::core::AveragedMetrics::hit_ratio);
  v["core.outside_sim_share"] = 1.0 - sim_s / sweep_s;
  v["util.allocs_per_req"] = allocs / requests;
  if (is_fleet(shape)) {
    v["fleet.load_imbalance"] =
        mean_over(rep.metrics, &sc::core::AveragedMetrics::load_imbalance);
    v["fleet.uplink_utilization"] = mean_over(
        rep.metrics, &sc::core::AveragedMetrics::uplink_utilization);
    v["fleet.peer_hit_ratio"] =
        mean_over(rep.metrics, &sc::core::AveragedMetrics::peer_hit_ratio);
  }
  return rep;
}

// ------------------------------------------------------------ traced run

/// Span totals of one traced repetition.
struct SimLayers {
  DecisionSpans decision;
  // Block-timed replays: `calls` counts requests, not spans.
  LayerTotals stream_fill;
  LayerTotals path_sample;
  LayerTotals shard;
  double traced_s = 0.0;     // wall of the traced loops
  double reference_s = 0.0;  // wall of the untraced reference runs
  std::uint64_t requests = 0;
};

template <typename Kernel>
struct TracedEstimator {
  // Re-exported so the run loop keeps or drops the observation path at
  // compile time, as the monomorphized engine does.
  static constexpr bool kUsesObservations = Kernel::kUsesObservations;

  Kernel* kernel;
  DecisionSpans* spans;

  void observe(sc::net::PathId path, double throughput, double now_s) {
    const ScopedSpan span(spans->observe);
    kernel->observe(path, throughput, now_s);
  }
  [[nodiscard]] double estimate(sc::net::PathId path, double now_s) {
    const ScopedSpan span(spans->estimate);
    return kernel->estimate(path, now_s);
  }
  [[nodiscard]] std::size_t overhead_packets() const {
    return kernel->overhead_packets();
  }
};

/// The run loop's view of the policy: forwards to the estimator-templated
/// access body, as sim/monomorphize.cpp's MonoPolicyRef does.
template <typename PolicyKernel, typename EstimatorKernel>
struct TracedPolicy {
  sc::cache::UtilityPolicy<PolicyKernel>* policy;
  TracedEstimator<EstimatorKernel>* estimator;
  DecisionSpans* spans;

  void on_access(sc::workload::ObjectId id, double now_s,
                 sc::cache::PartialStore& store) {
    const ScopedSpan span(spans->admit);
    policy->access(id, now_s, store, *estimator);
  }
  [[nodiscard]] std::string name() const { return policy->name(); }
};

struct TracedCell {
  const sc::workload::RequestStream* stream;
  const sc::sim::SimulationConfig* config;
  sc::sim::RunState* state;
  DecisionSpans* spans;
};

template <typename PolicyKernel, typename EstimatorKernel>
bool run_traced_as(sc::cache::CachePolicy& policy,
                   sc::net::BandwidthEstimator& estimator,
                   const TracedCell& cell,
                   sc::sim::SimulationResult& out) {
  auto* p = dynamic_cast<sc::cache::UtilityPolicy<PolicyKernel>*>(&policy);
  auto* e = dynamic_cast<sc::net::KernelEstimator<EstimatorKernel>*>(&estimator);
  if (p == nullptr || e == nullptr) return false;
  TracedEstimator<EstimatorKernel> traced_estimator{&e->kernel(), cell.spans};
  TracedPolicy<PolicyKernel, EstimatorKernel> traced_policy{
      p, &traced_estimator, cell.spans};
  sc::util::Rng rng(cell.config->seed);
  out = sc::sim::run_request_loop(*cell.stream, *cell.config, *cell.state,
                                  traced_policy, traced_estimator, rng);
  return true;
}

/// The policy kernels of the sim_* grids, under one estimator kernel.
template <typename EstimatorKernel>
bool run_traced_grid_policies(sc::cache::CachePolicy& policy,
                              sc::net::BandwidthEstimator& estimator,
                              const TracedCell& cell,
                              sc::sim::SimulationResult& out) {
  return run_traced_as<sc::cache::IfKernel, EstimatorKernel>(policy, estimator,
                                                             cell, out) ||
         run_traced_as<sc::cache::PbKernel, EstimatorKernel>(policy, estimator,
                                                             cell, out) ||
         run_traced_as<sc::cache::IbKernel, EstimatorKernel>(policy, estimator,
                                                             cell, out);
}

sc::sim::SimulationResult run_traced_cell(
    const sc::workload::RequestStream& stream,
    const std::shared_ptr<const sc::net::PathModel>& model,
    const sc::sim::SimulationConfig& config, DecisionSpans& spans) {
  // Components exactly as Simulator::run_fallback builds them.
  const sc::util::Rng rng(config.seed);
  const auto estimator = sc::core::registry::make_estimator(
      config.estimator, *model, rng.fork("estimator"));
  const auto policy = sc::core::registry::make_policy(
      config.policy, stream.catalog(), *estimator);
  sc::sim::RunState state;
  state.reset(stream, config.stream_chunk, model, config.cache_capacity_bytes,
              config.patching.enabled);
  const TracedCell cell{&stream, &config, &state, &spans};
  sc::sim::SimulationResult result;
  const bool covered =
      run_traced_grid_policies<sc::net::OracleKernel>(*policy, *estimator,
                                                      cell, result) ||
      run_traced_grid_policies<sc::net::EwmaKernel>(*policy, *estimator, cell,
                                                    result);
  if (!covered) {
    throw std::logic_error("traced run has no adapter for policy \"" +
                           config.policy + "\" with estimator \"" +
                           config.estimator + "\"");
  }
  return result;
}

volatile double g_replay_sink = 0.0;  // keeps replay results observable

void replay_stream_fill(const sc::workload::RequestStream& stream,
                        std::size_t chunk, LayerTotals& totals) {
  sc::workload::RequestCursor cursor;
  cursor.bind(stream, chunk);
  double sink = 0.0;
  for (;;) {
    const std::int64_t start = now_ns();
    const sc::workload::RequestBlock* block = cursor.next();
    totals.ns += now_ns() - start;
    if (block == nullptr) break;
    totals.calls += block->size;
    sink += block->time_s[block->size - 1];
  }
  g_replay_sink = sink;
}

void replay_path_samples(const sc::workload::RequestStream& stream,
                         std::size_t chunk,
                         std::shared_ptr<const sc::net::PathModel> model,
                         LayerTotals& totals) {
  sc::net::PathSampler sampler(std::move(model));
  const sc::workload::CatalogView view = stream.catalog().view();
  sc::workload::RequestCursor cursor;
  cursor.bind(stream, chunk);
  double sink = 0.0;
  while (const sc::workload::RequestBlock* block = cursor.next()) {
    const std::int64_t start = now_ns();
    for (std::size_t i = 0; i < block->size; ++i) {
      sink += sampler.sample_bandwidth(view.path[block->object[i]],
                                       block->time_s[i]);
    }
    totals.ns += now_ns() - start;
    totals.calls += block->size;
  }
  g_replay_sink = sink;
}

void replay_sharding(const sc::workload::RequestStream& stream,
                     std::size_t chunk, const sc::fleet::FleetConfig& fleet,
                     std::uint64_t run_seed, LayerTotals& totals) {
  // The fleet's own derivation of the sharding seed (fleet/fleet.cpp).
  sc::fleet::Sharder sharder;
  sharder.compile(fleet.sharding, fleet.proxies,
                  sc::util::Rng(run_seed).fork("sharding").seed());
  sc::workload::RequestCursor cursor;
  cursor.bind(stream, chunk);
  std::uint64_t sink = 0;
  while (const sc::workload::RequestBlock* block = cursor.next()) {
    const std::int64_t start = now_ns();
    for (std::size_t i = 0; i < block->size; ++i) {
      sink += sharder.proxy_for(block->first + i, block->object[i]);
    }
    totals.ns += now_ns() - start;
    totals.calls += block->size;
  }
  g_replay_sink = static_cast<double>(sink);
}

/// The traced run's request stream: materialized or regenerating by the
/// same length rule SweepRunner applies.
sc::workload::RequestStream make_stream(
    const sc::workload::WorkloadConfig& wcfg, std::uint64_t seed) {
  sc::util::Rng rng = sc::util::Rng(seed).fork("perfbench-traced-workload");
  if (wcfg.trace.num_requests <= sc::workload::kAutoStreamThreshold) {
    return sc::workload::RequestStream::replay(
        std::make_shared<const sc::workload::Workload>(
            sc::workload::generate_workload(wcfg, rng)));
  }
  auto catalog = std::make_shared<const sc::workload::Catalog>(
      sc::workload::Catalog::generate(wcfg.catalog, rng));
  return sc::workload::RequestStream::synthetic(std::move(catalog), wcfg.trace,
                                                rng);
}

/// One traced repetition: one replication of the workload's inputs,
/// every cell traced and checked against the untraced program.
SimLayers run_traced(const SimShape& shape, std::uint64_t seed,
                     Checks& checks) {
  const sc::core::Scenario scenario =
      sc::core::registry::make_scenario(shape.scenario);
  const sc::workload::WorkloadConfig wcfg = workload_config(shape);
  const sc::workload::RequestStream stream = make_stream(wcfg, seed);
  const std::uint64_t run_seed =
      sc::util::Rng(seed).fork("perfbench-traced-paths").seed();
  sc::net::PathModelConfig path_config;
  path_config.mode = scenario.mode;
  const auto model = std::make_shared<const sc::net::PathModel>(
      stream.catalog().size(), scenario.base, scenario.ratio, path_config,
      sc::util::Rng(run_seed).fork("paths"));

  SimLayers layers;
  const std::size_t chunk = sc::workload::kDefaultStreamChunk;
  for (const sc::core::SweepCell& cell : shape.cells) {
    sc::sim::SimulationConfig config;
    config.policy = cell.policy;
    config.estimator = shape.estimator;
    config.cache_capacity_bytes =
        sc::core::capacity_for_fraction(wcfg.catalog, cell.cache_fraction);
    config.interactivity =
        sc::sim::InteractivityConfig::parse(shape.interactivity);
    config.path_config = path_config;
    config.seed = run_seed;
    const std::string label = cell.fleet.empty() ? cell.policy : cell.fleet;
    bool same = false;

    if (cell.fleet.empty()) {
      std::int64_t t = now_ns();
      const sc::sim::SimulationResult traced =
          run_traced_cell(stream, model, config, layers.decision);
      layers.traced_s += static_cast<double>(now_ns() - t) * 1e-9;
      t = now_ns();
      const sc::sim::SimulationResult reference =
          sc::sim::Simulator(stream, model, config).run();
      layers.reference_s += static_cast<double>(now_ns() - t) * 1e-9;
      same = same_result(traced, reference);
    } else {
      register_traced_components();
      const sc::fleet::FleetConfig fleet =
          sc::fleet::FleetConfig::parse(cell.fleet);
      sc::sim::SimulationConfig traced_config = config;
      traced_config.policy = "traced:of=" + config.policy;
      traced_config.estimator = "traced:of=" + config.estimator;
      set_decision_sink(&layers.decision);
      std::int64_t t = now_ns();
      const sc::fleet::FleetResult traced = sc::fleet::run_fleet(
          stream, fleet, traced_config, model, nullptr, nullptr);
      layers.traced_s += static_cast<double>(now_ns() - t) * 1e-9;
      set_decision_sink(nullptr);
      t = now_ns();
      const sc::fleet::FleetResult reference =
          sc::fleet::run_fleet(stream, fleet, config, model, nullptr, nullptr);
      layers.reference_s += static_cast<double>(now_ns() - t) * 1e-9;
      same = same_fleet_result(traced, reference);
      std::uint64_t per_proxy = 0;
      for (const auto& p : reference.per_proxy) per_proxy += p.requests;
      checks.expect(per_proxy == reference.aggregate.measured_requests,
                    "fleet: per-proxy requests sum to the aggregate count");
      replay_sharding(stream, chunk, fleet, run_seed, layers.shard);
    }
    if (!same) std::fprintf(stderr, "traced cell differs: %s\n", label.c_str());
    checks.expect(same, "traced cells equal the untraced program");
    layers.requests += stream.num_requests();
    // Each cell consumes the stream once, and path sampling happens per
    // request in variable-bandwidth scenarios only.
    replay_stream_fill(stream, chunk, layers.stream_fill);
    if (scenario.mode != sc::net::VariationMode::kConstant && !is_fleet(shape)) {
      replay_path_samples(stream, chunk, model, layers.path_sample);
    }
  }
  return layers;
}

Values layer_metrics(const SimShape& shape, const SimLayers& l,
                     const std::vector<Values>& untraced) {
  const double requests = static_cast<double>(l.requests);
  // The replays are timed per block, so their means need no timer
  // correction.
  Values v = decision_metrics(l.decision, l.requests);
  v["net.path_sample_ns"] = l.path_sample.per_call_ns();
  v["net.path_sample_calls"] =
      static_cast<double>(l.path_sample.calls) / requests;
  v["workload.stream_fill_ns"] = l.stream_fill.per_call_ns();
  if (is_fleet(shape)) {
    v["fleet.shard_ns"] = l.shard.per_call_ns();
    v["fleet.proxy_ns"] =
        std::max(0.0, l.reference_s * 1e9 / requests -
                          l.shard.per_call_ns() - l.stream_fill.per_call_ns());
  } else {
    // The untraced loop's time outside the admission decisions (which
    // include the estimates) and the observations.
    v["sim.loop_self_ns"] = std::max(
        0.0, (l.reference_s - decision_seconds(l.decision)) * 1e9 / requests);
  }
  for (const char* key :
       {"outcome.traffic_reduction", "outcome.delay_s", "cache.hit_ratio",
        "core.outside_sim_share", "util.allocs_per_req",
        "fleet.load_imbalance", "fleet.uplink_utilization",
        "fleet.peer_hit_ratio"}) {
    if (!untraced.empty() && untraced[0].count(key) > 0) {
      v[key] = median_of(untraced, key);
    }
  }
  v["trace.overhead"] =
      median_of(untraced, "req_per_s") / (requests / l.traced_s);
  return v;
}

void write_layer_totals(const std::string& path, const SimLayers& l) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "warning: cannot write %s\n", path.c_str());
    return;
  }
  std::fprintf(f, "layer\tcalls\ttotal_ns\n");
  const std::pair<const char*, const LayerTotals*> rows[] = {
      {"cache.admit", &l.decision.admit},
      {"net.estimate", &l.decision.estimate},
      {"net.observe", &l.decision.observe},
      {"workload.stream_fill", &l.stream_fill},
      {"net.path_sample", &l.path_sample},
      {"fleet.shard", &l.shard}};
  for (const auto& [name, t] : rows) {
    std::fprintf(f, "%s\t%llu\t%lld\n", name,
                 static_cast<unsigned long long>(t->calls),
                 static_cast<long long>(t->ns));
  }
  std::fclose(f);
}

}  // namespace

bool is_sim_workload(const std::string& name) {
  return name == "sim_const" || name == "sim_var" || name == "fleet16";
}

WorkloadResult run_sim_workload(const RunOptions& options) {
  const SimShape shape = shape_for(options.workload);
  WorkloadResult result;
  const std::int64_t start = now_ns();
  SimLayers layers;
  if (options.trace) {
    layers = run_traced(shape, options.seed, result.checks);
    // The traced loop and its untraced reference both simulate.
    result.attempted += 2 * layers.requests;
  }
  std::vector<sc::core::AveragedMetrics> first;
  const std::size_t min_reps = options.trace ? 1 : 3;
  for (std::size_t rep = 0;
       another_rep(rep, min_reps, start, options.seconds); ++rep) {
    UntracedRep r = run_untraced(shape, options.seed);
    check_sane(r.metrics, result.checks);
    if (options.workload == "sim_const") check_fig5_shape(r.metrics, result.checks);
    if (is_fleet(shape)) check_fleet_invariants(r.metrics, result.checks);
    if (rep == 0) {
      first = r.metrics;
    } else {
      bool same = first.size() == r.metrics.size();
      for (std::size_t c = 0; same && c < first.size(); ++c) {
        same = same_metrics(first[c], r.metrics[c]);
      }
      result.checks.expect(same, "repetitions give identical results");
    }
    result.attempted += static_cast<std::uint64_t>(
        shape.cells.size() * shape.replications * shape.requests);
    std::fprintf(stderr, "%s rep %zu: %.0f req/s\n", options.workload.c_str(),
                 rep + 1, r.values["req_per_s"]);
    result.reps.push_back(std::move(r.values));
  }
  if (options.trace) {
    result.layers = layer_metrics(shape, layers, result.reps);
    if (!options.trace_out.empty()) write_layer_totals(options.trace_out, layers);
  }
  return result;
}

}  // namespace perfbench
