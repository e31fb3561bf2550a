// Ablation studies for design choices DESIGN.md calls out:
//
//   A. IB-V selection-key variants -- the paper's typography for the
//      integral value-based key is ambiguous; compare our reading
//      lambda*V/(T*r*b) against the alternatives.
//   B. Network-oblivious baselines (LRU / LFU) vs the network-aware
//      family, showing why frequency- or recency-only keys cannot reduce
//      delay.
//   C. Bandwidth estimators -- oracle vs passive EWMA vs last-sample vs
//      active probing -- the §2.7 implementation trade-off, including
//      probing overhead.
//   D. Warm-up split sensitivity: metrics with 25% / 50% / 75% warm-up.
//   E. Segment granularity: internal fragmentation of segment-quantized
//      prefix storage vs the byte-granular store (§2.7's "prefixes or
//      fine-grain segments" maintenance question).
//   F. Patching + early departure: how stream sharing and the
//      "empirical" session-length model change the backbone byte
//      accounting and the startup delay over the viewed prefix.

#include "bench/harness.h"
#include "cache/segments.h"
#include "net/units.h"

namespace {

using namespace sc;

core::ExperimentConfig make_experiment(const bench::FigureConfig& cfg,
                                       double fraction) {
  core::ExperimentConfig e;
  e.workload.catalog.num_objects = cfg.objects;
  e.workload.trace.num_requests = cfg.requests;
  e.workload.trace.zipf_alpha = cfg.zipf_alpha;
  e.runs = cfg.runs;
  e.base_seed = cfg.seed;
  e.parallel = cfg.parallel;
  e.threads = cfg.threads;
  e.sim.estimator = cfg.estimator;
  e.sim.cache_capacity_bytes =
      core::capacity_for_fraction(e.workload.catalog, fraction);
  return e;
}

void study_baselines(const bench::FigureConfig& cfg) {
  std::printf("\n-- B. Network-oblivious baselines (measured variability, "
              "cache = 8%%) --\n");
  const auto scenario = bench::scenario_for(cfg, "measured");
  util::Table table({"policy", "traffic reduction", "avg delay (s)",
                     "avg quality", "hit ratio"});
  for (const std::string policy : {"lru", "lfu", "if", "ib", "pb"}) {
    auto e = make_experiment(cfg, 0.08);
    e.sim.policy = policy;
    const auto m = core::run_experiment(e, scenario);
    table.add_row({policy,
                   util::Table::num(m.traffic_reduction, 4),
                   util::Table::num(m.delay_s, 2),
                   util::Table::num(m.quality, 4),
                   util::Table::num(m.hit_ratio, 4)});
  }
  table.print();
}

void study_ibv_keys(const bench::FigureConfig& cfg) {
  std::printf("\n-- A. IB-V key reading vs alternatives (constant "
              "bandwidth, cache = 8%%) --\n");
  std::printf("IB-V uses lambda*V/(T*r*b); PB-V uses the paper's partial "
              "key; IF is the value-blind integral reference.\n");
  const auto scenario = bench::scenario_for(cfg, "constant");
  util::Table table(
      {"policy", "total added value ($K)", "traffic reduction"});
  for (const std::string policy : {"ibv", "pbv", "if"}) {
    auto e = make_experiment(cfg, 0.08);
    e.sim.policy = policy;
    const auto m = core::run_experiment(e, scenario);
    table.add_row({policy,
                   util::Table::num(m.added_value / 1000.0, 1),
                   util::Table::num(m.traffic_reduction, 4)});
  }
  table.print();
}

void study_estimators(const bench::FigureConfig& cfg) {
  std::printf("\n-- C. Bandwidth estimators under PB (measured "
              "variability, cache = 8%%) --\n");
  const auto scenario = bench::scenario_for(cfg, "measured");
  util::Table table({"estimator", "avg delay (s)", "traffic reduction",
                     "avg quality"});
  for (const std::string est :
       {"oracle", "ewma:alpha=0.3", "last", "probe:interval_s=3600"}) {
    auto e = make_experiment(cfg, 0.08);
    e.sim.policy = "pb";
    e.sim.estimator = est;
    const auto m = core::run_experiment(e, scenario);
    table.add_row({est, util::Table::num(m.delay_s, 2),
                   util::Table::num(m.traffic_reduction, 4),
                   util::Table::num(m.quality, 4)});
  }
  table.print();
  std::printf("(oracle = the paper's idealized knowledge of path means; "
              "passive EWMA is the deployable default)\n");
}

void study_warmup(const bench::FigureConfig& cfg) {
  std::printf("\n-- D. Warm-up split sensitivity (PB, constant bandwidth, "
              "cache = 8%%) --\n");
  const auto scenario = bench::scenario_for(cfg, "constant");
  util::Table table({"warm-up fraction", "avg delay (s)",
                     "traffic reduction", "avg quality"});
  for (const double w : {0.25, 0.50, 0.75}) {
    auto e = make_experiment(cfg, 0.08);
    e.sim.policy = "pb";
    e.sim.warmup_fraction = w;
    const auto m = core::run_experiment(e, scenario);
    table.add_row({util::Table::num(w, 2), util::Table::num(m.delay_s, 2),
                   util::Table::num(m.traffic_reduction, 4),
                   util::Table::num(m.quality, 4)});
  }
  table.print();
  std::printf("(the paper warms with the first half of the trace)\n");
}

void study_segments(const bench::FigureConfig& cfg) {
  std::printf("\n-- E. Segment granularity: fragmentation of PB-style "
              "prefixes --\n");
  util::Rng rng(cfg.seed);
  workload::CatalogConfig ccfg;
  ccfg.num_objects = std::min<std::size_t>(cfg.objects, 2000);
  const auto catalog = workload::Catalog::generate(ccfg, rng);
  const auto bw_model = bench::scenario_for(cfg, "constant").base;

  util::Table table({"segment size", "objects stored", "bytes held (GB)",
                     "fragmentation (GB)", "overhead %"});
  for (const double seg_mb : {0.25, 1.0, 4.0, 16.0, 64.0}) {
    cache::SegmentedStore store(net::from_gb(64.0),
                                seg_mb * 1024.0 * 1024.0, catalog);
    util::Rng brng = rng.fork("bw");
    std::size_t stored = 0;
    for (const auto& o : catalog.objects()) {
      const double b = bw_model.sample(brng);
      if (o.bitrate <= b) continue;
      const double want = (o.bitrate - b) * o.duration_s;
      try {
        store.set_prefix(o.id, want);
        ++stored;
      } catch (const std::length_error&) {
        break;  // cache full
      }
    }
    const double frag = store.fragmentation_bytes();
    table.add_row(
        {util::Table::num(seg_mb, 2) + " MB", std::to_string(stored),
         util::Table::num(net::to_gb(store.used()), 2),
         util::Table::num(net::to_gb(frag), 2),
         util::Table::num(100.0 * frag / std::max(1.0, store.used()), 1)});
  }
  table.print();
  std::printf("(byte-granular PartialStore is the 0%%-overhead reference; "
              "coarse segments waste space on rounded-up prefixes)\n");
}

void study_extensions(const bench::FigureConfig& cfg) {
  std::printf("\n-- F. Patching and early departure (PB, constant "
              "bandwidth, cache = 8%%, 2 req/s arrivals) --\n");
  const auto scenario = bench::scenario_for(cfg, "constant");
  util::Table table({"configuration", "cache-served share",
                     "backbone reduction", "avg delay (s)"});
  for (const int mode : {0, 1, 2, 3}) {
    workload::WorkloadConfig wcfg;
    wcfg.catalog.num_objects = std::min<std::size_t>(cfg.objects, 2000);
    wcfg.trace.num_requests = cfg.requests;
    wcfg.trace.arrival_rate_per_s = 2.0;  // dense arrivals: streams overlap
    util::Rng rng(cfg.seed);
    const auto w = workload::generate_workload(wcfg, rng);

    sim::SimulationConfig scfg;
    scfg.cache_capacity_bytes =
        core::capacity_for_fraction(wcfg.catalog, 0.08);
    scfg.policy = "pb";
    scfg.estimator = cfg.estimator;
    scfg.path_config.mode = scenario.mode;
    scfg.patching.enabled = (mode & 1) != 0;
    if ((mode & 2) != 0) {
      scfg.interactivity = sim::InteractivityConfig::parse("empirical");
    }
    sim::Simulator simulator(w, scenario.base, scenario.ratio, scfg);
    const auto r = simulator.run();
    std::string name = "baseline";
    if (mode == 1) name = "+ patching";
    if (mode == 2) name = "+ early departure";
    if (mode == 3) name = "+ patching + early departure";
    table.add_row(
        {name, util::Table::num(r.metrics.traffic_reduction_ratio(), 4),
         util::Table::num(r.metrics.backbone_reduction_ratio(), 4),
         util::Table::num(r.metrics.average_delay_s(), 2)});
  }
  table.print();
  std::printf("(patching shares in-flight streams across concurrent "
              "requests; caching and patching compose, as the paper's "
              "future-work section anticipates; early departure "
              "re-derives delay over the viewed prefix)\n");
}

}  // namespace

int run_main(int argc, char** argv) {
  const auto cfg = sc::bench::parse_figure_args(argc, argv, "ablation.csv");
  if (cfg.policy_override) {
    throw std::invalid_argument(
        "bench_ablation compares fixed policy sets per study; "
        "--policy is not supported here");
  }
  std::printf("Ablation studies (runs=%zu, requests=%zu, objects=%zu)\n",
              cfg.runs, cfg.requests, cfg.objects);
  study_ibv_keys(cfg);
  study_baselines(cfg);
  study_estimators(cfg);
  study_warmup(cfg);
  study_segments(cfg);
  study_extensions(cfg);
  return 0;
}

int main(int argc, char** argv) {
  return sc::util::guarded_main(run_main, argc, argv);
}
