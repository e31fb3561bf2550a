// Extension study: mid-stream rebuffering under time-varying bandwidth.
//
// The paper's metrics capture the *startup* penalty; under an AR(1)
// bandwidth process a session can also stall later when the path dips
// below the bit-rate for longer than the buffer covers. This bench plays
// every measured-window request through the playback-buffer simulator
// and compares policies on stalls -- showing that over-provisioned
// prefixes (Hybrid e < 1) buy stall protection that the static delay
// metric does not reveal, which is exactly the §2.5 intuition.

#include "bench/harness.h"
#include "core/playback.h"
#include "core/registry.h"
#include "net/bandwidth_model.h"
#include "net/path_process.h"
#include "net/units.h"
#include "net/variability.h"
#include "sim/simulator.h"

namespace {

using namespace sc;

struct StallStats {
  double mean_startup_s = 0.0;
  double mean_stall_time_s = 0.0;
  double stall_free_fraction = 0.0;
  double sessions = 0.0;
  // Conditional on the object having a cached prefix under this policy:
  // isolates the per-object over-provisioning effect from coverage.
  double covered_stall_time_s = 0.0;
  double covered_sessions = 0.0;
};

StallStats run_policy(const std::string& policy_spec,
                      const bench::FigureConfig& cfg) {
  // Build workload and a PB-style cache state by replaying the trace.
  util::Rng rng(cfg.seed);
  workload::WorkloadConfig wcfg;
  wcfg.catalog.num_objects = cfg.objects;
  wcfg.trace.num_requests = cfg.requests;
  const auto w = workload::generate_workload(wcfg, rng);

  sim::SimulationConfig scfg;
  scfg.cache_capacity_bytes = core::capacity_for_fraction(wcfg.catalog, 0.08);
  scfg.policy = policy_spec;
  scfg.seed = cfg.seed;
  scfg.path_config.mode = net::VariationMode::kTimeSeries;

  // Fill the cache by replaying the trace directly against the policy
  // (constant paths; --estimator picks how it learns them), then play
  // sessions against fresh AR(1) processes seeded per object. --scenario
  // picks the ratio model whose spread drives those AR(1) processes
  // (default: the Taiwan measured path).
  const auto scenario = bench::scenario_for(cfg, "timeseries:path=taiwan");
  const auto& base = scenario.base;
  const auto& ratio = scenario.ratio;
  net::PathModelConfig pcfg;
  pcfg.mode = net::VariationMode::kConstant;
  const auto paths =
      net::PathModel::for_seed(w.catalog.size(), base, ratio, pcfg, scfg.seed);
  const auto estimator = core::registry::make_estimator(
      cfg.estimator, *paths, util::Rng(scfg.seed).fork("estimator"));
  cache::PartialStore store(scfg.cache_capacity_bytes);
  auto policy =
      core::registry::make_policy(policy_spec, w.catalog, *estimator);
  for (const auto& req : w.requests) {
    policy->on_access(req.object, req.time_s, store);
  }

  // Play a sample of distinct objects through volatile paths.
  StallStats stats;
  util::Rng session_rng = rng.fork("sessions");
  const double sigma = ratio.cov();
  std::size_t stall_free = 0, sessions = 0, covered = 0;
  for (std::size_t id = 0; id < w.catalog.size() && sessions < 400; id += 7) {
    const auto& obj = w.catalog.object(id);
    const double mean_bw = paths->mean_bandwidth(obj.path);
    if (obj.bitrate <= mean_bw) continue;  // uninteresting: never stalls
    net::Ar1RatioProcess process(0.8, sigma, 0.1, 3.0);
    util::Rng prng = session_rng.fork(std::to_string(id));
    std::vector<double> trace;
    const auto ticks =
        static_cast<std::size_t>(obj.duration_s * 3.0) + 1000;
    trace.reserve(ticks);
    for (std::size_t k = 0; k < ticks; ++k) {
      trace.push_back(mean_bw * process.step(prng));
    }
    const core::BandwidthFn bw = [&trace](double now) {
      const auto idx = std::min(trace.size() - 1,
                                static_cast<std::size_t>(now));
      return trace[idx];
    };
    core::PlaybackConfig pbc;
    pbc.tick_s = 1.0;
    const auto r =
        core::simulate_playback(obj, store.cached(id), bw, pbc);
    stats.mean_startup_s += r.startup_delay_s;
    stats.mean_stall_time_s += r.stall_time_s;
    if (r.stall_count == 0) ++stall_free;
    if (store.cached(id) > 0) {
      stats.covered_stall_time_s += r.stall_time_s;
      ++covered;
    }
    ++sessions;
  }
  if (sessions > 0) {
    stats.mean_startup_s /= static_cast<double>(sessions);
    stats.mean_stall_time_s /= static_cast<double>(sessions);
    stats.stall_free_fraction =
        static_cast<double>(stall_free) / static_cast<double>(sessions);
  }
  if (covered > 0) {
    stats.covered_stall_time_s /= static_cast<double>(covered);
  }
  stats.covered_sessions = static_cast<double>(covered);
  stats.sessions = static_cast<double>(sessions);
  return stats;
}

}  // namespace

int run_main(int argc, char** argv) {
  auto cfg = bench::parse_figure_args(argc, argv, "stalls.csv");
  // Playback simulation is per-session; keep the catalog moderate.
  cfg.objects = std::min<std::size_t>(cfg.objects, 2000);
  cfg.requests = std::min<std::size_t>(cfg.requests, 40000);

  std::printf("Rebuffering under AR(1) bandwidth (Taiwan-path variability, "
              "cache = 8%%)\n\n");
  util::Table table({"policy", "mean startup (s)", "mean stall time (s)",
                     "stall-free sessions", "covered stall (s)",
                     "covered/total"});
  struct Row {
    std::string spec;
    std::string label;
  };
  std::vector<Row> rows = {
      {"pb", "PB (exact prefix)"},
      {"hybrid:e=0.6", "Hybrid e=0.6"},
      {"hybrid:e=0.3", "Hybrid e=0.3"},
      {"ib", "IB (whole objects)"},
      {"if", "IF (popularity only)"},
  };
  if (cfg.policy_override) {
    rows = {{*cfg.policy_override, *cfg.policy_override}};
  }
  util::CsvWriter csv(cfg.csv_path);
  csv.header({"policy", "mean_startup_s", "mean_stall_s", "stall_free"});
  double pb_stall = 0, hybrid_stall = 0;
  for (const auto& row : rows) {
    const auto s = run_policy(row.spec, cfg);
    table.add_row({row.label, util::Table::num(s.mean_startup_s, 1),
                   util::Table::num(s.mean_stall_time_s, 1),
                   util::Table::num(s.stall_free_fraction, 3),
                   util::Table::num(s.covered_stall_time_s, 1),
                   util::Table::num(s.covered_sessions, 0) + "/" +
                       util::Table::num(s.sessions, 0)});
    csv.field(row.label)
        .field(s.mean_startup_s)
        .field(s.mean_stall_time_s)
        .field(s.stall_free_fraction);
    csv.endrow();
    if (row.label.rfind("PB", 0) == 0) pb_stall = s.covered_stall_time_s;
    if (row.label == "Hybrid e=0.3") hybrid_stall = s.covered_stall_time_s;
  }
  table.print();
  std::printf("\n[series written to %s]\n", cfg.csv_path.c_str());

  // The shape check assumes the default policy rows and scenario.
  if (cfg.policy_override || cfg.scenario_override) return 0;

  // Shape check: for objects a policy actually covers, over-provisioned
  // prefixes (e = 0.3) must stall less than exactly-provisioned PB --
  // §2.5's rationale made visible. (Unconditionally, PB can still win by
  // sheer coverage: its prefixes are cheap, so it protects more objects.)
  const bool ok = hybrid_stall < pb_stall;
  std::printf("shape check (over-provisioning cuts stalls on covered "
              "objects): %s\n",
              ok ? "PASS" : "FAIL");
  return ok ? 0 : 1;
}

int main(int argc, char** argv) {
  return sc::util::guarded_main(run_main, argc, argv);
}
