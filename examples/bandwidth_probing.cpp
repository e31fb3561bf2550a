// Bandwidth measurement study (§2.7): how the cache can learn b_i.
//
// Compares the estimators the paper discusses:
//   - active probing (TCP-throughput model from measured RTT + loss,
//     with per-probe packet overhead),
//   - passive observation (EWMA over completed transfers, no overhead),
//   - last-sample passive estimation (the EWMA at alpha = 1),
// against the true path means, reporting estimate error and overhead, and
// then shows how estimator quality feeds through to PB caching delay.
//
// Run: ./bandwidth_probing [--paths 500] [--probes 50]

#include <cstdio>

#include "core/experiment.h"
#include "core/registry.h"
#include "net/bandwidth_model.h"
#include "net/estimator.h"
#include "net/path_process.h"
#include "net/probe.h"
#include "net/units.h"
#include "net/variability.h"
#include "stats/summary.h"
#include "util/cli.h"
#include "util/table.h"

int run_main(int argc, char** argv) {
  using namespace sc;
  const util::Cli cli(argc, argv);
  cli.check_unknown({"paths", "probes", "policy", "estimator", "scenario"});
  const auto n_paths = static_cast<std::size_t>(cli.get_or("paths", 500LL));
  const auto probes = static_cast<std::size_t>(cli.get_or("probes", 50LL));

  util::Rng rng(17);
  const auto base = net::nlanr_base_model();
  const auto ratio = net::measured_variability_model();
  net::PathModelConfig pcfg;
  pcfg.mode = net::VariationMode::kIidRatio;
  const auto model = std::make_shared<const net::PathModel>(
      n_paths, base, ratio, pcfg, rng.fork("paths"));
  net::PathSampler paths(model);

  // --- Estimator accuracy against the true means --------------------------
  const std::vector<double>& means = model->means();
  net::ProbeModel probe_model(means, net::ProbeConfig{}, rng.fork("probe"));
  net::ActiveProbeEstimator active(probe_model, /*reprobe_interval_s=*/60.0,
                                   rng.fork("active"));
  net::PassiveEwmaEstimator passive(n_paths, 0.3, net::from_kb(50.0));
  net::PassiveEwmaEstimator last(n_paths, 1.0, net::from_kb(50.0));

  // Feed each estimator `probes` rounds of observations.
  double t = 0.0;
  for (std::size_t round = 0; round < probes; ++round) {
    for (std::size_t p = 0; p < n_paths; ++p) {
      const double sample = paths.sample_bandwidth(p, t);
      passive.observe(p, sample, t);
      last.observe(p, sample, t);
      (void)active.estimate(p, t);  // triggers re-probe when stale
    }
    t += 120.0;
  }

  auto report_error = [&](net::BandwidthEstimator& est) {
    stats::RunningStats rel_err;
    for (std::size_t p = 0; p < n_paths; ++p) {
      const double e = est.estimate(p, t);
      rel_err.add(std::abs(e - means[p]) / means[p]);
    }
    return rel_err;
  };

  std::printf("Bandwidth estimation accuracy over %zu paths, %zu "
              "observation rounds\n\n",
              n_paths, probes);
  util::Table table({"estimator", "mean |rel error|", "p95 proxy (mean+2sd)",
                     "overhead (packets)"});
  const auto pe = report_error(passive);
  const auto le = report_error(last);
  const auto ae = report_error(active);
  table.add_row({"passive EWMA (alpha=0.3)", util::Table::num(pe.mean(), 3),
                 util::Table::num(pe.mean() + 2 * pe.stddev(), 3), "0"});
  table.add_row({"last sample", util::Table::num(le.mean(), 3),
                 util::Table::num(le.mean() + 2 * le.stddev(), 3), "0"});
  table.add_row({"active probe (TCP model)", util::Table::num(ae.mean(), 3),
                 util::Table::num(ae.mean() + 2 * ae.stddev(), 3),
                 std::to_string(active.overhead_packets())});
  table.print();

  // --- Feed-through to caching performance --------------------------------
  std::printf("\nEffect on PB caching (cache = 8%%, measured variability):\n");
  core::ExperimentConfig e;
  e.workload.catalog.num_objects = 2000;
  e.workload.trace.num_requests = 40000;
  e.runs = 3;
  e.sim.policy = cli.get_or("policy", std::string("pb"));
  e.sim.cache_capacity_bytes =
      core::capacity_for_fraction(e.workload.catalog, 0.08);
  const auto scenario = core::registry::make_scenario(
      cli.get_or("scenario", std::string("measured")));

  util::Table impact({"estimator", "avg delay (s)", "traffic reduction"});
  std::vector<std::string> estimators = {"oracle", "ewma:alpha=0.3", "last",
                                         "probe:interval_s=3600"};
  if (const auto override_spec = cli.get("estimator")) {
    estimators = {*override_spec};
  }
  for (const auto& est : estimators) {
    e.sim.estimator = est;
    const auto m = core::run_experiment(e, scenario);
    impact.add_row({est, util::Table::num(m.delay_s, 1),
                    util::Table::num(m.traffic_reduction, 3)});
  }
  impact.print();
  std::printf("\nPassive EWMA approaches oracle quality with zero probing "
              "overhead once the trace has touched each path -- the "
              "paper's recommended deployment approach (2.7).\n");
  return 0;
}

int main(int argc, char** argv) {
  return sc::util::guarded_main(run_main, argc, argv);
}
