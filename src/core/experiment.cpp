#include "core/experiment.h"

#include <cmath>
#include <stdexcept>

#include "core/sweep.h"

namespace sc::core {

Scenario constant_scenario() {
  return Scenario{"constant", net::nlanr_base_model(),
                  net::constant_variability_model(),
                  net::VariationMode::kConstant, nullptr};
}

Scenario nlanr_variability_scenario() {
  return Scenario{"nlanr-variability", net::nlanr_base_model(),
                  net::nlanr_variability_model(),
                  net::VariationMode::kIidRatio, nullptr};
}

Scenario measured_variability_scenario() {
  return Scenario{"measured-variability", net::nlanr_base_model(),
                  net::measured_variability_model(),
                  net::VariationMode::kIidRatio, nullptr};
}

Scenario timeseries_scenario(net::MeasuredPath path) {
  return Scenario{"timeseries-" + net::to_string(path),
                  net::nlanr_base_model(), net::measured_path_model(path),
                  net::VariationMode::kTimeSeries, nullptr};
}

AveragedMetrics run_experiment(const ExperimentConfig& config,
                               const Scenario& scenario) {
  if (config.runs == 0) {
    throw std::invalid_argument("run_experiment: runs == 0");
  }
  // A single-cell sweep: replications share the engine's task list (and
  // its pool), and callers that sweep many configurations should use
  // SweepRunner directly to additionally share workloads across cells.
  SweepRunner runner(config, scenario);
  return runner.run({SweepCell{}}).front();
}

double capacity_for_fraction(const workload::CatalogConfig& catalog,
                             double fraction) {
  if (fraction < 0) {
    throw std::invalid_argument("capacity_for_fraction: negative fraction");
  }
  // Analytic expected object size: E[duration] * bitrate. The lognormal
  // clamp in the generator shifts this by <2%, which only relabels the
  // x-axis slightly.
  const double mean_minutes =
      std::exp(catalog.duration_mu +
               catalog.duration_sigma * catalog.duration_sigma / 2.0);
  const double expected_total = static_cast<double>(catalog.num_objects) *
                                mean_minutes * 60.0 * catalog.bitrate();
  return fraction * expected_total;
}

std::vector<double> paper_cache_fractions() {
  // 4, 8, 16, 32, 64, 128 GB against the ~790 GB corpus.
  return {0.005, 0.010, 0.020, 0.040, 0.080, 0.169};
}

}  // namespace sc::core
