// Per-path bandwidth processes.
//
// Each cache<->origin path has a fixed *mean* bandwidth drawn from a base
// model (Fig 2) and an instantaneous bandwidth obtained by multiplying the
// mean by a variability ratio. Three variation modes are supported:
//
//   kConstant   - ratio == 1 (the paper's constant-bandwidth assumption).
//   kIidRatio   - a fresh independent ratio per sample (the paper's
//                 variable-bandwidth methodology, §4.3).
//   kTimeSeries - an AR(1) ratio process refreshed on a fixed timestep,
//                 matching the 4-minute sampling of the measured paths in
//                 Fig 4 (our extension; the paper's figures use kIidRatio).
//
// The state is split so sweeps can share the expensive part:
//
//   PathModel   - immutable: the drawn per-path means, the ratio model,
//                 and the configuration. Built once per replication and
//                 shared across every sweep cell via shared_ptr<const>
//                 (the paired-seed design makes the means a function of
//                 the replication seed only — see docs/PERF.md).
//   PathSampler - cheap per-simulation state: the variability RNG stream
//                 and the AR(1) chains. Constructed from a model in O(n)
//                 with no distribution sampling.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "stats/empirical.h"
#include "util/rng.h"

namespace sc::net {

using PathId = std::size_t;

enum class VariationMode { kConstant, kIidRatio, kTimeSeries };

/// First-order autoregressive ratio process with unit mean:
///   r_{k+1} = 1 + phi * (r_k - 1) + sigma * sqrt(1 - phi^2) * z_k.
/// The stationary standard deviation is `sigma`; values are clamped to
/// [floor, ceil] to keep bandwidth positive and bounded.
class Ar1RatioProcess {
 public:
  Ar1RatioProcess(double phi, double sigma, double floor_ratio,
                  double ceil_ratio);

  /// Advance one step and return the new ratio.
  double step(util::Rng& rng);

  [[nodiscard]] double current() const noexcept { return value_; }
  [[nodiscard]] double phi() const noexcept { return phi_; }
  [[nodiscard]] double sigma() const noexcept { return sigma_; }

 private:
  double phi_;
  double sigma_;
  double floor_;
  double ceil_;
  double value_ = 1.0;
};

/// Configuration of a PathModel.
struct PathModelConfig {
  VariationMode mode = VariationMode::kConstant;
  /// AR(1) lag-1 autocorrelation (kTimeSeries only).
  double ar1_phi = 0.7;
  /// Ratio refresh period in seconds (kTimeSeries only). The paper's
  /// measured paths were sampled every 4 minutes.
  double timestep_s = 240.0;
  /// Clamp bounds for ratios (all modes).
  double min_ratio = 0.05;
  double max_ratio = 4.0;
};

/// The immutable part of a path table: per-path mean bandwidths drawn
/// once from the base model, plus the ratio model and configuration.
/// Thread-safe to share (const) across concurrent simulations.
class PathModel {
 public:
  /// Draw `n_paths` means from `base` and configure variability from the
  /// unit-mean `ratio` model. The RNG state left after drawing the means
  /// is snapshotted so every PathSampler continues the exact stream a
  /// monolithic construction would have used (bit-identical results).
  PathModel(std::size_t n_paths, const stats::EmpiricalDistribution& base,
            const stats::EmpiricalDistribution& ratio, PathModelConfig config,
            util::Rng rng);

  /// The model a simulation seeded `seed` runs on, drawn from
  /// `Rng(seed).fork("paths")`: every simulator, fleet and sweep builds
  /// through here, so a model one sweep shares is bit-identical.
  [[nodiscard]] static std::shared_ptr<const PathModel> for_seed(
      std::size_t n_paths, const stats::EmpiricalDistribution& base,
      const stats::EmpiricalDistribution& ratio, PathModelConfig config,
      std::uint64_t seed) {
    return std::make_shared<const PathModel>(n_paths, base, ratio, config,
                                             util::Rng(seed).fork("paths"));
  }

  [[nodiscard]] std::size_t size() const noexcept { return means_.size(); }

  /// True long-run mean bandwidth of a path (bytes/second). This is the
  /// quantity an *oracle* estimator would report.
  [[nodiscard]] double mean_bandwidth(PathId path) const {
    return means_.at(path);
  }

  /// Contiguous per-path means (SoA access for estimator setup).
  [[nodiscard]] const std::vector<double>& means() const noexcept {
    return means_;
  }

  [[nodiscard]] VariationMode mode() const noexcept { return config_.mode; }
  [[nodiscard]] const PathModelConfig& config() const noexcept {
    return config_;
  }
  [[nodiscard]] const stats::EmpiricalDistribution& ratio() const noexcept {
    return ratio_;
  }

  /// Stationary AR(1) sigma (the ratio model's CoV; unit mean => CoV ==
  /// stddev). Precomputed so samplers start without touching the bins.
  [[nodiscard]] double ar1_sigma() const noexcept { return ar1_sigma_; }

  /// RNG state immediately after the mean draws; PathSampler copies it.
  [[nodiscard]] const util::Rng& sampler_rng() const noexcept {
    return sampler_rng_;
  }

 private:
  PathModelConfig config_;
  stats::EmpiricalDistribution ratio_;
  std::vector<double> means_;
  double ar1_sigma_ = 0.0;
  util::Rng sampler_rng_;
};

/// Per-simulation mutable sampling state over a shared immutable model:
/// the variability RNG stream plus (kTimeSeries only) the AR(1) chains.
class PathSampler {
 public:
  explicit PathSampler(std::shared_ptr<const PathModel> model);

  /// Restart over a (possibly different) model, reusing the AR(1) chain
  /// storage: after rebind the sampler draws exactly the stream a freshly
  /// constructed PathSampler(model) would draw.
  void rebind(std::shared_ptr<const PathModel> model);

  [[nodiscard]] const PathModel& model() const noexcept { return *model_; }
  [[nodiscard]] std::size_t size() const noexcept { return model_->size(); }
  [[nodiscard]] double mean_bandwidth(PathId path) const {
    return model_->mean_bandwidth(path);
  }

  /// Instantaneous bandwidth at simulation time `now_s` (bytes/second).
  [[nodiscard]] double sample_bandwidth(PathId path, double now_s);

 private:
  struct TimeSeriesState {
    Ar1RatioProcess process;
    double last_step_time = 0.0;
  };

  /// (Re)build the AR(1) chains from the current model — shared by the
  /// constructor and rebind() so the two can never drift apart.
  void rebuild_series();

  std::shared_ptr<const PathModel> model_;
  util::Rng rng_;
  std::vector<TimeSeriesState> series_;  // kTimeSeries only
};

}  // namespace sc::net
