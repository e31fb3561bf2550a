#include "net/estimator.h"

#include <stdexcept>

namespace sc::net {

EwmaKernel::EwmaKernel(std::size_t n_paths, double alpha, double prior)
    : alpha_(alpha), prior_(prior), estimates_(n_paths, -1.0) {
  if (alpha <= 0 || alpha > 1) {
    throw std::invalid_argument("PassiveEwmaEstimator: alpha must be (0, 1]");
  }
  if (prior <= 0) {
    throw std::invalid_argument("PassiveEwmaEstimator: prior must be > 0");
  }
}

ProbeKernel::ProbeKernel(const ProbeModel& model, double reprobe_interval_s,
                         util::Rng rng)
    : model_(&model),
      reprobe_interval_s_(reprobe_interval_s),
      rng_(std::move(rng)),
      cached_(model.size(), -1.0),
      probe_time_(model.size(), -1.0) {
  if (reprobe_interval_s <= 0) {
    throw std::invalid_argument("ActiveProbeEstimator: interval must be > 0");
  }
}

ProbeKernel::ProbeKernel(std::unique_ptr<ProbeModel> model,
                         double reprobe_interval_s, util::Rng rng)
    : owned_model_(std::move(model)),
      model_(owned_model_.get()),
      reprobe_interval_s_(reprobe_interval_s),
      rng_(std::move(rng)),
      cached_(owned_model_ ? owned_model_->size() : 0, -1.0),
      probe_time_(owned_model_ ? owned_model_->size() : 0, -1.0) {
  if (!owned_model_) {
    throw std::invalid_argument("ActiveProbeEstimator: null probe model");
  }
  if (reprobe_interval_s <= 0) {
    throw std::invalid_argument("ActiveProbeEstimator: interval must be > 0");
  }
}

ProbeKernel::ProbeKernel(const PathModel& paths, const ProbeConfig& config,
                         double reprobe_interval_s, const util::Rng& rng)
    : ProbeKernel(std::make_unique<ProbeModel>(paths.means(), config,
                                               rng.fork("probe")),
                  reprobe_interval_s, rng.fork("probe-rng")) {}

void ProbeKernel::rebind(const PathModel& paths, const util::Rng& rng) {
  owned_model_ = std::make_unique<ProbeModel>(paths.means(), model_->config(),
                                              rng.fork("probe"));
  model_ = owned_model_.get();
  rng_ = rng.fork("probe-rng");
  cached_.assign(model_->size(), -1.0);
  probe_time_.assign(model_->size(), -1.0);
  overhead_packets_ = 0;
}

}  // namespace sc::net
