#include "sim/simulator.h"

#include <optional>
#include <stdexcept>
#include <utility>

#include "core/registry.h"
#include "fleet/fleet.h"
#include "sim/arena.h"

namespace sc::sim {

namespace {

/// A replay stream over a caller's workload: replay() copies the
/// requests and the catalog, so a non-owning pointer suffices.
workload::RequestStream borrow(const workload::Workload& workload) {
  return workload::RequestStream::replay(
      std::shared_ptr<const workload::Workload>(
          std::shared_ptr<const workload::Workload>(), &workload));
}

}  // namespace

Simulator::Simulator(const workload::Workload& workload,
                     const stats::EmpiricalDistribution& base_bandwidth,
                     const stats::EmpiricalDistribution& ratio_model,
                     SimulationConfig config)
    : Simulator(borrow(workload), base_bandwidth, ratio_model,
                std::move(config)) {}

Simulator::Simulator(const workload::Workload& workload,
                     std::shared_ptr<const net::PathModel> path_model,
                     SimulationConfig config)
    : Simulator(borrow(workload), std::move(path_model), std::move(config)) {}

Simulator::Simulator(workload::RequestStream stream,
                     const stats::EmpiricalDistribution& base_bandwidth,
                     const stats::EmpiricalDistribution& ratio_model,
                     SimulationConfig config)
    : stream_(std::move(stream)),
      // Members initialize in declaration order: the model reads
      // `config` before config_ takes it over.
      path_model_(net::PathModel::for_seed(
          stream_.catalog().size(), base_bandwidth, ratio_model,
          config.path_config, config.seed)),
      config_(std::move(config)) {
  validate();
}

Simulator::Simulator(workload::RequestStream stream,
                     std::shared_ptr<const net::PathModel> path_model,
                     SimulationConfig config)
    : stream_(std::move(stream)),
      path_model_(std::move(path_model)),
      config_(std::move(config)) {
  validate();
}

void Simulator::validate() const {
  if (path_model_ == nullptr) {
    throw std::invalid_argument("Simulator: null path model");
  }
  if (config_.cache_capacity_bytes < 0) {
    throw std::invalid_argument("Simulator: negative cache capacity");
  }
  if (config_.warmup_fraction < 0 || config_.warmup_fraction >= 1) {
    throw std::invalid_argument("Simulator: warmup_fraction must be [0, 1)");
  }
  if (stream_.num_requests() == 0) {
    throw std::invalid_argument("Simulator: empty request trace");
  }
  if (config_.stream_chunk == 0) {
    throw std::invalid_argument("Simulator: stream_chunk must be >= 1");
  }
  if (path_model_->size() != stream_.catalog().size()) {
    throw std::invalid_argument(
        "Simulator: shared path model size != catalog size");
  }
  // Fail fast on bad component specs (util::SpecError derives from
  // std::invalid_argument) instead of deep inside run().
  core::registry::validate(core::registry::Kind::kPolicy, config_.policy);
  core::registry::validate(core::registry::Kind::kEstimator,
                           config_.estimator);
}

SimulationResult Simulator::run() { return run(nullptr); }

SimulationResult Simulator::run(SimulationArena* arena) {
  std::optional<SimulationArena> local;
  SimulationArena& cache = arena != nullptr ? *arena : local.emplace();
  return fleet::run_cell(cache, stream_, nullptr, config_, config_.seed,
                         path_model_)
      .aggregate;
}

}  // namespace sc::sim
