#include "server/origin.h"

#include <utility>

#include "core/registry.h"
#include "util/rng.h"

namespace sc::server {

namespace {

std::shared_ptr<const net::PathModel> build_model(std::size_t n_paths,
                                                  const std::string& scenario,
                                                  std::uint64_t seed) {
  const core::Scenario s = core::registry::make_scenario(scenario);
  net::PathModelConfig config;
  config.mode = s.mode;
  return net::PathModel::for_seed(n_paths, s.base, s.ratio, config, seed);
}

}  // namespace

SimulatedOrigin::SimulatedOrigin(std::size_t n_paths,
                                 const OriginConfig& config,
                                 std::uint64_t seed)
    : config_(config),
      model_(build_model(n_paths, config.scenario, seed)),
      sampler_(model_) {
  // The same tag-keyed seed derivation the simulator uses, so a daemon
  // and a simulation sharing (plan, seed) flap identically.
  faults_.compile(net::FaultPlan::parse(config.fault), n_paths,
                  util::Rng(seed).fork("faults").seed());
}

}  // namespace sc::server
