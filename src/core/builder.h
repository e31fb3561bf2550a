// Fluent experiment construction on top of the component registry.
//
//   const auto metrics = core::ExperimentBuilder()
//                            .policy("hybrid:e=0.5")
//                            .estimator("oracle")
//                            .scenario("measured")
//                            .cache_fraction(0.04)
//                            .runs(10)
//                            .run();
//
// Spec setters validate eagerly through core::registry, so a typo fails
// at the call site with the list of registered alternatives, not deep
// inside a replication. `from_cli` wires the standard flag set shared by
// every bench and example binary (--policy / --estimator / --scenario /
// --cache-frac / ...).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "core/experiment.h"
#include "util/cli.h"

namespace sc::core {

class ExperimentBuilder {
 public:
  ExperimentBuilder() = default;

  /// Component specs (validated immediately; throws util::SpecError).
  ExperimentBuilder& policy(const std::string& spec);
  ExperimentBuilder& estimator(const std::string& spec);
  ExperimentBuilder& scenario(const std::string& spec);

  /// Cache size as a fraction of the expected total unique object size
  /// (the paper's x-axis); resolved against the catalog in config().
  ExperimentBuilder& cache_fraction(double fraction);
  ExperimentBuilder& cache_bytes(double bytes);

  ExperimentBuilder& objects(std::size_t n);
  ExperimentBuilder& requests(std::size_t n);
  ExperimentBuilder& zipf_alpha(double alpha);
  ExperimentBuilder& runs(std::size_t n);
  ExperimentBuilder& seed(std::uint64_t seed);
  ExperimentBuilder& parallel(bool on);
  /// Worker threads for the execution engine (0 = all cores, 1 =
  /// serial). Results are identical for every value; see core/sweep.h.
  ExperimentBuilder& threads(std::size_t n);
  ExperimentBuilder& warmup_fraction(double fraction);
  ExperimentBuilder& patching(bool on);
  /// Client session dynamics spec ("full", "exp:mean=1800", "empirical",
  /// "trace"; validated immediately — see sim/interactivity.h).
  ExperimentBuilder& interactivity(const std::string& spec);
  /// Deterministic fault plan ("fault:outage=120+60", "none"; validated
  /// immediately — see net/fault.h and docs/CHAOS.md).
  ExperimentBuilder& fault(const std::string& spec);

  /// Apply the shared flag set from a parsed command line. Flags not
  /// present keep their current values.
  ExperimentBuilder& from_cli(const util::Cli& cli);

  /// The flags from_cli understands (without leading dashes), for
  /// util::Cli::check_unknown.
  [[nodiscard]] static std::vector<std::string> cli_flags();

  /// Usage text for the shared flags plus the registry listing.
  [[nodiscard]] static std::string cli_help();

  /// Resolved configuration. A cache *fraction* resolves against the
  /// expected synthetic corpus size — or, under a trace-replay
  /// scenario, against the replayed catalog's actual total size (which
  /// loads the trace; the load is cached and shared with
  /// build_scenario()/run()).
  [[nodiscard]] ExperimentConfig config() const;

  /// The scenario this builder would run under. Built once per spec and
  /// cached, so a trace-replay scenario's file is read a single time.
  [[nodiscard]] Scenario build_scenario() const;

  [[nodiscard]] const std::string& scenario_spec() const noexcept {
    return scenario_;
  }

  /// run_experiment(config(), build_scenario()).
  [[nodiscard]] AveragedMetrics run() const;

 private:
  [[nodiscard]] const Scenario& build_scenario_ref() const;

  ExperimentConfig config_{};
  std::string scenario_ = "constant";
  std::optional<double> cache_fraction_;
  /// Lazily-built scenario for the current spec (invalidated by
  /// scenario()); lets config() see a trace scenario's replayed catalog
  /// without re-reading the file per call.
  mutable std::shared_ptr<const Scenario> built_scenario_;
};

}  // namespace sc::core
