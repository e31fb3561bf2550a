#include "core/builder.h"

#include <utility>

#include "core/registry.h"
#include "core/sweep.h"
#include "net/fault.h"

namespace sc::core {

ExperimentBuilder& ExperimentBuilder::policy(const std::string& spec) {
  registry::validate(registry::Kind::kPolicy, spec);
  config_.sim.policy = spec;
  return *this;
}

ExperimentBuilder& ExperimentBuilder::estimator(const std::string& spec) {
  registry::validate(registry::Kind::kEstimator, spec);
  config_.sim.estimator = spec;
  return *this;
}

ExperimentBuilder& ExperimentBuilder::scenario(const std::string& spec) {
  registry::validate(registry::Kind::kScenario, spec);
  scenario_ = spec;
  built_scenario_.reset();
  return *this;
}

ExperimentBuilder& ExperimentBuilder::cache_fraction(double fraction) {
  cache_fraction_ = fraction;
  return *this;
}

ExperimentBuilder& ExperimentBuilder::cache_bytes(double bytes) {
  cache_fraction_.reset();
  config_.sim.cache_capacity_bytes = bytes;
  return *this;
}

ExperimentBuilder& ExperimentBuilder::objects(std::size_t n) {
  config_.workload.catalog.num_objects = n;
  return *this;
}

ExperimentBuilder& ExperimentBuilder::requests(std::size_t n) {
  config_.workload.trace.num_requests = n;
  return *this;
}

ExperimentBuilder& ExperimentBuilder::zipf_alpha(double alpha) {
  config_.workload.trace.zipf_alpha = alpha;
  return *this;
}

ExperimentBuilder& ExperimentBuilder::runs(std::size_t n) {
  config_.runs = n;
  return *this;
}

ExperimentBuilder& ExperimentBuilder::seed(std::uint64_t seed) {
  config_.base_seed = seed;
  return *this;
}

ExperimentBuilder& ExperimentBuilder::parallel(bool on) {
  config_.parallel = on;
  return *this;
}

ExperimentBuilder& ExperimentBuilder::threads(std::size_t n) {
  config_.threads = n;
  return *this;
}

ExperimentBuilder& ExperimentBuilder::warmup_fraction(double fraction) {
  config_.sim.warmup_fraction = fraction;
  return *this;
}

ExperimentBuilder& ExperimentBuilder::patching(bool on) {
  config_.sim.patching.enabled = on;
  return *this;
}

ExperimentBuilder& ExperimentBuilder::interactivity(const std::string& spec) {
  config_.sim.interactivity = sim::InteractivityConfig::parse(spec);
  return *this;
}

ExperimentBuilder& ExperimentBuilder::fault(const std::string& spec) {
  config_.sim.fault = net::FaultPlan::parse(spec);
  return *this;
}

namespace {

// Value flags must actually carry a value; a bare `--cache-frac` (value
// lost by a wrapper script) must not silently coerce to 0.
std::string require_value(const util::Cli& cli, const std::string& name) {
  const auto v = cli.get(name);
  if (!v) {
    throw util::SpecError("flag --" + name + " requires a value");
  }
  return *v;
}

}  // namespace

ExperimentBuilder& ExperimentBuilder::from_cli(const util::Cli& cli) {
  if (cli.has("policy")) policy(require_value(cli, "policy"));
  if (cli.has("estimator")) estimator(require_value(cli, "estimator"));
  if (cli.has("scenario")) scenario(require_value(cli, "scenario"));
  if (cli.has("objects")) {
    (void)require_value(cli, "objects");
    objects(cli.get_count("objects", 0));
  }
  if (cli.has("requests")) {
    (void)require_value(cli, "requests");
    requests(cli.get_count("requests", 0));
  }
  if (cli.has("zipf")) {
    (void)require_value(cli, "zipf");
    zipf_alpha(cli.get_or("zipf", 0.0));
  }
  if (cli.has("runs")) {
    (void)require_value(cli, "runs");
    runs(cli.get_count("runs", 0));
  }
  if (cli.has("seed")) {
    (void)require_value(cli, "seed");
    seed(static_cast<std::uint64_t>(cli.get_or("seed", 0LL)));
  }
  if (cli.has("parallel")) parallel(cli.get_or("parallel", true));
  if (cli.has("threads")) {
    (void)require_value(cli, "threads");
    const long long n = cli.get_or("threads", 0LL);
    if (n < 0) {
      throw util::SpecError(
          "--threads must be >= 0 (0 = all cores, 1 = serial)");
    }
    threads(static_cast<std::size_t>(n));
  }
  if (cli.has("warmup")) {
    (void)require_value(cli, "warmup");
    warmup_fraction(cli.get_or("warmup", 0.5));
  }
  if (cli.has("patching")) patching(cli.get_or("patching", false));
  if (cli.has("interactivity")) {
    interactivity(require_value(cli, "interactivity"));
  }
  if (cli.has("fault")) fault(require_value(cli, "fault"));
  if (cli.has("cache-frac")) {
    (void)require_value(cli, "cache-frac");
    cache_fraction(cli.get_or("cache-frac", 0.0));
  }
  return *this;
}

std::vector<std::string> ExperimentBuilder::cli_flags() {
  return {"policy",  "estimator", "scenario",   "objects", "requests",
          "zipf",    "runs",      "seed",       "parallel", "threads",
          "warmup",  "patching",  "interactivity", "fault",
          "cache-frac"};
}

std::string ExperimentBuilder::cli_help() {
  return
      "shared experiment flags:\n"
      "  --policy=<spec>      replacement policy (default pb)\n"
      "  --estimator=<spec>   bandwidth estimator (default oracle)\n"
      "  --scenario=<spec>    bandwidth scenario (default constant)\n"
      "  --cache-frac=F       cache size as fraction of corpus\n"
      "  --objects=N --requests=N --runs=N --zipf=A --seed=S\n"
      "                       counts accept 250k / 100M / 2G / 1e8 forms\n"
      "  --warmup=F --parallel=0|1 --threads=N --patching\n"
      "  --interactivity=<spec>  session dynamics: full | exp:mean=S |\n"
      "                       empirical | trace (default full)\n"
      "  --fault=<spec>       deterministic fault plan, e.g.\n"
      "                       fault:outage=120+60 (default none; see\n"
      "                       docs/CHAOS.md)\n\n" +
      registry::help();
}

ExperimentConfig ExperimentBuilder::config() const {
  ExperimentConfig resolved = config_;
  if (cache_fraction_) {
    // Under trace replay the catalog is known exactly; elsewhere keep
    // the paper's expected-corpus convention (matching SweepRunner).
    const Scenario& scenario = build_scenario_ref();
    if (scenario.stream != nullptr) {
      resolved.sim.cache_capacity_bytes =
          *cache_fraction_ * scenario.stream->catalog().total_bytes();
    } else {
      resolved.sim.cache_capacity_bytes = capacity_for_fraction(
          resolved.workload.catalog, *cache_fraction_);
    }
  }
  return resolved;
}

const Scenario& ExperimentBuilder::build_scenario_ref() const {
  if (built_scenario_ == nullptr) {
    built_scenario_ =
        std::make_shared<const Scenario>(registry::make_scenario(scenario_));
  }
  return *built_scenario_;
}

Scenario ExperimentBuilder::build_scenario() const {
  return build_scenario_ref();
}

AveragedMetrics ExperimentBuilder::run() const {
  return run_experiment(config(), build_scenario_ref());
}

}  // namespace sc::core
