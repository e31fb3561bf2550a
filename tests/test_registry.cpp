// Registry + builder tests: spec-string construction of every component,
// error quality, spec-name completeness, and the end-to-end acceptance
// path ("hybrid:e=0.5" + "ewma:alpha=0.3" through a full experiment).

#include "core/registry.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "core/builder.h"
#include "net/bandwidth_model.h"
#include "net/variability.h"
#include "sim/simulator.h"

namespace sc::core {
namespace {

workload::Catalog small_catalog() {
  workload::CatalogConfig cfg;
  cfg.num_objects = 16;
  util::Rng rng(3);
  return workload::Catalog::generate(cfg, rng);
}

std::shared_ptr<const net::PathModel> small_paths(std::size_t n) {
  return std::make_shared<const net::PathModel>(
      n, net::nlanr_base_model(), net::constant_variability_model(),
      net::PathModelConfig{}, util::Rng(4));
}

TEST(Registry, PolicySpecsConstructCorrectPolicies) {
  const auto catalog = small_catalog();
  const auto paths = small_paths(catalog.size());
  net::OracleEstimator estimator(*paths);

  const std::vector<std::pair<std::string, std::string>> cases = {
      {"if", "IF"},           {"pb", "PB"},
      {"ib", "IB"},           {"hybrid:e=0.5", "Hybrid(e=0.5)"},
      {"pbv", "PB-V"},        {"pbv:e=0.7", "PB-V(e=0.7)"},
      {"pb-v", "PB-V"},       {"ibv", "IB-V"},
      {"ib-v", "IB-V"},       {"lru", "LRU"},
      {"lfu", "LFU"},         {"PB", "PB"},  // case-insensitive
      {"Hybrid:E=0.5", "Hybrid(e=0.5)"},
  };
  for (const auto& [spec, name] : cases) {
    EXPECT_EQ(registry::make_policy(spec, catalog, estimator)->name(), name)
        << spec;
  }
}

TEST(Registry, UnknownPolicyListsAlternativesAndSuggests) {
  const auto catalog = small_catalog();
  const auto paths = small_paths(catalog.size());
  net::OracleEstimator estimator(*paths);
  try {
    (void)registry::make_policy("hybird:e=0.5", catalog, estimator);
    FAIL() << "expected SpecError";
  } catch (const util::SpecError& ex) {
    const std::string message = ex.what();
    EXPECT_NE(message.find("unknown policy \"hybird\""), std::string::npos);
    // Lists the registered alternatives...
    for (const std::string name : {"hybrid", "ib", "if", "lfu", "lru", "pb",
                                   "pbv", "ibv"}) {
      EXPECT_NE(message.find(name), std::string::npos) << name;
    }
    // ...and suggests the closest one.
    EXPECT_NE(message.find("did you mean \"hybrid\"?"), std::string::npos);
  }
}

TEST(Registry, UnknownParameterRejected) {
  const auto catalog = small_catalog();
  const auto paths = small_paths(catalog.size());
  net::OracleEstimator estimator(*paths);
  try {
    (void)registry::make_policy("hybrid:x=1", catalog, estimator);
    FAIL() << "expected SpecError";
  } catch (const util::SpecError& ex) {
    const std::string message = ex.what();
    EXPECT_NE(message.find("unknown parameter \"x\""), std::string::npos);
    EXPECT_NE(message.find("e"), std::string::npos);
  }
  // Parameter values are still validated by the component itself.
  EXPECT_THROW(
      (void)registry::make_policy("hybrid:e=1.5", catalog, estimator),
      std::invalid_argument);
}

TEST(Registry, EveryPolicySpecConstructsItsNamedPolicy) {
  // Paper-table completeness: each §3 policy name resolves through the
  // registry and reports the expected display name.
  const auto catalog = small_catalog();
  const auto paths = small_paths(catalog.size());
  net::OracleEstimator estimator(*paths);
  const std::vector<std::pair<std::string, std::string>> expected = {
      {"if", "IF"},           {"pb", "PB"},
      {"ib", "IB"},           {"hybrid:e=0.5", "Hybrid(e=0.5)"},
      {"pbv:e=0.5", "PB-V(e=0.5)"}, {"ibv", "IB-V"},
      {"lru", "LRU"},         {"lfu", "LFU"},
  };
  for (const auto& [spec, name] : expected) {
    EXPECT_EQ(registry::make_policy(spec, catalog, estimator)->name(), name)
        << spec;
  }
}

TEST(Registry, EveryEstimatorSpecAndLegacyAliasResolves) {
  for (const char* spec : {"oracle", "ewma", "last", "probe",
                           // legacy display names remain registered
                           // aliases so old configs keep resolving
                           "passive-ewma", "last-sample", "active-probe"}) {
    EXPECT_NO_THROW(registry::validate(registry::Kind::kEstimator, spec))
        << spec;
  }
}
TEST(Registry, EstimatorFactoriesApplyParams) {
  const auto paths = small_paths(8);

  // Unseen paths fall back to the configured prior (KiB/s).
  auto ewma = registry::make_estimator("ewma:alpha=0.5,prior_kbps=80", *paths,
                                       util::Rng(7));
  EXPECT_DOUBLE_EQ(ewma->estimate(0, 0.0), 80.0 * 1024.0);

  auto last = registry::make_estimator("last:prior_kbps=10", *paths,
                                       util::Rng(7));
  EXPECT_DOUBLE_EQ(last->estimate(0, 0.0), 10.0 * 1024.0);

  // Probing incurs packet overhead on first estimate.
  auto probe = registry::make_estimator("probe:interval_s=60", *paths,
                                        util::Rng(7));
  (void)probe->estimate(0, 0.0);
  EXPECT_GT(probe->overhead_packets(), 0u);

  auto oracle = registry::make_estimator("oracle", *paths, util::Rng(7));
  EXPECT_DOUBLE_EQ(oracle->estimate(3, 0.0), paths->mean_bandwidth(3));

  EXPECT_THROW(
      (void)registry::make_estimator("ewma:beta=1", *paths, util::Rng(7)),
      util::SpecError);
}

TEST(Registry, ScenarioSpecs) {
  EXPECT_EQ(registry::make_scenario("constant").mode,
            net::VariationMode::kConstant);
  EXPECT_EQ(registry::make_scenario("nlanr").mode,
            net::VariationMode::kIidRatio);
  EXPECT_EQ(registry::make_scenario("measured").mode,
            net::VariationMode::kIidRatio);
  // Aliases resolve to the same scenarios.
  EXPECT_EQ(registry::make_scenario("nlanr-variability").name,
            registry::make_scenario("nlanr").name);
  EXPECT_EQ(registry::make_scenario("measured-variability").name,
            registry::make_scenario("measured").name);

  const auto by_param = registry::make_scenario("timeseries:path=taiwan");
  EXPECT_EQ(by_param.mode, net::VariationMode::kTimeSeries);
  EXPECT_EQ(by_param.name, registry::make_scenario("timeseries:path=1").name);
  EXPECT_EQ(by_param.name, registry::make_scenario("timeseries-taiwan").name);
  // Default path is INRIA.
  EXPECT_EQ(registry::make_scenario("timeseries").name,
            registry::make_scenario("timeseries-inria").name);

  EXPECT_THROW((void)registry::make_scenario("timeseries:path=mars"),
               util::SpecError);
  EXPECT_THROW((void)registry::make_scenario("timeseries-inria:path=taiwan"),
               util::SpecError);
  EXPECT_THROW((void)registry::make_scenario("constnat"), util::SpecError);
}

TEST(Registry, ListAndNamesForHelp) {
  const auto policy_names = registry::names(registry::Kind::kPolicy);
  for (const std::string name :
       {"if", "pb", "ib", "hybrid", "pbv", "ibv", "lru", "lfu"}) {
    EXPECT_NE(std::find(policy_names.begin(), policy_names.end(), name),
              policy_names.end())
        << name;
  }
  EXPECT_TRUE(std::is_sorted(policy_names.begin(), policy_names.end()));

  const auto estimators = registry::list(registry::Kind::kEstimator);
  ASSERT_GE(estimators.size(), 4u);

  const std::string help = registry::help();
  for (const std::string fragment :
       {"policy specs", "estimator specs", "scenario specs", "hybrid",
        "ewma", "timeseries"}) {
    EXPECT_NE(help.find(fragment), std::string::npos) << fragment;
  }
}

TEST(Registry, SelfRegistrationExtends) {
  // A downstream component self-registers and is immediately
  // constructible by spec, listed for help, and protected from
  // name collisions.
  static int constructed = 0;
  const registry::ScenarioRegistrar registrar(
      {"test-flat", {"test-flat-alias"}, "test-only flat scenario", {}},
      [](const util::Spec&) {
        ++constructed;
        return constant_scenario();
      });
  (void)registrar;
  const auto scenario = registry::make_scenario("test-flat-alias");
  EXPECT_EQ(scenario.mode, net::VariationMode::kConstant);
  EXPECT_EQ(constructed, 1);

  EXPECT_THROW(registry::register_scenario({"test-flat", {}, "dup", {}},
                                           [](const util::Spec&) {
                                             return constant_scenario();
                                           }),
               util::SpecError);
}

TEST(ExperimentBuilder, FluentSpecsRunEndToEnd) {
  // The acceptance path: hybrid:e=0.5 under a passive EWMA estimator,
  // end to end through a (small) multi-run experiment.
  const auto metrics = ExperimentBuilder()
                           .policy("hybrid:e=0.5")
                           .estimator("ewma:alpha=0.3")
                           .scenario("measured")
                           .cache_fraction(0.04)
                           .objects(120)
                           .requests(4000)
                           .runs(2)
                           .seed(11)
                           .run();
  EXPECT_EQ(metrics.runs, 2u);
  EXPECT_GT(metrics.delay_s, 0.0);
  EXPECT_GE(metrics.traffic_reduction, 0.0);
  EXPECT_LE(metrics.quality, 1.0);
}

TEST(ExperimentBuilder, ResolvesConfigAndScenario) {
  ExperimentBuilder builder;
  builder.policy("pbv:e=0.7")
      .estimator("oracle")
      .scenario("nlanr")
      .objects(200)
      .cache_fraction(0.1);
  const auto config = builder.config();
  EXPECT_EQ(config.sim.policy, "pbv:e=0.7");
  EXPECT_EQ(config.sim.estimator, "oracle");
  EXPECT_GT(config.sim.cache_capacity_bytes, 0.0);
  EXPECT_EQ(builder.build_scenario().name, "nlanr-variability");
}

TEST(ExperimentBuilder, RejectsBadSpecsEagerly) {
  ExperimentBuilder builder;
  EXPECT_THROW(builder.policy("no-such-policy"), util::SpecError);
  EXPECT_THROW(builder.policy("hybrid:alpha=2"), util::SpecError);
  EXPECT_THROW(builder.estimator("ewmaa"), util::SpecError);
  EXPECT_THROW(builder.scenario("martian"), util::SpecError);
  // Nothing was modified by the failed setters.
  EXPECT_EQ(builder.config().sim.policy, "pb");
  EXPECT_EQ(builder.config().sim.estimator, "oracle");
}

TEST(ExperimentBuilder, FromCliWiresSharedFlags) {
  const char* argv[] = {"prog",          "--policy=pbv:e=0.7",
                        "--estimator",   "ewma:alpha=0.5", "--scenario=measured",
                        "--objects=150", "--runs=3",      "--cache-frac=0.05"};
  const util::Cli cli(8, argv);
  ExperimentBuilder builder;
  builder.from_cli(cli);
  const auto config = builder.config();
  EXPECT_EQ(config.sim.policy, "pbv:e=0.7");
  EXPECT_EQ(config.sim.estimator, "ewma:alpha=0.5");
  EXPECT_EQ(builder.scenario_spec(), "measured");
  EXPECT_EQ(config.workload.catalog.num_objects, 150u);
  EXPECT_EQ(config.runs, 3u);
  EXPECT_GT(config.sim.cache_capacity_bytes, 0.0);
}

}  // namespace
}  // namespace sc::core
