// Generic experiment runner: evaluate any policy under any scenario and
// cache size from the command line. This is the "I want one number"
// entry point for downstream users and scripts.
//
//   ./run_experiment --policy=hybrid:e=0.5 --scenario=measured
//                    --estimator=ewma:alpha=0.3 --cache-frac=0.08
//                    [--objects N] [--requests N] [--runs N] [--zipf A]
//                    [--patching] [--interactivity=SPEC] [--csv out.csv]
//
// --help lists every registered policy / estimator / scenario spec.

#include <cstdio>
#include <stdexcept>

#include "core/builder.h"
#include "net/units.h"
#include "util/cli.h"
#include "util/csv.h"
#include "util/table.h"

int main(int argc, char** argv) {
  using namespace sc;
  try {
    const util::Cli cli(argc, argv);
    if (cli.has("help")) {
      std::printf("usage: %s [flags]\n\n  --csv=PATH  write the result row\n\n%s",
                  cli.program().c_str(), core::ExperimentBuilder::cli_help().c_str());
      return 0;
    }
    auto known = core::ExperimentBuilder::cli_flags();
    known.push_back("csv");
    known.push_back("help");
    cli.check_unknown(known);

    core::ExperimentBuilder builder;
    builder.cache_fraction(0.08).runs(10).seed(42).from_cli(cli);

    const auto config = builder.config();
    const auto scenario = builder.build_scenario();
    const auto m = core::run_experiment(config, scenario);
    const double fraction = cli.get_or("cache-frac", 0.08);

    std::printf("policy=%s estimator=%s scenario=%s cache=%.1f GB "
                "(%.1f%% of corpus) runs=%zu\n\n",
                config.sim.policy.c_str(), config.sim.estimator.c_str(),
                scenario.name.c_str(),
                net::to_gb(config.sim.cache_capacity_bytes),
                fraction * 100.0, m.runs);
    util::Table table({"metric", "mean", "std dev"});
    table.add_row({"traffic reduction ratio",
                   util::Table::num(m.traffic_reduction, 4),
                   util::Table::num(m.traffic_reduction_sd, 4)});
    table.add_row({"average service delay (s)", util::Table::num(m.delay_s, 2),
                   util::Table::num(m.delay_s_sd, 2)});
    table.add_row({"average stream quality", util::Table::num(m.quality, 4),
                   util::Table::num(m.quality_sd, 4)});
    table.add_row({"total added value ($)",
                   util::Table::num(m.added_value, 0),
                   util::Table::num(m.added_value_sd, 0)});
    table.add_row({"hit ratio", util::Table::num(m.hit_ratio, 4), "-"});
    table.add_row(
        {"immediate ratio", util::Table::num(m.immediate_ratio, 4), "-"});
    table.print();

    if (const auto csv_path = cli.get("csv")) {
      util::CsvWriter csv(*csv_path);
      csv.header({"policy", "estimator", "scenario", "cache_fraction",
                  "traffic_reduction", "delay_s", "quality", "added_value",
                  "hit_ratio"});
      csv.field(config.sim.policy)
          .field(config.sim.estimator)
          .field(scenario.name)
          .field(fraction)
          .field(m.traffic_reduction)
          .field(m.delay_s)
          .field(m.quality)
          .field(m.added_value)
          .field(m.hit_ratio);
      csv.endrow();
      std::printf("\n[written to %s]\n", csv_path->c_str());
    }
    return 0;
  } catch (const std::exception& ex) {
    std::fprintf(stderr, "error: %s\n", ex.what());
    return 2;
  }
}
