// bench_e2e: run one benchmark workload and print its record.
//
//   bench_e2e --workload=NAME --seed=N --seconds=S --trace=0|1
//             [--trace-out=PATH]
//
// Progress goes to stderr; the last line of stdout is one JSON record
// with the build stamp, every check, the raw per-repetition values and
// (traced runs) the per-layer metrics. perfbench/run_benchmark.py turns
// it into medians. Exit status: 0 when every check passed, 1 when a
// check failed (the record is still printed), 2 on a usage or setup
// error (no record).
#include <algorithm>
#include <cstdio>
#include <stdexcept>
#include <string>

#include "record.h"
#include "spans.h"
#include "util/cli.h"
#include "workloads.h"

#ifndef SC_BUILD_TYPE
#define SC_BUILD_TYPE ""
#endif
#ifndef SC_LTO
#define SC_LTO 0
#endif
#ifdef __clang__
#define SC_COMPILER __VERSION__
#else
#define SC_COMPILER "gcc " __VERSION__
#endif

namespace perfbench {

void Checks::expect(bool ok, const std::string& what) {
  const auto [it, inserted] = items_.emplace(what, ok);
  if (!inserted) it->second = it->second && ok;
  if (!ok) std::fprintf(stderr, "check FAILED: %s\n", what.c_str());
}

bool Checks::all_ok() const {
  return std::all_of(items_.begin(), items_.end(),
                     [](const auto& item) { return item.second; });
}

bool another_rep(std::size_t done, std::size_t min_reps,
                 std::int64_t start_ns, double seconds) {
  if (done < min_reps) return true;
  return static_cast<double>(now_ns() - start_ns) * 1e-9 < seconds;
}

double median_of(const std::vector<Values>& reps, const std::string& key) {
  std::vector<double> values;
  for (const Values& rep : reps) {
    if (const auto it = rep.find(key); it != rep.end()) {
      values.push_back(it->second);
    }
  }
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

}  // namespace perfbench

namespace {

int run(int argc, char** argv) {
  using namespace perfbench;
  const sc::util::Cli cli(argc, argv);
  cli.check_unknown({"workload", "seed", "seconds", "trace", "trace-out"});

  // Timings from an unoptimized build say nothing about the program.
  const std::string build_type = SC_BUILD_TYPE;
  if (build_type != "Release") {
    throw std::runtime_error(
        "bench_e2e: refusing to measure a '" + build_type +
        "' build; configure with -DCMAKE_BUILD_TYPE=Release");
  }

  RunOptions options;
  options.workload = cli.get_or("workload", std::string());
  options.seed = static_cast<std::uint64_t>(cli.get_or("seed", 42LL));
  options.seconds = cli.get_or("seconds", options.seconds);
  options.trace = cli.get_or("trace", 0LL) != 0;
  options.trace_out = cli.get_or("trace-out", std::string());
  if (!(options.seconds > 0)) {
    throw std::invalid_argument("--seconds must be positive");
  }

  WorkloadResult result;
  if (is_sim_workload(options.workload)) {
    result = run_sim_workload(options);
  } else if (is_serve_workload(options.workload)) {
    result = run_serve_workload(options);
  } else {
    throw std::invalid_argument(
        "unknown --workload \"" + options.workload +
        "\" (valid: sim_const, sim_var, fleet16, serve_small, serve_large)");
  }

  JsonObject build;
  build.add("type", build_type)
      .add("lto", static_cast<std::uint64_t>(SC_LTO))
      .add("compiler", SC_COMPILER);
  JsonObject checks;
  for (const auto& [name, ok] : result.checks.items()) checks.add(name, ok);
  std::vector<JsonObject> reps;
  for (const Values& rep : result.reps) {
    JsonObject object;
    for (const auto& [name, value] : rep) object.add(name, value);
    reps.push_back(object);
  }
  const bool correct = result.checks.all_ok() && result.failed == 0;
  JsonObject record;
  record.add("workload", options.workload)
      .add("seed", options.seed)
      .add("seconds", options.seconds)
      .add("trace", options.trace)
      .add("build", build)
      .add("correct", correct)
      .add("attempted", result.attempted)
      .add("failed", result.failed)
      .add("checks", checks)
      .add("reps", reps)
      .add("layers", result.layers);
  std::printf("%s\n", record.dump().c_str());
  return correct ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  return sc::util::guarded_main(run, argc, argv);
}
