// The benchmark's workloads, each run in its own bench_e2e process.
//
//   sim_const    paper Fig. 5 grid, constant bandwidth, oracle estimator
//   sim_var      the same grid under NLANR variability, EWMA estimator,
//                exponential session truncation
//   fleet16      two 16-proxy edge-fleet cells over a regenerating stream
//   serve_small  the live proxy_daemon with 4 KiB range GETs
//   serve_large  the live proxy_daemon with 256 KiB range GETs
//
// An untraced run repeats the workload until the time budget is spent
// and reports every end-to-end metric per repetition. A traced run
// makes one traced repetition (spans around each layer's public calls,
// from benchmark code only) and then untraced repetitions for the
// metrics that must come from untraced code: allocation counts, the
// time spent outside simulations, and the tracing overhead itself.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Values = std::map<std::string, double>;

/// Named output checks of one run; a check that fails in any
/// repetition fails for the whole run.
class Checks {
 public:
  void expect(bool ok, const std::string& what);
  [[nodiscard]] bool all_ok() const;
  [[nodiscard]] const std::map<std::string, bool>& items() const noexcept {
    return items_;
  }

 private:
  std::map<std::string, bool> items_;
};

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 42;
  double seconds = 10.0;
  bool trace = false;
  /// Where the traced run writes its spans ("" = nowhere).
  std::string trace_out;
};

struct WorkloadResult {
  /// One entry per untraced repetition: every end-to-end metric plus
  /// the untraced per-layer inputs.
  std::vector<Values> reps;
  /// Per-layer metrics (traced runs only).
  Values layers;
  /// Operations attempted and failed: simulated requests for the
  /// simulator workloads, range GETs for the serve workloads.
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  Checks checks;
};

[[nodiscard]] bool is_sim_workload(const std::string& name);
[[nodiscard]] bool is_serve_workload(const std::string& name);

[[nodiscard]] WorkloadResult run_sim_workload(const RunOptions& options);
[[nodiscard]] WorkloadResult run_serve_workload(const RunOptions& options);

/// Whether to start another untraced repetition: at least `min_reps`,
/// then until `seconds` of wall time have passed since `start_ns`.
[[nodiscard]] bool another_rep(std::size_t done, std::size_t min_reps,
                               std::int64_t start_ns, double seconds);

/// Median of `key` over the repetitions (0 when none report it).
[[nodiscard]] double median_of(const std::vector<Values>& reps,
                               const std::string& key);

}  // namespace perfbench
