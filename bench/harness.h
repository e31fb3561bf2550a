// Shared harness for the figure/table reproduction benches.
//
// Every bench binary accepts:
//   --quick              4 runs x 30,000 requests (CI smoke; default off)
//   --runs N             replications per point (default 10, as in the paper)
//   --requests N         trace length (default 100,000); counts accept
//                        humanized forms: 250k, 100M, 2G, 1e8
//                        (--num-requests is an alias)
//   --objects N          catalog size (default 5,000)
//   --streaming M        workload delivery: auto | materialize | stream
//                        (bit-identical results; stream = O(chunk) memory)
//   --threads N          sweep worker threads (0 = all cores, 1 = serial)
//   --csv PATH           where to write the series (default <bench>.csv)
//   --json PATH          machine-readable perf record of the sweep
//   --policy <spec>      override the figure's policy set with one spec
//   --estimator <spec>   bandwidth estimator spec (default "oracle")
//   --scenario <spec>    override the figure's bandwidth scenario
//                        ("trace:file=PATH" replays a recorded workload)
//   --interactivity <s>  client session dynamics (default "full")
//   --fault <spec>       deterministic fault injection (default none;
//                        e.g. "fault:outage=120+60", see docs/CHAOS.md)
//   --help               list flags and every registered component spec
// and prints the paper-exhibit series as a table plus an ASCII chart.
// Unknown flags fail with a did-you-mean suggestion.
//
// Sweeps execute on the core::SweepRunner engine: the full (policy,
// alpha, fraction, replication) grid is one task list on one thread
// pool, and per-(alpha, replication) workloads are generated once and
// shared across every policy and cache size. Results are bit-identical
// for any --threads value (see core/sweep.h).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/experiment.h"
#include "core/sweep.h"
#include "stats/summary.h"
#include "util/cli.h"
#include "util/csv.h"
#include "util/table.h"

namespace sc::bench {

struct FigureConfig {
  std::size_t runs = 10;
  std::size_t objects = 5000;
  std::size_t requests = 100000;
  double zipf_alpha = 0.73;
  std::uint64_t seed = 42;
  std::string csv_path;
  bool parallel = true;
  /// Sweep worker threads: 0 = all cores (process-wide shared pool),
  /// 1 = inline serial, else a dedicated pool of that size.
  std::size_t threads = 0;
  /// When non-empty, the sweep writes a machine-readable perf record
  /// (wall time, requests/sec, allocations/request) here; the last
  /// sweep of the binary wins.
  std::string json_path;
  /// Binary basename, stamped into the perf record.
  std::string bench_name;
  /// Bandwidth estimator spec applied to every sweep point.
  std::string estimator = "oracle";
  /// Client session dynamics spec applied to every sweep point
  /// (sim/interactivity.h; "full" = whole-stream sessions).
  std::string interactivity = "full";
  /// Fault-injection spec applied to every sweep point (net/fault.h;
  /// "" / "none" = no faults, provably inert).
  std::string fault;
  /// Workload delivery mode: "auto" (stream above
  /// workload::kAutoStreamThreshold requests), "materialize", or
  /// "stream". Results are bit-identical across all three.
  std::string streaming = "auto";
  /// When set, replaces the figure's default policy set / scenario.
  std::optional<std::string> policy_override;
  std::optional<std::string> scenario_override;
  /// --latency-percentiles: report p50/p95/p99 of per-simulation wall
  /// times after each sweep (stats::summarize_latencies over
  /// core::SweepStats::sim_wall_s).
  bool latency_percentiles = false;
};

/// Parse common flags; `default_csv` names the output series file.
/// Handles --help (prints usage + the component registry and exits) and
/// rejects unknown flags. `extra_flags` names bench-specific flags
/// (e.g. fig06's --alphas) so they pass the unknown-flag check; the
/// bench reads them from its own util::Cli.
[[nodiscard]] FigureConfig parse_figure_args(
    int argc, char** argv, const std::string& default_csv,
    const std::vector<std::string>& extra_flags = {});

/// One policy to evaluate.
struct PolicySpec {
  std::string spec;   // registry spec string, e.g. "hybrid:e=0.5"
  std::string label;  // display name (defaults to the canonical spec)
  double param_e = 1.0;  // `e` parameter, for figure axes/CSV
};

/// Build a PolicySpec from a spec string, validating it against the
/// registry. The label defaults to the canonical spec form.
[[nodiscard]] PolicySpec spec(const std::string& spec_string,
                              std::string label = "");

/// The figure's scenario: --scenario override if given, else
/// `default_spec` (a registry scenario spec such as "nlanr").
[[nodiscard]] core::Scenario scenario_for(const FigureConfig& config,
                                          const std::string& default_spec);

/// The figure's policy set: a single --policy override if given, else
/// `defaults`.
[[nodiscard]] std::vector<PolicySpec> policies_for(
    const FigureConfig& config, std::vector<PolicySpec> defaults);

/// One (policy, cache-fraction) result.
struct SweepPoint {
  std::string policy;
  double cache_fraction = 0.0;
  double zipf_alpha = 0.0;
  double param_e = 1.0;
  core::AveragedMetrics metrics;
};

/// Evaluate each policy at each cache fraction under `scenario`. Seeds are
/// shared across policies so every policy sees identical workloads and
/// path tables (paired comparison, lower variance).
[[nodiscard]] std::vector<SweepPoint> sweep_cache_sizes(
    const FigureConfig& config, const core::Scenario& scenario,
    const std::vector<PolicySpec>& policies,
    const std::vector<double>& fractions);

/// As above but additionally sweeping the Zipf alpha (Fig 6 surfaces).
[[nodiscard]] std::vector<SweepPoint> sweep_alpha_and_cache(
    const FigureConfig& config, const core::Scenario& scenario,
    const std::vector<PolicySpec>& policies,
    const std::vector<double>& alphas, const std::vector<double>& fractions);

/// Evaluate an explicit cell grid on one SweepRunner (for benches whose
/// axis is not (policy, alpha, fraction) — e.g. bench_interactivity's
/// session-dynamics modes). Timing/telemetry/--json handling is
/// identical to the sweep_* helpers; result[i] corresponds to cells[i].
[[nodiscard]] std::vector<core::AveragedMetrics> run_cells(
    const FigureConfig& config, const core::Scenario& scenario,
    const std::vector<core::SweepCell>& cells);

/// Which metric a chart displays.
enum class Metric { kTrafficReduction, kDelay, kQuality, kAddedValue };

[[nodiscard]] std::string metric_name(Metric metric);
[[nodiscard]] double metric_value(const core::AveragedMetrics& m,
                                  Metric metric);

/// Print one metric as a per-policy table + ASCII chart (x = cache
/// fraction), mirroring one panel of a paper figure.
void print_panel(const std::vector<SweepPoint>& points, Metric metric,
                 const std::string& title);

/// Write every point and metric to CSV.
void write_points_csv(const std::vector<SweepPoint>& points,
                      const std::string& path);

/// Perf telemetry of the most recent sweep_* call in this process.
struct SweepTelemetry {
  double wall_s = 0.0;
  std::size_t simulations = 0;         // cells x replications
  std::size_t requests_simulated = 0;  // simulations x trace length
  /// Actual per-run trace length and catalog size: the CLI knobs, or
  /// the replayed workload's real shape under a trace scenario.
  std::size_t requests_per_run = 0;
  std::size_t objects = 0;
  std::size_t workloads_generated = 0; // distinct (alpha, replication)
  std::size_t path_models_built = 0;   // shared: one per replication
  std::size_t threads = 0;             // resolved worker count
  std::uint64_t allocations = 0;       // operator new calls in the sweep
  /// Process peak resident set (getrusage ru_maxrss) sampled after the
  /// sweep, in MB. High-water mark, so it reflects the largest sweep the
  /// process has run; the CI gate keys on this to catch O(num_requests)
  /// memory regressions in the streaming path.
  double peak_rss_mb = 0.0;
  /// p50/p95/p99 of per-simulation wall times (count == simulations).
  stats::LatencySummary sim_latency;
};
[[nodiscard]] const SweepTelemetry& last_sweep_telemetry();

/// Print one latency summary line, e.g.
///   "per-simulation wall time: n=40 mean=12.1ms p50=11.8ms p95=14.2ms
///    p99=15.0ms". `scale` converts the stored seconds to the printed
/// `unit` (default milliseconds). Shared by --latency-percentiles and
/// bench_service.
void print_latency_summary(const std::string& label,
                           const stats::LatencySummary& s,
                           double scale = 1e3, const char* unit = "ms");

/// Total global operator new calls so far in this binary (the harness
/// replaces operator new with a counting wrapper; see harness.cpp).
[[nodiscard]] std::uint64_t allocation_count() noexcept;

/// Current process peak resident set size in MB (getrusage ru_maxrss;
/// 0.0 if the call fails). A high-water mark: it never decreases.
[[nodiscard]] double peak_rss_mb() noexcept;

/// One BENCH_*.json perf record (docs/PERF.md): a flat JSON object, one
/// field per line in the order the fields were added, each value
/// formatted as it is added. Every bench's --json goes through this
/// writer.
class PerfRecord {
 public:
  PerfRecord& text(const std::string& key, const std::string& value);
  PerfRecord& count(const std::string& key, std::uint64_t value);
  /// `value` with `decimals` digits after the point (printf "%.*f").
  PerfRecord& fixed(const std::string& key, double value, int decimals);
  PerfRecord& flag(const std::string& key, bool value);

  /// Write the record to `path` and report it on stdout; warns on
  /// stderr instead when the file cannot be opened.
  void write(const std::string& path) const;

 private:
  PerfRecord& add(const std::string& key, std::string value);

  std::vector<std::pair<std::string, std::string>> fields_;
};

/// Write `telemetry` (plus workload shape from `config`) as a
/// PerfRecord — the BENCH_*.json format consumed by the CI perf-smoke
/// job.
void write_bench_json(const FigureConfig& config,
                      const SweepTelemetry& telemetry,
                      const std::string& path);

/// RAII scratch directory: mkdtemp("<prefix>XXXXXX") on construction,
/// recursive remove on destruction — so bench-owned temp state is
/// cleaned on success AND on every throw path. Only for directories the
/// bench created itself; user-supplied paths (e.g. --persist-dir, which
/// CI uploads as a failure artifact) must not go through this guard.
class TempDir {
 public:
  /// `prefix` is the template stem, e.g. "/tmp/sc-chaos-persist-".
  /// Throws std::runtime_error if mkdtemp fails.
  explicit TempDir(const std::string& prefix);
  ~TempDir();
  TempDir(const TempDir&) = delete;
  TempDir& operator=(const TempDir&) = delete;

  [[nodiscard]] const std::string& path() const noexcept { return path_; }

 private:
  std::string path_;
};

}  // namespace sc::bench
