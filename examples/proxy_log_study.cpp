// The paper's §3.1 measurement pipeline, end to end:
//
//   1. generate a synthetic Squid-format proxy access log whose miss
//      transfers draw bandwidth from a known ground-truth model,
//   2. analyze the log exactly as the paper analyzed the NLANR logs
//      (misses > 200 KB, bandwidth = size / duration, per-server
//      sample-to-mean ratios),
//   3. compare the recovered base and variability models to the ground
//      truth, and feed the *recovered* models into a caching simulation
//      to show the pipeline is accurate enough to drive policy decisions,
//   4. convert the log itself into a replayable workload trace
//      (workload/trace.h) — per-server objects, per-transfer requests
//      with recorded viewing durations — and replay it through the
//      "trace" scenario with and without session dynamics, i.e. run the
//      cache against the actual logged request stream instead of a
//      synthetic generator.
//
// Run: ./proxy_log_study [--requests 40000] [--servers 300]

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/builder.h"
#include "core/experiment.h"
#include "core/registry.h"
#include "net/bandwidth_model.h"
#include "net/log_analysis.h"
#include "net/units.h"
#include "net/variability.h"
#include "util/cli.h"
#include "util/table.h"
#include "workload/trace.h"

namespace {

/// Remove a temp file on scope exit, so failed runs don't accumulate
/// logs/traces in the temp directory.
struct TempFileGuard {
  std::filesystem::path path;
  ~TempFileGuard() {
    std::error_code ec;
    std::filesystem::remove(path, ec);
  }
};

/// Interpret the log's large miss transfers as streaming sessions: one
/// object per origin server (size = the largest transfer that server
/// ever shipped, CBR at the paper's 48 KB/s rate), one request per
/// transfer, and a *recorded viewing duration* proportional to the
/// bytes the client actually pulled — a session that fetched half the
/// object's bytes watched half the stream. This is exactly the partial
/// viewing the media-workload studies report, recovered from the log.
sc::workload::Workload workload_from_log(
    const std::filesystem::path& log_path) {
  using namespace sc;
  const double bitrate = workload::CatalogConfig{}.bitrate();  // 48 KB/s
  const double min_bytes = net::LogAnalysisConfig{}.min_bytes;

  struct Transfer {
    double time_s = 0.0;
    std::size_t server = 0;
    double bytes = 0.0;
  };
  std::unordered_map<std::string, std::size_t> server_ids;
  std::vector<double> max_bytes;
  std::vector<Transfer> transfers;

  std::ifstream in(log_path);
  std::string line;
  while (std::getline(in, line)) {
    const auto rec = net::parse_squid_line(line);
    if (!rec) continue;
    if (rec->result_code.rfind("TCP_MISS", 0) != 0) continue;
    if (rec->bytes < min_bytes) continue;  // streaming-scale only
    const std::string server = net::server_of_url(rec->url);
    if (server.empty()) continue;
    const auto [it, inserted] =
        server_ids.emplace(server, server_ids.size());
    if (inserted) max_bytes.push_back(0.0);
    max_bytes[it->second] = std::max(max_bytes[it->second], rec->bytes);
    transfers.push_back(Transfer{rec->timestamp_s, it->second, rec->bytes});
  }
  if (transfers.empty()) {
    throw std::runtime_error("workload_from_log: no usable transfers");
  }
  std::stable_sort(transfers.begin(), transfers.end(),
                   [](const Transfer& a, const Transfer& b) {
                     return a.time_s < b.time_s;
                   });

  std::vector<workload::StreamObject> objects(max_bytes.size());
  for (std::size_t id = 0; id < objects.size(); ++id) {
    objects[id].id = id;
    objects[id].duration_s = max_bytes[id] / bitrate;
    objects[id].bitrate = bitrate;
    objects[id].value = 1.0;
    objects[id].path = id;
  }

  std::vector<workload::Request> requests;
  requests.reserve(transfers.size());
  const double start = transfers.front().time_s;
  for (const auto& t : transfers) {
    workload::Request r;
    r.time_s = t.time_s - start;
    r.object = t.server;
    r.view_s = t.bytes / bitrate;  // the part the client actually pulled
    requests.push_back(r);
  }
  return workload::Workload{
      workload::Catalog::from_objects(std::move(objects)),
      std::move(requests)};
}

}  // namespace

int run_main(int argc, char** argv) {
  using namespace sc;
  const util::Cli cli(argc, argv);
  cli.check_unknown({"requests", "servers", "policy", "estimator", "scenario"});
  util::Rng rng(23);

  // --- 1. ground truth + synthetic log --------------------------------
  // The ground-truth bandwidth environment is any registered scenario
  // (--scenario=...); the default matches the paper's NLANR models.
  const auto truth = core::registry::make_scenario(
      cli.get_or("scenario", std::string("nlanr")));
  net::PathModelConfig pcfg;
  pcfg.mode = truth.mode;
  const auto& truth_base = truth.base;
  const auto& truth_ratio = truth.ratio;
  net::SyntheticLogConfig scfg;
  scfg.num_requests =
      static_cast<std::size_t>(cli.get_or("requests", 40000LL));
  scfg.num_servers = static_cast<std::size_t>(cli.get_or("servers", 300LL));
  const auto path_model = std::make_shared<const net::PathModel>(
      scfg.num_servers, truth_base, truth_ratio, pcfg, rng.fork("paths"));
  net::PathSampler paths(path_model);

  const auto log_path =
      std::filesystem::temp_directory_path() / "sc_proxy_access.log";
  const TempFileGuard log_guard{log_path};
  util::Rng log_rng = rng.fork("log");
  const auto lines = net::write_synthetic_log(log_path, paths, scfg, log_rng);
  std::printf("wrote %zu log lines to %s\n", lines, log_path.c_str());

  // --- 2. analyze as in the paper --------------------------------------
  net::LogAnalyzer analyzer;
  const auto samples = analyzer.add_file(log_path);
  std::printf("extracted %zu bandwidth samples (%zu lines rejected: hits, "
              "small or fast transfers)\n\n",
              samples, analyzer.lines_rejected());

  const auto recovered_base = analyzer.base_model();
  const auto recovered_ratio = analyzer.ratio_model();

  // --- 3a. recovered vs ground truth -----------------------------------
  util::Table cmp({"quantity", "ground truth", "recovered from log"});
  cmp.add_row({"base mean (KB/s)",
               util::Table::num(net::to_kb(truth_base.mean()), 1),
               util::Table::num(net::to_kb(recovered_base.mean()), 1)});
  cmp.add_row({"base CDF(50 KB/s)",
               util::Table::num(truth_base.cdf(net::from_kb(50)), 3),
               util::Table::num(recovered_base.cdf(net::from_kb(50)), 3)});
  cmp.add_row({"base CDF(100 KB/s)",
               util::Table::num(truth_base.cdf(net::from_kb(100)), 3),
               util::Table::num(recovered_base.cdf(net::from_kb(100)), 3)});
  cmp.add_row({"ratio CoV", util::Table::num(truth_ratio.cov(), 3),
               util::Table::num(recovered_ratio.cov(), 3)});
  cmp.add_row({"ratio P(0.5..1.5)",
               util::Table::num(truth_ratio.cdf(1.5) - truth_ratio.cdf(0.5), 3),
               util::Table::num(
                   recovered_ratio.cdf(1.5) - recovered_ratio.cdf(0.5), 3)});
  cmp.print();

  // --- 3b. do log-derived models drive the same caching conclusions? ---
  std::printf("\nPB vs IB simulated with ground-truth vs log-recovered "
              "models (cache = 8%%):\n");
  util::Table sim({"models", "PB delay (s)", "IB delay (s)", "winner"});
  for (const bool recovered : {false, true}) {
    core::Scenario scenario{
        recovered ? "log-recovered" : "ground-truth",
        recovered ? recovered_base : truth_base,
        recovered ? recovered_ratio : truth_ratio,
        net::VariationMode::kIidRatio, nullptr};
    core::ExperimentConfig e;
    e.workload.catalog.num_objects = 1500;
    e.workload.trace.num_requests = 30000;
    e.runs = 3;
    e.sim.cache_capacity_bytes =
        core::capacity_for_fraction(e.workload.catalog, 0.08);
    e.sim.policy = cli.get_or("policy", std::string("pb"));
    e.sim.estimator = cli.get_or("estimator", std::string("oracle"));
    const double pb = core::run_experiment(e, scenario).delay_s;
    e.sim.policy = "ib";
    const double ib = core::run_experiment(e, scenario).delay_s;
    sim.add_row({scenario.name, util::Table::num(pb, 1),
                 util::Table::num(ib, 1), pb < ib ? "PB" : "IB"});
  }
  sim.print();
  std::printf("\nThe log-derived models reproduce the ground-truth model's "
              "policy comparison -- passive log analysis is a viable way "
              "to parameterize network-aware caching (paper 3.1).\n");

  // --- 4. replay the log itself through the trace scenario -------------
  // The logged request stream becomes a workload trace; the registry's
  // "trace" scenario then replays it from the same spec-string CLI every
  // binary shares. "trace" interactivity replays each session's recorded
  // viewing duration; "full" pretends every client watched through.
  const auto replay_workload = workload_from_log(log_path);
  const auto trace_path =
      std::filesystem::temp_directory_path() / "sc_proxy_replay.trace";
  const TempFileGuard trace_guard{trace_path};
  workload::write_trace(replay_workload, trace_path);
  const std::string replay_spec = "trace:file=" + trace_path.string();
  std::printf("\nreplaying the log's %zu streaming sessions over %zu "
              "objects via --scenario=%s\n",
              replay_workload.requests.size(),
              replay_workload.catalog.size(), replay_spec.c_str());

  util::Table replay({"interactivity", "traffic reduction", "delay (s)",
                      "hit ratio"});
  for (const char* mode : {"full", "trace"}) {
    const auto m = core::ExperimentBuilder()
                       .scenario(replay_spec)
                       .policy(cli.get_or("policy", std::string("pb")))
                       .estimator(cli.get_or("estimator",
                                             std::string("oracle")))
                       .cache_fraction(0.08)
                       .runs(3)
                       .interactivity(mode)
                       .run();
    replay.add_row({mode, util::Table::num(m.traffic_reduction, 4),
                    util::Table::num(m.delay_s, 1),
                    util::Table::num(m.hit_ratio, 4)});
  }
  replay.print();
  std::printf("\nAccounting for the sessions' recorded early departures "
              "changes the byte economics the cache sees -- policies must "
              "be evaluated under session dynamics, not just full-length "
              "synthetic streams.\n");
  return 0;
}

int main(int argc, char** argv) {
  return sc::util::guarded_main(run_main, argc, argv);
}
