// workload::RequestStream property tests: the streaming engine's whole
// contract is that results are BYTE-IDENTICAL to the materialized path —
// for every registered (policy, estimator) pair, every chunk size, every
// thread count, every scenario mode, and for trace-file re-streaming.
// Every comparison below is exact (==) on doubles: "close" would hide
// a reordered floating-point reduction.

#include <gtest/gtest.h>

#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "core/experiment.h"
#include "core/registry.h"
#include "core/sweep.h"
#include "workload/generator.h"
#include "workload/request_stream.h"
#include "workload/trace.h"

namespace sc::workload {
namespace {

WorkloadConfig small_config(std::size_t objects = 200,
                            std::size_t requests = 3000,
                            double alpha = 0.73) {
  WorkloadConfig cfg;
  cfg.catalog.num_objects = objects;
  cfg.trace.num_requests = requests;
  cfg.trace.zipf_alpha = alpha;
  return cfg;
}

/// The shared-RNG contract used by core::SweepRunner: catalog draws
/// first, then the trace; a synthetic stream snapshots the post-catalog
/// state.
RequestStream stream_for(const WorkloadConfig& cfg, std::uint64_t seed) {
  util::Rng rng(seed);
  auto catalog =
      std::make_shared<const Catalog>(Catalog::generate(cfg.catalog, rng));
  return RequestStream::synthetic(catalog, cfg.trace, std::move(rng));
}

TEST(RequestStream, SyntheticMatchesGenerateWorkloadExactly) {
  const auto cfg = small_config();
  util::Rng rng(7);
  const Workload w = generate_workload(cfg, rng);

  for (const std::size_t chunk : {std::size_t{1}, std::size_t{7},
                                  std::size_t{4096}}) {
    const RequestStream synthetic = stream_for(cfg, 7);
    // The regenerating source, and the same source drained into memory.
    for (const RequestStream& stream : {synthetic, synthetic.in_memory()}) {
      ASSERT_EQ(stream.num_requests(), w.requests.size());
      RequestCursor cursor;
      cursor.bind(stream, chunk);
      std::size_t i = 0;
      while (const RequestBlock* block = cursor.next()) {
        ASSERT_EQ(block->first, i);
        for (std::size_t k = 0; k < block->size; ++k, ++i) {
          ASSERT_LT(i, w.requests.size());
          EXPECT_EQ(block->time_s[k], w.requests[i].time_s)
              << "chunk " << chunk;
          EXPECT_EQ(block->object[k], w.requests[i].object);
          EXPECT_EQ(block->view_s[k], w.requests[i].view_s);
        }
      }
      EXPECT_EQ(i, w.requests.size()) << "chunk " << chunk;
      // And the catalogs come from the same draws.
      ASSERT_EQ(stream.catalog().size(), w.catalog.size());
      for (std::size_t o = 0; o < w.catalog.size(); ++o) {
        EXPECT_EQ(stream.catalog().objects()[o].duration_s,
                  w.catalog.objects()[o].duration_s);
        EXPECT_EQ(stream.catalog().objects()[o].bitrate,
                  w.catalog.objects()[o].bitrate);
      }
    }
  }
}

TEST(RequestStream, MaterializeRoundTripsAndRewinds) {
  const auto cfg = small_config(100, 500);
  RequestStream stream = stream_for(cfg, 11);
  const RequestStream a = stream.in_memory();
  const RequestStream b =
      stream.in_memory();  // cursors never consume the stream
  ASSERT_EQ(a.num_requests(), b.num_requests());
  RequestCursor cursor_a;
  RequestCursor cursor_b;
  cursor_a.bind(a, 64);
  cursor_b.bind(b, 64);
  std::size_t n = 0;
  while (const RequestBlock* block_a = cursor_a.next()) {
    const RequestBlock* block_b = cursor_b.next();
    ASSERT_NE(block_b, nullptr);
    ASSERT_EQ(block_a->first, block_b->first);
    ASSERT_EQ(block_a->size, block_b->size);
    for (std::size_t k = 0; k < block_a->size; ++k) {
      EXPECT_EQ(block_a->time_s[k], block_b->time_s[k]);
      EXPECT_EQ(block_a->object[k], block_b->object[k]);
      EXPECT_EQ(block_a->view_s[k], block_b->view_s[k]);
    }
    n += block_a->size;
  }
  EXPECT_EQ(cursor_b.next(), nullptr);
  EXPECT_EQ(n, a.num_requests());
  // A resident stream is already in memory: its copy shares the columns.
  const RequestStream c = a.in_memory();
  RequestCursor cursor_c;
  cursor_a.bind(a, 64);
  cursor_c.bind(c, 64);
  EXPECT_EQ(cursor_a.next()->time_s, cursor_c.next()->time_s);
}

TEST(RequestStream, ReplayRejectsNullAndZeroChunk) {
  EXPECT_THROW((void)RequestStream::replay(nullptr), std::invalid_argument);
  RequestStream stream = stream_for(small_config(50, 100), 3);
  RequestCursor cursor;
  EXPECT_THROW(cursor.bind(stream, 0), std::invalid_argument);
}

TEST(RequestStream, ReplayRejectsRegressingTimes) {
  util::Rng rng(3);
  auto workload = std::make_shared<Workload>(
      generate_workload(small_config(50, 100), rng));
  workload->requests[40].time_s = workload->requests[39].time_s;  // a tie
  EXPECT_NO_THROW((void)RequestStream::replay(workload));
  workload->requests[60].time_s = workload->requests[59].time_s - 1.0;
  EXPECT_THROW((void)RequestStream::replay(workload), std::invalid_argument);
}

TEST(RequestStream, TraceFileStreamMatchesReplay) {
  util::Rng rng(13);
  const Workload w = generate_workload(small_config(80, 800), rng);
  const auto path =
      std::filesystem::temp_directory_path() / "sc_stream_roundtrip.trace";
  write_trace(w, path);

  const RequestStream from_disk = RequestStream::trace_file(path);
  for (const std::size_t chunk : {std::size_t{1}, std::size_t{7},
                                  std::size_t{4096}}) {
    // The file re-streamed, and the same file drained into memory.
    for (const RequestStream& stream : {from_disk, from_disk.in_memory()}) {
      ASSERT_EQ(stream.num_requests(), w.requests.size());
      ASSERT_EQ(stream.catalog().size(), w.catalog.size());
      RequestCursor cursor;
      cursor.bind(stream, chunk);
      std::size_t i = 0;
      while (const RequestBlock* block = cursor.next()) {
        for (std::size_t k = 0; k < block->size; ++k, ++i) {
          EXPECT_EQ(block->time_s[k], w.requests[i].time_s);
          EXPECT_EQ(block->object[k], w.requests[i].object);
          EXPECT_EQ(block->view_s[k], w.requests[i].view_s);
        }
      }
      EXPECT_EQ(i, w.requests.size()) << "chunk " << chunk;
    }
  }
  std::filesystem::remove(path);
}

TEST(RequestStream, TraceFileValidatesUpFront) {
  const auto path =
      std::filesystem::temp_directory_path() / "sc_stream_bad.trace";
  {
    std::FILE* f = std::fopen(path.c_str(), "w");
    ASSERT_NE(f, nullptr);
    std::fputs("streamcache-trace v1 2 5\n", f);  // declares 5, holds 0
    std::fputs("O 0 300 1.5e6 4.5e8\n", f);
    std::fputs("O 1 300 1.5e6 4.5e8\n", f);
    std::fclose(f);
  }
  EXPECT_THROW((void)RequestStream::trace_file(path), std::runtime_error);
  std::filesystem::remove(path);
}

}  // namespace
}  // namespace sc::workload

namespace sc::core {
namespace {

void expect_identical(const AveragedMetrics& a, const AveragedMetrics& b,
                      const std::string& label) {
  EXPECT_EQ(a.runs, b.runs) << label;
  EXPECT_EQ(a.traffic_reduction, b.traffic_reduction) << label;
  EXPECT_EQ(a.traffic_reduction_sd, b.traffic_reduction_sd) << label;
  EXPECT_EQ(a.delay_s, b.delay_s) << label;
  EXPECT_EQ(a.delay_s_sd, b.delay_s_sd) << label;
  EXPECT_EQ(a.quality, b.quality) << label;
  EXPECT_EQ(a.quality_sd, b.quality_sd) << label;
  EXPECT_EQ(a.added_value, b.added_value) << label;
  EXPECT_EQ(a.added_value_sd, b.added_value_sd) << label;
  EXPECT_EQ(a.hit_ratio, b.hit_ratio) << label;
  EXPECT_EQ(a.immediate_ratio, b.immediate_ratio) << label;
  EXPECT_EQ(a.fill_bytes, b.fill_bytes) << label;
  EXPECT_EQ(a.occupancy_bytes, b.occupancy_bytes) << label;
}

ExperimentConfig base_config(std::size_t threads, std::size_t chunk) {
  ExperimentConfig cfg;
  cfg.workload.catalog.num_objects = 200;
  cfg.workload.trace.num_requests = 3000;
  cfg.runs = 2;
  cfg.threads = threads;
  cfg.sim.stream_chunk = chunk;
  cfg.sim.cache_capacity_bytes =
      capacity_for_fraction(cfg.workload.catalog, 0.02);
  return cfg;
}

AveragedMetrics run_mode(ExperimentConfig cfg, const Scenario& scenario,
                         workload::StreamingMode mode) {
  cfg.streaming = mode;
  return run_experiment(cfg, scenario);
}

TEST(StreamedSimulation, MatchesMaterializedForEveryRegistryPair) {
  // The full cross: every registered (policy, estimator) pair, chunk
  // sizes {1, 7, 4096}, threads {1, 4}. Exact equality on every metric.
  const Scenario scenario = constant_scenario();
  for (const auto& policy : registry::list(registry::Kind::kPolicy)) {
    for (const auto& estimator :
         registry::list(registry::Kind::kEstimator)) {
      for (const std::size_t chunk : {std::size_t{1}, std::size_t{7},
                                      std::size_t{4096}}) {
        for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
          ExperimentConfig cfg = base_config(threads, chunk);
          cfg.sim.policy = policy.name;
          cfg.sim.estimator = estimator.name;
          const std::string label = policy.name + "/" + estimator.name +
                                    " chunk=" + std::to_string(chunk) +
                                    " threads=" + std::to_string(threads);
          expect_identical(
              run_mode(cfg, scenario, workload::StreamingMode::kMaterialize),
              run_mode(cfg, scenario, workload::StreamingMode::kStream),
              label);
        }
      }
    }
  }
}

TEST(StreamedSimulation, MatchesMaterializedUnderVariableBandwidth) {
  // The variable-bandwidth loop takes the sequential per-request
  // sampling branch instead of the batched gather; both scenario modes
  // must still be bit-identical streamed vs materialized.
  for (const Scenario& scenario :
       {measured_variability_scenario(),
        timeseries_scenario(net::MeasuredPath::kTaiwan)}) {
    for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
      ExperimentConfig cfg = base_config(threads, 64);
      cfg.sim.policy = "pb";
      cfg.sim.estimator = "ewma";
      expect_identical(
          run_mode(cfg, scenario, workload::StreamingMode::kMaterialize),
          run_mode(cfg, scenario, workload::StreamingMode::kStream),
          scenario.name + " threads=" + std::to_string(threads));
    }
  }
}

TEST(StreamedSimulation, MatchesMaterializedWithExtensionsEnabled) {
  // Patching re-deliveries and session dynamics read per-request fields
  // (now_s, view_s) off the block; keep them identical too.
  const Scenario scenario = constant_scenario();
  ExperimentConfig cfg = base_config(1, 37);
  cfg.sim.policy = "pb";
  cfg.sim.patching.enabled = true;
  cfg.sim.interactivity = sim::InteractivityConfig::parse("empirical");
  expect_identical(
      run_mode(cfg, scenario, workload::StreamingMode::kMaterialize),
      run_mode(cfg, scenario, workload::StreamingMode::kStream),
      "patching+interactivity");
}

TEST(StreamedSimulation, MatchesMaterializedOnRandomWorkloads) {
  // Property sweep over randomized workload shapes: seeds drive the
  // shape parameters, so failures reproduce exactly.
  const Scenario scenario = constant_scenario();
  for (const std::uint64_t seed : {1u, 2u, 3u, 4u, 5u}) {
    util::Rng shape(seed * 977);
    ExperimentConfig cfg = base_config(/*threads=*/seed % 2 == 0 ? 4 : 1,
                                       /*chunk=*/static_cast<std::size_t>(shape.uniform_int(1, 512)));
    cfg.workload.catalog.num_objects = static_cast<std::size_t>(shape.uniform_int(50, 350));
    cfg.workload.trace.num_requests = static_cast<std::size_t>(shape.uniform_int(500, 4500));
    cfg.workload.trace.zipf_alpha = 0.4 + 0.1 * static_cast<double>(seed % 7);
    cfg.base_seed = seed;
    cfg.sim.policy = seed % 2 == 0 ? "pb" : "hybrid";
    const std::string label = "seed=" + std::to_string(seed);
    expect_identical(
        run_mode(cfg, scenario, workload::StreamingMode::kMaterialize),
        run_mode(cfg, scenario, workload::StreamingMode::kStream), label);
  }
}

TEST(StreamedSimulation, SweepSharesOneStreamPerAlphaRun) {
  // Under kStream the runner builds one RequestStream per (alpha, run)
  // and shares it across cells, mirroring the materialized sharing.
  ExperimentConfig cfg = base_config(1, 128);
  cfg.streaming = workload::StreamingMode::kStream;
  SweepRunner runner(cfg, constant_scenario());
  std::vector<SweepCell> cells;
  for (const char* policy : {"pb", "if"}) {
    cells.push_back(SweepCell{policy, 0.73, 0.02, {}, {}, {}});
    cells.push_back(SweepCell{policy, 1.0, 0.02, {}, {}, {}});
  }
  SweepStats stats;
  (void)runner.run(cells, &stats);
  EXPECT_EQ(stats.workloads_generated, 2 * cfg.runs);  // alphas x runs
}

}  // namespace
}  // namespace sc::core
