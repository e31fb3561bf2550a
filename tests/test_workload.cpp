#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <functional>

#include "core/registry.h"
#include "workload/generator.h"
#include "workload/request_stream.h"
#include "workload/trace.h"
#include "workload/workload_stats.h"

namespace sc::workload {
namespace {

TEST(Catalog, GeneratesTable1Invariants) {
  CatalogConfig cfg;  // paper defaults
  util::Rng rng(1);
  const auto catalog = Catalog::generate(cfg, rng);
  ASSERT_EQ(catalog.size(), 5000u);
  for (const auto& o : catalog.objects()) {
    EXPECT_GT(o.duration_s, 0.0);
    EXPECT_DOUBLE_EQ(o.bitrate, 48.0 * 1024.0);  // 2 KB/frame * 24 f/s
    EXPECT_DOUBLE_EQ(o.size_bytes, o.duration_s * o.bitrate);
    EXPECT_GE(o.value, 1.0);
    EXPECT_LE(o.value, 10.0);
    EXPECT_EQ(o.path, o.id);
    EXPECT_EQ(o.popularity_rank, o.id + 1);
    EXPECT_GE(o.duration_s, cfg.min_duration_min * 60.0);
    EXPECT_LE(o.duration_s, cfg.max_duration_min * 60.0);
  }
  // ~790 GB total unique size (Table 1).
  const double total_gb = catalog.total_bytes() / (1024.0 * 1024.0 * 1024.0);
  EXPECT_NEAR(total_gb, 790.0, 60.0);
}

TEST(Catalog, MeanDurationNear55Minutes) {
  CatalogConfig cfg;
  util::Rng rng(2);
  const auto catalog = Catalog::generate(cfg, rng);
  double acc = 0;
  for (const auto& o : catalog.objects()) acc += o.duration_s;
  EXPECT_NEAR(acc / catalog.size() / 60.0, 55.0, 4.0);
}

TEST(Catalog, FromObjectsValidates) {
  StreamObject good;
  good.id = 0;
  good.duration_s = 10.0;
  good.bitrate = 5.0;
  EXPECT_NO_THROW(Catalog::from_objects({good}));

  EXPECT_THROW(Catalog::from_objects({}), std::invalid_argument);

  StreamObject wrong_id = good;
  wrong_id.id = 3;
  EXPECT_THROW(Catalog::from_objects({wrong_id}), std::invalid_argument);

  StreamObject bad_duration = good;
  bad_duration.duration_s = 0.0;
  EXPECT_THROW(Catalog::from_objects({bad_duration}), std::invalid_argument);
}

TEST(Catalog, RejectsDegenerateConfig) {
  CatalogConfig cfg;
  cfg.num_objects = 0;
  util::Rng rng(3);
  EXPECT_THROW(Catalog::generate(cfg, rng), std::invalid_argument);
  cfg.num_objects = 10;
  cfg.frame_bytes = 0.0;
  EXPECT_THROW(Catalog::generate(cfg, rng), std::invalid_argument);
}

TEST(Generator, TraceIsTimeOrderedPoisson) {
  WorkloadConfig cfg;
  cfg.catalog.num_objects = 100;
  cfg.trace.num_requests = 20000;
  cfg.trace.arrival_rate_per_s = 2.0;
  util::Rng rng(4);
  const auto w = generate_workload(cfg, rng);
  ASSERT_EQ(w.requests.size(), 20000u);
  double prev = 0.0;
  for (const auto& r : w.requests) {
    EXPECT_GE(r.time_s, prev);
    EXPECT_LT(r.object, w.catalog.size());
    prev = r.time_s;
  }
  // Mean interarrival ~ 1/rate.
  const double span = w.requests.back().time_s - w.requests.front().time_s;
  EXPECT_NEAR(span / (20000 - 1), 0.5, 0.02);
}

TEST(Generator, PopularityFollowsRankOrder) {
  WorkloadConfig cfg;
  cfg.catalog.num_objects = 500;
  cfg.trace.num_requests = 100000;
  cfg.trace.zipf_alpha = 0.9;
  util::Rng rng(5);
  const auto w = generate_workload(cfg, rng);
  const auto counts = request_counts(w);
  // Object 0 (rank 1) must be the most requested; top ranks dominate.
  EXPECT_EQ(std::max_element(counts.begin(), counts.end()) - counts.begin(),
            0);
  std::size_t top10 = 0;
  for (std::size_t i = 0; i < 10; ++i) top10 += counts[i];
  EXPECT_GT(static_cast<double>(top10) / 100000.0, 0.15);
}

TEST(Generator, RejectsBadTraceConfig) {
  CatalogConfig ccfg;
  ccfg.num_objects = 10;
  util::Rng rng(6);
  const auto catalog = Catalog::generate(ccfg, rng);
  TraceConfig bad;
  bad.num_requests = 0;
  EXPECT_THROW(generate_trace(catalog, bad, rng), std::invalid_argument);
  bad.num_requests = 10;
  bad.arrival_rate_per_s = 0.0;
  EXPECT_THROW(generate_trace(catalog, bad, rng), std::invalid_argument);
}

TEST(ZipfFit, RecoversGeneratorAlpha) {
  WorkloadConfig cfg;
  cfg.catalog.num_objects = 2000;
  cfg.trace.num_requests = 200000;
  cfg.trace.zipf_alpha = 0.73;
  util::Rng rng(7);
  const auto w = generate_workload(cfg, rng);
  const auto fit = fit_zipf(request_counts(w));
  EXPECT_NEAR(fit.alpha, 0.73, 0.12);
  EXPECT_GT(fit.r2, 0.9);
}

TEST(ZipfFit, DegenerateInputs) {
  EXPECT_DOUBLE_EQ(fit_zipf({}).alpha, 0.0);
  EXPECT_DOUBLE_EQ(fit_zipf({5, 0, 0}).alpha, 0.0);  // < 3 usable ranks
}

TEST(Summarize, ReportsTable1Quantities) {
  WorkloadConfig cfg;
  cfg.catalog.num_objects = 1000;
  cfg.trace.num_requests = 50000;
  util::Rng rng(8);
  const auto w = generate_workload(cfg, rng);
  const auto s = summarize(w);
  EXPECT_EQ(s.num_objects, 1000u);
  EXPECT_EQ(s.num_requests, 50000u);
  EXPECT_NEAR(s.bitrate, 48.0 * 1024.0, 1e-9);
  EXPECT_GT(s.total_unique_bytes, 0.0);
  EXPECT_NEAR(s.mean_frames, s.mean_duration_s * 24.0, 1e-6);
  EXPECT_GT(s.top10pct_request_share, 0.2);
  EXPECT_GT(s.trace_span_s, 0.0);
}

void expect_workload_field_equal(const Workload& a, const Workload& b) {
  ASSERT_EQ(b.catalog.size(), a.catalog.size());
  ASSERT_EQ(b.requests.size(), a.requests.size());
  for (std::size_t i = 0; i < a.catalog.size(); ++i) {
    const auto& x = a.catalog.object(i);
    const auto& y = b.catalog.object(i);
    EXPECT_EQ(x.id, y.id);
    EXPECT_DOUBLE_EQ(x.duration_s, y.duration_s);
    EXPECT_DOUBLE_EQ(x.bitrate, y.bitrate);
    EXPECT_DOUBLE_EQ(x.size_bytes, y.size_bytes);
    EXPECT_DOUBLE_EQ(x.value, y.value);
    EXPECT_EQ(x.path, y.path);
  }
  for (std::size_t i = 0; i < a.requests.size(); ++i) {
    EXPECT_DOUBLE_EQ(b.requests[i].time_s, a.requests[i].time_s);
    EXPECT_EQ(b.requests[i].object, a.requests[i].object);
    EXPECT_DOUBLE_EQ(b.requests[i].view_s, a.requests[i].view_s);
  }
}

TEST(TraceIo, RoundTripsExactly) {
  WorkloadConfig cfg;
  cfg.catalog.num_objects = 50;
  cfg.trace.num_requests = 500;
  util::Rng rng(9);
  const auto w = generate_workload(cfg, rng);

  const auto path =
      std::filesystem::temp_directory_path() / "sc_trace_roundtrip.txt";
  write_trace(w, path);
  const auto back = read_trace(path);
  std::filesystem::remove(path);
  expect_workload_field_equal(w, back);
}

TEST(TraceIo, RoundTripPropertyOverRandomWorkloads) {
  // Property test: any generated workload — varying shape, skew, and
  // recorded viewing durations (a random mix of full and truncated
  // sessions, including sub-second and fractional values exercising the
  // full double precision of the writer) — must round-trip with field
  // equality.
  const auto path =
      std::filesystem::temp_directory_path() / "sc_trace_property.txt";
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    util::Rng rng(seed * 1237);
    WorkloadConfig cfg;
    cfg.catalog.num_objects =
        static_cast<std::size_t>(rng.uniform_int(3, 120));
    cfg.trace.num_requests =
        static_cast<std::size_t>(rng.uniform_int(1, 800));
    cfg.trace.zipf_alpha = rng.uniform(0.4, 1.3);
    cfg.trace.arrival_rate_per_s = rng.uniform(0.05, 3.0);
    auto w = generate_workload(cfg, rng);
    for (auto& r : w.requests) {
      if (rng.uniform() < 0.5) {
        r.view_s = rng.uniform(0.001, 10000.0);
      }
    }

    write_trace(w, path);
    const auto back = read_trace(path);
    expect_workload_field_equal(w, back);
  }
  std::filesystem::remove(path);
}

TEST(TraceIo, ReadsLegacyV1Files) {
  // v1 request records carry no viewing duration: every session is
  // full-length after import.
  const auto path = std::filesystem::temp_directory_path() / "sc_trace_v1.txt";
  std::FILE* f = std::fopen(path.c_str(), "w");
  std::fputs("streamcache-trace v1 2 3\n"
             "O 0 120 1024 2.5 0\n"
             "O 1 60 512 7 1\n"
             "R 0.5 1\nR 0.75 0\nR 4 1\n",
             f);
  std::fclose(f);
  const auto w = read_trace(path);
  std::filesystem::remove(path);
  ASSERT_EQ(w.catalog.size(), 2u);
  ASSERT_EQ(w.requests.size(), 3u);
  EXPECT_DOUBLE_EQ(w.catalog.object(0).duration_s, 120.0);
  EXPECT_DOUBLE_EQ(w.catalog.object(1).bitrate, 512.0);
  for (const auto& r : w.requests) EXPECT_EQ(r.view_s, kFullSession);
}

TEST(TraceIo, RejectsMalformedFilesWithUsefulMessages) {
  const auto dir = std::filesystem::temp_directory_path();
  const auto write_file = [&](const std::string& name,
                              const std::string& body) {
    const auto p = dir / name;
    std::FILE* f = std::fopen(p.c_str(), "w");
    std::fputs(body.c_str(), f);
    std::fclose(f);
    return p;
  };
  // Every rejection must throw std::runtime_error whose message names
  // the file and contains `hint` about what went wrong.
  using Load = std::function<void(const std::filesystem::path&)>;
  const Load by_read_trace = [](const auto& p) { (void)read_trace(p); };
  const auto expect_rejects = [&](const std::filesystem::path& p,
                                  const std::string& hint,
                                  const Load& load = nullptr) {
    try {
      (load ? load : by_read_trace)(p);
      FAIL() << p << ": expected runtime_error mentioning \"" << hint << "\"";
    } catch (const std::runtime_error& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find(hint), std::string::npos) << what;
      EXPECT_NE(what.find(p.filename().string()), std::string::npos) << what;
    }
  };

  EXPECT_THROW((void)read_trace(dir / "sc_no_such_file.txt"),
               std::runtime_error);

  expect_rejects(write_file("sc_bad_magic.txt", "not-a-trace v1 0 0\n"),
                 "bad magic");
  expect_rejects(write_file("sc_bad_version.txt",
                            "streamcache-trace v9 0 0\n"),
                 "unsupported version");
  expect_rejects(
      write_file("sc_bad_ref.txt",
                 "streamcache-trace v2 1 1\nO 0 10 5 1 0\nR 1.0 7 -1\n"),
      "outside the declared catalog");
  expect_rejects(
      write_file("sc_regress.txt",
                 "streamcache-trace v2 1 2\nO 0 10 5 1 0\n"
                 "R 2.0 0 -1\nR 1.0 0 -1\n"),
      "times regress");
  expect_rejects(
      write_file("sc_count.txt", "streamcache-trace v2 2 0\nO 0 10 5 1 0\n"),
      "record count mismatch");
  // A file cut off mid-record (e.g. a partial copy) must say so.
  expect_rejects(
      write_file("sc_truncated.txt",
                 "streamcache-trace v2 1 2\nO 0 10 5 1 0\nR 1.0 0 -1\nR 2.0\n"),
      "truncated");
  expect_rejects(
      write_file("sc_truncated_obj.txt",
                 "streamcache-trace v2 2 0\nO 0 10 5 1 0\nO 1 10\n"),
      "truncated");
  expect_rejects(
      write_file("sc_sparse_ids.txt",
                 "streamcache-trace v2 2 0\nO 0 10 5 1 0\nO 5 10 5 1 1\n"),
      "dense");
  expect_rejects(
      write_file("sc_bad_path.txt",
                 "streamcache-trace v2 1 0\nO 0 10 5 1 3\n"),
      "outside the declared catalog");
  expect_rejects(write_file("sc_bad_tag.txt",
                            "streamcache-trace v2 0 0\nX 1 2 3\n"),
                 "unknown record tag");

  // The header's counts are checked only at end of file, so a hostile
  // count must not drive an allocation before that: on every entry
  // point these fail the count check, not with std::bad_alloc.
  const Load by_trace_file = [](const auto& p) {
    (void)RequestStream::trace_file(p);
  };
  const Load by_scenario = [](const auto& p) {
    (void)core::registry::make_scenario("trace:file=" + p.string());
  };
  for (const auto& hostile :
       {write_file("sc_huge_objects.txt",
                   "streamcache-trace v2 1000000000000 1\n"
                   "O 0 10 5 1 0\nR 1.0 0 -1\n"),
        write_file("sc_huge_requests.txt",
                   "streamcache-trace v2 1 1000000000000\n"
                   "O 0 10 5 1 0\nR 1.0 0 -1\n")}) {
    for (const Load& load : {by_read_trace, by_trace_file, by_scenario}) {
      expect_rejects(hostile, "record count mismatch", load);
    }
  }

  for (const auto& n :
       {"sc_bad_magic.txt", "sc_bad_version.txt", "sc_bad_ref.txt",
        "sc_regress.txt", "sc_count.txt", "sc_truncated.txt",
        "sc_truncated_obj.txt", "sc_sparse_ids.txt", "sc_bad_path.txt",
        "sc_bad_tag.txt", "sc_huge_objects.txt", "sc_huge_requests.txt"}) {
    std::filesystem::remove(dir / n);
  }
}

}  // namespace
}  // namespace sc::workload
