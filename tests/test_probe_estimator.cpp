#include <gtest/gtest.h>

#include <cmath>

#include "net/bandwidth_model.h"
#include "net/estimator.h"
#include "net/probe.h"
#include "net/variability.h"
#include "stats/summary.h"

namespace sc::net {
namespace {

TEST(TcpModel, ThroughputInverseOfLoss) {
  // bw = MSS / (RTT * sqrt(2p/3)); round-trip through the inverse.
  const double mss = 1460.0, rtt = 0.08;
  for (const double bw : {50e3, 100e3, 400e3}) {
    const double p = loss_for_bandwidth(bw, mss, rtt);
    EXPECT_NEAR(tcp_throughput(mss, rtt, p), bw, bw * 1e-9);
  }
}

TEST(TcpModel, ThroughputDecreasesWithLossAndRtt) {
  EXPECT_GT(tcp_throughput(1460, 0.05, 0.01), tcp_throughput(1460, 0.05, 0.04));
  EXPECT_GT(tcp_throughput(1460, 0.05, 0.01), tcp_throughput(1460, 0.20, 0.01));
}

TEST(TcpModel, LossFreePathIsNotLossLimited) {
  EXPECT_GT(tcp_throughput(1460, 0.05, 0.0), 1e6);
  EXPECT_THROW((void)tcp_throughput(1460, 0.0, 0.01), std::invalid_argument);
  EXPECT_THROW((void)loss_for_bandwidth(0.0, 1460, 0.05),
               std::invalid_argument);
}

TEST(TcpModel, LossClampedToSaneRange) {
  // Absurdly slow path would need p > 0.5: clamp.
  EXPECT_LE(loss_for_bandwidth(1.0, 1460, 0.4), 0.5);
  // Absurdly fast path would need p ~ 0: floor at 1e-6.
  EXPECT_GE(loss_for_bandwidth(1e12, 1460, 0.01), 1e-6);
}

TEST(ProbeModel, AssignsConsistentLatentState) {
  util::Rng rng(1);
  const std::vector<double> means = {30e3, 100e3, 300e3};
  const ProbeModel model(means, ProbeConfig{}, std::move(rng));
  ASSERT_EQ(model.size(), 3u);
  for (std::size_t p = 0; p < 3; ++p) {
    const auto& st = model.state(p);
    // The latent (RTT, loss) must reproduce the true mean through the
    // TCP model.
    EXPECT_NEAR(tcp_throughput(model.config().mss_bytes, st.rtt_s,
                               st.loss_rate),
                means[p], means[p] * 0.01);
  }
}

TEST(ProbeModel, LargerTrainGivesBetterEstimates) {
  const std::vector<double> means(50, 60e3);
  auto mean_error = [&](std::size_t train) {
    ProbeConfig cfg;
    cfg.train_packets = train;
    util::Rng rng(2);
    const ProbeModel model(means, cfg, rng.fork("assign"));
    util::Rng probe_rng = rng.fork("probe");
    stats::RunningStats err;
    for (std::size_t p = 0; p < means.size(); ++p) {
      for (int rep = 0; rep < 20; ++rep) {
        const auto r = model.probe(p, probe_rng);
        err.add(std::abs(r.estimated_bandwidth - means[p]) / means[p]);
      }
    }
    return err.mean();
  };
  const double small = mean_error(50);
  const double large = mean_error(2000);
  EXPECT_LT(large, small);
}

TEST(ProbeModel, ReportsOverhead) {
  ProbeConfig cfg;
  cfg.train_packets = 100;
  cfg.rtt_samples = 4;
  util::Rng rng(3);
  const ProbeModel model({50e3}, cfg, rng.fork());
  const auto r = model.probe(0, rng);
  EXPECT_EQ(r.packets_sent, 104u);
  EXPECT_GT(r.measured_rtt_s, 0.0);
  EXPECT_GT(r.measured_loss, 0.0);
}

TEST(ProbeModel, RejectsEmpty) {
  util::Rng rng(4);
  EXPECT_THROW(ProbeModel({}, ProbeConfig{}, std::move(rng)),
               std::invalid_argument);
}

TEST(PassiveEwma, ConvergesToObservedMean) {
  PassiveEwmaEstimator est(2, 0.3, 50e3);
  EXPECT_DOUBLE_EQ(est.estimate(0, 0.0), 50e3);  // prior before data
  for (int i = 0; i < 200; ++i) est.observe(0, 80e3, i);
  EXPECT_NEAR(est.estimate(0, 200.0), 80e3, 1.0);
  EXPECT_DOUBLE_EQ(est.estimate(1, 0.0), 50e3);  // untouched path: prior
  EXPECT_EQ(est.kernel().observed_paths(), 1u);
}

TEST(PassiveEwma, WeighsRecentSamplesMore) {
  PassiveEwmaEstimator est(1, 0.5, 10e3);
  est.observe(0, 100e3, 0.0);
  est.observe(0, 200e3, 1.0);
  // 0.5 * 200K + 0.5 * 100K = 150K.
  EXPECT_NEAR(est.estimate(0, 2.0), 150e3, 1.0);
}

TEST(PassiveEwma, IgnoresNonPositiveSamplesAndValidatesArgs) {
  PassiveEwmaEstimator est(1, 0.3, 50e3);
  est.observe(0, 0.0, 0.0);
  est.observe(0, -5.0, 0.0);
  est.observe(0, std::nan(""), 0.0);
  EXPECT_DOUBLE_EQ(est.estimate(0, 1.0), 50e3);
  est.observe(0, 80e3, 1.0);
  est.observe(0, std::nan(""), 2.0);  // a NaN sample leaves no trace
  EXPECT_DOUBLE_EQ(est.estimate(0, 3.0), 80e3);
  EXPECT_THROW(PassiveEwmaEstimator(1, 0.0, 50e3), std::invalid_argument);
  EXPECT_THROW(PassiveEwmaEstimator(1, 1.5, 50e3), std::invalid_argument);
  EXPECT_THROW(PassiveEwmaEstimator(1, 0.3, 0.0), std::invalid_argument);
}

TEST(LastSample, TracksLatestOnly) {
  PassiveEwmaEstimator est(1, 1.0, 40e3);  // alpha 1: the last sample
  EXPECT_DOUBLE_EQ(est.estimate(0, 0.0), 40e3);
  est.observe(0, 100e3, 1.0);
  est.observe(0, 70e3, 2.0);
  EXPECT_DOUBLE_EQ(est.estimate(0, 3.0), 70e3);
}

TEST(Oracle, ReturnsTruePathMean) {
  PathModelConfig cfg;
  cfg.mode = VariationMode::kIidRatio;
  const PathModel model(5, nlanr_base_model(), nlanr_variability_model(), cfg,
                        util::Rng(6));
  OracleEstimator est(model);
  for (PathId p = 0; p < 5; ++p) {
    EXPECT_DOUBLE_EQ(est.estimate(p, 123.0), model.mean_bandwidth(p));
  }
  EXPECT_EQ(est.overhead_packets(), 0u);
}

TEST(ActiveProbe, CachesWithinReprobeInterval) {
  util::Rng rng(7);
  const ProbeModel model({60e3, 90e3}, ProbeConfig{}, rng.fork("m"));
  ActiveProbeEstimator est(model, /*reprobe_interval_s=*/100.0,
                           rng.fork("e"));
  const double e0 = est.estimate(0, 0.0);
  const auto overhead_after_first = est.overhead_packets();
  EXPECT_GT(overhead_after_first, 0u);
  // Within the interval: cached, no extra overhead.
  EXPECT_DOUBLE_EQ(est.estimate(0, 50.0), e0);
  EXPECT_EQ(est.overhead_packets(), overhead_after_first);
  // After the interval: re-probe.
  (void)est.estimate(0, 150.0);
  EXPECT_GT(est.overhead_packets(), overhead_after_first);
}

TEST(ActiveProbe, EstimatesNearTruth) {
  util::Rng rng(8);
  ProbeConfig cfg;
  cfg.train_packets = 5000;  // generous train: tight estimates
  const std::vector<double> means = {30e3, 120e3};
  const ProbeModel model(means, cfg, rng.fork("m"));
  ActiveProbeEstimator est(model, 1.0, rng.fork("e"));
  for (std::size_t p = 0; p < means.size(); ++p) {
    EXPECT_NEAR(est.estimate(p, 0.0) / means[p], 1.0, 0.35);
  }
  EXPECT_THROW(ActiveProbeEstimator(model, 0.0, rng.fork("x")),
               std::invalid_argument);
}

}  // namespace
}  // namespace sc::net
