#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <vector>

#include "net/bandwidth_model.h"
#include "net/variability.h"
#include "stats/empirical.h"
#include "stats/histogram.h"

namespace sc::stats {
namespace {

// EmpiricalDistribution::quantile as it was with std::lower_bound, over
// cumulative weights rebuilt with the constructor's arithmetic.
class LowerBoundQuantile {
 public:
  explicit LowerBoundQuantile(const std::vector<EmpiricalBin>& bins)
      : bins_(bins) {
    double total = 0.0;
    for (const auto& b : bins_) total += b.weight;
    double acc = 0.0;
    for (const auto& b : bins_) {
      acc += b.weight / total;
      cum_.push_back(acc);
    }
    cum_.back() = 1.0;
  }

  double operator()(double u) const {
    u = std::clamp(u, 0.0, 1.0);
    const auto it = std::lower_bound(cum_.begin(), cum_.end(), u);
    const auto i = static_cast<std::size_t>(it - cum_.begin());
    const auto& b = bins_[std::min(i, bins_.size() - 1)];
    const double clo = i > 0 ? cum_[i - 1] : 0.0;
    const double chi = cum_[std::min(i, cum_.size() - 1)];
    const double frac = chi > clo ? (u - clo) / (chi - clo) : 0.0;
    return b.lo + frac * (b.hi - b.lo);
  }

  [[nodiscard]] const std::vector<double>& cum() const { return cum_; }

 private:
  std::vector<EmpiricalBin> bins_;
  std::vector<double> cum_;
};

bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof a) == 0;
}

TEST(Empirical, QuantileMatchesLowerBoundReference) {
  // Gaps between the bins make the last point of a bin differ from the
  // first of the next, so an index off by one at an exact cumulative
  // weight shows; zero-weight bins repeat a cumulative weight.
  const std::vector<EmpiricalDistribution> dists = {
      EmpiricalDistribution({{0.0, 1.0, 2.0},
                             {1.5, 2.5, 0.0},
                             {3.0, 4.0, 1.0},
                             {4.5, 5.0, 0.5},
                             {6.0, 8.0, 0.0},
                             {9.0, 10.0, 3.0},
                             {11.0, 12.0, 0.0}}),
      net::nlanr_variability_model(),
      net::nlanr_base_model(),
  };
  for (std::size_t d = 0; d < dists.size(); ++d) {
    const EmpiricalDistribution& dist = dists[d];
    const LowerBoundQuantile reference(dist.bins());
    std::vector<double> probes = {0.0, 1.0, -0.5, 1.5};
    for (const double c : reference.cum()) {
      probes.push_back(c);
      probes.push_back(std::nextafter(c, 0.0));
      probes.push_back(std::nextafter(c, 2.0));
    }
    for (const double u : probes) {
      EXPECT_TRUE(same_bits(dist.quantile(u), reference(u)))
          << "distribution " << d << ", u " << u;
    }
    util::Rng rng(17 + d);
    long mismatches = 0;
    for (int i = 0; i < 1000000; ++i) {
      const double u = rng.uniform();
      mismatches += !same_bits(dist.quantile(u), reference(u));
    }
    EXPECT_EQ(mismatches, 0) << "distribution " << d;
  }
}

TEST(Histogram, BasicCounting) {
  Histogram h(0.0, 10.0, 10);
  h.add(0.5);
  h.add(1.5);
  h.add(1.6);
  h.add(9.9);
  EXPECT_DOUBLE_EQ(h.count(0), 1.0);
  EXPECT_DOUBLE_EQ(h.count(1), 2.0);
  EXPECT_DOUBLE_EQ(h.count(9), 1.0);
  EXPECT_DOUBLE_EQ(h.total(), 4.0);
}

TEST(Histogram, OutOfRangeClampsIntoEdgeBins) {
  Histogram h(0.0, 10.0, 10);
  h.add(-5.0);
  h.add(15.0);
  EXPECT_DOUBLE_EQ(h.count(0), 1.0);
  EXPECT_DOUBLE_EQ(h.count(9), 1.0);
  EXPECT_DOUBLE_EQ(h.total(), 2.0);
}

TEST(Histogram, WeightedSamples) {
  Histogram h(0.0, 1.0, 2);
  h.add(0.25, 3.0);
  h.add(0.75, 1.0);
  EXPECT_DOUBLE_EQ(h.count(0), 3.0);
  EXPECT_DOUBLE_EQ(h.fraction_below(0.5), 0.75);
}

TEST(Histogram, CdfEndsAtOne) {
  Histogram h(0.0, 10.0, 5);
  for (int i = 0; i < 100; ++i) h.add(i % 10);
  const auto cdf = h.cdf();
  ASSERT_EQ(cdf.size(), 5u);
  EXPECT_DOUBLE_EQ(cdf.back(), 1.0);
  for (std::size_t i = 1; i < cdf.size(); ++i) EXPECT_GE(cdf[i], cdf[i - 1]);
}

TEST(Histogram, FractionBelowInterpolatesWithinBin) {
  Histogram h(0.0, 10.0, 10);
  h.add(0.5, 10.0);  // all mass in bin [0,1)
  EXPECT_DOUBLE_EQ(h.fraction_below(0.5), 0.5);
  EXPECT_DOUBLE_EQ(h.fraction_below(1.0), 1.0);
  EXPECT_DOUBLE_EQ(h.fraction_below(0.0), 0.0);
}

TEST(Histogram, MeanAndCov) {
  Histogram h(0.0, 10.0, 10);
  h.add(2.2);  // center 2.5
  h.add(7.7);  // center 7.5
  EXPECT_DOUBLE_EQ(h.mean(), 5.0);
  EXPECT_NEAR(h.cov(), 2.5 / 5.0, 1e-12);
}

TEST(Histogram, RejectsBadConstruction) {
  EXPECT_THROW(Histogram(0.0, 1.0, 0), std::invalid_argument);
  EXPECT_THROW(Histogram(1.0, 1.0, 5), std::invalid_argument);
  EXPECT_THROW(Histogram(2.0, 1.0, 5), std::invalid_argument);
}

TEST(Empirical, RejectsMalformedBins) {
  EXPECT_THROW(EmpiricalDistribution({}), std::invalid_argument);
  EXPECT_THROW(EmpiricalDistribution({{1.0, 1.0, 1.0}}),
               std::invalid_argument);  // empty range
  EXPECT_THROW(EmpiricalDistribution({{0.0, 1.0, -1.0}}),
               std::invalid_argument);  // negative weight
  EXPECT_THROW(EmpiricalDistribution({{0.0, 2.0, 1.0}, {1.0, 3.0, 1.0}}),
               std::invalid_argument);  // overlap
  EXPECT_THROW(EmpiricalDistribution({{0.0, 1.0, 0.0}}),
               std::invalid_argument);  // zero total
}

TEST(Empirical, QuantileCdfRoundTrip) {
  const EmpiricalDistribution d(
      {{0.0, 1.0, 1.0}, {2.0, 4.0, 2.0}, {10.0, 11.0, 1.0}});
  for (const double u : {0.05, 0.2, 0.4, 0.6, 0.8, 0.95}) {
    const double x = d.quantile(u);
    EXPECT_NEAR(d.cdf(x), u, 1e-9) << "u=" << u;
  }
}

TEST(Empirical, CdfBoundaries) {
  const EmpiricalDistribution d({{1.0, 2.0, 1.0}});
  EXPECT_DOUBLE_EQ(d.cdf(0.5), 0.0);
  EXPECT_DOUBLE_EQ(d.cdf(1.5), 0.5);
  EXPECT_DOUBLE_EQ(d.cdf(2.5), 1.0);
  EXPECT_DOUBLE_EQ(d.min(), 1.0);
  EXPECT_DOUBLE_EQ(d.max(), 2.0);
}

TEST(Empirical, AnalyticMeanAndCov) {
  // Uniform on [0, 2]: mean 1, var 1/3, cov = 1/sqrt(3).
  const EmpiricalDistribution d({{0.0, 2.0, 1.0}});
  EXPECT_NEAR(d.mean(), 1.0, 1e-12);
  EXPECT_NEAR(d.cov(), 1.0 / std::sqrt(3.0), 1e-9);
}

TEST(Empirical, SamplingMatchesCdf) {
  const EmpiricalDistribution d({{0.0, 1.0, 3.0}, {1.0, 2.0, 1.0}});
  util::Rng rng(17);
  int below = 0;
  constexpr int kN = 100000;
  for (int i = 0; i < kN; ++i) {
    if (d.sample(rng) < 1.0) ++below;
  }
  EXPECT_NEAR(static_cast<double>(below) / kN, 0.75, 0.01);
}

TEST(Empirical, ScaledPreservesShape) {
  const EmpiricalDistribution d({{1.0, 2.0, 1.0}, {3.0, 5.0, 2.0}});
  const auto s = d.scaled(10.0);
  EXPECT_NEAR(s.mean(), d.mean() * 10.0, 1e-9);
  EXPECT_NEAR(s.cov(), d.cov(), 1e-9);  // CoV is scale-invariant
  EXPECT_THROW(d.scaled(0.0), std::invalid_argument);
  EXPECT_THROW(d.scaled(-1.0), std::invalid_argument);
}

TEST(Empirical, FromHistogramRoundTrip) {
  Histogram h(0.0, 10.0, 100);
  util::Rng rng(23);
  for (int i = 0; i < 50000; ++i) h.add(rng.uniform(2.0, 6.0));
  const auto d = EmpiricalDistribution::from_histogram(h);
  EXPECT_NEAR(d.mean(), 4.0, 0.05);
  EXPECT_NEAR(d.cdf(2.0), 0.0, 0.02);
  EXPECT_NEAR(d.cdf(6.0), 1.0, 0.02);

  Histogram empty(0.0, 1.0, 4);
  EXPECT_THROW(EmpiricalDistribution::from_histogram(empty),
               std::invalid_argument);
}

TEST(Empirical, FromHistogramHandlesGaps) {
  Histogram h(0.0, 10.0, 10);
  h.add(0.5, 1.0);
  h.add(9.5, 1.0);  // gap between bins 0 and 9
  const auto d = EmpiricalDistribution::from_histogram(h);
  EXPECT_EQ(d.bins().size(), 2u);
  EXPECT_NEAR(d.mean(), 5.0, 1e-9);
}

}  // namespace
}  // namespace sc::stats
