#include "stats/distributions.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <numeric>
#include <vector>

namespace sc::stats {
namespace {

// The alias table as it was built and sampled before its buckets were
// packed: separate threshold and alias arrays, a scratch copy of the
// scaled masses, and a branch on the acceptance test.
class BranchyAliasReference {
 public:
  explicit BranchyAliasReference(const std::vector<double>& weights) {
    const std::size_t n = weights.size();
    const double total = std::accumulate(weights.begin(), weights.end(), 0.0);
    prob_.assign(n, 1.0);
    alias_.resize(n);
    std::vector<double> scaled(n);
    std::vector<std::size_t> small, large;
    for (std::size_t i = 0; i < n; ++i) {
      alias_[i] = i;
      scaled[i] = weights[i] * static_cast<double>(n) / total;
      (scaled[i] < 1.0 ? small : large).push_back(i);
    }
    while (!small.empty() && !large.empty()) {
      const std::size_t s = small.back();
      const std::size_t l = large.back();
      small.pop_back();
      prob_[s] = scaled[s];
      alias_[s] = l;
      scaled[l] -= 1.0 - scaled[s];
      if (scaled[l] < 1.0) {
        large.pop_back();
        small.push_back(l);
      }
    }
  }

  std::size_t sample(util::Rng& rng) const {
    const double scaled = rng.uniform() * static_cast<double>(prob_.size());
    std::size_t bucket = static_cast<std::size_t>(scaled);
    if (bucket >= prob_.size()) bucket = prob_.size() - 1;
    const double frac = scaled - static_cast<double>(bucket);
    return frac < prob_[bucket] ? bucket : alias_[bucket];
  }

 private:
  std::vector<double> prob_;
  std::vector<std::size_t> alias_;
};

std::vector<double> zipf_reference_weights(std::size_t n, double alpha) {
  std::vector<double> w(n);
  for (std::size_t r = 1; r <= n; ++r) {
    w[r - 1] = std::pow(static_cast<double>(r), -alpha);
  }
  return w;
}

TEST(AliasTable, PicksMatchTheBranchyReference) {
  const std::vector<std::vector<double>> tables = {
      zipf_reference_weights(5000, 0.73),
      std::vector<double>(1000, 1.0),
      {0.0, 3.0, 0.0, 0.0, 1.5, 0.0, 2.0, 0.25, 0.0},
      {4.0},
  };
  for (std::size_t t = 0; t < tables.size(); ++t) {
    const AliasTable table(tables[t]);
    const BranchyAliasReference reference(tables[t]);
    util::Rng rng(1000 + t);
    util::Rng reference_rng(1000 + t);
    long mismatches = 0;
    for (int i = 0; i < 1000000; ++i) {
      mismatches += table.sample(rng) != reference.sample(reference_rng);
    }
    EXPECT_EQ(mismatches, 0) << "table " << t;
  }
}

TEST(ZipfLike, MatchesTheReferenceAliasAndCdf) {
  // The alias picks, and a cdf summed from a second pass of the weights,
  // as the constructor once computed them.
  const std::size_t n = 5000;
  const double alpha = 0.73;
  const ZipfLike zipf(n, alpha);
  const BranchyAliasReference reference(zipf_reference_weights(n, alpha));
  std::vector<double> cdf(n);
  double sum = 0.0;
  for (std::size_t r = 1; r <= n; ++r) {
    sum += std::pow(static_cast<double>(r), -alpha);
    cdf[r - 1] = sum;
  }
  for (auto& v : cdf) v /= sum;
  cdf.back() = 1.0;

  for (std::size_t r = 1; r <= n; ++r) {
    const double want = cdf[r - 1] - (r >= 2 ? cdf[r - 2] : 0.0);
    const double got = zipf.pmf(r);
    ASSERT_EQ(std::memcmp(&got, &want, sizeof got), 0) << "rank " << r;
  }
  util::Rng a(5), b(5), c(6), d(6);
  for (int i = 0; i < 100000; ++i) {
    ASSERT_EQ(zipf.sample(a), reference.sample(b) + 1);
    const double u = d.uniform();
    const auto rank =
        std::lower_bound(cdf.begin(), cdf.end(), u) - cdf.begin() + 1;
    ASSERT_EQ(zipf.sample_cdf(c), static_cast<std::size_t>(rank));
  }
}

TEST(ZipfLike, PmfSumsToOne) {
  const ZipfLike z(100, 0.73);
  double sum = 0;
  for (std::size_t r = 1; r <= 100; ++r) sum += z.pmf(r);
  EXPECT_NEAR(sum, 1.0, 1e-12);
}

TEST(ZipfLike, PmfDecreasesWithRank) {
  const ZipfLike z(50, 0.8);
  for (std::size_t r = 2; r <= 50; ++r) {
    EXPECT_GT(z.pmf(r - 1), z.pmf(r));
  }
}

TEST(ZipfLike, AlphaZeroIsUniform) {
  const ZipfLike z(10, 0.0);
  for (std::size_t r = 1; r <= 10; ++r) EXPECT_NEAR(z.pmf(r), 0.1, 1e-12);
}

TEST(ZipfLike, RatioMatchesPowerLaw) {
  const double alpha = 0.73;
  const ZipfLike z(1000, alpha);
  // pmf(r) / pmf(2r) should equal 2^alpha.
  EXPECT_NEAR(z.pmf(1) / z.pmf(2), std::pow(2.0, alpha), 1e-9);
  EXPECT_NEAR(z.pmf(10) / z.pmf(20), std::pow(2.0, alpha), 1e-9);
}

TEST(ZipfLike, SamplingMatchesPmf) {
  const ZipfLike z(20, 1.0);
  util::Rng rng(5);
  std::vector<int> counts(21, 0);
  constexpr int kN = 200000;
  for (int i = 0; i < kN; ++i) counts[z.sample(rng)]++;
  for (std::size_t r = 1; r <= 20; ++r) {
    EXPECT_NEAR(static_cast<double>(counts[r]) / kN, z.pmf(r), 0.005)
        << "rank " << r;
  }
}

TEST(ZipfLike, AliasMatchesCdfBackendByChiSquare) {
  // The O(1) alias backend must draw from the same distribution as the
  // reference inverse-CDF backend. Chi-square against the exact pmf:
  // df = 49; the 99.9th percentile of chi2(49) is ~85.4, use 90.
  const std::size_t kRanks = 50;
  const ZipfLike z(kRanks, 0.73);
  constexpr int kN = 400000;
  for (const bool use_alias : {true, false}) {
    util::Rng rng(use_alias ? 17 : 18);
    std::vector<int> counts(kRanks + 1, 0);
    for (int i = 0; i < kN; ++i) {
      counts[use_alias ? z.sample(rng) : z.sample_cdf(rng)]++;
    }
    double chi2 = 0.0;
    for (std::size_t r = 1; r <= kRanks; ++r) {
      const double expected = kN * z.pmf(r);
      const double d = counts[r] - expected;
      chi2 += d * d / expected;
    }
    EXPECT_LT(chi2, 90.0) << (use_alias ? "alias" : "cdf") << " backend";
  }
}

TEST(ZipfLike, BothBackendsConsumeOneUniformPerSample) {
  // sample() and sample_cdf() must advance the RNG identically so that
  // downstream draws (arrival times, durations) stay aligned across
  // backends; only the returned ranks differ. (Switching the default
  // backend to alias was a documented one-time trace change; see
  // docs/PERF.md.)
  const ZipfLike z(100, 0.73);
  util::Rng a(123), b(123);
  for (int i = 0; i < 1000; ++i) {
    (void)z.sample(a);
    (void)z.sample_cdf(b);
  }
  for (int i = 0; i < 8; ++i) {
    EXPECT_DOUBLE_EQ(a.uniform(), b.uniform());
  }
}

TEST(AliasTable, DegenerateAndInvalidWeights) {
  util::Rng rng(7);
  const AliasTable single({5.0});
  for (int i = 0; i < 100; ++i) EXPECT_EQ(single.sample(rng), 0u);
  const AliasTable point({0.0, 3.0, 0.0});
  for (int i = 0; i < 100; ++i) EXPECT_EQ(point.sample(rng), 1u);

  EXPECT_THROW(AliasTable({}), std::invalid_argument);
  EXPECT_THROW(AliasTable({0.0, 0.0}), std::invalid_argument);
  EXPECT_THROW(AliasTable({1.0, -0.5}), std::invalid_argument);
}

TEST(AliasTable, UniformAndSkewedMasses) {
  util::Rng rng(9);
  const AliasTable t({1.0, 2.0, 1.0});  // P = {0.25, 0.5, 0.25}
  constexpr int kN = 200000;
  std::vector<int> counts(3, 0);
  for (int i = 0; i < kN; ++i) counts[t.sample(rng)]++;
  EXPECT_NEAR(counts[0] / double(kN), 0.25, 0.01);
  EXPECT_NEAR(counts[1] / double(kN), 0.50, 0.01);
  EXPECT_NEAR(counts[2] / double(kN), 0.25, 0.01);
}

TEST(ZipfLike, RejectsBadParameters) {
  EXPECT_THROW(ZipfLike(0, 0.5), std::invalid_argument);
  EXPECT_THROW(ZipfLike(10, -0.1), std::invalid_argument);
  const ZipfLike z(10, 0.5);
  EXPECT_THROW((void)z.pmf(0), std::out_of_range);
  EXPECT_THROW((void)z.pmf(11), std::out_of_range);
}

class ZipfAlphaSweep : public ::testing::TestWithParam<double> {};

TEST_P(ZipfAlphaSweep, SampleInRangeAndRank1MostFrequent) {
  const double alpha = GetParam();
  const ZipfLike z(500, alpha);
  util::Rng rng(11);
  std::vector<int> counts(501, 0);
  for (int i = 0; i < 100000; ++i) {
    const auto r = z.sample(rng);
    ASSERT_GE(r, 1u);
    ASSERT_LE(r, 500u);
    counts[r]++;
  }
  if (alpha > 0) {
    const int max_count = *std::max_element(counts.begin(), counts.end());
    EXPECT_EQ(counts[1], max_count);
  }
}

INSTANTIATE_TEST_SUITE_P(Alphas, ZipfAlphaSweep,
                         ::testing::Values(0.0, 0.5, 0.73, 1.0, 1.2));

TEST(Lognormal, AnalyticMoments) {
  const Lognormal ln(3.85, 0.56);
  EXPECT_NEAR(ln.mean(), std::exp(3.85 + 0.56 * 0.56 / 2), 1e-9);
  EXPECT_GT(ln.variance(), 0.0);
}

TEST(Lognormal, SampleMeanConverges) {
  const Lognormal ln(1.0, 0.4);
  util::Rng rng(3);
  double acc = 0;
  constexpr int kN = 300000;
  for (int i = 0; i < kN; ++i) acc += ln.sample(rng);
  EXPECT_NEAR(acc / kN, ln.mean(), ln.mean() * 0.01);
}

TEST(Lognormal, PaperDurationParameters) {
  // Table 1: Lognormal(3.85, 0.56) minutes -> ~55 min mean.
  const Lognormal ln(3.85, 0.56);
  EXPECT_NEAR(ln.mean(), 55.0, 1.0);
}

TEST(Exponential, MeanAndPositivity) {
  const Exponential e(0.15);
  EXPECT_NEAR(e.mean(), 1.0 / 0.15, 1e-12);
  util::Rng rng(9);
  for (int i = 0; i < 1000; ++i) EXPECT_GT(e.sample(rng), 0.0);
  EXPECT_THROW(Exponential(0.0), std::invalid_argument);
  EXPECT_THROW(Exponential(-1.0), std::invalid_argument);
}

TEST(Pareto, TailAndMean) {
  const Pareto p(1.0, 2.5);
  EXPECT_NEAR(p.mean(), 2.5 / 1.5, 1e-12);
  util::Rng rng(13);
  for (int i = 0; i < 1000; ++i) EXPECT_GE(p.sample(rng), 1.0);
  const Pareto heavy(1.0, 0.9);
  EXPECT_TRUE(std::isinf(heavy.mean()));
  EXPECT_THROW(Pareto(0.0, 1.0), std::invalid_argument);
  EXPECT_THROW(Pareto(1.0, 0.0), std::invalid_argument);
}

TEST(Uniform, BoundsAndMean) {
  const Uniform u(1.0, 10.0);
  EXPECT_DOUBLE_EQ(u.mean(), 5.5);
  util::Rng rng(21);
  double acc = 0;
  constexpr int kN = 100000;
  for (int i = 0; i < kN; ++i) {
    const double v = u.sample(rng);
    ASSERT_GE(v, 1.0);
    ASSERT_LT(v, 10.0);
    acc += v;
  }
  EXPECT_NEAR(acc / kN, 5.5, 0.05);
  EXPECT_THROW(Uniform(2.0, 1.0), std::invalid_argument);
}

}  // namespace
}  // namespace sc::stats
