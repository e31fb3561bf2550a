// Parametric distributions used by the workload generator and bandwidth
// models: Zipf-like (discrete, finite support), lognormal, exponential,
// Pareto, and uniform. All sample through sc::util::Rng for determinism.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "util/rng.h"

namespace sc::stats {

/// O(1) sampling from an arbitrary finite discrete distribution via the
/// alias method (Vose's stable construction). Build is O(n); every
/// sample consumes exactly one uniform draw and reads one bucket — no
/// binary search, no branch on the draw, no allocation.
class AliasTable {
 public:
  /// `weights` are unnormalized non-negative masses; at least one must
  /// be positive.
  explicit AliasTable(const std::vector<double>& weights);

  /// Sample an index in [0, size()).
  [[nodiscard]] std::size_t sample(util::Rng& rng) const {
    // One uniform split into (bucket, acceptance) parts. Every index is
    // below 2^63, so signed conversions give the unsigned values without
    // the compiler's branch on the top bit.
    const auto n = static_cast<std::int64_t>(buckets_.size());
    const double scaled = rng.uniform() * static_cast<double>(n);
    const std::int64_t bucket =
        std::min(static_cast<std::int64_t>(scaled), n - 1);  // u ~ 1 edge
    const double frac = scaled - static_cast<double>(bucket);
    const Bucket& b = buckets_[static_cast<std::size_t>(bucket)];
    // All ones keeps the bucket, zero takes its alias.
    const std::uint64_t keep =
        std::uint64_t{0} - static_cast<std::uint64_t>(frac < b.prob);
    return (static_cast<std::uint64_t>(bucket) & keep) | (b.alias & ~keep);
  }

  [[nodiscard]] std::size_t size() const noexcept { return buckets_.size(); }

 private:
  struct Bucket {
    double prob;          // acceptance threshold
    std::uint64_t alias;  // overflow target
  };
  std::vector<Bucket> buckets_;
};

/// Zipf-like popularity over ranks 1..N: P(rank r) ∝ r^-alpha.
///
/// This is the popularity model of the paper (§3.2): "the relative
/// popularity of an object is proportional to r^-alpha", default
/// alpha = 0.73. sample() is O(1) via a precomputed alias table;
/// sample_cdf() keeps the original O(log N) inverse-CDF backend for
/// paired-distribution tests. Both consume exactly one uniform draw per
/// sample, so downstream draws stay aligned across backends; the *rank*
/// produced for a given draw differs (the alias method is not an
/// inversion), which changed generated traces once when the alias
/// backend became the default — see docs/PERF.md.
class ZipfLike {
 public:
  ZipfLike(std::size_t n, double alpha);

  /// Sample a rank in [1, n] in O(1).
  [[nodiscard]] std::size_t sample(util::Rng& rng) const {
    return alias_.sample(rng) + 1;
  }

  /// Original inverse-CDF sampling (O(log n) binary search). Same
  /// distribution as sample(); kept as the reference backend.
  [[nodiscard]] std::size_t sample_cdf(util::Rng& rng) const;

  /// Probability of the given rank (1-based).
  [[nodiscard]] double pmf(std::size_t rank) const;

  [[nodiscard]] std::size_t n() const noexcept { return n_; }
  [[nodiscard]] double alpha() const noexcept { return alpha_; }

 private:
  std::size_t n_;
  double alpha_;
  std::vector<double> cdf_;  // cdf_[r-1] = P(rank <= r)
  AliasTable alias_;
};

/// Lognormal distribution: exp(N(mu, sigma^2)).
///
/// The paper draws object durations (in minutes) from Lognormal(3.85, 0.56).
class Lognormal {
 public:
  Lognormal(double mu, double sigma);

  [[nodiscard]] double sample(util::Rng& rng) const;

  /// Analytic mean: exp(mu + sigma^2 / 2).
  [[nodiscard]] double mean() const;

  /// Analytic variance.
  [[nodiscard]] double variance() const;

  [[nodiscard]] double mu() const noexcept { return mu_; }
  [[nodiscard]] double sigma() const noexcept { return sigma_; }

 private:
  double mu_;
  double sigma_;
};

/// Exponential inter-arrival times (Poisson request arrivals, §3.2).
class Exponential {
 public:
  explicit Exponential(double rate);

  [[nodiscard]] double sample(util::Rng& rng) const {
    return rng.exponential(rate_);
  }
  [[nodiscard]] double rate() const noexcept { return rate_; }
  [[nodiscard]] double mean() const noexcept { return 1.0 / rate_; }

 private:
  double rate_;
};

/// Pareto distribution with scale x_m and shape a (heavy-tailed sizes;
/// used in sensitivity experiments beyond the paper's base workload).
class Pareto {
 public:
  Pareto(double scale, double shape);

  [[nodiscard]] double sample(util::Rng& rng) const;
  [[nodiscard]] double mean() const;  // infinite if shape <= 1
  [[nodiscard]] double scale() const noexcept { return scale_; }
  [[nodiscard]] double shape() const noexcept { return shape_; }

 private:
  double scale_;
  double shape_;
};

/// Continuous uniform on [lo, hi] (object values V_i ~ U[$1, $10], §4.4).
class Uniform {
 public:
  Uniform(double lo, double hi);

  [[nodiscard]] double sample(util::Rng& rng) const;
  [[nodiscard]] double lo() const noexcept { return lo_; }
  [[nodiscard]] double hi() const noexcept { return hi_; }
  [[nodiscard]] double mean() const noexcept { return 0.5 * (lo_ + hi_); }

 private:
  double lo_;
  double hi_;
};

}  // namespace sc::stats
