#include "stats/distributions.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace sc::stats {

AliasTable::AliasTable(const std::vector<double>& weights) {
  const std::size_t n = weights.size();
  if (n == 0) throw std::invalid_argument("AliasTable: empty weights");
  double total = 0.0;
  for (const double w : weights) {
    if (w < 0 || !std::isfinite(w)) {
      throw std::invalid_argument("AliasTable: weights must be finite, >= 0");
    }
    total += w;
  }
  if (total <= 0) throw std::invalid_argument("AliasTable: zero total mass");

  // Vose's method: scale masses to mean 1, then pair each under-full
  // bucket with an over-full donor. A bucket's prob holds its scaled
  // mass until it is paired, when that mass becomes its threshold.
  buckets_.resize(n);
  std::vector<std::size_t> small, large;
  small.reserve(n);
  large.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    buckets_[i] = {weights[i] * static_cast<double>(n) / total, i};
    (buckets_[i].prob < 1.0 ? small : large).push_back(i);
  }
  while (!small.empty() && !large.empty()) {
    const std::size_t s = small.back();
    const std::size_t l = large.back();
    small.pop_back();
    buckets_[s].alias = l;
    buckets_[l].prob -= 1.0 - buckets_[s].prob;
    if (buckets_[l].prob < 1.0) {
      large.pop_back();
      small.push_back(l);
    }
  }
  // Leftovers (rounding) get prob 1.0: they never divert to an alias.
  for (const std::size_t i : small) buckets_[i].prob = 1.0;
  for (const std::size_t i : large) buckets_[i].prob = 1.0;
}

namespace {

std::vector<double> zipf_weights(std::size_t n, double alpha) {
  if (n == 0) throw std::invalid_argument("ZipfLike: n must be positive");
  if (alpha < 0) throw std::invalid_argument("ZipfLike: alpha must be >= 0");
  std::vector<double> w(n);
  for (std::size_t r = 1; r <= n; ++r) {
    w[r - 1] = std::pow(static_cast<double>(r), -alpha);
  }
  return w;
}

}  // namespace

ZipfLike::ZipfLike(std::size_t n, double alpha)
    : n_(n), alpha_(alpha), cdf_(zipf_weights(n, alpha)), alias_(cdf_) {
  // cdf_ holds the weights the alias table was built from; accumulate
  // them in place.
  double sum = 0.0;
  for (auto& v : cdf_) {
    sum += v;
    v = sum;
  }
  for (auto& v : cdf_) v /= sum;
  cdf_.back() = 1.0;  // guard against rounding
}

std::size_t ZipfLike::sample_cdf(util::Rng& rng) const {
  const double u = rng.uniform();
  const auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
  return static_cast<std::size_t>(it - cdf_.begin()) + 1;
}

double ZipfLike::pmf(std::size_t rank) const {
  if (rank == 0 || rank > n_) throw std::out_of_range("ZipfLike::pmf: rank");
  const double p = cdf_[rank - 1];
  const double prev = rank >= 2 ? cdf_[rank - 2] : 0.0;
  return p - prev;
}

Lognormal::Lognormal(double mu, double sigma) : mu_(mu), sigma_(sigma) {
  if (sigma < 0) throw std::invalid_argument("Lognormal: sigma must be >= 0");
}

double Lognormal::sample(util::Rng& rng) const {
  return rng.lognormal(mu_, sigma_);
}

double Lognormal::mean() const { return std::exp(mu_ + sigma_ * sigma_ / 2); }

double Lognormal::variance() const {
  const double s2 = sigma_ * sigma_;
  return (std::exp(s2) - 1.0) * std::exp(2 * mu_ + s2);
}

Exponential::Exponential(double rate) : rate_(rate) {
  if (rate <= 0) throw std::invalid_argument("Exponential: rate must be > 0");
}

Pareto::Pareto(double scale, double shape) : scale_(scale), shape_(shape) {
  if (scale <= 0 || shape <= 0) {
    throw std::invalid_argument("Pareto: scale and shape must be > 0");
  }
}

double Pareto::sample(util::Rng& rng) const {
  // Inverse transform: x = x_m / U^{1/a}.
  double u = rng.uniform();
  if (u <= 0.0) u = 1e-300;
  return scale_ / std::pow(u, 1.0 / shape_);
}

double Pareto::mean() const {
  if (shape_ <= 1.0) return std::numeric_limits<double>::infinity();
  return shape_ * scale_ / (shape_ - 1.0);
}

Uniform::Uniform(double lo, double hi) : lo_(lo), hi_(hi) {
  if (hi < lo) throw std::invalid_argument("Uniform: hi < lo");
}

double Uniform::sample(util::Rng& rng) const { return rng.uniform(lo_, hi_); }

}  // namespace sc::stats
