#include "stats/empirical.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace sc::stats {

EmpiricalDistribution::EmpiricalDistribution(std::vector<EmpiricalBin> bins)
    : bins_(std::move(bins)) {
  if (bins_.empty()) {
    throw std::invalid_argument("EmpiricalDistribution: no bins");
  }
  double total = 0.0;
  for (std::size_t i = 0; i < bins_.size(); ++i) {
    const auto& b = bins_[i];
    if (!(b.hi > b.lo)) {
      throw std::invalid_argument("EmpiricalDistribution: empty bin range");
    }
    if (b.weight < 0) {
      throw std::invalid_argument("EmpiricalDistribution: negative weight");
    }
    if (i > 0 && b.lo < bins_[i - 1].hi) {
      throw std::invalid_argument(
          "EmpiricalDistribution: bins overlap or unsorted");
    }
    total += b.weight;
  }
  if (total <= 0) {
    throw std::invalid_argument("EmpiricalDistribution: zero total weight");
  }
  total_weight_ = total;
  cum_.resize(bins_.size());
  double acc = 0.0;
  for (std::size_t i = 0; i < bins_.size(); ++i) {
    acc += bins_[i].weight / total;
    cum_[i] = acc;
  }
  cum_.back() = 1.0;
}

EmpiricalDistribution EmpiricalDistribution::from_histogram(
    const Histogram& h) {
  std::vector<EmpiricalBin> bins;
  bins.reserve(h.bins());
  for (std::size_t i = 0; i < h.bins(); ++i) {
    if (h.count(i) <= 0) continue;
    // Use edge(i + 1) (not edge(i) + width) so adjacent bins share the
    // exact same boundary value despite floating-point rounding.
    bins.push_back({h.edge(i), h.edge(i + 1), h.count(i)});
  }
  if (bins.empty()) {
    throw std::invalid_argument("from_histogram: histogram is empty");
  }
  return EmpiricalDistribution(std::move(bins));
}

double EmpiricalDistribution::quantile(double u) const {
  u = std::clamp(u, 0.0, 1.0);
  // cum_ rises and ends at 1.0 >= u, so its entries below u come first
  // and their count is lower_bound's index; counting finds it without
  // the search's unpredictable branches.
  std::size_t i = 0;
  for (const double c : cum_) i += c < u;
  const auto& b = bins_[std::min(i, bins_.size() - 1)];
  const double clo = i > 0 ? cum_[i - 1] : 0.0;
  const double chi = cum_[std::min(i, cum_.size() - 1)];
  const double frac = chi > clo ? (u - clo) / (chi - clo) : 0.0;
  return b.lo + frac * (b.hi - b.lo);
}

double EmpiricalDistribution::sample(util::Rng& rng) const {
  return quantile(rng.uniform());
}

double EmpiricalDistribution::cdf(double x) const {
  if (x <= bins_.front().lo) return 0.0;
  if (x >= bins_.back().hi) return 1.0;
  double acc = 0.0;
  for (const auto& b : bins_) {
    if (x >= b.hi) {
      acc += b.weight;
    } else if (x > b.lo) {
      acc += b.weight * (x - b.lo) / (b.hi - b.lo);
      break;
    } else {
      break;
    }
  }
  return acc / total_weight_;
}

double EmpiricalDistribution::mean() const {
  double acc = 0.0;
  for (const auto& b : bins_) acc += b.weight * 0.5 * (b.lo + b.hi);
  return acc / total_weight_;
}

double EmpiricalDistribution::cov() const {
  const double m = mean();
  if (m == 0.0) return 0.0;
  // E[X^2] for a uniform piece on [lo,hi] is (lo^2 + lo*hi + hi^2)/3.
  double ex2 = 0.0;
  for (const auto& b : bins_) {
    ex2 += b.weight * (b.lo * b.lo + b.lo * b.hi + b.hi * b.hi) / 3.0;
  }
  ex2 /= total_weight_;
  const double var = std::max(0.0, ex2 - m * m);
  return std::sqrt(var) / m;
}

EmpiricalDistribution EmpiricalDistribution::scaled(double factor) const {
  if (factor <= 0) throw std::invalid_argument("scaled: factor must be > 0");
  std::vector<EmpiricalBin> bins;
  bins.reserve(bins_.size());
  for (const auto& b : bins_) {
    bins.push_back({b.lo * factor, b.hi * factor, b.weight});
  }
  return EmpiricalDistribution(std::move(bins));
}

}  // namespace sc::stats
