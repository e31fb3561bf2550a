// Deterministic random-number utilities.
//
// All stochastic components of the library draw from an explicitly seeded
// Rng so that every experiment is reproducible run-to-run. `Rng::fork`
// derives statistically independent child streams (for e.g. per-run or
// per-path generators) without the children sharing state with the parent.
//
// The engine and every draw but uniform_int are this file's code, written
// to return exactly the doubles std::mt19937_64 and libstdc++ 12's
// distributions return, with the same expression order (docs/PERF.md,
// "Owned random draws").
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <random>
#include <string_view>

namespace sc::util {

/// 64-bit Mersenne Twister: std::mt19937_64's seeding, recurrence and
/// tempering, so it yields the same words. The refill applies the twist
/// matrix through a mask instead of a branch on each word's low bit.
/// Meets the standard's uniform random bit generator requirements.
class Mt19937_64 {
 public:
  using result_type = std::uint64_t;

  explicit Mt19937_64(result_type seed) noexcept {
    x_[0] = seed;
    for (std::size_t i = 1; i < kN; ++i) {
      x_[i] = (x_[i - 1] ^ (x_[i - 1] >> 62)) * 6364136223846793005ULL + i;
    }
  }

  static constexpr result_type min() noexcept { return 0; }
  static constexpr result_type max() noexcept { return ~result_type{0}; }

  result_type operator()() noexcept {
    if (p_ >= kN) refill();
    result_type z = x_[p_++];
    z ^= (z >> 29) & 0x5555555555555555ULL;
    z ^= (z << 17) & 0x71d67fffeda60000ULL;
    z ^= (z << 37) & 0xfff7eee000000000ULL;
    z ^= z >> 43;
    return z;
  }

 private:
  static constexpr std::size_t kN = 312;
  static constexpr std::size_t kM = 156;

  void refill() noexcept;

  result_type x_[kN];
  std::size_t p_ = kN;
};

/// std::generate_canonical<double, 53> over a 64-bit engine: the double
/// nearest `bits` * 2^-64, or the largest double below 1 when that rounds
/// up to 1. Each 32-bit half converts and scales exactly, so the sum
/// rounds once, to round(bits) * 2^-64, without the branch on the top
/// bit that the compiler emits for a 64-bit unsigned conversion.
[[nodiscard]] inline double canonical_from_bits(std::uint64_t bits) noexcept {
  const double hi = static_cast<double>(static_cast<std::uint32_t>(bits >> 32));
  const double lo = static_cast<double>(static_cast<std::uint32_t>(bits));
  return std::min((hi * 0x1p32 + lo) * 0x1p-64, 0x1.fffffffffffffp-1);
}

/// Seeded generator with convenience draws and deterministic stream
/// forking.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : engine_(seed), seed_(seed) {}

  /// Seed used to construct this stream.
  [[nodiscard]] std::uint64_t seed() const noexcept { return seed_; }

  /// Uniform double in [0, 1).
  [[nodiscard]] double uniform() { return canonical_from_bits(engine_()); }

  /// Uniform double in [lo, hi).
  [[nodiscard]] double uniform(double lo, double hi) {
    return uniform() * (hi - lo) + lo;
  }

  /// Uniform integer in [lo, hi] (inclusive).
  [[nodiscard]] std::int64_t uniform_int(std::int64_t lo, std::int64_t hi) {
    return std::uniform_int_distribution<std::int64_t>(lo, hi)(engine_);
  }

  /// Exponential with the given rate (mean 1/rate).
  [[nodiscard]] double exponential(double rate) {
    return -std::log(1.0 - uniform()) / rate;
  }

  /// Normal with the given mean and standard deviation.
  [[nodiscard]] double normal(double mean, double stddev) {
    return polar() * stddev + mean;
  }

  /// Lognormal: exp(N(mu, sigma^2)), over a N(0, 1) draw as
  /// std::lognormal_distribution takes it.
  [[nodiscard]] double lognormal(double mu, double sigma) {
    return std::exp(sigma * (polar() * 1.0 + 0.0) + mu);
  }

  /// Derive an independent child stream. Children created with distinct
  /// tags (or successive calls) have distinct, reproducible seeds.
  [[nodiscard]] Rng fork();

  /// Derive an independent child stream keyed by a string tag, so the
  /// child's sequence does not depend on fork ordering.
  [[nodiscard]] Rng fork(std::string_view tag) const;

 private:
  /// One standard normal value by the Marsaglia polar method, as
  /// std::normal_distribution computes it; the pair's spare value is
  /// dropped, as a distribution built per call drops it.
  [[nodiscard]] double polar();

  Mt19937_64 engine_;
  std::uint64_t seed_;
  std::uint64_t fork_counter_ = 0;
};

/// Stable 64-bit FNV-1a hash (used for tag-keyed stream derivation).
[[nodiscard]] std::uint64_t fnv1a64(std::string_view s) noexcept;

/// SplitMix64 finalizer; good avalanche for seed derivation.
[[nodiscard]] std::uint64_t splitmix64(std::uint64_t x) noexcept;

}  // namespace sc::util
