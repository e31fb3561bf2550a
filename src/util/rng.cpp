#include "util/rng.h"

namespace sc::util {

void Mt19937_64::refill() noexcept {
  constexpr result_type kMatrixA = 0xb5026f5aa96619e9ULL;
  constexpr result_type kUpperMask = ~result_type{0} << 31;
  // The twist of word k from its upper bits, the next word's lower bits
  // and the word kM ahead: (0 - low bit) is all ones or zero, so the
  // matrix is xor-ed in without a branch.
  const auto twist = [](result_type word, result_type next,
                        result_type ahead) noexcept {
    const result_type y = (word & kUpperMask) | (next & ~kUpperMask);
    return ahead ^ (y >> 1) ^ ((result_type{0} - (y & 1)) & kMatrixA);
  };
  for (std::size_t k = 0; k < kN - kM; ++k) {
    x_[k] = twist(x_[k], x_[k + 1], x_[k + kM]);
  }
  for (std::size_t k = kN - kM; k < kN - 1; ++k) {
    x_[k] = twist(x_[k], x_[k + 1], x_[k + kM - kN]);
  }
  x_[kN - 1] = twist(x_[kN - 1], x_[0], x_[kM - 1]);
  p_ = 0;
}

double Rng::polar() {
  for (;;) {
    const double x = 2.0 * uniform() - 1.0;
    const double y = 2.0 * uniform() - 1.0;
    const double r2 = x * x + y * y;
    if (r2 <= 1.0 && r2 != 0.0) return y * std::sqrt(-2 * std::log(r2) / r2);
  }
}

std::uint64_t fnv1a64(std::string_view s) noexcept {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (unsigned char c : s) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  return h;
}

std::uint64_t splitmix64(std::uint64_t x) noexcept {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

Rng Rng::fork() {
  ++fork_counter_;
  return Rng(splitmix64(seed_ ^ splitmix64(fork_counter_)));
}

Rng Rng::fork(std::string_view tag) const {
  return Rng(splitmix64(seed_ ^ fnv1a64(tag)));
}

}  // namespace sc::util
