#include "util/rng.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <random>
#include <set>
#include <sstream>

namespace sc::util {
namespace {

// Bit pattern of a double, so equality also tells -0.0 from 0.0.
std::uint64_t bits_of(double x) {
  std::uint64_t b;
  std::memcpy(&b, &x, sizeof b);
  return b;
}

TEST(Mt19937_64, MatchesStdMt19937_64) {
  const std::uint64_t seeds[] = {0, 1, 42, std::uint64_t{1} << 63,
                                 ~std::uint64_t{0},
                                 Rng(42).fork("paths").seed()};
  for (const std::uint64_t seed : seeds) {
    Mt19937_64 owned(seed);
    std::mt19937_64 reference(seed);
    // 1000 words span the state's first fill and three refills.
    for (int i = 0; i < 1000; ++i) {
      ASSERT_EQ(owned(), reference()) << "seed " << seed << ", word " << i;
    }
  }
}

TEST(Mt19937_64, CopyTakenMidBufferContinuesIdentically) {
  Mt19937_64 owned(7);
  std::mt19937_64 reference(7);
  for (int i = 0; i < 100; ++i) ASSERT_EQ(owned(), reference());
  Mt19937_64 copy = owned;
  for (int i = 0; i < 1000; ++i) {
    const std::uint64_t word = reference();
    ASSERT_EQ(owned(), word) << "word " << i;
    ASSERT_EQ(copy(), word) << "word " << i;
  }

  Rng rng(7);
  for (int i = 0; i < 100; ++i) (void)rng.uniform();
  Rng rng_copy = rng;
  for (int i = 0; i < 1000; ++i) {
    ASSERT_EQ(bits_of(rng.uniform()), bits_of(rng_copy.uniform()));
  }
}

#if defined(__GLIBCXX__)

// A bit generator that returns one scripted word, to feed chosen words to
// std::generate_canonical.
struct ScriptedBits {
  using result_type = std::uint64_t;
  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~result_type{0}; }
  result_type word;
  result_type operator()() { return word; }
};

TEST(Rng, CanonicalFromBitsMatchesGenerateCanonical) {
  constexpr std::uint64_t kMax = ~std::uint64_t{0};
  const std::uint64_t edges[] = {
      0,
      1,
      std::uint64_t{1} << 53,
      std::uint64_t{1} << 63,
      kMax - 2047,  // 2^64 - 2^11: the largest double below 2^64
      kMax - 1024,  // 2^64 - 1025: rounds down to 2^64 - 2^11
      kMax - 1023,  // 2^64 - 1024: a tie, rounded to even, i.e. to 2^64
      kMax,         // 2^64 - 1: rounds to 2^64
  };
  for (const std::uint64_t word : edges) {
    ScriptedBits bits{word};
    EXPECT_EQ(bits_of(canonical_from_bits(word)),
              bits_of(std::generate_canonical<double, 53>(bits)))
        << "word " << word;
  }
  // The last two words round to 1 and must hit the clamp; the one before
  // them reaches the largest double below 1 by rounding alone.
  const double below_one = std::nextafter(1.0, 0.0);
  EXPECT_EQ(static_cast<double>(kMax - 1024) * 0x1p-64, below_one);
  EXPECT_EQ(static_cast<double>(kMax - 1023) * 0x1p-64, 1.0);
  EXPECT_EQ(static_cast<double>(kMax) * 0x1p-64, 1.0);
  EXPECT_EQ(canonical_from_bits(kMax - 1023), below_one);
  EXPECT_EQ(canonical_from_bits(kMax), below_one);

  Mt19937_64 words(99);
  for (int i = 0; i < 1000000; ++i) {
    ScriptedBits bits{words()};
    ASSERT_EQ(bits_of(canonical_from_bits(bits.word)),
              bits_of(std::generate_canonical<double, 53>(bits)))
        << "word " << bits.word;
  }
}

TEST(Rng, DrawsMatchLibstdcxxDistributions) {
  // 10^7 draws over five seeds, the draws interleaved so each starts at
  // varied positions of the engine's buffer, with varied parameters.
  // uniform_int is libstdc++'s own code, run over the owned engine.
  constexpr int kDrawsPerSeed = 2000000;
  const std::uint64_t seeds[] = {1, 7, 42, std::uint64_t{1} << 63,
                                 ~std::uint64_t{0}};
  for (const std::uint64_t seed : seeds) {
    Rng owned(seed);
    std::mt19937_64 reference(seed);
    long mismatches = 0;
    std::ostringstream first;
    for (int i = 0; i < kDrawsPerSeed; ++i) {
      const double p = 0.25 + (i % 13);
      double got = 0.0;
      double want = 0.0;
      switch (splitmix64(static_cast<std::uint64_t>(i)) % 6) {
        case 0:
          got = owned.uniform();
          want = std::uniform_real_distribution<double>(0.0, 1.0)(reference);
          break;
        case 1:
          got = owned.uniform(-p, 3 * p);
          want = std::uniform_real_distribution<double>(-p, 3 * p)(reference);
          break;
        case 2:
          got = owned.exponential(p);
          want = std::exponential_distribution<double>(p)(reference);
          break;
        case 3:
          got = owned.normal(p, 0.5 * p);
          want = std::normal_distribution<double>(p, 0.5 * p)(reference);
          break;
        case 4: {
          const std::int64_t hi = 1000 + i % 7;
          got = static_cast<double>(owned.uniform_int(-5, hi));
          want = static_cast<double>(
              std::uniform_int_distribution<std::int64_t>(-5, hi)(reference));
          break;
        }
        default:
          got = owned.lognormal(3.85 - p, 0.56);
          want = std::lognormal_distribution<double>(3.85 - p, 0.56)(reference);
          break;
      }
      if (bits_of(got) != bits_of(want) && mismatches++ == 0) {
        first << "draw " << i << ": " << got << " != " << want;
      }
    }
    EXPECT_EQ(mismatches, 0) << "seed " << seed << ", first at " << first.str();
  }
}

#endif  // __GLIBCXX__: the reference is libstdc++'s distribution code

TEST(Rng, SameSeedSameSequence) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_DOUBLE_EQ(a.uniform(), b.uniform());
  }
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.uniform() == b.uniform()) ++equal;
  }
  EXPECT_LT(equal, 5);
}

TEST(Rng, UniformBounds) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform(-3.0, 5.0);
    EXPECT_GE(u, -3.0);
    EXPECT_LT(u, 5.0);
  }
}

TEST(Rng, UniformIntInclusive) {
  Rng rng(7);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    const auto v = rng.uniform_int(1, 6);
    EXPECT_GE(v, 1);
    EXPECT_LE(v, 6);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 6u);  // all faces observed
}

TEST(Rng, ExponentialMean) {
  Rng rng(7);
  double acc = 0;
  constexpr int kN = 200000;
  for (int i = 0; i < kN; ++i) acc += rng.exponential(2.0);
  EXPECT_NEAR(acc / kN, 0.5, 0.01);
}

TEST(Rng, ForkIsDeterministic) {
  Rng a(42), b(42);
  Rng fa = a.fork(), fb = b.fork();
  for (int i = 0; i < 50; ++i) EXPECT_DOUBLE_EQ(fa.uniform(), fb.uniform());
}

TEST(Rng, SuccessiveForksDiffer) {
  Rng a(42);
  Rng f1 = a.fork();
  Rng f2 = a.fork();
  EXPECT_NE(f1.seed(), f2.seed());
}

TEST(Rng, TaggedForkIndependentOfOrder) {
  const Rng a(42);
  Rng t1 = a.fork("paths");
  Rng t2 = a.fork("workload");
  Rng t1_again = a.fork("paths");
  EXPECT_EQ(t1.seed(), t1_again.seed());
  EXPECT_NE(t1.seed(), t2.seed());
}

TEST(Rng, ForkDoesNotPerturbParentTagged) {
  Rng a(42), b(42);
  (void)a.fork("side-stream");
  // Tagged fork is const and must not advance the parent.
  for (int i = 0; i < 10; ++i) EXPECT_DOUBLE_EQ(a.uniform(), b.uniform());
}

TEST(Hashing, Fnv1aKnownValues) {
  // FNV-1a 64-bit reference values.
  EXPECT_EQ(fnv1a64(""), 0xcbf29ce484222325ULL);
  EXPECT_EQ(fnv1a64("a"), 0xaf63dc4c8601ec8cULL);
}

TEST(Hashing, SplitmixAvalanche) {
  // Neighboring inputs should produce wildly different outputs.
  const auto a = splitmix64(1), b = splitmix64(2);
  EXPECT_NE(a, b);
  int differing_bits = __builtin_popcountll(a ^ b);
  EXPECT_GT(differing_bits, 16);
}

}  // namespace
}  // namespace sc::util
