#include "cache/policy.h"

#include <gtest/gtest.h>

#include <memory>

#include <cctype>

#include "core/registry.h"
#include "net/estimator.h"
#include "workload/object_catalog.h"

namespace sc::cache {
namespace {

using workload::StreamObject;

/// Estimator with explicitly controllable per-path values.
class FakeEstimator final : public net::BandwidthEstimator {
 public:
  explicit FakeEstimator(std::vector<double> values)
      : values_(std::move(values)) {}
  void observe(net::PathId, double, double) override {}
  double estimate(net::PathId path, double) override {
    return values_.at(path);
  }
  void set(net::PathId path, double v) { values_.at(path) = v; }

 private:
  std::vector<double> values_;
};

/// Hand-built catalog: every object 100 s long at 10 bytes/s = 1000 bytes.
workload::Catalog make_catalog(std::size_t n, double duration_s = 100.0,
                               double bitrate = 10.0) {
  std::vector<StreamObject> objects;
  for (std::size_t i = 0; i < n; ++i) {
    StreamObject o;
    o.id = i;
    o.duration_s = duration_s;
    o.bitrate = bitrate;
    o.size_bytes = duration_s * bitrate;
    o.value = 1.0 + static_cast<double>(i);
    o.path = i;
    objects.push_back(o);
  }
  return workload::Catalog::from_objects(std::move(objects));
}

TEST(PbPolicy, SkipsObjectsWithAbundantBandwidth) {
  const auto catalog = make_catalog(2);
  FakeEstimator est({20.0, 4.0});  // object 0: b > r; object 1: b < r
  PbPolicy policy(catalog, est);
  PartialStore store(10000.0);

  policy.on_access(0, 0.0, store);
  EXPECT_FALSE(store.contains(0));  // r=10 <= b=20: never cached

  policy.on_access(1, 1.0, store);
  // Cached exactly (r - b) * T = (10 - 4) * 100 = 600 bytes.
  EXPECT_DOUBLE_EQ(store.cached(1), 600.0);
}

TEST(PbPolicy, DropsObjectWhenBandwidthRecovers) {
  const auto catalog = make_catalog(1);
  FakeEstimator est({4.0});
  PbPolicy policy(catalog, est);
  PartialStore store(10000.0);

  policy.on_access(0, 0.0, store);
  EXPECT_DOUBLE_EQ(store.cached(0), 600.0);
  est.set(0, 50.0);  // path improved past the bit-rate
  policy.on_access(0, 1.0, store);
  EXPECT_FALSE(store.contains(0));
}

TEST(PbPolicy, ShrinksWhenEstimateRises) {
  const auto catalog = make_catalog(1);
  FakeEstimator est({4.0});
  PbPolicy policy(catalog, est);
  PartialStore store(10000.0);

  policy.on_access(0, 0.0, store);
  EXPECT_DOUBLE_EQ(store.cached(0), 600.0);
  est.set(0, 8.0);  // still needy but less so: want (10-8)*100 = 200
  policy.on_access(0, 1.0, store);
  EXPECT_DOUBLE_EQ(store.cached(0), 200.0);
}

TEST(PbPolicy, GrowsWhenEstimateFalls) {
  const auto catalog = make_catalog(1);
  FakeEstimator est({8.0});
  PbPolicy policy(catalog, est);
  PartialStore store(10000.0);

  policy.on_access(0, 0.0, store);
  EXPECT_DOUBLE_EQ(store.cached(0), 200.0);
  est.set(0, 2.0);  // want (10-2)*100 = 800
  policy.on_access(0, 1.0, store);
  EXPECT_DOUBLE_EQ(store.cached(0), 800.0);
}

TEST(PbPolicy, EvictsOnlyStrictlyLowerUtility) {
  const auto catalog = make_catalog(2);
  FakeEstimator est({4.0, 4.0});
  PbPolicy policy(catalog, est);
  // Room for exactly one 600-byte prefix.
  PartialStore store(600.0);

  policy.on_access(0, 0.0, store);
  EXPECT_DOUBLE_EQ(store.cached(0), 600.0);
  // Object 1, same utility (F=1, same b): must NOT displace object 0.
  policy.on_access(1, 1.0, store);
  EXPECT_DOUBLE_EQ(store.cached(0), 600.0);
  EXPECT_FALSE(store.contains(1));
  // Second access to object 1 doubles its frequency: now it wins.
  policy.on_access(1, 2.0, store);
  EXPECT_FALSE(store.contains(0));
  EXPECT_DOUBLE_EQ(store.cached(1), 600.0);
}

TEST(PbPolicy, PartialTrimOfVictim) {
  const auto catalog = make_catalog(2);
  FakeEstimator est({4.0, 5.0});  // object 1 wants (10-5)*100 = 500
  PbPolicy policy(catalog, est);
  PartialStore store(900.0);

  policy.on_access(0, 0.0, store);  // takes 600
  policy.on_access(1, 1.0, store);  // F=1 each: utility 1/5 < 1/4, no evict
  EXPECT_DOUBLE_EQ(store.cached(1), 300.0);  // gets only the free 300
  policy.on_access(1, 2.0, store);           // now F=2: utility 2/5 > 1/4
  // Object 1 grows to its full 500 by trimming 200 off object 0.
  EXPECT_DOUBLE_EQ(store.cached(1), 500.0);
  EXPECT_DOUBLE_EQ(store.cached(0), 400.0);
  EXPECT_LE(store.used(), store.capacity());
}

TEST(IbPolicy, CachesWholeObjectsOnly) {
  const auto catalog = make_catalog(2);
  FakeEstimator est({4.0, 4.0});
  IbPolicy policy(catalog, est);
  PartialStore store(1500.0);  // room for one whole (1000) + half

  policy.on_access(0, 0.0, store);
  EXPECT_DOUBLE_EQ(store.cached(0), 1000.0);
  policy.on_access(1, 1.0, store);  // would need 1000, only 500 free
  EXPECT_FALSE(store.contains(1));  // all-or-nothing
}

TEST(IbPolicy, SkipsAbundantBandwidth) {
  const auto catalog = make_catalog(1);
  FakeEstimator est({10.0});  // b == r: not needy
  IbPolicy policy(catalog, est);
  PartialStore store(10000.0);
  policy.on_access(0, 0.0, store);
  EXPECT_FALSE(store.contains(0));
}

TEST(IfPolicy, CachesByFrequencyIgnoringBandwidth) {
  const auto catalog = make_catalog(2);
  FakeEstimator est({1000.0, 1.0});  // object 0 has abundant bandwidth
  IfPolicy policy(catalog, est);
  PartialStore store(1000.0);  // room for exactly one object

  policy.on_access(0, 0.0, store);  // cached despite abundant bandwidth
  EXPECT_DOUBLE_EQ(store.cached(0), 1000.0);
  policy.on_access(1, 1.0, store);  // same frequency: no displacement
  EXPECT_TRUE(store.contains(0));
  policy.on_access(1, 2.0, store);
  policy.on_access(1, 3.0, store);  // F(1)=3 > F(0)=1: displaced
  EXPECT_FALSE(store.contains(0));
  EXPECT_DOUBLE_EQ(store.cached(1), 1000.0);
}

TEST(HybridPolicy, EndpointsMatchPbAndWholeObject) {
  const auto catalog = make_catalog(1);
  FakeEstimator est({4.0});
  PartialStore store_a(10000.0), store_b(10000.0), store_c(10000.0);

  HybridPolicy e1(catalog, est, 1.0);
  e1.on_access(0, 0.0, store_a);
  EXPECT_DOUBLE_EQ(store_a.cached(0), 600.0);  // == PB

  HybridPolicy e0(catalog, est, 0.0);
  e0.on_access(0, 0.0, store_b);
  EXPECT_DOUBLE_EQ(store_b.cached(0), 1000.0);  // whole object (IB-like)

  HybridPolicy e05(catalog, est, 0.5);
  e05.on_access(0, 0.0, store_c);
  // (r - 0.5 b) T = (10 - 2) * 100 = 800.
  EXPECT_DOUBLE_EQ(store_c.cached(0), 800.0);
}

TEST(HybridPolicy, RejectsOutOfRangeE) {
  const auto catalog = make_catalog(1);
  FakeEstimator est({4.0});
  EXPECT_THROW(HybridPolicy(catalog, est, -0.1), std::invalid_argument);
  EXPECT_THROW(HybridPolicy(catalog, est, 1.1), std::invalid_argument);
  EXPECT_THROW(PbvPolicy(catalog, est, 2.0), std::invalid_argument);
}

TEST(PbvPolicy, PrefersHighValuePerDeficitByte) {
  auto catalog = make_catalog(2);
  FakeEstimator est({4.0, 4.0});
  // Identical deficits; object 1 has value 2.0 vs object 0's 1.0.
  PbvPolicy policy(catalog, est);
  PartialStore store(600.0);  // room for one prefix

  policy.on_access(0, 0.0, store);
  EXPECT_DOUBLE_EQ(store.cached(0), 600.0);
  policy.on_access(1, 1.0, store);  // same F, double value: displaces
  EXPECT_FALSE(store.contains(0));
  EXPECT_DOUBLE_EQ(store.cached(1), 600.0);
}

TEST(IbvPolicy, WholeObjectValueAware) {
  const auto catalog = make_catalog(2);
  FakeEstimator est({4.0, 4.0});
  IbvPolicy policy(catalog, est);
  PartialStore store(1000.0);

  policy.on_access(0, 0.0, store);
  EXPECT_DOUBLE_EQ(store.cached(0), 1000.0);
  policy.on_access(1, 1.0, store);  // value 2 vs 1: displaces whole object
  EXPECT_FALSE(store.contains(0));
  EXPECT_DOUBLE_EQ(store.cached(1), 1000.0);
}

TEST(LruPolicy, EvictsLeastRecentlyUsed) {
  const auto catalog = make_catalog(3);
  FakeEstimator est({4.0, 4.0, 4.0});
  LruPolicy policy(catalog, est);
  PartialStore store(2000.0);  // room for two whole objects

  policy.on_access(0, 0.0, store);
  policy.on_access(1, 1.0, store);
  policy.on_access(0, 2.0, store);  // refresh 0: now 1 is LRU
  policy.on_access(2, 3.0, store);
  EXPECT_TRUE(store.contains(0));
  EXPECT_FALSE(store.contains(1));
  EXPECT_TRUE(store.contains(2));
}

TEST(LfuPolicy, IsIfUnderItsOwnName) {
  const auto catalog = make_catalog(2);
  FakeEstimator est({1.0, 1.0});
  const auto policy = core::registry::make_policy("lfu", catalog, est);
  EXPECT_NE(dynamic_cast<IfPolicy*>(policy.get()), nullptr);
  EXPECT_EQ(policy->name(), "LFU");
  PartialStore store(1000.0);
  policy->on_access(0, 0.0, store);
  policy->on_access(0, 1.0, store);
  policy->on_access(1, 2.0, store);  // F=1 < F=2: no displacement
  EXPECT_TRUE(store.contains(0));
  EXPECT_FALSE(store.contains(1));
}

TEST(UtilityPolicy, ResetClearsLearnedState) {
  const auto catalog = make_catalog(1);
  FakeEstimator est({4.0});
  PbPolicy policy(catalog, est);
  PartialStore store(10000.0);
  policy.on_access(0, 0.0, store);
  EXPECT_DOUBLE_EQ(policy.frequency(0), 1.0);
  policy.reset();
  store.clear();
  EXPECT_DOUBLE_EQ(policy.frequency(0), 0.0);
  policy.on_access(0, 1.0, store);  // works again from scratch
  EXPECT_DOUBLE_EQ(store.cached(0), 600.0);
}

/// Property sweep: under random access patterns and volatile bandwidth
/// estimates, every policy (constructed by registry spec string) keeps
/// (1) occupancy within capacity, and (2) only prefixes of real objects
/// cached.
class PolicyInvariants : public ::testing::TestWithParam<const char*> {};

TEST_P(PolicyInvariants, CapacityAndPrefixBoundsHold) {
  const std::string spec = GetParam();
  util::Rng rng(util::fnv1a64(spec));

  // Heterogeneous catalog: durations 10..400 s.
  std::vector<StreamObject> objects;
  constexpr std::size_t kN = 60;
  for (std::size_t i = 0; i < kN; ++i) {
    StreamObject o;
    o.id = i;
    o.duration_s = rng.uniform(10.0, 400.0);
    o.bitrate = 10.0;
    o.size_bytes = o.duration_s * o.bitrate;
    o.value = rng.uniform(1.0, 10.0);
    o.path = i;
    objects.push_back(o);
  }
  const auto catalog = workload::Catalog::from_objects(std::move(objects));

  std::vector<double> bw(kN);
  for (auto& b : bw) b = rng.uniform(2.0, 20.0);
  FakeEstimator est(bw);

  auto policy = core::registry::make_policy(spec, catalog, est);
  PartialStore store(3000.0);

  for (int step = 0; step < 5000; ++step) {
    const auto id = static_cast<ObjectId>(rng.uniform_int(0, kN - 1));
    if (step % 7 == 0) {
      // Perturb this object's bandwidth estimate (variability).
      est.set(id, rng.uniform(2.0, 20.0));
    }
    policy->on_access(id, static_cast<double>(step), store);

    ASSERT_LE(store.used(), store.capacity() + 1.0);
    double sum = 0.0;
    for (const auto& [oid, bytes] : store.contents()) {
      ASSERT_GT(bytes, 0.0);
      ASSERT_LE(bytes, catalog.object(oid).size_bytes + 1.0);
      sum += bytes;
    }
    ASSERT_NEAR(sum, store.used(), 1.0);
  }
}

std::string invariant_case_name(
    const ::testing::TestParamInfo<const char*>& info) {
  std::string name = info.param;
  for (char& c : name) {
    if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
  }
  return name;
}

INSTANTIATE_TEST_SUITE_P(AllPolicies, PolicyInvariants,
                         ::testing::Values("if", "pb", "ib", "hybrid:e=0",
                                           "hybrid:e=0.3", "hybrid:e=0.7",
                                           "pbv", "pbv:e=0.5", "ibv", "lru",
                                           "lfu"),
                         invariant_case_name);

}  // namespace
}  // namespace sc::cache
