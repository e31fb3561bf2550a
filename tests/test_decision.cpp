// DecisionKernel in isolation, driven by an arbitrary caller-owned
// clock — the contract the proxy daemon relies on (sim/run_loop.h's use
// is pinned separately by the golden-CSV harness).
#include "sim/decision.h"

#include <gtest/gtest.h>

#include <memory>
#include <type_traits>
#include <vector>

#include "core/registry.h"
#include "net/estimator.h"
#include "net/path_process.h"
#include "sim/event_queue.h"
#include "util/rng.h"
#include "workload/object_catalog.h"

namespace sc::sim {
namespace {

std::shared_ptr<const net::PathModel> constant_paths(std::size_t n) {
  const core::Scenario s = core::registry::make_scenario("constant");
  net::PathModelConfig config;
  config.mode = s.mode;
  util::Rng rng(7);
  return std::make_shared<const net::PathModel>(n, s.base, s.ratio, config,
                                                rng.fork("paths"));
}

TEST(ObservationTraits, KernelTypesAreStaticallyClassified) {
  // Oracle and probe kernels prove at compile time that completion
  // observations are discarded; passive kernels consume them.
  static_assert(ObservationTraits<net::OracleKernel>::kStaticallyDiscards);
  static_assert(ObservationTraits<net::ProbeKernel>::kStaticallyDiscards);
  static_assert(!ObservationTraits<net::EwmaKernel>::kStaticallyDiscards);
}

/// A wrapper that re-exports only kUsesObservations, as a timing
/// adapter around a kernel does.
template <typename Kernel>
struct ReexportsUsesOnly {
  static constexpr bool kUsesObservations = Kernel::kUsesObservations;
};

TEST(ObservationTraits, OnlyPathLocalKernelsDeferIntoPerPathLists) {
  static_assert(ObservationTraits<net::EwmaKernel>::kPathLocal);
  static_assert(!ObservationTraits<net::OracleKernel>::kPathLocal);
  static_assert(!ObservationTraits<net::ProbeKernel>::kPathLocal);
  static_assert(!ObservationTraits<net::BandwidthEstimator>::kPathLocal);
  static_assert(
      !ObservationTraits<ReexportsUsesOnly<net::EwmaKernel>>::kPathLocal);
  static_assert(!ObservationTraits<
                ReexportsUsesOnly<net::EwmaKernel>>::kStaticallyDiscards);
  static_assert(std::is_same_v<ObservationStore<net::EwmaKernel>,
                               PathObservationLists>);
  static_assert(std::is_same_v<ObservationStore<net::BandwidthEstimator>,
                               ObservationQueue>);
  static_assert(
      std::is_same_v<ObservationStore<ReexportsUsesOnly<net::EwmaKernel>>,
                     ObservationQueue>);
}

TEST(ObservationTraits, VirtualInterfaceIsRuntimeQueried) {
  // Behind the virtual boundary nothing is provable statically: the
  // primary template must fall back to uses_observations().
  static_assert(
      !ObservationTraits<net::BandwidthEstimator>::kStaticallyDiscards);
  const auto model = constant_paths(4);
  net::OracleEstimator oracle(*model);
  net::PassiveEwmaEstimator ewma(4, 0.3, 1e5);
  net::BandwidthEstimator& as_oracle = oracle;
  net::BandwidthEstimator& as_ewma = ewma;
  EXPECT_FALSE(ObservationTraits<net::BandwidthEstimator>::uses(as_oracle));
  EXPECT_TRUE(ObservationTraits<net::BandwidthEstimator>::uses(as_ewma));
}

TEST(DecisionKernel, RecordTransferCompilesOutForOracleKernels) {
  const auto model = constant_paths(2);
  net::OracleKernel oracle(*model);
  cache::PartialStore store(1e9);
  ObservationQueue events;
  // Policy type is irrelevant here; reuse the estimator as a stand-in
  // template parameter is not possible, so use the virtual policy from
  // the registry with a small catalog.
  workload::CatalogConfig cat_cfg;
  cat_cfg.num_objects = 2;
  util::Rng cat_rng(1);
  const auto catalog = workload::Catalog::generate(cat_cfg, cat_rng);
  net::OracleEstimator virt(*model);
  const auto policy = core::registry::make_policy("lru", catalog, virt);

  DecisionKernel<cache::CachePolicy, net::OracleKernel> kernel(
      *policy, oracle, store, events);
  EXPECT_FALSE(kernel.observes());
  kernel.record_transfer(0, 123.0, 10.0);
  kernel.record_transfer(1, 456.0, 20.0);
  // Statically-discarding kernels schedule nothing at all.
  EXPECT_TRUE(events.empty());
}

TEST(DecisionKernel, TickDeliversObservationsInTimeOrder) {
  net::PassiveEwmaEstimator ewma(1, 0.5, 777.0);  // prior shows until the
                                                  // first observation lands
  cache::PartialStore store(1e9);
  ObservationQueue events;
  workload::CatalogConfig cat_cfg;
  cat_cfg.num_objects = 1;
  util::Rng cat_rng(1);
  const auto catalog = workload::Catalog::generate(cat_cfg, cat_rng);
  const auto policy = core::registry::make_policy("lru", catalog, ewma);

  DecisionKernel<cache::CachePolicy, net::BandwidthEstimator> kernel(
      *policy, ewma, store, events);
  EXPECT_TRUE(kernel.observes());

  // Transfers complete out of schedule order; delivery must follow
  // completion time, not insertion order.
  kernel.record_transfer(0, 200.0, 30.0);
  kernel.record_transfer(0, 100.0, 10.0);
  EXPECT_EQ(events.size(), 2u);

  // Nothing due yet: the estimate is still the never-observed prior.
  kernel.tick(5.0);
  EXPECT_DOUBLE_EQ(kernel.estimate(0, 5.0), 777.0);

  // First completion (the t=10 one, despite being scheduled second)
  // replaces the prior outright.
  kernel.tick(10.0);
  EXPECT_DOUBLE_EQ(kernel.estimate(0, 10.0), 100.0);

  // Second completion folds in with alpha = 0.5.
  kernel.tick(30.0);
  EXPECT_DOUBLE_EQ(kernel.estimate(0, 30.0), 0.5 * 200.0 + 0.5 * 100.0);
  EXPECT_TRUE(events.empty());
}

TEST(DecisionKernel, DrainFlushesRegardlessOfClock) {
  net::PassiveEwmaEstimator ewma(1, 1.0, 777.0);  // alpha 1: last sample wins
  cache::PartialStore store(1e9);
  ObservationQueue events;
  workload::CatalogConfig cat_cfg;
  cat_cfg.num_objects = 1;
  util::Rng cat_rng(1);
  const auto catalog = workload::Catalog::generate(cat_cfg, cat_rng);
  const auto policy = core::registry::make_policy("lru", catalog, ewma);

  DecisionKernel<cache::CachePolicy, net::BandwidthEstimator> kernel(
      *policy, ewma, store, events);
  kernel.record_transfer(0, 111.0, 1e12);  // due in the far future
  kernel.drain();
  EXPECT_TRUE(events.empty());
  EXPECT_DOUBLE_EQ(kernel.estimate(0, 0.0), 111.0);
}

TEST(DecisionKernel, PathLocalKernelTicksOnlyTheRequestedPath) {
  net::EwmaKernel ewma(2, 1.0, 777.0);  // alpha 1: last sample wins
  cache::PartialStore store(1e9);
  PathObservationLists events;
  workload::CatalogConfig cat_cfg;
  cat_cfg.num_objects = 2;
  util::Rng cat_rng(1);
  const auto catalog = workload::Catalog::generate(cat_cfg, cat_rng);
  net::PassiveEwmaEstimator virt(2, 1.0, 777.0);
  const auto policy = core::registry::make_policy("lru", catalog, virt);

  DecisionKernel<cache::CachePolicy, net::EwmaKernel> kernel(*policy, ewma,
                                                             store, events);
  kernel.record_transfer(0, 100.0, 10.0);
  kernel.record_transfer(1, 200.0, 10.0);
  kernel.record_transfer(0, 300.0, 10.0);  // same due time: FIFO after 100

  // Path 0's request delivers path 0's due observations only.
  kernel.tick_path(0, 10.0);
  EXPECT_DOUBLE_EQ(kernel.estimate(0, 10.0), 300.0);
  EXPECT_DOUBLE_EQ(kernel.estimate(1, 10.0), 777.0);
  EXPECT_EQ(events.size(), 1u);

  // tick() still delivers everything due.
  kernel.tick(10.0);
  EXPECT_DOUBLE_EQ(kernel.estimate(1, 10.0), 200.0);
  EXPECT_TRUE(events.empty());
}

TEST(DecisionKernel, PathLocalBlackoutFiltersOnTheDueTime) {
  net::EwmaKernel last(1, 1.0, 777.0);  // alpha 1: last sample wins
  cache::PartialStore store(1e9);
  PathObservationLists events;
  workload::CatalogConfig cat_cfg;
  cat_cfg.num_objects = 1;
  util::Rng cat_rng(1);
  const auto catalog = workload::Catalog::generate(cat_cfg, cat_rng);
  net::PassiveEwmaEstimator virt(1, 1.0, 777.0);
  const auto policy = core::registry::make_policy("lru", catalog, virt);
  net::FaultSchedule faults;
  faults.compile(net::FaultPlan::parse("fault:blackout=100+50"), 1, 0,
                 net::FaultScope{});

  DecisionKernel<cache::CachePolicy, net::EwmaKernel> kernel(*policy, last,
                                                             store, events);
  kernel.set_faults(&faults);
  kernel.record_transfer(0, 100.0, 90.0);   // due before the window
  kernel.record_transfer(0, 200.0, 120.0);  // due inside it: dropped
  // Delivered after the window has closed, each is still judged at its
  // own due time.
  kernel.tick_path(0, 200.0);
  EXPECT_DOUBLE_EQ(kernel.estimate(0, 200.0), 100.0);
  EXPECT_TRUE(events.empty());
}

TEST(DecisionKernel, AdmitRunsThePolicyAndReportsTheNewPrefix) {
  const auto model = constant_paths(8);
  net::OracleEstimator oracle(*model);
  workload::CatalogConfig cat_cfg;
  cat_cfg.num_objects = 8;
  util::Rng cat_rng(3);
  const auto catalog = workload::Catalog::generate(cat_cfg, cat_rng);
  const auto policy = core::registry::make_policy("lru", catalog, oracle);
  cache::PartialStore store(catalog.total_bytes());  // room for everything
  store.reserve(catalog.size());
  ObservationQueue events;

  DecisionKernel<cache::CachePolicy, net::BandwidthEstimator> kernel(
      *policy, oracle, store, events);
  EXPECT_DOUBLE_EQ(kernel.cached(3), 0.0);
  const double after = kernel.admit(3, 1.0);
  // With surplus capacity an access admits a non-empty prefix, and the
  // return value is exactly the store's post-decision contents.
  EXPECT_GT(after, 0.0);
  EXPECT_DOUBLE_EQ(after, kernel.cached(3));
  EXPECT_DOUBLE_EQ(after, store.cached(3));
  EXPECT_LE(after, catalog.object(3).size_bytes);
}

}  // namespace
}  // namespace sc::sim
