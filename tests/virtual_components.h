// Test-only "test-virtual:of=SPEC" policy and estimator: registry
// components that wrap the registry's own SPEC component behind a
// forwarding CachePolicy / BandwidthEstimator. The dispatch (sim/arena.h)
// picks engines from the types the registry builds, and the wrappers are
// not kernel adapter types, so a simulation over the wrapped pair runs
// on the virtual engine while SPEC itself runs on its kernel engine —
// the pair every kernel-vs-virtual identity test compares.
//
// SPEC's own parameters are separated by ';' instead of ',' (the outer
// spec owns the commas): virtual_spec() writes that form.
#pragma once

#include <algorithm>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "cache/policy.h"
#include "core/registry.h"
#include "net/estimator.h"

namespace sc::testing {

class VirtualEstimator final : public net::BandwidthEstimator {
 public:
  explicit VirtualEstimator(std::unique_ptr<net::BandwidthEstimator> inner)
      : inner_(std::move(inner)) {}

  void observe(net::PathId path, double throughput, double now_s) override {
    inner_->observe(path, throughput, now_s);
  }
  [[nodiscard]] bool uses_observations() const override {
    return inner_->uses_observations();
  }
  [[nodiscard]] double estimate(net::PathId path, double now_s) override {
    return inner_->estimate(path, now_s);
  }
  [[nodiscard]] std::size_t overhead_packets() const override {
    return inner_->overhead_packets();
  }

 private:
  std::unique_ptr<net::BandwidthEstimator> inner_;
};

class VirtualPolicy final : public cache::CachePolicy {
 public:
  explicit VirtualPolicy(std::unique_ptr<cache::CachePolicy> inner)
      : inner_(std::move(inner)) {}

  [[nodiscard]] std::string name() const override { return inner_->name(); }
  void on_access(workload::ObjectId id, double now_s,
                 cache::PartialStore& store) override {
    inner_->on_access(id, now_s, store);
  }
  void reset() override { inner_->reset(); }

 private:
  std::unique_ptr<cache::CachePolicy> inner_;
};

/// The wrapped spec of a "test-virtual:of=..." spec.
inline std::string inner_spec(const util::Spec& spec) {
  std::string inner = spec.get_string("of", "");
  std::replace(inner.begin(), inner.end(), ';', ',');
  return inner;
}

/// Register both wrappers (idempotent).
inline void register_virtual_components() {
  static const bool registered = [] {
    namespace registry = core::registry;
    registry::register_policy(
        {"test-virtual", {}, "test-only virtual wrapper of a policy", {"of"}},
        [](const util::Spec& spec, const registry::PolicyContext& ctx)
            -> std::unique_ptr<cache::CachePolicy> {
          return std::make_unique<VirtualPolicy>(registry::make_policy(
              inner_spec(spec), ctx.catalog, ctx.estimator));
        });
    registry::register_estimator(
        {"test-virtual", {}, "test-only virtual wrapper of an estimator",
         {"of"}},
        [](const util::Spec& spec, registry::EstimatorContext& ctx)
            -> std::unique_ptr<net::BandwidthEstimator> {
          return std::make_unique<VirtualEstimator>(
              registry::make_estimator(inner_spec(spec), ctx.paths, ctx.rng));
        });
    return true;
  }();
  (void)registered;
}

/// "test-virtual:of=SPEC", with SPEC's commas written as ';'.
inline std::string virtual_spec(std::string spec) {
  register_virtual_components();
  std::replace(spec.begin(), spec.end(), ',', ';');
  return "test-virtual:of=" + spec;
}

}  // namespace sc::testing
