#include "traced.h"

#include <algorithm>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "cache/policy.h"
#include "core/registry.h"
#include "net/estimator.h"

namespace perfbench {

namespace {

DecisionSpans* g_sink = nullptr;

class TracedEstimator final : public sc::net::BandwidthEstimator {
 public:
  explicit TracedEstimator(std::unique_ptr<sc::net::BandwidthEstimator> inner)
      : inner_(std::move(inner)) {}

  void observe(sc::net::PathId path, double throughput,
               double now_s) override {
    const ScopedSpan span(g_sink->observe);
    inner_->observe(path, throughput, now_s);
  }
  [[nodiscard]] bool uses_observations() const override {
    return inner_->uses_observations();
  }
  [[nodiscard]] double estimate(sc::net::PathId path, double now_s) override {
    const ScopedSpan span(g_sink->estimate);
    return inner_->estimate(path, now_s);
  }
  [[nodiscard]] std::size_t overhead_packets() const override {
    return inner_->overhead_packets();
  }
  [[nodiscard]] std::vector<double> save_state() const override {
    return inner_->save_state();
  }
  bool load_state(const std::vector<double>& blob) override {
    return inner_->load_state(blob);
  }

 private:
  std::unique_ptr<sc::net::BandwidthEstimator> inner_;
};

class TracedPolicy final : public sc::cache::CachePolicy {
 public:
  explicit TracedPolicy(std::unique_ptr<sc::cache::CachePolicy> inner)
      : inner_(std::move(inner)) {}

  [[nodiscard]] std::string name() const override { return inner_->name(); }
  void on_access(sc::workload::ObjectId id, double now_s,
                 sc::cache::PartialStore& store) override {
    const ScopedSpan span(g_sink->admit);
    inner_->on_access(id, now_s, store);
  }
  void reset() override { inner_->reset(); }
  [[nodiscard]] sc::cache::PolicySnapshot save_state() const override {
    return inner_->save_state();
  }
  bool load_state(const sc::cache::PolicySnapshot& state) override {
    return inner_->load_state(state);
  }
  [[nodiscard]] double frequency_of(sc::workload::ObjectId id) const override {
    return inner_->frequency_of(id);
  }
  [[nodiscard]] bool index_key(sc::workload::ObjectId id,
                               double* key) const override {
    return inner_->index_key(id, key);
  }
  [[nodiscard]] bool check_consistency(
      const sc::cache::PartialStore& store,
      std::vector<std::string>* why) const override {
    return inner_->check_consistency(store, why);
  }

 private:
  std::unique_ptr<sc::cache::CachePolicy> inner_;
};

/// Estimates per admission decision (every estimate is nested in one).
double nested_estimates(const DecisionSpans& s) {
  return s.admit.calls > 0 ? static_cast<double>(s.estimate.calls) /
                                 static_cast<double>(s.admit.calls)
                           : 0.0;
}

/// Admission self time per call. A span measures its work plus one
/// clock read (span_cost_ns); each nested estimate adds its measured
/// time plus one more read to the enclosing admission span.
double admit_self_ns(const DecisionSpans& s) {
  if (s.admit.calls == 0) return 0.0;
  const double c = span_cost_ns();
  return std::max(0.0, s.admit.per_call_ns() - c -
                           nested_estimates(s) * (s.estimate.per_call_ns() + c));
}

}  // namespace

void register_traced_components() {
  static const bool registered = [] {
    namespace registry = sc::core::registry;
    registry::register_policy(
        {"traced", {}, "records spans around another policy", {"of"}},
        [](const sc::util::Spec& spec, const registry::PolicyContext& ctx)
            -> std::unique_ptr<sc::cache::CachePolicy> {
          return std::make_unique<TracedPolicy>(registry::make_policy(
              spec.get_string("of", ""), ctx.catalog, ctx.estimator));
        });
    registry::register_estimator(
        {"traced", {}, "records spans around another estimator", {"of"}},
        [](const sc::util::Spec& spec, registry::EstimatorContext& ctx)
            -> std::unique_ptr<sc::net::BandwidthEstimator> {
          return std::make_unique<TracedEstimator>(registry::make_estimator(
              spec.get_string("of", ""), ctx.paths, ctx.rng));
        });
    return true;
  }();
  (void)registered;
}

void set_decision_sink(DecisionSpans* sink) { g_sink = sink; }

Values decision_metrics(const DecisionSpans& s, std::uint64_t ops) {
  const auto per_op = [ops](std::uint64_t calls) {
    return ops > 0 ? static_cast<double>(calls) / static_cast<double>(ops)
                   : 0.0;
  };
  Values v;
  v["cache.admit_self_ns"] = admit_self_ns(s);
  v["cache.admit_calls"] = per_op(s.admit.calls);
  v["net.estimate_ns"] = s.estimate.mean_ns();
  v["net.estimate_calls"] = per_op(s.estimate.calls);
  v["net.observe_ns"] = s.observe.mean_ns();
  v["net.observe_calls"] = per_op(s.observe.calls);
  return v;
}

double decision_seconds(const DecisionSpans& s) {
  const double admit_ns =
      static_cast<double>(s.admit.calls) *
      (admit_self_ns(s) + nested_estimates(s) * s.estimate.mean_ns());
  const double observe_ns =
      static_cast<double>(s.observe.calls) * s.observe.mean_ns();
  return (admit_ns + observe_ns) * 1e-9;
}

}  // namespace perfbench
