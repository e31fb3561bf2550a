// The engine dispatch table (see sim/arena.h): the only way a
// simulation or a fleet cell reaches the request loop.
//
// One Engine<Components> class template instantiates the shared request
// loop (sim/run_loop.h) over
//
//   - KernelComponents<PolicyKernel, EstimatorKernel> for every built-in
//     (policy, estimator) pair of the registry's spec space — 8 policies
//     x 4 estimators. estimate(), observe(), uses_observations(), and
//     the policy admission path are direct inlined code;
//   - VirtualComponents for everything else (user-registered specs):
//     registry-built components behind the virtual CachePolicy /
//     BandwidthEstimator interfaces, on the same loop body.
//
// Selection happens ONCE per simulation (one virtual MonoEngineBase::run
// call). An engine owns N proxies' components (one for the single
// cell), so fleet cells run on the same kernels and reuse the same
// per-worker arena.
//
// Bit-identity between the two kinds of engine is a hard contract:
// kernel engines construct their components with exactly the parameter
// defaults and RNG fork tags the registry factories use
// (core/registry.cpp), and the loop body is shared, so
// tests/test_mono.cpp can assert field-identical metrics for every pair.

#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "cache/policy.h"
#include "fleet/fleet.h"
#include "core/registry.h"
#include "net/estimator.h"
#include "net/probe.h"
#include "net/units.h"
#include "sim/arena.h"
#include "sim/run_loop.h"
#include "util/spec.h"

namespace sc::sim {

namespace {

// ---- estimator construction/rebinding, one specialization per kernel.
// `create` must match the corresponding registry factory exactly;
// `rebind` must leave the kernel bit-identical to `create`.

template <typename EstKernel>
struct EstimatorTraits;

template <>
struct EstimatorTraits<net::OracleKernel> {
  struct Params {};
  static Params parse(const util::Spec&) { return {}; }
  static auto create(const Params&, const net::PathModel& model, util::Rng) {
    return std::make_unique<net::KernelEstimator<net::OracleKernel>>(model);
  }
  static void rebind(net::KernelEstimator<net::OracleKernel>& estimator,
                     const Params&, const net::PathModel& model, util::Rng) {
    estimator.kernel().rebind(model);
  }
};

template <>
struct EstimatorTraits<net::EwmaKernel> {
  struct Params {
    double alpha = net::estimator_defaults::kEwmaAlpha;
    double prior = net::from_kb(net::estimator_defaults::kPriorKbps);
  };
  static Params parse(const util::Spec& spec) {
    Params p;
    p.alpha = spec.get_double("alpha", net::estimator_defaults::kEwmaAlpha);
    p.prior = net::from_kb(
        spec.get_double("prior_kbps", net::estimator_defaults::kPriorKbps));
    return p;
  }
  static auto create(const Params& p, const net::PathModel& model, util::Rng) {
    return std::make_unique<net::KernelEstimator<net::EwmaKernel>>(
        model.size(), p.alpha, p.prior);
  }
  static void rebind(net::KernelEstimator<net::EwmaKernel>& estimator,
                     const Params&, const net::PathModel& model, util::Rng) {
    estimator.kernel().rebind(model.size());
  }
};

template <>
struct EstimatorTraits<net::LastSampleKernel> {
  struct Params {
    double prior = net::from_kb(net::estimator_defaults::kPriorKbps);
  };
  static Params parse(const util::Spec& spec) {
    Params p;
    p.prior = net::from_kb(
        spec.get_double("prior_kbps", net::estimator_defaults::kPriorKbps));
    return p;
  }
  static auto create(const Params& p, const net::PathModel& model, util::Rng) {
    return std::make_unique<net::KernelEstimator<net::LastSampleKernel>>(
        model.size(), p.prior);
  }
  static void rebind(net::KernelEstimator<net::LastSampleKernel>& estimator,
                     const Params&, const net::PathModel& model, util::Rng) {
    estimator.kernel().rebind(model.size());
  }
};

template <>
struct EstimatorTraits<net::ProbeKernel> {
  struct Params {
    net::ProbeConfig config;
    double interval_s = net::estimator_defaults::kProbeIntervalS;
  };
  static Params parse(const util::Spec& spec) {
    Params p;
    p.config.train_packets = static_cast<std::size_t>(spec.get_int(
        "train_packets", static_cast<long long>(p.config.train_packets)));
    p.interval_s = spec.get_double(
        "interval_s", net::estimator_defaults::kProbeIntervalS);
    return p;
  }
  static auto create(const Params& p, const net::PathModel& model,
                     util::Rng rng) {
    // Identical fork tags to the registry's probe factory.
    return std::make_unique<net::KernelEstimator<net::ProbeKernel>>(
        std::make_unique<net::ProbeModel>(model.means(), p.config,
                                          rng.fork("probe")),
        p.interval_s, rng.fork("probe-rng"));
  }
  static void rebind(net::KernelEstimator<net::ProbeKernel>& estimator,
                     const Params& p, const net::PathModel& model,
                     util::Rng rng) {
    estimator.kernel().rebind(
        std::make_unique<net::ProbeModel>(model.means(), p.config,
                                          rng.fork("probe")),
        rng.fork("probe-rng"));
  }
};

/// Construct a policy engine, forwarding the `e` parameter only to the
/// kernels that take one (Hybrid, PB-V) — mirroring cache::make_policy.
template <typename PolKernel>
std::unique_ptr<cache::UtilityPolicy<PolKernel>> create_policy(
    const workload::Catalog& catalog, net::BandwidthEstimator& estimator,
    double e) {
  if constexpr (std::is_constructible_v<PolKernel, double>) {
    return std::make_unique<cache::UtilityPolicy<PolKernel>>(catalog,
                                                             estimator, e);
  } else {
    (void)e;
    return std::make_unique<cache::UtilityPolicy<PolKernel>>(catalog,
                                                             estimator);
  }
}

/// What the run loop sees as "the policy": forwards on_access to the
/// estimator-templated access body so the whole admission path inlines
/// against the concrete estimator kernel, and serves the cached name so
/// per-run name() formatting (Hybrid's ostringstream) is paid once per
/// engine, not once per simulation.
template <typename PolKernel, typename EstKernel>
struct MonoPolicyRef {
  cache::UtilityPolicy<PolKernel>* policy;
  EstKernel* estimator;
  const std::string* cached_name;

  void on_access(workload::ObjectId id, double now_s,
                 cache::PartialStore& store) {
    policy->access(id, now_s, store, *estimator);
  }
  [[nodiscard]] const std::string& name() const { return *cached_name; }
};

/// The RNG tag of proxy `p`'s estimator: the single-cell tag for proxy
/// 0, distinct tag-keyed streams for its peers so replications stay
/// independent across a fleet.
std::string estimator_tag(std::size_t p) {
  return p == 0 ? "estimator" : "estimator#" + std::to_string(p);
}

/// N proxies' components for a built-in (PolKernel, EstKernel) pair,
/// kept across runs and rebound — bit-identical to constructing them
/// fresh — so back-to-back simulations reuse every piece of storage.
template <typename PolKernel, typename EstKernel>
class KernelComponents {
 public:
  using Policy = MonoPolicyRef<PolKernel, EstKernel>;
  using Estimator = EstKernel;

  KernelComponents(const util::Spec& policy_spec,
                   const util::Spec& estimator_spec)
      : param_e_(policy_spec.get_double("e", cache::kDefaultKernelE)),
        estimator_params_(EstimatorTraits<EstKernel>::parse(estimator_spec)) {}

  void bind(std::size_t n, const SimulationConfig&,
            const workload::Catalog& catalog, const net::PathModel& model,
            const util::Rng& rng) {
    for (std::size_t p = 0; p < n; ++p) {
      const util::Rng estimator_rng = rng.fork(estimator_tag(p));
      if (p < estimators_.size()) {
        EstimatorTraits<EstKernel>::rebind(*estimators_[p], estimator_params_,
                                           model, estimator_rng);
        policies_[p]->rebind(catalog, *estimators_[p]);
      } else {
        estimators_.push_back(EstimatorTraits<EstKernel>::create(
            estimator_params_, model, estimator_rng));
        policies_.push_back(
            create_policy<PolKernel>(catalog, *estimators_[p], param_e_));
      }
    }
    if (name_.empty()) name_ = policies_[0]->name();
    refs_.resize(n);
    for (std::size_t p = 0; p < n; ++p) {
      refs_[p] = Policy{policies_[p].get(), &estimators_[p]->kernel(), &name_};
    }
  }

  [[nodiscard]] Policy& policy(std::size_t p) { return refs_[p]; }
  [[nodiscard]] Estimator& estimator(std::size_t p) {
    return estimators_[p]->kernel();
  }

 private:
  double param_e_;
  typename EstimatorTraits<EstKernel>::Params estimator_params_;
  std::vector<std::unique_ptr<net::KernelEstimator<EstKernel>>> estimators_;
  std::vector<std::unique_ptr<cache::UtilityPolicy<PolKernel>>> policies_;
  std::vector<Policy> refs_;
  std::string name_;
};

/// N proxies' components for specs outside the built-in table
/// (user-registered components), built through the registry each run.
class VirtualComponents {
 public:
  using Policy = cache::CachePolicy;
  using Estimator = net::BandwidthEstimator;

  void bind(std::size_t n, const SimulationConfig& config,
            const workload::Catalog& catalog, const net::PathModel& model,
            const util::Rng& rng) {
    policies_.clear();  // before the estimators they reference
    estimators_.clear();
    for (std::size_t p = 0; p < n; ++p) {
      estimators_.push_back(core::registry::make_estimator(
          config.estimator, model, rng.fork(estimator_tag(p))));
      policies_.push_back(core::registry::make_policy(config.policy, catalog,
                                                      *estimators_[p]));
    }
  }

  [[nodiscard]] Policy& policy(std::size_t p) { return *policies_[p]; }
  [[nodiscard]] Estimator& estimator(std::size_t p) {
    return *estimators_[p];
  }

 private:
  std::vector<std::unique_ptr<net::BandwidthEstimator>> estimators_;
  std::vector<std::unique_ptr<cache::CachePolicy>> policies_;
};

template <typename Components>
class Engine final : public MonoEngineBase {
 public:
  template <typename... Args>
  explicit Engine(const Args&... args) : components_(args...) {}

  SimulationResult run(const MonoRunContext& context) override {
    const workload::RequestStream& stream = *context.stream;
    const workload::Catalog& catalog = stream.catalog();
    const SimulationConfig& config = *context.config;

    util::Rng rng(context.seed);
    std::shared_ptr<const net::PathModel> model = context.model;
    if (model == nullptr) {
      model = std::make_shared<const net::PathModel>(
          catalog.size(), *context.base, *context.ratio, config.path_config,
          rng.fork("paths"));
    }

    // A fleet splits the aggregate budget evenly across its proxies.
    const std::size_t n =
        context.fleet != nullptr ? context.fleet->config->proxies : 1;
    components_.bind(n, config, catalog, *model, rng);
    state_.reset(stream, config.stream_chunk, model,
                 config.cache_capacity_bytes / static_cast<double>(n),
                 config.patching.enabled, n);
    if (context.fleet == nullptr) {
      // The single-proxy entry keeps its kernel local to the inlined
      // loop, so the kernel's pointers stay in registers; reading them
      // from kernels_ instead cost ~9% of sim_const's request rate.
      return run_request_loop(stream, config, state_, components_.policy(0),
                              components_.estimator(0), rng);
    }
    kernels_.clear();
    for (std::size_t p = 0; p < n; ++p) {
      kernels_.emplace_back(components_.policy(p), components_.estimator(p),
                            state_.proxies[p].store, state_.proxies[p].events);
    }
    return run_request_loop(stream, config, state_, kernels_.data(), rng,
                            context.fleet);
  }

 private:
  Components components_;
  RunState state_;
  std::vector<DecisionKernel<typename Components::Policy,
                             typename Components::Estimator>>
      kernels_;
};

// ---- the dispatch table over the registry's built-in spec space.

enum class PolicyId { kIf, kPb, kIb, kHybrid, kPbv, kIbv, kLru, kLfu };
enum class EstimatorId { kOracle, kEwma, kLast, kProbe };

/// Canonical registry name for `name` on `kind` (resolving aliases
/// through the registry itself, so the builtin alias tables live only
/// in core/registry.cpp); empty when unregistered. Allocates and takes
/// the registry lock — reached only on an arena miss with a
/// non-canonical spelling.
std::string canonical_name(core::registry::Kind kind,
                           const std::string& name) {
  for (const core::registry::ComponentInfo& info :
       core::registry::list(kind)) {
    if (info.name == name) return info.name;
    for (const std::string& alias : info.aliases) {
      if (alias == name) return info.name;
    }
  }
  return {};
}

std::optional<PolicyId> policy_from_canonical(const std::string& name) {
  if (name == "if") return PolicyId::kIf;
  if (name == "pb") return PolicyId::kPb;
  if (name == "ib") return PolicyId::kIb;
  if (name == "hybrid") return PolicyId::kHybrid;
  if (name == "pbv") return PolicyId::kPbv;
  if (name == "ibv") return PolicyId::kIbv;
  if (name == "lru") return PolicyId::kLru;
  if (name == "lfu") return PolicyId::kLfu;
  return std::nullopt;
}

std::optional<EstimatorId> estimator_from_canonical(const std::string& name) {
  if (name == "oracle") return EstimatorId::kOracle;
  if (name == "ewma") return EstimatorId::kEwma;
  if (name == "last") return EstimatorId::kLast;
  if (name == "probe") return EstimatorId::kProbe;
  return std::nullopt;
}

std::optional<PolicyId> policy_id(const std::string& name) {
  if (const auto id = policy_from_canonical(name)) return id;
  // Aliases resolve through the registry (one alias table, in
  // core/registry.cpp); unregistered names get the virtual engine.
  return policy_from_canonical(
      canonical_name(core::registry::Kind::kPolicy, name));
}

std::optional<EstimatorId> estimator_id(const std::string& name) {
  if (const auto id = estimator_from_canonical(name)) return id;
  return estimator_from_canonical(
      canonical_name(core::registry::Kind::kEstimator, name));
}

template <typename PolKernel>
std::unique_ptr<MonoEngineBase> make_engine_for(EstimatorId estimator,
                                                const util::Spec& policy_spec,
                                                const util::Spec& est_spec) {
  switch (estimator) {
    case EstimatorId::kOracle:
      return std::make_unique<
          Engine<KernelComponents<PolKernel, net::OracleKernel>>>(policy_spec,
                                                                  est_spec);
    case EstimatorId::kEwma:
      return std::make_unique<
          Engine<KernelComponents<PolKernel, net::EwmaKernel>>>(policy_spec,
                                                                est_spec);
    case EstimatorId::kLast:
      return std::make_unique<
          Engine<KernelComponents<PolKernel, net::LastSampleKernel>>>(
          policy_spec, est_spec);
    case EstimatorId::kProbe:
      return std::make_unique<
          Engine<KernelComponents<PolKernel, net::ProbeKernel>>>(policy_spec,
                                                                 est_spec);
  }
  return nullptr;
}

std::unique_ptr<MonoEngineBase> make_engine(PolicyId policy,
                                            EstimatorId estimator,
                                            const util::Spec& policy_spec,
                                            const util::Spec& est_spec) {
  switch (policy) {
    case PolicyId::kIf:
      return make_engine_for<cache::IfKernel>(estimator, policy_spec,
                                              est_spec);
    case PolicyId::kPb:
      return make_engine_for<cache::PbKernel>(estimator, policy_spec,
                                              est_spec);
    case PolicyId::kIb:
      return make_engine_for<cache::IbKernel>(estimator, policy_spec,
                                              est_spec);
    case PolicyId::kHybrid:
      return make_engine_for<cache::HybridKernel>(estimator, policy_spec,
                                                  est_spec);
    case PolicyId::kPbv:
      return make_engine_for<cache::PbvKernel>(estimator, policy_spec,
                                               est_spec);
    case PolicyId::kIbv:
      return make_engine_for<cache::IbvKernel>(estimator, policy_spec,
                                               est_spec);
    case PolicyId::kLru:
      return make_engine_for<cache::LruKernel>(estimator, policy_spec,
                                               est_spec);
    case PolicyId::kLfu:
      return make_engine_for<cache::LfuKernel>(estimator, policy_spec,
                                               est_spec);
  }
  return nullptr;
}

}  // namespace

MonoEngineBase* acquire_mono_engine(SimulationArena& arena,
                                    const SimulationConfig& config) {
  if (SimulationArena::Slot* slot =
          arena.find(config.policy, config.estimator)) {
    return slot->engine.get();
  }
  // Unknown names and parameters fail here exactly as in the registry
  // factories.
  core::registry::validate(core::registry::Kind::kPolicy, config.policy);
  core::registry::validate(core::registry::Kind::kEstimator,
                           config.estimator);
  const util::Spec policy_spec = util::Spec::parse(config.policy);
  const util::Spec est_spec = util::Spec::parse(config.estimator);
  const auto policy = policy_id(policy_spec.name);
  const auto estimator = estimator_id(est_spec.name);
  std::unique_ptr<MonoEngineBase> engine;
  if (policy.has_value() && estimator.has_value()) {
    engine = make_engine(*policy, *estimator, policy_spec, est_spec);
  } else {
    engine = std::make_unique<Engine<VirtualComponents>>();
  }
  return arena.insert(config.policy, config.estimator, std::move(engine))
      .engine.get();
}

bool mono_dispatchable(const SimulationConfig& config) {
  return policy_id(util::Spec::parse(config.policy).name).has_value() &&
         estimator_id(util::Spec::parse(config.estimator).name).has_value();
}

}  // namespace sc::sim
