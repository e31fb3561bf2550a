// The engine dispatch (see sim/arena.h): the only way a simulation or a
// fleet cell reaches the request loop.
//
// Components come only from the registry (core/registry.cpp). On an arena
// miss, acquire_mono_engine builds proxy 0's estimator and policy there
// and picks the engine from the types it got back:
//
//   - exactly net::KernelEstimator<E> and cache::UtilityPolicy<P> for one
//     of the 3 estimator kernels and 7 policy kernels listed below: the
//     (P, E) kernel engine. It keeps the built components and rebinds them
//     for every later run, so estimate(), observe(), uses_observations()
//     and the admission path are direct inlined code;
//   - any other types (user-registered components, subclasses of the
//     adapters): one virtual engine, which builds fresh components through
//     the registry for every run and calls them through the virtual
//     CachePolicy / BandwidthEstimator interfaces.
//
// Types match by typeid equality, not by dynamic_cast: a subclass could
// override a virtual that the kernel engine bypasses. An engine owns N
// proxies' components (one for the single cell), so fleet cells run on
// the same kernels and reuse the same per-worker arena.
//
// Both engines run the one loop body (sim/run_loop.h), and a rebound
// kernel equals a registry-built one (net/estimator.h, cache/policy.h),
// so tests/test_mono.cpp can assert field-identical metrics for every
// pair.

#include <memory>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <typeinfo>
#include <utility>
#include <vector>

#include "cache/policy.h"
#include "core/registry.h"
#include "fleet/fleet.h"
#include "net/estimator.h"
#include "sim/arena.h"
#include "sim/run_loop.h"

namespace sc::sim {

namespace {

template <typename... Kernels>
struct KernelList {};

/// The built-in kernels: the types the registry's factories instantiate
/// cache::UtilityPolicy and net::KernelEstimator over. "lfu" runs on
/// IfKernel and "last" on EwmaKernel (core/registry.cpp).
using PolicyKernels =
    KernelList<cache::IfKernel, cache::PbKernel, cache::IbKernel,
               cache::HybridKernel, cache::PbvKernel, cache::IbvKernel,
               cache::LruKernel>;
using EstimatorKernels =
    KernelList<net::OracleKernel, net::EwmaKernel, net::ProbeKernel>;

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

/// One proxy's components as the registry builds them. The policy is
/// declared last so it is destroyed before the estimator it references.
struct ProxyComponents {
  std::unique_ptr<net::BandwidthEstimator> estimator;
  std::unique_ptr<cache::CachePolicy> policy;
};

ProxyComponents build_proxy(const SimulationConfig& config,
                            const workload::Catalog& catalog,
                            const net::PathModel& model, const util::Rng& rng,
                            std::size_t p) {
  ProxyComponents built;
  built.estimator = core::registry::make_estimator(
      config.estimator, model, rng.fork(estimator_tag(p)));
  built.policy =
      core::registry::make_policy(config.policy, catalog, *built.estimator);
  return built;
}

/// Whether `built` holds exactly the adapters over (PolKernel,
/// EstKernel); a subclass of either does not match.
template <typename PolKernel, typename EstKernel>
bool holds_kernels(const ProxyComponents& built) {
  const net::BandwidthEstimator& estimator = *built.estimator;
  const cache::CachePolicy& policy = *built.policy;
  return typeid(estimator) == typeid(net::KernelEstimator<EstKernel>) &&
         typeid(policy) == typeid(cache::UtilityPolicy<PolKernel>);
}

/// N proxies' registry-built components for a built-in (PolKernel,
/// EstKernel) pair, kept across runs and rebound — bit-identical to
/// building them fresh — so back-to-back simulations reuse every piece
/// of storage.
template <typename PolKernel, typename EstKernel>
class KernelComponents {
 public:
  using Policy = MonoPolicyRef<PolKernel, EstKernel>;
  using Estimator = EstKernel;

  explicit KernelComponents(ProxyComponents proxy0) {
    proxies_.push_back(std::move(proxy0));
  }

  void bind(std::size_t n, const SimulationConfig& config,
            const workload::Catalog& catalog, const net::PathModel& model,
            const util::Rng& rng) {
    for (std::size_t p = 0; p < n; ++p) {
      if (p < proxies_.size()) {
        estimator_adapter(p).kernel().rebind(model,
                                             rng.fork(estimator_tag(p)));
        policy_adapter(p).rebind(catalog, estimator_adapter(p));
        continue;
      }
      ProxyComponents built = build_proxy(config, catalog, model, rng, p);
      if (!holds_kernels<PolKernel, EstKernel>(built)) {
        throw std::logic_error(
            "registry built proxy " + std::to_string(p) + " of (" +
            config.policy + ", " + config.estimator +
            ") as different types than proxy 0");
      }
      proxies_.push_back(std::move(built));
    }
    if (name_.empty()) name_ = policy_adapter(0).name();
    refs_.resize(n);
    for (std::size_t p = 0; p < n; ++p) {
      refs_[p] = Policy{&policy_adapter(p), &estimator(p), &name_};
    }
  }

  [[nodiscard]] Policy& policy(std::size_t p) { return refs_[p]; }
  [[nodiscard]] Estimator& estimator(std::size_t p) {
    return estimator_adapter(p).kernel();
  }

 private:
  // Exact types, checked by holds_kernels before a proxy is kept.
  net::KernelEstimator<EstKernel>& estimator_adapter(std::size_t p) {
    return static_cast<net::KernelEstimator<EstKernel>&>(
        *proxies_[p].estimator);
  }
  cache::UtilityPolicy<PolKernel>& policy_adapter(std::size_t p) {
    return static_cast<cache::UtilityPolicy<PolKernel>&>(*proxies_[p].policy);
  }

  std::vector<ProxyComponents> proxies_;
  std::vector<Policy> refs_;
  std::string name_;
};

/// N proxies' components of any other types (user-registered
/// components), built through the registry each run.
class VirtualComponents {
 public:
  using Policy = cache::CachePolicy;
  using Estimator = net::BandwidthEstimator;

  void bind(std::size_t n, const SimulationConfig& config,
            const workload::Catalog& catalog, const net::PathModel& model,
            const util::Rng& rng) {
    proxies_.clear();
    for (std::size_t p = 0; p < n; ++p) {
      proxies_.push_back(build_proxy(config, catalog, model, rng, p));
    }
  }

  [[nodiscard]] Policy& policy(std::size_t p) { return *proxies_[p].policy; }
  [[nodiscard]] Estimator& estimator(std::size_t p) {
    return *proxies_[p].estimator;
  }

 private:
  std::vector<ProxyComponents> proxies_;
};

template <typename Components>
class Engine final : public MonoEngineBase {
 public:
  template <typename... Args>
  explicit Engine(Args&&... args) : components_(std::forward<Args>(args)...) {}

  [[nodiscard]] bool inlined() const override {
    return !std::is_same_v<Components, VirtualComponents>;
  }

  SimulationResult run(const MonoRunContext& context) override {
    const workload::RequestStream& stream = *context.stream;
    const SimulationConfig& config = *context.config;
    util::Rng rng(context.seed);

    // A fleet splits the aggregate budget evenly across its proxies.
    const std::size_t n =
        context.fleet != nullptr ? context.fleet->config->proxies : 1;
    components_.bind(n, config, stream.catalog(), *context.model, rng);
    state_.reset(stream, config.stream_chunk, context.model,
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
      kernels_.emplace_back(
          components_.policy(p), components_.estimator(p),
          state_.proxies[p].store,
          observations<typename Components::Estimator>(state_.proxies[p]));
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

/// The (PolKernel, EstKernel) kernel engine adopting `built`, for the
/// policy kernel among PolKernels that `built` holds; null if none.
template <typename EstKernel, typename... PolKernels>
std::unique_ptr<MonoEngineBase> kernel_engine_over(ProxyComponents& built,
                                                   KernelList<PolKernels...>) {
  std::unique_ptr<MonoEngineBase> engine;
  (void)((holds_kernels<PolKernels, EstKernel>(built) &&
          (engine = std::make_unique<
               Engine<KernelComponents<PolKernels, EstKernel>>>(
               std::move(built)))) ||
         ...);
  return engine;
}

/// The kernel engine for the built-in kernel pair `built` holds; null
/// when it holds any other types.
template <typename... EstKernels>
std::unique_ptr<MonoEngineBase> kernel_engine(ProxyComponents& built,
                                              KernelList<EstKernels...>) {
  std::unique_ptr<MonoEngineBase> engine;
  (void)(((engine = kernel_engine_over<EstKernels>(built, PolicyKernels{})) !=
          nullptr) ||
         ...);
  return engine;
}

}  // namespace

MonoEngineBase* acquire_mono_engine(SimulationArena& arena,
                                    const MonoRunContext& context) {
  const SimulationConfig& config = *context.config;
  if (SimulationArena::Slot* slot =
          arena.find(config.policy, config.estimator)) {
    return slot->engine.get();
  }
  // Proxy 0's components, built as the context's run binds them. Unknown
  // names and parameters throw here, from the registry.
  ProxyComponents built =
      build_proxy(config, context.stream->catalog(), *context.model,
                  util::Rng(context.seed), 0);
  std::unique_ptr<MonoEngineBase> engine =
      kernel_engine(built, EstimatorKernels{});
  if (engine == nullptr) engine = std::make_unique<Engine<VirtualComponents>>();
  return arena.insert(config.policy, config.estimator, std::move(engine))
      .engine.get();
}

}  // namespace sc::sim
