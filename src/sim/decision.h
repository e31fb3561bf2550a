// The clock-agnostic decision kernel: the half of the request loop that
// decides *what the cache does*, with no opinion about who owns time.
//
// sim/run_loop.h used to fuse two things: (a) the paper's decision path
// — admission, utility eviction, partial-prefix management, estimator
// observe/estimate with deferred completion observations — and (b) the
// simulated delivery model that drives it from a recorded trace under a
// simulated clock. DecisionKernel extracts (a) behind a clock-agnostic
// surface: every entry point takes `now_s` as a plain double, so the
// same kernel runs under
//
//   - the simulated clock (sim/run_loop.h: `now_s` is the trace's
//     request arrival time), and
//   - the wall clock (src/server/: `now_s` is seconds since daemon
//     start, and tick() is called from real time so EWMA/probe
//     estimators age on real seconds).
//
// A fleet cell is N of these kernels driven by the same loop, one per
// proxy. The golden-CSV harness (tests/golden/) pins the simulator's
// and the fleet's output byte-identically, and tests/test_decision.cpp
// covers the kernel in isolation under an arbitrary (non-simulated)
// clock.
#pragma once

#include <limits>

#include "cache/store.h"
#include "net/fault.h"
#include "net/path_process.h"
#include "sim/event_queue.h"
#include "workload/object_catalog.h"

namespace sc::sim {

/// Compile-time view of an estimator's observation behavior. The primary
/// template covers the virtual interface (runtime query); the
/// specialization picks up kernel types that expose the
/// kUsesObservations constant, letting callers drop the event-schedule
/// branch entirely for oracle/probe kernels.
template <typename Estimator, typename = void>
struct ObservationTraits {
  /// True when the estimator type proves at compile time that
  /// observations are discarded.
  static constexpr bool kStaticallyDiscards = false;
  [[nodiscard]] static bool uses(const Estimator& estimator) {
    return estimator.uses_observations();
  }
};

template <typename Estimator>
struct ObservationTraits<
    Estimator, std::void_t<decltype(Estimator::kUsesObservations)>> {
  static constexpr bool kStaticallyDiscards = !Estimator::kUsesObservations;
  [[nodiscard]] static constexpr bool uses(const Estimator&) {
    return Estimator::kUsesObservations;
  }
};

/// Non-owning view over one (policy, estimator, store, observation
/// queue) quadruple — one proxy's decision machinery. Instantiated with
/// the concrete kernel types by the built-in engines of
/// sim/monomorphize.cpp (everything inlines), and with the virtual
/// CachePolicy / BandwidthEstimator interfaces by the engine that runs
/// user-registered components and by the live proxy daemon (one
/// indirect call per operation — fine off the 30M-requests/sec path).
///
/// All state lives in the referenced components; the kernel itself is a
/// few pointers and is trivially copyable. Not thread-safe: concurrent
/// callers (the server) must serialize access externally (see
/// docs/SERVER.md, "Lock discipline").
template <typename Policy, typename Estimator>
class DecisionKernel {
 public:
  DecisionKernel(Policy& policy, Estimator& estimator,
                 cache::PartialStore& store, ObservationQueue& events)
      : policy_(&policy),
        estimator_(&estimator),
        store_(&store),
        events_(&events),
        observes_(ObservationTraits<Estimator>::uses(estimator)) {}

  [[nodiscard]] Policy& policy() noexcept { return *policy_; }
  [[nodiscard]] Estimator& estimator() noexcept { return *estimator_; }
  [[nodiscard]] cache::PartialStore& store() noexcept { return *store_; }
  [[nodiscard]] const cache::PartialStore& store() const noexcept {
    return *store_;
  }

  /// Cached prefix bytes of `id` right now (what a request can be served
  /// from before any admission decision runs).
  [[nodiscard]] double cached(workload::ObjectId id) const noexcept {
    return store_->cached(id);
  }

  /// Whether the estimator consumes completion observations at all
  /// (constant-folded for kernel estimators; callers gate
  /// record_transfer on it to skip dead event traffic).
  [[nodiscard]] bool observes() const noexcept { return observes_; }

  /// Attach a compiled fault schedule (net/fault.h): observations whose
  /// due time falls inside a blackout window are dropped in tick()
  /// before reaching the estimator. Null (the default) detaches — the
  /// tick path is then exactly the pre-fault-layer code, which is what
  /// keeps an empty fault plan inert.
  void set_faults(const net::FaultSchedule* faults) noexcept {
    faults_ = faults;
  }

  /// Current bandwidth estimate for `path` (bytes/second).
  [[nodiscard]] double estimate(net::PathId path, double now_s) {
    return estimator_->estimate(path, now_s);
  }

  /// Deliver every deferred completion observation due at or before
  /// `now_s` to the estimator, in (time, insertion) order. The simulator
  /// calls this with each request's arrival time; the server calls it
  /// from the wall clock (per request and from a periodic ticker), which
  /// is what makes EWMA/probe estimators age on real seconds.
  void tick(double now_s) {
    if (faults_ == nullptr) {
      events_->run_until(now_s, [this](double now, ObservationEvent& ev) {
        estimator_->observe(ev.path, ev.throughput, now);
      });
    } else {
      // Estimator blackout: the measurement plane is down — due
      // observations are consumed (the transfer still happened) but
      // never reach the estimator.
      events_->run_until(now_s, [this](double now, ObservationEvent& ev) {
        if (!faults_->blackout(now)) {
          estimator_->observe(ev.path, ev.throughput, now);
        }
      });
    }
  }

  /// Flush every pending observation regardless of time (end of run).
  void drain() { tick(std::numeric_limits<double>::infinity()); }

  /// Defer the completion observation of a transfer on `path` achieving
  /// `throughput` bytes/second until `done_s`: passive estimators only
  /// learn a transfer's throughput once it completes. Compiled out
  /// entirely for statically-discarding (oracle/probe) kernels.
  void record_transfer(net::PathId path, double throughput, double done_s) {
    if constexpr (ObservationTraits<Estimator>::kStaticallyDiscards) {
      (void)path;
      (void)throughput;
      (void)done_s;
    } else {
      events_->schedule(done_s, ObservationEvent{path, throughput});
    }
  }

  /// Run the replacement decision for a request of `id` served at
  /// `now_s` — frequency update, utility computation, admission, utility
  /// eviction, and partial-prefix grow/shrink, all inside the policy.
  /// Called *after* the request was served from the pre-decision cache
  /// contents. Returns the cached prefix after the decision (callers
  /// diff against cached(id) from before to account origin->cache fill
  /// traffic).
  double admit(workload::ObjectId id, double now_s) {
    policy_->on_access(id, now_s, *store_);
    return store_->cached(id);
  }

 private:
  Policy* policy_;
  Estimator* estimator_;
  cache::PartialStore* store_;
  ObservationQueue* events_;
  const net::FaultSchedule* faults_ = nullptr;
  bool observes_;
};

}  // namespace sc::sim
