// The per-request simulation loop, as a template over the policy and
// estimator's *static* types.
//
// There is exactly one implementation of the trace-driven request loop
// (§3 methodology: warmup half, measured half, deferred completion
// observations, viewing/patching extensions), and one pass of it drives
// N >= 1 proxies:
//
//   - the single cell (no fleet argument): one proxy, faults compiled
//     for the standalone net::FaultScope{}, no per-proxy stats — the
//     paper's simulator;
//   - a fleet cell (a fleet::FleetRun argument, see fleet/fleet.h): N
//     proxies behind a sharder, a shared uplink bucket, optional peer
//     cooperation, per-proxy fault scopes and ProxyStats.
//
// The request cursor, the §2.2 delivery table and the path sampler are
// shared by every proxy; each proxy has its own store, observation
// queue, in-flight table and fault schedule (ProxyState). "Single cell
// or fleet" is the null test of the fleet argument: each fleet coupling
// is one predictable branch the single cell never takes.
//
// The loop is instantiated by the engines of sim/monomorphize.cpp, the
// only dispatch (sim/arena.h):
//
//   - built-in (policy, estimator) pairs: Policy = a MonoPolicyRef over
//     a concrete cache::UtilityPolicy<Kernel>, Estimator = a concrete
//     estimator kernel. Every per-request call (estimate, observe,
//     utility, admission) inlines, and the "schedule a completion
//     event?" branch resolves at compile time via ObservationTraits.
//   - user-registered components: Policy = the cache::CachePolicy
//     interface, Estimator = the net::BandwidthEstimator interface, built
//     through the registry.
//
// The *decision* half of the loop — admission, utility eviction,
// partial-prefix management, estimator observe/estimate with deferred
// completion observations — lives in sim/decision.h as the
// clock-agnostic DecisionKernel; this file contributes the *simulated
// delivery* half (trace iteration, the §2.2 delivery model, session
// dynamics, patching, metrics) and drives the kernels from the simulated
// clock. The live proxy daemon (src/server/) drives the identical
// kernel from the wall clock.
//
// Because both instantiations execute the identical expressions in the
// identical order over the identical RNG streams, their results are
// bit-identical (tests/test_mono.cpp asserts this for every registered
// policy x estimator pair, single cell and fleet, and the golden CSVs
// under tests/golden/ pin the series across refactors of this file).
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <vector>

#include "cache/store.h"
#include "fleet/fleet.h"
#include "net/fault.h"
#include "net/path_process.h"
#include "sim/decision.h"
#include "sim/delivery.h"
#include "sim/event_queue.h"
#include "sim/metrics.h"
#include "sim/simulator.h"
#include "workload/generator.h"
#include "workload/request_stream.h"

namespace sc::sim {

/// Per-object in-flight origin stream (patching extension), paced at the
/// playout rate. Dense per-object slots (ids are dense) keep the lookup a
/// single array access and the loop allocation-free; end == 0 means "no
/// stream in flight" (every real completion time is > 0).
struct InFlightStream {
  double start = 0.0;
  double end = 0.0;
};

/// One proxy's mutable state: its store, deferred observations,
/// in-flight patching table and compiled fault schedule.
struct ProxyState {
  ObservationQueue events;
  cache::PartialStore store{0.0};
  std::vector<InFlightStream> in_flight;
  /// Compiled fault schedule (net/fault.h), rebuilt per run from
  /// SimulationConfig::fault. Empty (and never consulted) when the
  /// run's plan is empty.
  net::FaultSchedule faults;
};

/// The reusable mutable state of one simulation run: everything the
/// request loop mutates that is sized by the catalog rather than learned
/// per run. A sim::SimulationArena keeps one RunState per cached engine
/// so back-to-back simulations reuse the storage; reset() restores every
/// piece to its freshly-constructed state.
struct RunState {
  std::optional<net::PathSampler> paths;
  /// Chunk-wise iteration over the run's request stream plus the dense
  /// per-object delivery operands (see sim/delivery.h). Both reuse
  /// their buffers across simulations.
  workload::RequestCursor cursor;
  DeliveryTable delivery;
  /// One entry per proxy (one for the single cell).
  std::vector<ProxyState> proxies;

  /// Prepare a run of `n_proxies` proxies of `capacity_bytes` each over
  /// `stream` and `model` (bit-identical to building each member from
  /// scratch; storage reused). `chunk` is the cursor block size
  /// (SimulationConfig::stream_chunk) — results are identical for every
  /// value, only locality changes.
  void reset(const workload::RequestStream& stream, std::size_t chunk,
             std::shared_ptr<const net::PathModel> model,
             double capacity_bytes, bool patching,
             std::size_t n_proxies = 1) {
    const std::size_t n_objects = stream.catalog().size();
    proxies.resize(n_proxies);
    for (ProxyState& proxy : proxies) {
      proxy.events.clear();
      proxy.events.reserve(64);
      proxy.store.reset(capacity_bytes);
      proxy.store.reserve(n_objects);
      if (patching) {
        proxy.in_flight.assign(n_objects, InFlightStream{});
      } else {
        proxy.in_flight.clear();
      }
    }
    if (paths.has_value()) {
      paths->rebind(std::move(model));
    } else {
      paths.emplace(std::move(model));
    }
    cursor.bind(stream, chunk);
  }
};

/// Execute the full trace over N proxies and return the measured-window
/// metrics, aggregated in request order. `kernels[p]` must be built over
/// `state.proxies[p]`'s store and observation queue, for every proxy of
/// `state` (reset with n_proxies == fleet->config->proxies). A null
/// `fleet` is the single cell: only proxy 0 runs.
///
/// `rng` must be the run's root stream (Rng(seed), with "paths" already
/// forked off by the caller if it built the model here); the loop forks
/// only tag-keyed children, so fork order elsewhere cannot perturb it.
/// `Policy` needs on_access(id, now_s, store) and name(); `Estimator`
/// needs observe(path, throughput, now_s) and overhead_packets(), plus
/// either uses_observations() or the kernel kUsesObservations constant.
template <typename Policy, typename Estimator>
[[nodiscard]] SimulationResult run_request_loop(
    const workload::RequestStream& stream, const SimulationConfig& config,
    RunState& state, DecisionKernel<Policy, Estimator>* kernels,
    util::Rng& rng, fleet::FleetRun* fleet) {
  const workload::Catalog& catalog = stream.catalog();
  const std::size_t total_requests = stream.num_requests();
  const workload::CatalogView view = catalog.view();
  const std::size_t n = fleet != nullptr ? state.proxies.size() : 1;

  net::PathSampler& paths = *state.paths;
  const net::PathModel& model = paths.model();
  // Constant-bandwidth scenarios (the paper's main setting) sample the
  // mean directly: no switch, no sampler state, one contiguous load.
  const bool constant_bw = model.mode() == net::VariationMode::kConstant;
  const double* path_means = model.means().data();
  // One up-front scan keeps the unchecked fast-path read below safe for
  // hand-built catalogs whose per-object path ids exceed the model
  // (generated catalogs always use path == id < size).
  for (std::size_t i = 0; i < view.size; ++i) {
    if (view.path[i] >= model.size()) {
      throw std::out_of_range("run_request_loop: object path id " +
                              std::to_string(view.path[i]) +
                              " outside the path model");
    }
  }

  // Oracle / purely-active estimators discard observations; skip the
  // per-transfer event traffic for them entirely (the queue stays empty,
  // so tick() degenerates to one size check per request). For kernel
  // estimators this is a compile-time constant.
  const bool estimator_observes = kernels[0].observes();
  // Fault injection (net/fault.h): compile the plan once per run. With
  // an empty plan every hook below short-circuits on a constant flag
  // test, so the loop executes the exact pre-fault expression stream —
  // bit-identical results, golden-CSV enforced. The schedule seed is a
  // tag-keyed fork of the run's root stream (fork() is const, so this
  // perturbs nothing), making fault timing identical across engines,
  // proxies and thread counts but independent across replications. Each
  // fleet proxy compiles for its own FaultScope{proxy, region}, so a
  // window tagged @region0 survives only on region 0's proxies; the
  // single cell compiles for the standalone scope, where scoped windows
  // stay inert.
  const bool have_faults = !config.fault.empty();
  const std::uint64_t fault_seed =
      have_faults ? rng.fork("faults").seed() : 0;
  for (std::size_t p = 0; p < n; ++p) {
    ProxyState& proxy = state.proxies[p];
    if (have_faults) {
      const net::FaultScope scope =
          fleet != nullptr
              ? net::FaultScope{static_cast<std::uint32_t>(p),
                                fleet->config->region_of(p)}
              : net::FaultScope{};
      proxy.faults.compile(config.fault, model.size(), fault_seed, scope);
      kernels[p].set_faults(&proxy.faults);
    } else {
      proxy.faults.clear();
      kernels[p].set_faults(nullptr);
    }
  }
  MetricsCollector metrics;
  const auto warm_count = static_cast<std::size_t>(
      static_cast<double>(total_requests) * config.warmup_fraction);

  util::Rng viewing_rng = rng.fork("viewing");
  // Session dynamics draw from their own tag-keyed stream so enabling
  // them never perturbs the viewing/path/estimator streams (and "full"
  // mode draws nothing at all, keeping it a field-identical oracle).
  const bool interactive = config.interactivity.enabled();
  if (interactive && config.viewing.enabled) {
    throw std::invalid_argument(
        "run_request_loop: ViewingConfig and a non-full interactivity "
        "model are both session-length models and cannot be combined; "
        "use --interactivity alone (it supersedes --viewing)");
  }
  util::Rng session_rng = rng.fork("session");

  // Per-object §2.2 products, premultiplied once per run in the
  // contiguous vectorizable fills of sim/delivery.h — they depend only
  // on the catalog (and constant-mode path means), so per-request
  // recomputation would be pure overhead.
  DeliveryTable& pre = state.delivery;
  build_delivery_table(view, constant_bw ? path_means : nullptr, pre);

  // The stream is consumed in chunks: the cursor materializes one SoA
  // request block at a time (replayed, regenerated, or re-read from
  // disk — sources are interchangeable and byte-identical) and the
  // sequential decision loop below runs over its contiguous lanes.
  // Identical expressions in identical order to the
  // one-request-at-a-time loop this replaces, so results are
  // bit-identical at every chunk size.
  workload::RequestCursor& cursor = state.cursor;
  while (const workload::RequestBlock* block = cursor.next()) {
    for (std::size_t i = 0; i < block->size; ++i) {
      const std::size_t idx = block->first + i;
      const double now_s = block->time_s[i];
      const workload::ObjectId id = block->object[i];
      // The fleet couplings below are each inert by flag: routing
      // (n == 1 pins proxy 0 before the sharder is consulted), peer
      // cooperation (coop == 0), and the shared uplink bucket
      // (uplink_mbps == 0).
      std::uint32_t p = 0;
      if (fleet != nullptr) {
        if (idx == 0) fleet->t_first = now_s;
        fleet->t_last = now_s;
        if (n > 1) p = fleet->sharder.proxy_for(idx, id);
      }
      DecisionKernel<Policy, Estimator>& decisions = kernels[p];
      ProxyState& proxy = state.proxies[p];
      // Deliver pending transfer-completion observations first.
      decisions.tick(now_s);

      const double duration_s = view.duration_s[id];
      const double bitrate = view.bitrate[id];
      const double size_bytes = view.size_bytes[id];
      double bw, db;
      if (constant_bw) {
        bw = pre.bw[id];
        db = pre.db[id];
      } else {
        // Variable-bandwidth samplers are stateful and sequential; the
        // draw stays in the decision loop, in the original order.
        bw = paths.sample_bandwidth(view.path[id], now_s);
        db = duration_s * bw;
      }
      // Fault injection: an active degrade window scales this path's
      // instantaneous bandwidth; an outage or down flap half-period
      // (scale == 0) cuts the origin entirely and the request is served
      // cache-only.
      double fault_scale = 1.0;
      if (have_faults) {
        fault_scale = proxy.faults.bandwidth_scale(view.path[id], now_s);
        if (fault_scale > 0.0 && fault_scale != 1.0) {
          bw *= fault_scale;
          db = duration_s * bw;
        }
      }
      const double cached_before = decisions.cached(id);
      double request_bytes = size_bytes;
      ServiceOutcome outcome;
      if (fault_scale > 0.0) {
        outcome =
            deliver_precomputed(size_bytes, pre.dr[id], db, bw, cached_before);
      } else {
        outcome = deliver_cache_only(size_bytes, cached_before);
      }

      // Session dynamics: a client that departs after watching a
      // fraction of the stream only needed the viewed prefix delivered.
      // Re-derive the outcome over that prefix — startup delay and
      // quality are what the client experienced for the part it
      // watched, the origin connection is cancelled at departure (its
      // completion observation below uses the truncated transfer), and
      // byte accounting covers only shipped bytes.
      double viewed_fraction = 1.0;
      double session_s = duration_s;
      if (interactive) {
        viewed_fraction = sample_viewed_fraction(config.interactivity,
                                                 duration_s, block->view_s[i],
                                                 session_rng);
        if (viewed_fraction < 1.0) {
          session_s = viewed_fraction * duration_s;
          const double viewed_bytes = session_s * bitrate;
          request_bytes = viewed_bytes;
          if (fault_scale > 0.0) {
            outcome = deliver(session_s, bitrate, viewed_bytes, bw,
                              std::min(cached_before, viewed_bytes));
          } else {
            outcome = deliver_cache_only(viewed_bytes,
                                         std::min(cached_before, viewed_bytes));
          }
        }
      }

      // Client interactivity: scale the byte accounting (not the startup
      // metrics) by the viewed fraction of the stream.
      if (config.viewing.enabled) {
        double fraction = 1.0;
        if (viewing_rng.uniform() >= config.viewing.complete_probability) {
          fraction = viewing_rng.uniform(config.viewing.min_fraction, 1.0);
        }
        const double viewed = fraction * size_bytes;
        request_bytes = viewed;
        outcome.bytes_from_cache = std::min(outcome.bytes_from_cache, viewed);
        // During a full outage the deficit beyond the cached prefix is
        // denied, not fetched (fault_scale == 1 whenever faults are off,
        // so the inert path is the historical expression).
        outcome.bytes_from_origin =
            fault_scale > 0.0
                ? std::max(0.0, viewed - outcome.bytes_from_cache)
                : 0.0;
        outcome.origin_transfer_s = outcome.bytes_from_origin > 0
                                        ? outcome.bytes_from_origin / bw
                                        : 0.0;
      }

      // Cooperation: the largest peer prefix extends this proxy's own —
      // both are prefixes of the same object, so the peer contributes
      // only the part beyond what the local cache already served. Peer
      // bytes are backbone-free shared traffic (they never cross the
      // uplink) at one peer hop of extra prefetch wait; startup
      // immediacy is the local §2.2 outcome either way. Outages are not
      // bypassed: a cache-only request has bytes_from_origin == 0.
      double peer_extra = 0.0;
      if (fleet != nullptr && fleet->coop && outcome.bytes_from_origin > 0) {
        double best = 0.0;
        for (std::size_t q = 0; q < n; ++q) {
          if (q == p) continue;
          best = std::max(best, state.proxies[q].store.cached(id));
        }
        peer_extra = std::min(outcome.bytes_from_origin,
                              std::max(0.0, best - outcome.bytes_from_cache));
        if (peer_extra > 0.0) {
          outcome.bytes_shared += peer_extra;
          outcome.bytes_from_origin -= peer_extra;
          outcome.origin_transfer_s = outcome.bytes_from_origin > 0
                                          ? outcome.bytes_from_origin / bw
                                          : 0.0;
          if (outcome.delay_s > 0.0) {
            outcome.delay_s += fleet->config->peer_latency_s;
          }
        }
      }

      // Patching: share the tail of an in-flight transmission of the
      // same object; only the missed prefix still needs the origin.
      if (config.patching.enabled && outcome.bytes_from_origin > 0) {
        InFlightStream& flight = proxy.in_flight[id];
        if (now_s < flight.end) {
          // flight.end is start + the originating session's transmission
          // time: the full playout duration, or its departure point when
          // session dynamics truncated it.
          const double remaining_shareable =
              std::min(size_bytes, bitrate * (flight.end - now_s));
          const double shared = std::min(outcome.bytes_from_origin,
                                         std::max(0.0, remaining_shareable));
          outcome.bytes_shared += shared;
          outcome.bytes_from_origin -= shared;
          outcome.origin_transfer_s = outcome.bytes_from_origin > 0
                                          ? outcome.bytes_from_origin / bw
                                          : 0.0;
        }
        if (outcome.bytes_from_origin > 0) {
          // This request starts (or replaces) the object's shared
          // stream, paced at the playout rate until the session ends
          // (the full duration, or the client's early departure).
          flight.start = now_s;
          flight.end = now_s + session_s;
        }
      }

      // Shared finite uplink: what still has to cross the backbone
      // drains the fleet-wide token bucket; a drained bucket queues the
      // transfer, stretching it (and the throughput passive estimators
      // observe) and delaying playout — the cross-proxy coupling.
      if (fleet != nullptr && fleet->uplink.enabled() &&
          outcome.bytes_from_origin > 0) {
        const double wait_s =
            fleet->uplink.acquire(now_s, outcome.bytes_from_origin);
        if (wait_s > 0.0) {
          outcome.delay_s += wait_s;
          outcome.immediate = false;
          outcome.origin_transfer_s += wait_s;
          outcome.origin_throughput =
              outcome.bytes_from_origin / outcome.origin_transfer_s;
        }
      }

      const bool measured = idx >= warm_count;
      if (measured) {
        metrics.record(outcome, view.value[id]);
        // Cache-only service: the part of the (viewed) request the
        // cached prefix could not cover was denied, not delayed.
        const bool denied = have_faults && fault_scale <= 0.0;
        if (denied) {
          metrics.record_denied(request_bytes - outcome.bytes_from_cache);
        }
        // Session stats only when a session model is active: the
        // accessors default to "every session full" on zero samples, so
        // the disabled path pays nothing (its throughput is perf-gated).
        if (interactive) {
          metrics.record_session(viewed_fraction, viewed_fraction < 1.0);
        }
        if (fleet != nullptr) {
          fleet::ProxyStats& ps = fleet->per_proxy[p];
          ++ps.requests;
          if (cached_before > 0.0) ++ps.hits;
          ps.origin_bytes += outcome.bytes_from_origin;
          if (peer_extra > 0.0) {
            ++ps.peer_assisted;
            ps.peer_bytes += peer_extra;
          }
          if (denied) {
            ++ps.denied_requests;
            ps.denied_bytes += request_bytes - outcome.bytes_from_cache;
          }
        }
      }

      // Passive estimators learn this transfer's throughput at
      // completion.
      if (estimator_observes && outcome.bytes_from_origin > 0) {
        decisions.record_transfer(view.path[id], outcome.origin_throughput,
                                  now_s + outcome.origin_transfer_s);
      }

      // Replacement decisions happen after the request is served.
      // During a full outage the origin cannot supply fill bytes, so
      // the whole decision (frequency update, admission, eviction) is
      // skipped: the cache holds its state until the path recovers.
      // This is also what keeps occupancy <= budget under chaos — no
      // admission can be granted that the origin cannot back.
      if (fault_scale > 0.0) {
        const double cached_after = decisions.admit(id, now_s);

        // Growth of this object's prefix is origin->cache fill traffic.
        if (measured && cached_after > cached_before) {
          metrics.record_fill(cached_after - cached_before);
          if (fleet != nullptr) {
            fleet->per_proxy[p].fill_bytes += cached_after - cached_before;
          }
        }
      }
    }
  }

  SimulationResult result;
  for (std::size_t p = 0; p < n; ++p) kernels[p].drain();
  result.policy_name = kernels[0].policy().name();
  result.metrics = metrics;
  result.warmup_requests = warm_count;
  result.measured_requests = total_requests - warm_count;
  for (std::size_t p = 0; p < n; ++p) {
    result.final_occupancy_bytes += state.proxies[p].store.used();
    result.final_cached_objects += state.proxies[p].store.object_count();
    result.estimator_overhead_packets +=
        kernels[p].estimator().overhead_packets();
  }
  return result;
}

/// The single-proxy entry: one (policy, estimator) pair over `state`
/// (reset for one proxy).
template <typename Policy, typename Estimator>
[[nodiscard]] SimulationResult run_request_loop(
    const workload::RequestStream& stream, const SimulationConfig& config,
    RunState& state, Policy& policy, Estimator& estimator, util::Rng& rng) {
  DecisionKernel<Policy, Estimator> kernel(policy, estimator,
                                           state.proxies[0].store,
                                           state.proxies[0].events);
  return run_request_loop(stream, config, state, &kernel, rng, nullptr);
}

}  // namespace sc::sim
