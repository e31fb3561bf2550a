// Per-worker simulation arenas and the engine boundary.
//
// A sweep executes cells x replications simulations, and before this
// layer existed every one of them re-allocated its setup state: the
// event queue, the partial store's id array, the policy's frequency
// vector and heap, the estimator's per-path arrays, the in-flight
// patching table. None of that state depends on anything but the
// catalog size and the component specs, so a worker thread can build it
// once and reset()-reuse it across every simulation it executes.
//
// SimulationArena is that per-worker cache. It maps a
// (policy spec, estimator spec) pair to a MonoEngineBase: a simulation
// engine whose request loop (sim/run_loop.h) was instantiated at compile
// time for the pair's component types, carrying its reusable RunState
// and the components of N proxies (one for the single cell, N for a
// fleet cell). core::SweepRunner owns one arena per util::ThreadPool
// worker slot and hands each simulation task its worker's arena, driving
// steady-state sweep allocations from O(cells x replications) to
// O(workers x distinct specs).
//
// acquire_mono_engine is the only dispatch: sim::Simulator,
// fleet::run_fleet and core::SweepRunner all reach it through
// fleet::run_cell (fleet/fleet.h). Components come only from the
// registry, and the engine is picked from the types it built: when a
// spec's factory returns exactly cache::UtilityPolicy<P> and
// net::KernelEstimator<E> for built-in kernels P and E (as every
// built-in factory does), the (P, E) kernel engine runs every
// per-request call inlined; any other types get an engine over the
// virtual CachePolicy / BandwidthEstimator interfaces, on the same loop
// body.
//
// Lifecycle: a kernel engine keeps the components the registry built
// and rebinds them at the start of every run (UtilityPolicy<P>::rebind,
// the estimator kernel's rebind(paths, rng)), which leaves them equal to
// freshly built ones; a fleet cell with more proxies than the engine has
// seen builds the extra proxies through the registry. The virtual engine
// builds all of its components afresh for every run.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "sim/simulator.h"

namespace sc::fleet {
struct FleetRun;
}

namespace sc::sim {

/// Everything an engine needs to execute one simulation.
/// Strings and heavyweight state are referenced, not copied, so building
/// a context allocates nothing.
struct MonoRunContext {
  /// The run's request source (replayed, regenerated, or file-backed;
  /// see workload/request_stream.h). Shared per (alpha, replication) by
  /// core::SweepRunner exactly as materialized workloads used to be.
  const workload::RequestStream* stream = nullptr;
  /// The run's immutable path model; never null (fleet::run_cell's
  /// callers share or draw one before the call).
  std::shared_ptr<const net::PathModel> model;
  /// Component specs and simulation knobs. `config->seed` is ignored in
  /// favor of `seed` so sweep tasks need not copy the config per
  /// replication.
  const SimulationConfig* config = nullptr;
  std::uint64_t seed = 0;
  /// The fleet couplings of a fleet cell (fleet/fleet.h): the engine
  /// runs fleet->config->proxies proxies, each with an even share of
  /// `config->cache_capacity_bytes`, and the loop accumulates the
  /// per-proxy stats into it. Null runs the single cell.
  fleet::FleetRun* fleet = nullptr;
};

/// A compiled (policy, estimator) pair plus its reusable run state.
/// run() binds the components to the context's workload/model/seed —
/// bit-identical to constructing them fresh — and executes the request
/// loop. One virtual call per *simulation*; for built-in kernel types
/// everything inside is inlined.
class MonoEngineBase {
 public:
  virtual ~MonoEngineBase() = default;
  [[nodiscard]] virtual SimulationResult run(const MonoRunContext& context) = 0;
  /// Whether this is a kernel engine (per-request calls inlined) rather
  /// than the virtual one.
  [[nodiscard]] virtual bool inlined() const = 0;
};

/// Per-worker cache of engines keyed by the *raw*
/// (policy, estimator) spec strings (so a steady-state lookup is a pair
/// of string compares — no parsing, no hashing, no allocation). Not
/// thread-safe: each worker owns its arena exclusively.
class SimulationArena {
 public:
  struct Slot {
    std::string policy;
    std::string estimator;
    std::unique_ptr<MonoEngineBase> engine;
  };

  /// The slot for (policy, estimator), or nullptr if never seen.
  [[nodiscard]] Slot* find(const std::string& policy,
                           const std::string& estimator) noexcept {
    for (Slot& slot : slots_) {
      if (slot.policy == policy && slot.estimator == estimator) return &slot;
    }
    return nullptr;
  }

  Slot& insert(std::string policy, std::string estimator,
               std::unique_ptr<MonoEngineBase> engine) {
    slots_.push_back(
        Slot{std::move(policy), std::move(estimator), std::move(engine)});
    return slots_.back();
  }

  [[nodiscard]] std::size_t size() const noexcept { return slots_.size(); }
  void clear() noexcept { slots_.clear(); }

 private:
  std::vector<Slot> slots_;  // a handful of entries; linear scan
};

/// The engine for `context.config`'s (policy, estimator) pair, cached
/// in (or newly added to) `arena`; never null. On a miss the registry
/// builds proxy 0's components for `context`, and their types pick the
/// engine. Throws whatever the registry factories throw (util::SpecError
/// on malformed specs).
[[nodiscard]] MonoEngineBase* acquire_mono_engine(
    SimulationArena& arena, const MonoRunContext& context);

}  // namespace sc::sim
