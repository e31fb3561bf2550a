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
// time for the pair, carrying its reusable RunState and the components
// of N proxies (one for the single cell, N for a fleet cell).
// core::SweepRunner owns one arena per util::ThreadPool worker slot and
// hands each simulation task its worker's arena, driving steady-state
// sweep allocations from O(cells x replications) to O(workers x
// distinct specs).
//
// acquire_mono_engine is the only dispatch: sim::Simulator,
// fleet::run_fleet and core::SweepRunner all reach it through
// fleet::run_cell (fleet/fleet.h). Built-in
// pairs (the registry's 8 x 4 policy x estimator spec space) get a
// kernel engine with every per-request call inlined; any other pair —
// user-registered components — gets an engine over the virtual
// CachePolicy / BandwidthEstimator interfaces, on the same loop body.
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
  /// Shared immutable path model (one per replication, see core::Sweep).
  /// When null the engine draws its own from `base`/`ratio` and the
  /// config's path seed — bit-identical by the PathModel RNG-snapshot
  /// contract.
  std::shared_ptr<const net::PathModel> model;
  const stats::EmpiricalDistribution* base = nullptr;
  const stats::EmpiricalDistribution* ratio = nullptr;
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
/// loop. One virtual call per *simulation*; for built-in pairs
/// everything inside is inlined.
class MonoEngineBase {
 public:
  virtual ~MonoEngineBase() = default;
  [[nodiscard]] virtual SimulationResult run(const MonoRunContext& context) = 0;
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

/// The engine for `config`'s (policy, estimator) pair, cached in (or
/// newly added to) `arena`; never null. Throws util::SpecError on
/// malformed specs, exactly like the registry factories.
[[nodiscard]] MonoEngineBase* acquire_mono_engine(
    SimulationArena& arena, const SimulationConfig& config);

/// Whether the (policy, estimator) pair of `config` gets a kernel engine
/// rather than the virtual one (test/diagnostic hook).
[[nodiscard]] bool mono_dispatchable(const SimulationConfig& config);

}  // namespace sc::sim
