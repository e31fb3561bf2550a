// Client→proxy assignment for the edge-fleet simulation (src/fleet/).
//
// A fleet cell routes every request of the shared trace to exactly one
// of its N proxies. The assignment is a *pure function* of
// (request index, object id, config, seed) — no mutable routing state —
// so fleet results stay bit-identical for every thread count and replay,
// exactly like the rest of the engine. Three registry-style modes:
//
//   hash[:vnodes=K]     Consistent hashing on the object id over a ring
//                       with K virtual nodes per proxy (the headline
//                       CDN mode): each object's whole request stream
//                       lands on one proxy, so per-proxy working sets
//                       shrink by ~N while Zipf head objects make the
//                       load uneven — K trades balance against ring
//                       size (docs/FLEET.md quantifies the bound).
//   affinity[:clients=C]  Client-affinity routing: requests are
//                       attributed to a synthetic population of C
//                       clients (hashed from the request index), and
//                       each client is pinned to one proxy. Every proxy
//                       sees the full object mix (no content locality),
//                       modeling DNS/anycast stickiness.
//   random              Seed-deterministic uniform per-request spray;
//                       the no-locality baseline.
//
// The spec grammar is the shared util::Spec grammar, nested comma-free
// inside a fleet spec: `fleet:sharding=hash:vnodes=64`.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "workload/object_catalog.h"

namespace sc::fleet {

struct ShardingConfig {
  enum class Mode { kHash, kAffinity, kRandom };

  Mode mode = Mode::kHash;
  /// Virtual nodes per proxy on the consistent-hash ring (hash mode).
  std::size_t vnodes = 64;
  /// Synthetic client population size (affinity mode).
  std::size_t clients = 4096;

  /// Parse "hash[:vnodes=K]" / "affinity[:clients=C]" / "random".
  /// Throws util::SpecError (with did-you-mean) on anything else.
  [[nodiscard]] static ShardingConfig parse(const std::string& text);

  /// Canonical spec string; parse() of the result reproduces the config.
  [[nodiscard]] std::string to_string() const;
};

/// A sharding config compiled against one fleet run: the consistent-hash
/// ring / client pin table are built once, and proxy_for() is a pure
/// const lookup (thread-safe, allocation-free).
class Sharder {
 public:
  /// Build the assignment for `n_proxies` proxies. `seed` fixes the ring
  /// point / client hash salts (use a tag-keyed fork of the run's root
  /// stream so replications differ but engines agree).
  void compile(const ShardingConfig& config, std::size_t n_proxies,
               std::uint64_t seed);

  /// The proxy serving request number `request_index` for `object`.
  [[nodiscard]] std::uint32_t proxy_for(std::size_t request_index,
                                        workload::ObjectId object)
      const noexcept;

 private:
  struct RingPoint {
    std::uint64_t point = 0;
    std::uint32_t proxy = 0;
  };

  ShardingConfig config_{};
  std::size_t n_proxies_ = 1;
  std::uint64_t seed_ = 0;
  /// hash mode: ring points sorted by point (clockwise successor lookup).
  std::vector<RingPoint> ring_;
  /// hash mode: for hash slice `h >> slice_shift_`, the position of the
  /// first ring point at or past the slice's start.
  std::vector<std::uint32_t> slice_first_;
  int slice_shift_ = 63;
  /// affinity mode: client index -> proxy pin.
  std::vector<std::uint32_t> client_proxy_;
};

}  // namespace sc::fleet
