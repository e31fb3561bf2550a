#include "fleet/sharding.h"

#include <algorithm>
#include <stdexcept>

#include "util/rng.h"
#include "util/spec.h"

namespace sc::fleet {

namespace {

const std::vector<std::string>& mode_names() {
  static const std::vector<std::string> names = {"hash", "affinity",
                                                 "random"};
  return names;
}

}  // namespace

ShardingConfig ShardingConfig::parse(const std::string& text) {
  ShardingConfig config;
  if (text.empty()) return config;
  const util::Spec spec = util::Spec::parse(text);
  if (spec.name == "hash") {
    config.mode = Mode::kHash;
    spec.require_only({"vnodes"});
    const long long vnodes = spec.get_int("vnodes", 64);
    if (vnodes < 1 || vnodes > 4096) {
      throw util::SpecError("sharding spec \"" + text +
                            "\": vnodes must be in [1, 4096]");
    }
    config.vnodes = static_cast<std::size_t>(vnodes);
  } else if (spec.name == "affinity") {
    config.mode = Mode::kAffinity;
    spec.require_only({"clients"});
    const long long clients = spec.get_int("clients", 4096);
    if (clients < 1 || clients > (1ll << 24)) {
      throw util::SpecError("sharding spec \"" + text +
                            "\": clients must be in [1, 2^24]");
    }
    config.clients = static_cast<std::size_t>(clients);
  } else if (spec.name == "random") {
    config.mode = Mode::kRandom;
    spec.require_only({});
  } else {
    std::string msg = "unknown sharding mode \"" + spec.name +
                      "\" (valid: " + util::join(mode_names());
    if (const auto near = util::closest_match(spec.name, mode_names())) {
      msg += "; did you mean \"" + *near + "\"?";
    }
    throw util::SpecError(msg + ")");
  }
  return config;
}

std::string ShardingConfig::to_string() const {
  switch (mode) {
    case Mode::kHash:
      return "hash:vnodes=" + std::to_string(vnodes);
    case Mode::kAffinity:
      return "affinity:clients=" + std::to_string(clients);
    case Mode::kRandom:
      break;
  }
  return "random";
}

void Sharder::compile(const ShardingConfig& config, std::size_t n_proxies,
                      std::uint64_t seed) {
  if (n_proxies == 0) {
    throw std::invalid_argument("Sharder: n_proxies == 0");
  }
  config_ = config;
  n_proxies_ = n_proxies;
  seed_ = seed;
  ring_.clear();
  slice_first_.clear();
  client_proxy_.clear();
  switch (config.mode) {
    case ShardingConfig::Mode::kHash: {
      ring_.reserve(n_proxies * config.vnodes);
      for (std::size_t p = 0; p < n_proxies; ++p) {
        for (std::size_t v = 0; v < config.vnodes; ++v) {
          // splitmix64 of (seed, proxy, vnode): well-spread fixed ring
          // points, identical for every engine and thread count.
          const std::uint64_t h = util::splitmix64(
              seed ^ util::splitmix64(0x9E3779B97F4A7C15ull * (p + 1) +
                                      0xBF58476D1CE4E5B9ull * (v + 1)));
          ring_.push_back(RingPoint{h, static_cast<std::uint32_t>(p)});
        }
      }
      std::sort(ring_.begin(), ring_.end(),
                [](const RingPoint& a, const RingPoint& b) {
                  return a.point < b.point ||
                         (a.point == b.point && a.proxy < b.proxy);
                });
      // Index 2^k equal slices of the hash space, 2^k >= ring size (and
      // k >= 1 so the shift stays below 64): each slice keeps the first
      // ring point at or past its start, so a lookup steps over about
      // one point instead of binary-searching the ring.
      int bits = 1;
      while ((std::size_t{1} << bits) < ring_.size()) ++bits;
      slice_shift_ = 64 - bits;
      slice_first_.resize(std::size_t{1} << bits);
      std::size_t pos = 0;
      for (std::size_t s = 0; s < slice_first_.size(); ++s) {
        const std::uint64_t start = std::uint64_t{s} << slice_shift_;
        while (pos < ring_.size() && ring_[pos].point < start) ++pos;
        slice_first_[s] = static_cast<std::uint32_t>(pos);
      }
      break;
    }
    case ShardingConfig::Mode::kAffinity: {
      client_proxy_.resize(config.clients);
      for (std::size_t c = 0; c < config.clients; ++c) {
        client_proxy_[c] = static_cast<std::uint32_t>(
            util::splitmix64(seed ^ (0xD1342543DE82EF95ull * (c + 1))) %
            n_proxies);
      }
      break;
    }
    case ShardingConfig::Mode::kRandom:
      break;
  }
}

std::uint32_t Sharder::proxy_for(std::size_t request_index,
                                 workload::ObjectId object) const noexcept {
  if (n_proxies_ <= 1) return 0;
  switch (config_.mode) {
    case ShardingConfig::Mode::kHash: {
      // Clockwise successor on the ring: the first point >= the object's
      // hash, wrapping to the first point past the top. Every point
      // before the hash's slice entry lies below the slice start, so the
      // scan from there finds what std::lower_bound would.
      const std::uint64_t h =
          util::splitmix64(seed_ ^ util::splitmix64(object + 1));
      std::size_t pos = slice_first_[h >> slice_shift_];
      while (pos < ring_.size() && ring_[pos].point < h) ++pos;
      return pos < ring_.size() ? ring_[pos].proxy : ring_.front().proxy;
    }
    case ShardingConfig::Mode::kAffinity: {
      const std::size_t client =
          util::splitmix64(seed_ ^ (0x94D049BB133111EBull * (request_index + 1))) %
          client_proxy_.size();
      return client_proxy_[client];
    }
    case ShardingConfig::Mode::kRandom:
      break;
  }
  return static_cast<std::uint32_t>(
      util::splitmix64(seed_ ^ (0x2545F4914F6CDD1Dull * (request_index + 1))) %
      n_proxies_);
}

}  // namespace sc::fleet
