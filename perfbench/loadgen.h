// Load generator for the proxy daemon's wire protocol.
//
// Each LoadConnection is one persistent TCP connection replaying
// Zipf-popularity streaming sessions: pick an object, fetch its prefix
// as fixed-size range GETs up to a per-session byte budget (cut short
// with the early-departure probability, the paper's §5 partial
// viewing), then move to the next object — which is exactly where the
// daemon ends a session. Frames go through wire::encode_get,
// write_frame and read_frame with per-connection buffers reused across
// GETs, so the generator allocates nothing per request on the cores it
// shares with the daemon.
//
// Every reply is checked for status, length and the cache/origin byte
// split; every 16th payload is compared byte for byte with
// server::fill_payload. Generator threads run with a 1 ns timer slack:
// the default 50 us slack alone would dominate a 4 KiB GET's latency.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "spans.h"
#include "stats/distributions.h"
#include "util/rng.h"
#include "workload/object_catalog.h"

namespace perfbench {

struct SessionShape {
  std::uint64_t range_bytes = 4096;
  std::uint64_t session_bytes = 64 * 1024;
  double depart_probability = 0.4;
};

/// Counts and samples of one load phase over all connections.
struct PhaseResult {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t payload_bytes = 0;
  double wall_s = 0.0;
  /// Open loop only: completion minus due time, and send minus due time.
  std::vector<double> latency_s;
  std::vector<double> late_s;
  /// Traced phases only: one client round-trip span per GET.
  std::vector<Span> spans;
  std::string first_error;

  void merge(PhaseResult&& other);
};

class LoadConnection {
 public:
  /// Connect to 127.0.0.1:`port`. `catalog` and `popularity` must
  /// outlive the connection; `rng` drives its sessions. Throws
  /// std::runtime_error when the connection cannot be made.
  LoadConnection(std::uint16_t port, const sc::workload::Catalog& catalog,
                 const sc::stats::ZipfLike& popularity,
                 const SessionShape& shape, sc::util::Rng rng);
  ~LoadConnection();
  LoadConnection(const LoadConnection&) = delete;
  LoadConnection& operator=(const LoadConnection&) = delete;

  /// Send the next GET of the current session and check its reply,
  /// counting it in `out`. False when the GET failed.
  bool get(PhaseResult& out, bool trace);

  /// The transport failed; no further GETs are possible.
  [[nodiscard]] bool broken() const noexcept { return broken_; }

 private:
  void start_session();
  [[nodiscard]] bool check_reply(std::uint64_t length, std::string& error);

  const sc::workload::Catalog& catalog_;
  const sc::stats::ZipfLike& popularity_;
  SessionShape shape_;
  sc::util::Rng rng_;
  int fd_ = -1;
  std::uint32_t local_port_ = 0;
  std::uint32_t seq_ = 0;
  bool broken_ = false;
  std::uint64_t object_ = 0;
  std::uint64_t offset_ = 0;
  std::uint64_t budget_ = 0;
  std::vector<std::uint8_t> request_;
  std::vector<std::uint8_t> body_;
  std::vector<std::uint8_t> expected_;
};

using Connections = std::vector<std::unique_ptr<LoadConnection>>;

/// Open `count` connections to `port`; connection i's sessions are
/// seeded from `seed` and i alone.
[[nodiscard]] Connections connect_all(std::uint16_t port, std::size_t count,
                                      const sc::workload::Catalog& catalog,
                                      const sc::stats::ZipfLike& popularity,
                                      const SessionShape& shape,
                                      std::uint64_t seed);

/// Open loop: every connection sends rate_per_s / connections GETs per
/// second on its own seeded Poisson schedule, a fixed count that spans
/// about `seconds`. Latency is timed from each GET's due time, so a
/// stall also delays the GETs queued behind it.
[[nodiscard]] PhaseResult run_open_loop(Connections& connections,
                                        double rate_per_s, double seconds,
                                        std::uint64_t seed, bool trace);

/// Closed loop: every connection sends its next GET as soon as the
/// previous reply is in, for `seconds`.
[[nodiscard]] PhaseResult run_closed_loop(Connections& connections,
                                          double seconds, bool trace);

}  // namespace perfbench
