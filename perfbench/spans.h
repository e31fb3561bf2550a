// Span recording for the benchmark's traced runs.
//
// Spans are taken in the benchmark's own code, around calls into each
// layer's public functions; nothing inside src/ is instrumented. The
// simulator workloads make tens of millions of layer calls per run, so
// their spans are folded into per-layer totals as they close. The serve
// workloads keep every span in per-thread memory, keyed by (connection,
// sequence) so a client round trip can be matched with the server spans
// of the same request, and write them out when the run ends.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

[[nodiscard]] inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// What one empty span measures: the cost of the two clock reads that
/// bracket every span (median of many trials, nanoseconds). Per-call
/// means subtract it so sub-100 ns layers are not dominated by the timer.
[[nodiscard]] double span_cost_ns();

/// Call count and total measured time of one layer's spans.
struct LayerTotals {
  std::uint64_t calls = 0;
  std::int64_t ns = 0;

  /// Mean measured time per call (0 without calls).
  [[nodiscard]] double per_call_ns() const;
  /// The same with the timer's own cost removed (>= 0).
  [[nodiscard]] double mean_ns() const;
};

/// Adds its lifetime to a LayerTotals when it goes out of scope.
class ScopedSpan {
 public:
  explicit ScopedSpan(LayerTotals& totals)
      : totals_(totals), start_(now_ns()) {}
  ~ScopedSpan() {
    totals_.ns += now_ns() - start_;
    ++totals_.calls;
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  LayerTotals& totals_;
  std::int64_t start_;
};

/// The layer boundaries of the serve workloads' traced run.
enum class Layer : std::uint8_t {
  kRequest,          // server: poll readiness to reply written (parent)
  kWireRead,         // wire::read_frame + wire::decode_get
  kServeRange,       // ServiceEngine::serve_range
  kEndSession,       // ServiceEngine::end_session
  kPayload,          // server::fill_payload
  kWireWrite,        // wire::write_frame
  kTick,             // ServiceEngine::tick on the ticker thread
  kClientRoundTrip,  // client: send start to reply verified
};

[[nodiscard]] const char* layer_name(Layer layer);

/// One recorded span. `conn` is the client's local TCP port (the server
/// sees it as the peer port), `seq` the GET's index on that connection;
/// together they identify one request on both sides of the socket.
struct Span {
  std::uint32_t conn = 0;
  std::uint32_t seq = 0;
  Layer layer = Layer::kRequest;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::uint64_t bytes = 0;  // payload bytes (kPayload), else 0
};

/// Write spans as tab-separated lines (layer, conn, seq, start_ns,
/// duration_ns, bytes). False when the file cannot be written.
[[nodiscard]] bool write_spans(const std::string& path,
                               const std::vector<Span>& spans);

}  // namespace perfbench
