#include "spans.h"

#include <algorithm>
#include <cstdio>

namespace perfbench {

double span_cost_ns() {
  static const double cost = [] {
    constexpr int kTrials = 31;
    constexpr int kSpans = 2000;
    std::vector<double> trials;
    trials.reserve(kTrials);
    for (int t = 0; t < kTrials; ++t) {
      LayerTotals totals;
      for (int i = 0; i < kSpans; ++i) {
        const ScopedSpan span(totals);
      }
      trials.push_back(static_cast<double>(totals.ns) / kSpans);
    }
    std::nth_element(trials.begin(), trials.begin() + kTrials / 2,
                     trials.end());
    return trials[kTrials / 2];
  }();
  return cost;
}

double LayerTotals::per_call_ns() const {
  return calls > 0 ? static_cast<double>(ns) / static_cast<double>(calls)
                   : 0.0;
}

double LayerTotals::mean_ns() const {
  return calls > 0 ? std::max(0.0, per_call_ns() - span_cost_ns()) : 0.0;
}

const char* layer_name(Layer layer) {
  switch (layer) {
    case Layer::kRequest: return "server.request";
    case Layer::kWireRead: return "wire.read";
    case Layer::kServeRange: return "server.serve_range";
    case Layer::kEndSession: return "server.end_session";
    case Layer::kPayload: return "server.payload";
    case Layer::kWireWrite: return "wire.write";
    case Layer::kTick: return "server.tick";
    case Layer::kClientRoundTrip: return "client.round_trip";
  }
  return "?";
}

bool write_spans(const std::string& path, const std::vector<Span>& spans) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "layer\tconn\tseq\tstart_ns\tduration_ns\tbytes\n");
  for (const Span& s : spans) {
    std::fprintf(f, "%s\t%u\t%u\t%lld\t%lld\t%llu\n", layer_name(s.layer),
                 s.conn, s.seq, static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns - s.start_ns),
                 static_cast<unsigned long long>(s.bytes));
  }
  return std::fclose(f) == 0;
}

}  // namespace perfbench
