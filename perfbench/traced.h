// Spans around the decision path: the policy's admission/eviction
// decision and the bandwidth estimator's estimate and observe calls.
//
// The fleet and the serving engine build their policy and estimator
// through the component registry, so their traced runs name the specs
// "traced:of=<spec>" (e.g. "traced:of=pb"). Those wrap exactly what the
// registry builds for the inner spec, forward every call, and record a
// span around on_access, estimate and observe into the current sink.
// The wrapped program computes the same results; the benchmark checks
// that it does.
#pragma once

#include <cstdint>

#include "spans.h"
#include "workloads.h"

namespace perfbench {

struct DecisionSpans {
  LayerTotals admit;     // policy decision, including nested estimates
  LayerTotals estimate;  // estimator estimate
  LayerTotals observe;   // estimator observe
};

/// Register the "traced" policy and estimator specs (idempotent).
void register_traced_components();

/// Where the traced components record. Calls must be serialized: the
/// fleet loop is single-threaded and the serving engine makes every
/// decision under its lock. Null (the default) detaches.
void set_decision_sink(DecisionSpans* sink);

/// The decision path's per-layer metrics over `ops` operations (simulated
/// requests or GETs): per-call means, with the estimates nested inside
/// the admission decision subtracted from its self time, and calls per
/// operation.
[[nodiscard]] Values decision_metrics(const DecisionSpans& spans,
                                      std::uint64_t ops);

/// Seconds the decision path took per the spans, with the timer's own
/// cost removed (for attributing an untraced loop's time).
[[nodiscard]] double decision_seconds(const DecisionSpans& spans);

}  // namespace perfbench
