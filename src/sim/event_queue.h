// Discrete-event scheduling for the proxy simulator.
//
// The request trace drives the simulation, but some effects are deferred:
// a passive bandwidth estimator only learns a transfer's throughput when
// the transfer *completes*. BasicEventQueue orders such deferred payloads
// by simulation time with FIFO tie-breaking (a monotone sequence number).
//
// The payload type is a template parameter so the simulator's hot path
// can defer a POD ObservationEvent (path id + throughput, drained
// straight into the estimator) without a heap-allocated std::function per
// event. The heap is an explicit std::vector managed with std::push_heap
// / std::pop_heap, so a popped event is *moved* out of storage (the old
// std::priority_queue could only copy from its const top()) and storage
// is reused across events: in steady state scheduling allocates nothing.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <utility>
#include <vector>

namespace sc::sim {

template <typename Payload>
class BasicEventQueue {
 public:
  /// Schedule `payload` at absolute simulation time `time_s`.
  void schedule(double time_s, Payload payload) {
    events_.push_back(Event{time_s, next_seq_++, std::move(payload)});
    std::push_heap(events_.begin(), events_.end(), Later{});
  }

  /// Deliver every event with time <= `until_s` to `fn(now_s, payload&)`,
  /// in (time, insertion) order. Handlers may schedule further events;
  /// those are honored if they also fall within the horizon.
  template <typename Fn>
  void run_until(double until_s, Fn&& fn) {
    while (!events_.empty() && events_.front().time <= until_s) {
      std::pop_heap(events_.begin(), events_.end(), Later{});
      Event ev = std::move(events_.back());
      events_.pop_back();
      now_ = ev.time;
      fn(ev.time, ev.payload);
    }
  }

  /// Drain the queue completely.
  template <typename Fn>
  void run_all(Fn&& fn) {
    run_until(std::numeric_limits<double>::infinity(), std::forward<Fn>(fn));
  }

  /// Pre-size the backing storage (hot paths can avoid even the initial
  /// amortized growth).
  void reserve(std::size_t n) { events_.reserve(n); }

  /// Drop all pending events and restart the sequence counter and clock,
  /// keeping the backing storage: after clear() the queue behaves exactly
  /// like a freshly constructed one (arena reuse across simulations).
  void clear() noexcept {
    events_.clear();
    next_seq_ = 0;
    now_ = 0.0;
  }

  [[nodiscard]] bool empty() const noexcept { return events_.empty(); }
  [[nodiscard]] std::size_t size() const noexcept { return events_.size(); }
  [[nodiscard]] double now() const noexcept { return now_; }

  /// Visit every pending event as `fn(time_s, const Payload&)`, in heap
  /// storage order (NOT delivery order). Read-only audit hook
  /// (sim::StateAuditor) — delivery semantics are untouched.
  template <typename Fn>
  void for_each(Fn&& fn) const {
    for (const Event& ev : events_) fn(ev.time, ev.payload);
  }

 private:
  struct Event {
    double time;
    std::uint64_t seq;
    Payload payload;
  };
  /// Max-heap comparator that surfaces the *earliest* (time, seq) event
  /// at front(); seq keeps same-timestamp events FIFO.
  struct Later {
    bool operator()(const Event& a, const Event& b) const noexcept {
      if (a.time != b.time) return a.time > b.time;
      return a.seq > b.seq;
    }
  };

  std::vector<Event> events_;
  std::uint64_t next_seq_ = 0;
  double now_ = 0.0;
};

/// The simulator's deferred estimator observation: a completed origin
/// transfer on `path` that achieved `throughput` bytes/second. POD — no
/// per-event allocation.
struct ObservationEvent {
  std::size_t path = 0;  // net::PathId
  double throughput = 0.0;
};

using ObservationQueue = BasicEventQueue<ObservationEvent>;

}  // namespace sc::sim
