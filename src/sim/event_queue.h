// Discrete-event scheduling for the proxy simulator.
//
// The request trace drives the simulation, but some effects are deferred:
// a passive bandwidth estimator only learns a transfer's throughput when
// the transfer *completes*. Two stores hold such deferred observations:
//
//   BasicEventQueue      - one heap over every path, delivering in (time,
//                          insertion) order (FIFO ties by a monotone
//                          sequence number): the order any consumer,
//                          including the daemon's wall-clock ticker, can
//                          rely on.
//   PathObservationLists - one (time, insertion)-ordered list per path,
//                          delivered one path at a time, for consumers
//                          whose per-path state never reads another
//                          path's (sim/decision.h picks by the
//                          estimator's type).
//
// The heap's payload type is a template parameter so the simulator's hot
// path can defer a POD ObservationEvent (path id + throughput, drained
// straight into the estimator) without a heap-allocated std::function per
// event. The heap is an explicit std::vector managed with std::push_heap
// / std::pop_heap, so a popped event is *moved* out of storage (the old
// std::priority_queue could only copy from its const top()) and storage
// is reused across events. Both stores reuse their storage across runs:
// in steady state scheduling allocates nothing.
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

/// Deferred observations kept as one list per path. Each path's list is
/// in (time, insertion) order, so a path receives exactly its
/// subsequence of what an ObservationQueue fed the same schedule calls
/// would deliver, provided deliveries never go back in time (the
/// request loop's clock is non-decreasing and every event is due at or
/// after the time it is scheduled). Across paths there is no order.
///
/// Storage: a head index per path into one shared node pool with a free
/// list. reset() keeps the capacity, so the steady state allocates
/// nothing; memory is O(paths + pending events).
class PathObservationLists {
 public:
  /// Drop every pending event and size the heads for paths
  /// [0, n_paths). A larger path id still works: schedule() adds its
  /// head on first use.
  void reset(std::size_t n_paths) {
    head_.assign(n_paths, kNone);
    nodes_.clear();
    nodes_.reserve(n_paths);  // about one pending event per path
    free_ = kNone;
    size_ = 0;
  }

  /// Schedule `event` at absolute simulation time `time_s`, after every
  /// pending event of its path due at or before `time_s` (ties FIFO).
  void schedule(double time_s, const ObservationEvent& event) {
    if (event.path >= head_.size()) head_.resize(event.path + 1, kNone);
    std::size_t node = free_;
    if (node != kNone) {
      free_ = nodes_[node].next;
    } else {
      node = nodes_.size();
      nodes_.emplace_back();
    }
    std::size_t* link = &head_[event.path];
    while (*link != kNone && nodes_[*link].time <= time_s) {
      link = &nodes_[*link].next;
    }
    nodes_[node] = Node{time_s, event.throughput, *link};
    *link = node;
    ++size_;
  }

  /// Deliver `path`'s events due at or before `until_s` to
  /// `fn(time_s, const ObservationEvent&)`, in (time, insertion) order.
  template <typename Fn>
  void run_until(std::size_t path, double until_s, Fn&& fn) {
    if (path >= head_.size()) return;
    while (head_[path] != kNone) {
      const std::size_t node = head_[path];
      const Node due = nodes_[node];
      if (due.time > until_s) return;
      head_[path] = due.next;
      nodes_[node].next = free_;
      free_ = node;
      --size_;
      fn(due.time, ObservationEvent{path, due.throughput});
    }
  }

  /// Deliver every path's events due at or before `until_s`, path by
  /// path (each path in (time, insertion) order).
  template <typename Fn>
  void run_until(double until_s, Fn&& fn) {
    for (std::size_t path = 0; path < head_.size() && size_ != 0; ++path) {
      run_until(path, until_s, fn);
    }
  }

  [[nodiscard]] bool empty() const noexcept { return size_ == 0; }
  [[nodiscard]] std::size_t size() const noexcept { return size_; }

 private:
  static constexpr std::size_t kNone =
      std::numeric_limits<std::size_t>::max();

  struct Node {
    double time;
    double throughput;
    std::size_t next;  // next node of the same path, or of the free list
  };

  std::vector<std::size_t> head_;  // per path; kNone = no pending event
  std::vector<Node> nodes_;
  std::size_t free_ = kNone;
  std::size_t size_ = 0;
};

}  // namespace sc::sim
