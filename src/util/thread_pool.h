// Fixed-size worker pool with a work-sharing parallel_for.
//
// The sweep execution engine (core::SweepRunner) flattens an entire
// figure sweep into one task list and runs it here, instead of spawning
// an unbounded std::async thread per replication. Design points:
//
//   - parallel_for's *caller participates* in draining the loop, so it
//     is safe to nest parallel_for inside a pool task (the inner loop
//     completes on the calling worker even when every other worker is
//     busy) and it degrades gracefully to serial on a 1-core host.
//   - Iterations are claimed from an atomic counter, not enqueued one
//     task per index, so a 100k-cell loop costs O(threads) allocations.
//   - The first exception thrown by an iteration aborts the remaining
//     unstarted iterations and is rethrown on the caller.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace sc::util {

class ThreadPool {
 public:
  /// `threads == 0` selects std::thread::hardware_concurrency() (at
  /// least 1). The workers are spawned immediately and live until
  /// destruction.
  explicit ThreadPool(std::size_t threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  [[nodiscard]] std::size_t thread_count() const noexcept {
    return workers_.size();
  }

  /// Enqueue an independent fire-and-forget task. Tasks must not outlive
  /// the pool; the destructor drains the queue before joining.
  void submit(std::function<void()> task);

  /// Run `fn(i)` for every i in [0, n), distributing iterations over the
  /// workers *and* the calling thread. Returns after every iteration has
  /// finished. Empty ranges return immediately. If an iteration throws,
  /// remaining unstarted iterations are skipped and the first exception
  /// is rethrown here once in-flight iterations have drained.
  void parallel_for(std::size_t n, const std::function<void(std::size_t)>& fn);

  /// As parallel_for, but `fn(slot, i)` additionally receives the worker
  /// slot executing the iteration: 0 for the calling thread, 1..
  /// thread_count() for pool workers. Within one call a slot is driven
  /// by exactly one thread at a time, so slot-indexed scratch state
  /// (e.g. core::SweepRunner's per-worker sim::SimulationArena) needs no
  /// synchronization. Slots are at most `slot_count()`.
  void parallel_for_slots(
      std::size_t n,
      const std::function<void(std::size_t, std::size_t)>& fn);

  /// Upper bound (exclusive) on the slot index parallel_for_slots passes:
  /// the workers plus the calling thread.
  [[nodiscard]] std::size_t slot_count() const noexcept {
    return workers_.size() + 1;
  }

  /// Process-wide pool, created on first use with `default_threads()`
  /// workers. The sweep engine and run_experiment share it so nested
  /// parallelism never oversubscribes the machine.
  [[nodiscard]] static ThreadPool& shared();

  /// Worker count of `shared()`: the hardware concurrency (at least 1).
  /// A bench's `--threads=N > 1` gets a dedicated pool inside the sweep
  /// engine instead; `--threads=0` means this pool.
  [[nodiscard]] static std::size_t default_threads();

 private:
  void worker_loop();

  std::mutex mutex_;
  std::condition_variable cv_;
  std::deque<std::function<void()>> queue_;
  std::vector<std::thread> workers_;
  bool stop_ = false;
};

}  // namespace sc::util
