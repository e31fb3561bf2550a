#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <vector>

#include "sim/event_queue.h"
#include "sim/metrics.h"
#include "util/rng.h"

namespace sc::sim {
namespace {

TEST(BasicEventQueue, RunsInTimeOrder) {
  BasicEventQueue<int> q;
  std::vector<int> order;
  q.schedule(3.0, 3);
  q.schedule(1.0, 1);
  q.schedule(2.0, 2);
  q.run_all([&](double, int& v) { order.push_back(v); });
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(BasicEventQueue, FifoTieBreaking) {
  BasicEventQueue<int> q;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) q.schedule(1.0, i);
  q.run_all([&](double, int& v) { order.push_back(v); });
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(BasicEventQueue, RunUntilRespectsHorizon) {
  BasicEventQueue<int> q;
  std::vector<double> fired;
  for (const double t : {0.5, 1.0, 1.5, 2.0}) q.schedule(t, 0);
  const auto record = [&fired](double now, int&) { fired.push_back(now); };
  q.run_until(1.0, record);  // inclusive
  EXPECT_EQ(fired, (std::vector<double>{0.5, 1.0}));
  EXPECT_EQ(q.size(), 2u);
  q.run_until(10.0, record);
  EXPECT_EQ(fired.size(), 4u);
  EXPECT_TRUE(q.empty());
}

TEST(BasicEventQueue, HandlersReceiveTheirScheduledTime) {
  BasicEventQueue<int> q;
  double seen = -1;
  q.schedule(7.5, 0);
  q.run_all([&](double now, int&) { seen = now; });
  EXPECT_DOUBLE_EQ(seen, 7.5);
  EXPECT_DOUBLE_EQ(q.now(), 7.5);
}

TEST(BasicEventQueue, NestedSchedulingWithinHorizon) {
  BasicEventQueue<int> q;
  std::vector<int> order;
  q.schedule(1.0, 1);
  q.run_until(2.0, [&](double, int& v) {
    order.push_back(v);
    if (v == 1) {
      q.schedule(1.5, 2);
      q.schedule(5.0, 9);
    }
  });
  EXPECT_EQ(order, (std::vector<int>{1, 2}));  // the 5.0 event waits
  EXPECT_EQ(q.size(), 1u);
}

TEST(ObservationQueue, PodEventsDrainInTimeThenFifoOrder) {
  // Regression for the POD specialization: same-timestamp events must
  // keep insertion (FIFO) order, exactly like any other payload.
  ObservationQueue q;
  q.reserve(8);
  q.schedule(2.0, ObservationEvent{20, 1.0});
  q.schedule(1.0, ObservationEvent{10, 1.0});
  q.schedule(1.0, ObservationEvent{11, 2.0});
  q.schedule(1.0, ObservationEvent{12, 3.0});
  q.schedule(0.5, ObservationEvent{5, 1.0});

  std::vector<std::size_t> paths;
  std::vector<double> times;
  q.run_until(1.0, [&](double now, const ObservationEvent& ev) {
    times.push_back(now);
    paths.push_back(ev.path);
  });
  EXPECT_EQ(paths, (std::vector<std::size_t>{5, 10, 11, 12}));
  EXPECT_EQ(times, (std::vector<double>{0.5, 1.0, 1.0, 1.0}));
  EXPECT_EQ(q.size(), 1u);
  EXPECT_DOUBLE_EQ(q.now(), 1.0);

  q.run_all([&](double, const ObservationEvent& ev) {
    paths.push_back(ev.path);
  });
  EXPECT_EQ(paths.back(), 20u);
  EXPECT_TRUE(q.empty());
}

TEST(ObservationQueue, PayloadsSurviveInterleavedScheduling) {
  ObservationQueue q;
  // Interleave schedule/run to exercise heap reuse of popped slots.
  std::vector<double> seen;
  q.schedule(1.0, ObservationEvent{1, 10.0});
  q.schedule(3.0, ObservationEvent{3, 30.0});
  q.run_until(1.5, [&](double, const ObservationEvent& ev) {
    seen.push_back(ev.throughput);
  });
  q.schedule(2.0, ObservationEvent{2, 20.0});
  q.run_all([&](double, const ObservationEvent& ev) {
    seen.push_back(ev.throughput);
  });
  EXPECT_EQ(seen, (std::vector<double>{10.0, 20.0, 30.0}));
}

/// One observation as the path that receives it sees it.
struct Delivered {
  double time;
  double throughput;
  bool operator==(const Delivered& o) const {
    return time == o.time && throughput == o.throughput;
  }
};
using PerPath = std::vector<std::vector<Delivered>>;

/// Drive `lists` and a fresh ObservationQueue through one seeded script
/// of schedules, per-path deliveries and full drains over 8 paths, as
/// the request loop does: the clock never goes back and every event is
/// due at or after the time it is scheduled. Due times sit on a coarse
/// grid, so a path often holds several events due at once, each with a
/// distinct throughput. After every per-path delivery that path must
/// have received exactly its subsequence of the heap's deliveries so
/// far. Returns what each path received from `lists`; events still
/// pending when the script ends are left in it.
PerPath run_script(std::uint64_t seed, PathObservationLists& lists) {
  constexpr std::size_t kPaths = 8;
  ObservationQueue heap;
  PerPath from_heap(kPaths), from_lists(kPaths);
  const auto heap_sink = [&](double t, const ObservationEvent& ev) {
    from_heap[ev.path].push_back({t, ev.throughput});
  };
  const auto lists_sink = [&](double t, const ObservationEvent& ev) {
    from_lists[ev.path].push_back({t, ev.throughput});
  };
  util::Rng rng(seed);
  double now = 0.0;
  double throughput = 1.0;
  for (int step = 0; step < 3000; ++step) {
    const double op = rng.uniform();
    const auto path =
        static_cast<std::size_t>(rng.uniform_int(0, kPaths - 1));
    if (op < 0.6) {
      const double due =
          now + 0.5 * static_cast<double>(rng.uniform_int(0, 3));
      heap.schedule(due, ObservationEvent{path, throughput});
      lists.schedule(due, ObservationEvent{path, throughput});
      throughput += 1.0;
    } else if (op < 0.995) {
      now += 0.5 * static_cast<double>(rng.uniform_int(0, 1));
      heap.run_until(now, heap_sink);
      lists.run_until(path, now, lists_sink);
      EXPECT_EQ(from_lists[path], from_heap[path])
          << "seed " << seed << ", step " << step << ", path " << path;
    } else {
      heap.run_all(heap_sink);
      lists.run_until(std::numeric_limits<double>::infinity(), lists_sink);
      EXPECT_EQ(from_lists, from_heap) << "seed " << seed << ", step "
                                       << step;
      EXPECT_TRUE(lists.empty());
    }
  }
  // The heap has run ahead on paths not requested since; each path's
  // deliveries so far are a prefix of the heap's.
  for (std::size_t p = 0; p < kPaths; ++p) {
    EXPECT_LE(from_lists[p].size(), from_heap[p].size());
    EXPECT_TRUE(std::equal(from_lists[p].begin(), from_lists[p].end(),
                           from_heap[p].begin()))
        << "seed " << seed << ", path " << p;
  }
  return from_lists;
}

TEST(PathObservationLists, EachPathReceivesItsSubsequenceOfTheHeap) {
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    PathObservationLists lists;
    lists.reset(8);
    run_script(seed, lists);
  }
}

TEST(PathObservationLists, ReusedAfterResetBehavesLikeFresh) {
  PathObservationLists reused;
  reused.reset(3);  // fewer heads than paths: the rest grow on demand
  run_script(11, reused);
  ASSERT_FALSE(reused.empty());  // the reset below must drop these
  for (std::uint64_t seed = 12; seed <= 16; ++seed) {
    reused.reset(8);
    PathObservationLists fresh;
    EXPECT_EQ(run_script(seed, reused), run_script(seed, fresh))
        << "seed " << seed;
    EXPECT_EQ(reused.size(), fresh.size());
  }
}

TEST(Metrics, AccumulatesPerRequestOutcomes) {
  MetricsCollector m;
  ServiceOutcome hit;
  hit.delay_s = 0.0;
  hit.quality = 1.0;
  hit.quality_continuous = 1.0;
  hit.immediate = true;
  hit.bytes_from_cache = 600.0;
  hit.bytes_from_origin = 400.0;

  ServiceOutcome miss;
  miss.delay_s = 50.0;
  miss.quality = 0.5;
  miss.quality_continuous = 0.6;
  miss.immediate = false;
  miss.bytes_from_cache = 0.0;
  miss.bytes_from_origin = 1000.0;

  m.record(hit, 5.0);
  m.record(miss, 7.0);

  EXPECT_EQ(m.requests(), 2u);
  EXPECT_DOUBLE_EQ(m.traffic_reduction_ratio(), 600.0 / 2000.0);
  EXPECT_DOUBLE_EQ(m.average_delay_s(), 25.0);
  EXPECT_DOUBLE_EQ(m.average_quality(), 0.8);             // continuous
  EXPECT_DOUBLE_EQ(m.average_quality_quantized(), 0.75);  // (1 + 0.5) / 2
  EXPECT_DOUBLE_EQ(m.total_added_value(), 5.0);  // only the immediate one
  EXPECT_DOUBLE_EQ(m.hit_ratio(), 0.5);
  EXPECT_DOUBLE_EQ(m.immediate_ratio(), 0.5);
  EXPECT_DOUBLE_EQ(m.bytes_from_cache(), 600.0);
  EXPECT_DOUBLE_EQ(m.bytes_from_origin(), 1400.0);
}

TEST(Metrics, EmptyCollectorIsZero) {
  const MetricsCollector m;
  EXPECT_EQ(m.requests(), 0u);
  EXPECT_DOUBLE_EQ(m.traffic_reduction_ratio(), 0.0);
  EXPECT_DOUBLE_EQ(m.hit_ratio(), 0.0);
  EXPECT_DOUBLE_EQ(m.immediate_ratio(), 0.0);
  EXPECT_DOUBLE_EQ(m.total_added_value(), 0.0);
}

TEST(Metrics, FillTrafficTrackedSeparately) {
  MetricsCollector m;
  m.record_fill(123.0);
  m.record_fill(77.0);
  EXPECT_DOUBLE_EQ(m.fill_bytes(), 200.0);
  // Fill traffic must not affect the §3.3 traffic reduction ratio.
  EXPECT_DOUBLE_EQ(m.traffic_reduction_ratio(), 0.0);
}

}  // namespace
}  // namespace sc::sim
