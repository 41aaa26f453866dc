// sim::Simulator, the event kernel: the clock, the run loops, the sharded
// driver's watermark primitive and the work counters.  Ordering and
// cancellation of the event queue itself are in event_queue_test.cpp.
#include "sim/simulator.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <utility>
#include <vector>

#include "obs/metrics.hpp"

namespace wlan::sim {
namespace {

TEST(SimulatorTest, EmptyInitially) {
  Simulator sim;
  EXPECT_EQ(sim.pending_events(), 0u);
  EXPECT_EQ(sim.heap_entries(), 0u);
  EXPECT_EQ(sim.next_key().at, Microseconds::never());
}

TEST(SimulatorTest, ClockStartsAtZero) {
  Simulator sim;
  EXPECT_EQ(sim.now().count(), 0);
}

TEST(SimulatorTest, CallbackObservesItsOwnTimestamp) {
  // Regression test: the clock must advance *before* the callback runs.
  // (An earlier version updated now() after dispatch, which silently broke
  // every SIFS/DIFS offset in the MAC.)
  Simulator sim;
  std::int64_t seen = -1;
  sim.at(Microseconds{123}, [&] { seen = sim.now().count(); });
  sim.run_until(Microseconds{1000});
  EXPECT_EQ(seen, 123);
}

TEST(SimulatorTest, NestedSchedulingUsesCurrentTime) {
  Simulator sim;
  std::int64_t inner_time = -1;
  sim.at(Microseconds{100}, [&] {
    sim.in(Microseconds{50}, [&] { inner_time = sim.now().count(); });
  });
  sim.run_until(Microseconds{1000});
  EXPECT_EQ(inner_time, 150);
}

TEST(SimulatorTest, RunUntilIncludesBoundary) {
  Simulator sim;
  bool at_boundary = false, after = false;
  sim.at(Microseconds{100}, [&] { at_boundary = true; });
  sim.at(Microseconds{101}, [&] { after = true; });
  sim.run_until(Microseconds{100});
  EXPECT_TRUE(at_boundary);
  EXPECT_FALSE(after);
  EXPECT_EQ(sim.now().count(), 100);
  EXPECT_EQ(sim.pending_events(), 1u);
}

TEST(SimulatorTest, RunUntilAdvancesClockWhenIdle) {
  Simulator sim;
  sim.run_until(Microseconds{500});
  EXPECT_EQ(sim.now().count(), 500);
}

TEST(SimulatorTest, PastSchedulesClampToNow) {
  Simulator sim;
  sim.run_until(Microseconds{100});
  std::int64_t ran_at = -1;
  sim.at(Microseconds{10}, [&] { ran_at = sim.now().count(); });  // in the past
  sim.run_until(Microseconds{200});
  EXPECT_EQ(ran_at, 100);
}

TEST(SimulatorTest, CancelledEventDoesNotRun) {
  Simulator sim;
  bool ran = false;
  const EventId id = sim.in(Microseconds{10}, [&] { ran = true; });
  sim.cancel(id);
  EXPECT_EQ(sim.pending_events(), 0u);
  sim.run_until(Microseconds{100});
  EXPECT_FALSE(ran);
}

TEST(SimulatorTest, EventsExecutedCounter) {
  Simulator sim;
  for (int i = 0; i < 7; ++i) sim.in(Microseconds{i}, [] {});
  sim.run_until(Microseconds{100});
  EXPECT_EQ(sim.events_executed(), 7u);
}

TEST(SimulatorTest, RunDrainsEverything) {
  Simulator sim;
  int count = 0;
  for (int i = 0; i < 5; ++i) sim.at(Microseconds{i * 10}, [&] { ++count; });
  sim.run();
  EXPECT_EQ(count, 5);
  EXPECT_EQ(sim.pending_events(), 0u);
}

TEST(SimulatorTest, RunLeavesTheClockOnTheLastEvent) {
  Simulator sim;
  sim.at(Microseconds{42}, [] {});
  sim.run();
  EXPECT_EQ(sim.now().count(), 42);
}

// --- Work counters ----------------------------------------------------------

TEST(SimulatorTest, HarvestMetricsCountsTheKernelsWork) {
  Simulator sim;
  const EventId a = sim.at(Microseconds{1}, [] {});
  sim.at(Microseconds{2}, [] {});
  sim.at(Microseconds{3}, [] {});  // three pending at once
  sim.cancel(a);
  sim.cancel(a);  // a no-op: not counted
  sim.run_until(Microseconds{2});
  sim.in(Microseconds{5}, [] {});  // reuses a slot; two pending
  sim.run();
  obs::Metrics m;
  sim.harvest_metrics(m);
  EXPECT_EQ(m.value(obs::Id::kEventsScheduled), 4u);
  EXPECT_EQ(m.value(obs::Id::kEventsExecuted), 3u);
  EXPECT_EQ(m.value(obs::Id::kEventsCancelled), 1u);
  EXPECT_EQ(m.value(obs::Id::kEventQueueDepthHw), 3u);
  EXPECT_EQ(m.value(obs::Id::kEventQueueSlotPoolHw), 3u);

  // A second kernel adds to the sums and keeps the larger high-water marks.
  Simulator other;
  other.at(Microseconds{1}, [] {});
  other.run();
  other.harvest_metrics(m);
  EXPECT_EQ(m.value(obs::Id::kEventsScheduled), 5u);
  EXPECT_EQ(m.value(obs::Id::kEventsExecuted), 4u);
  EXPECT_EQ(m.value(obs::Id::kEventQueueDepthHw), 3u);
}

// --- The sharded driver's watermark primitive -------------------------------

TEST(SimulatorTest, RunUntilKeyRunsAtTheBoundOnlyBelowTheWatermark) {
  // run_until_key(t, w) runs every event before t, and an event at t only
  // while its sequence is below w -- including events that callbacks
  // schedule at t after w was sampled.
  Simulator sim;
  std::vector<int> order;
  sim.at(Microseconds{40}, [&] { order.push_back(0); });
  sim.at(Microseconds{100}, [&] { order.push_back(1); });
  const std::uint64_t mark = sim.next_seq();
  sim.at(Microseconds{100}, [&] { order.push_back(2); });
  sim.at(Microseconds{60}, [&] {
    order.push_back(3);
    sim.at(Microseconds{100}, [&] { order.push_back(4); });
  });
  sim.at(Microseconds{101}, [&] { order.push_back(5); });

  sim.run_until_key(Microseconds{100}, mark);
  EXPECT_EQ(order, (std::vector<int>{0, 3, 1}));
  EXPECT_EQ(sim.pending_events(), 3u);

  // Raising the watermark by one admits exactly the next event at t.
  sim.run_until_key(Microseconds{100}, mark + 1);
  EXPECT_EQ(order, (std::vector<int>{0, 3, 1, 2}));
  sim.run_until(Microseconds{200});
  EXPECT_EQ(order, (std::vector<int>{0, 3, 1, 2, 4, 5}));
}

TEST(SimulatorTest, RunUntilKeyLeavesTheClockOnTheBound) {
  Simulator sim;
  sim.at(Microseconds{30}, [] {});
  sim.at(Microseconds{150}, [] {});  // at the bound, above the watermark
  sim.run_until_key(Microseconds{150}, 0);
  EXPECT_EQ(sim.now().count(), 150);
  EXPECT_EQ(sim.pending_events(), 1u);

  // An idle queue still lands on the bound, and what a later schedule
  // stamps relative to now() starts from there.
  Simulator idle;
  idle.run_until_key(Microseconds{70}, 1);
  EXPECT_EQ(idle.now().count(), 70);
  std::int64_t ran_at = -1;
  idle.in(Microseconds{5}, [&] { ran_at = idle.now().count(); });
  idle.run_until(Microseconds{100});
  EXPECT_EQ(ran_at, 75);
}

TEST(SimulatorTest, NextKeySkipsCancelledHeads) {
  Simulator sim;
  const std::uint64_t first = sim.next_seq();
  const EventId a = sim.at(Microseconds{5}, [] {});
  const EventId b = sim.at(Microseconds{5}, [] {});
  sim.at(Microseconds{9}, [] {});
  EXPECT_EQ(sim.next_key(), (EventKey{Microseconds{5}, first}));
  sim.cancel(a);
  EXPECT_EQ(sim.next_key(), (EventKey{Microseconds{5}, first + 1}));
  sim.cancel(b);
  EXPECT_EQ(sim.next_key(), (EventKey{Microseconds{9}, first + 2}));
  sim.run_until(Microseconds{10});
  // Drained: the key reads never(), which no event can be scheduled at.
  EXPECT_EQ(sim.next_key(), EventKey{});
  EXPECT_EQ(sim.next_key().at, Microseconds::never());
}

TEST(SimulatorTest, ScheduleObserverSeesEachClampedKey) {
  using Seen = std::vector<std::pair<std::int64_t, std::uint64_t>>;
  Simulator sim;
  Seen seen;
  sim.set_schedule_observer(
      [](void* ctx, Microseconds at, std::uint64_t seq) {
        static_cast<Seen*>(ctx)->emplace_back(at.count(), seq);
      },
      &seen);
  sim.run_until(Microseconds{100});
  const std::uint64_t first = sim.next_seq();
  sim.at(Microseconds{10}, [] {});  // in the past: clamped to now() == 100
  sim.in(Microseconds{5}, [] {});
  const EventId doomed = sim.at(Microseconds{300}, [] {});
  sim.cancel(doomed);  // cancelling notifies nothing
  EXPECT_EQ(seen, (Seen{{100, first}, {105, first + 1}, {300, first + 2}}));

  sim.set_schedule_observer(nullptr, nullptr);
  sim.at(Microseconds{400}, [] {});
  EXPECT_EQ(seen.size(), 3u);
}

TEST(SimulatorTest, NextSeqAdvancesByOnePerSchedule) {
  Simulator sim;
  const std::uint64_t first = sim.next_seq();
  const EventId id = sim.at(Microseconds{1}, [] {});
  EXPECT_EQ(sim.next_seq(), first + 1);
  sim.cancel(id);  // neither cancelling ...
  EXPECT_EQ(sim.next_seq(), first + 1);
  sim.in(Microseconds{2}, [&] { sim.in(Microseconds{1}, [] {}); });
  EXPECT_EQ(sim.next_seq(), first + 2);
  sim.run_until(Microseconds{10});  // ... nor running takes a number
  EXPECT_EQ(sim.next_seq(), first + 3);
}

}  // namespace
}  // namespace wlan::sim
