// Unit tests for the discrete-event kernel, and for runtime::Timer driven
// deterministically by it through the SimRuntime executor.
#include "sim/scheduler.h"

#include <gtest/gtest.h>

#include <functional>
#include <vector>

#include "runtime/sim_runtime.h"
#include "runtime/timer.h"

namespace vp::sim {
namespace {

TEST(Scheduler, StartsAtTimeZero) {
  Scheduler s;
  EXPECT_EQ(s.Now(), 0);
  EXPECT_FALSE(s.HasWork());
}

TEST(Scheduler, RunsEventsInTimeOrder) {
  Scheduler s;
  std::vector<int> order;
  s.ScheduleAfter(30, [&] { order.push_back(3); });
  s.ScheduleAfter(10, [&] { order.push_back(1); });
  s.ScheduleAfter(20, [&] { order.push_back(2); });
  s.RunUntilIdle();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(s.Now(), 30);
}

TEST(Scheduler, SimultaneousEventsRunFifo) {
  Scheduler s;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    s.ScheduleAfter(5, [&order, i] { order.push_back(i); });
  }
  s.RunUntilIdle();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[i], i);
}

TEST(Scheduler, ClockAdvancesToEventTime) {
  Scheduler s;
  SimTime seen = -1;
  s.ScheduleAfter(123, [&] { seen = s.Now(); });
  s.RunUntilIdle();
  EXPECT_EQ(seen, 123);
}

TEST(Scheduler, CancelPreventsExecution) {
  Scheduler s;
  bool ran = false;
  EventId id = s.ScheduleAfter(10, [&] { ran = true; });
  s.Cancel(id);
  s.RunUntilIdle();
  EXPECT_FALSE(ran);
}

TEST(Scheduler, CancelAfterFireIsNoop) {
  Scheduler s;
  int runs = 0;
  EventId id = s.ScheduleAfter(10, [&] { ++runs; });
  s.RunUntilIdle();
  s.Cancel(id);  // Already fired.
  s.ScheduleAfter(5, [&] { ++runs; });
  s.RunUntilIdle();
  EXPECT_EQ(runs, 2);
}

TEST(Scheduler, EventsCanScheduleEvents) {
  Scheduler s;
  int depth = 0;
  std::function<void()> recurse = [&]() {
    if (++depth < 5) s.ScheduleAfter(10, recurse);
  };
  s.ScheduleAfter(10, recurse);
  s.RunUntilIdle();
  EXPECT_EQ(depth, 5);
  EXPECT_EQ(s.Now(), 50);
}

TEST(Scheduler, RunUntilStopsAtDeadline) {
  Scheduler s;
  int ran = 0;
  s.ScheduleAfter(10, [&] { ++ran; });
  s.ScheduleAfter(20, [&] { ++ran; });
  s.ScheduleAfter(30, [&] { ++ran; });
  EXPECT_EQ(s.RunUntil(20), 2u);
  EXPECT_EQ(ran, 2);
  EXPECT_EQ(s.Now(), 20);
  EXPECT_TRUE(s.HasWork());
  s.RunUntilIdle();
  EXPECT_EQ(ran, 3);
}

TEST(Scheduler, RunUntilAdvancesClockWhenIdle) {
  Scheduler s;
  s.RunUntil(500);
  EXPECT_EQ(s.Now(), 500);
}

TEST(Scheduler, RunUntilIdleRespectsEventCap) {
  Scheduler s;
  std::function<void()> forever = [&]() { s.ScheduleAfter(1, forever); };
  s.ScheduleAfter(1, forever);
  EXPECT_EQ(s.RunUntilIdle(100), 100u);
}

TEST(Scheduler, ScheduleAtAbsoluteTime) {
  Scheduler s;
  SimTime seen = -1;
  s.ScheduleAt(77, [&] { seen = s.Now(); });
  s.RunUntilIdle();
  EXPECT_EQ(seen, 77);
}

TEST(Scheduler, CountsExecutedEvents) {
  Scheduler s;
  for (int i = 0; i < 7; ++i) s.ScheduleAfter(i, [] {});
  s.RunUntilIdle();
  EXPECT_EQ(s.events_executed(), 7u);
}

TEST(Timer, FiresAfterDelay) {
  Scheduler s;
  runtime::SimExecutor exec(&s);
  runtime::Timer t(&exec);
  bool fired = false;
  t.Set(100, [&] { fired = true; });
  EXPECT_TRUE(t.armed());
  s.RunUntilIdle();
  EXPECT_TRUE(fired);
  EXPECT_FALSE(t.armed());
}

TEST(Timer, ResetDisarms) {
  Scheduler s;
  runtime::SimExecutor exec(&s);
  runtime::Timer t(&exec);
  bool fired = false;
  t.Set(100, [&] { fired = true; });
  t.Reset();
  s.RunUntilIdle();
  EXPECT_FALSE(fired);
}

TEST(Timer, ReSetReplacesDeadline) {
  Scheduler s;
  runtime::SimExecutor exec(&s);
  runtime::Timer t(&exec);
  int which = 0;
  t.Set(100, [&] { which = 1; });
  t.Set(50, [&] { which = 2; });
  s.RunUntilIdle();
  EXPECT_EQ(which, 2);
  EXPECT_EQ(s.Now(), 50);
}

TEST(Timer, SetInsideCallbackWorks) {
  Scheduler s;
  runtime::SimExecutor exec(&s);
  runtime::Timer t(&exec);
  int fires = 0;
  std::function<void()> cb = [&]() {
    if (++fires < 3) t.Set(10, cb);
  };
  t.Set(10, cb);
  s.RunUntilIdle();
  EXPECT_EQ(fires, 3);
}

TEST(Scheduler, CancelBookkeepingDoesNotLeak) {
  Scheduler s;
  // Cancel of a queued event is recorded once; stale or invented handles
  // are not recorded at all, so the cancelled set is bounded by the queue.
  std::vector<EventId> ids;
  for (int i = 0; i < 1000; ++i) {
    ids.push_back(s.ScheduleAfter(10, [] {}));
  }
  for (EventId id : ids) {
    s.Cancel(id);
    s.Cancel(id);                 // Double-cancel: no second entry.
    s.Cancel(id + 10'000'000);    // Never-issued handle: no entry.
  }
  EXPECT_EQ(s.cancelled_pending(), 1000u);
  s.RunUntilIdle();
  EXPECT_EQ(s.events_executed(), 0u);
  EXPECT_EQ(s.cancelled_pending(), 0u);

  // The historical leak: cancelling after the event fired used to park the
  // id in the cancelled set forever.
  const EventId fired = s.ScheduleAfter(1, [] {});
  s.RunUntilIdle();
  s.Cancel(fired);
  EXPECT_EQ(s.cancelled_pending(), 0u);
}

TEST(TimeHelpers, Conversions) {
  EXPECT_EQ(Millis(3), 3000);
  EXPECT_EQ(Seconds(2), 2'000'000);
  EXPECT_DOUBLE_EQ(ToMillis(1500), 1.5);
  EXPECT_DOUBLE_EQ(ToSeconds(2'500'000), 2.5);
}

}  // namespace
}  // namespace vp::sim
