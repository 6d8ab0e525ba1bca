#include "sim/event_queue.h"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "alloc_counter.h"

namespace lumiere::sim {
namespace {

TEST(EventQueueTest, FiresInTimeOrder) {
  EventQueue q;
  std::vector<int> order;
  q.schedule(TimePoint(30), [&] { order.push_back(3); });
  q.schedule(TimePoint(10), [&] { order.push_back(1); });
  q.schedule(TimePoint(20), [&] { order.push_back(2); });
  TimePoint at;
  EventFn fn;
  while (q.pop(at, fn)) fn();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueueTest, FifoWithinSameInstant) {
  EventQueue q;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    q.schedule(TimePoint(7), [&order, i] { order.push_back(i); });
  }
  TimePoint at;
  EventFn fn;
  while (q.pop(at, fn)) fn();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(EventQueueTest, CancellationSuppressesEvent) {
  EventQueue q;
  int fired = 0;
  EventHandle h = q.schedule(TimePoint(5), [&] { ++fired; });
  q.schedule(TimePoint(6), [&] { ++fired; });
  h.cancel();
  TimePoint at;
  EventFn fn;
  while (q.pop(at, fn)) fn();
  EXPECT_EQ(fired, 1);
}

TEST(EventQueueTest, CancelAfterFireIsNoop) {
  EventQueue q;
  int fired = 0;
  EventHandle h = q.schedule(TimePoint(1), [&] { ++fired; });
  TimePoint at;
  EventFn fn;
  ASSERT_TRUE(q.pop(at, fn));
  fn();
  h.cancel();  // must not crash or corrupt
  EXPECT_EQ(fired, 1);
  EXPECT_TRUE(q.empty());
}

TEST(EventQueueTest, DefaultHandleIsInert) {
  EventHandle h;
  EXPECT_FALSE(h.active());
  h.cancel();  // no-op
}

TEST(EventQueueTest, ActiveReflectsState) {
  EventQueue q;
  EventHandle h = q.schedule(TimePoint(1), [] {});
  EXPECT_TRUE(h.active());
  h.cancel();
  EXPECT_FALSE(h.active());
}

TEST(EventQueueTest, EmptyAtOrBefore) {
  EventQueue q;
  q.schedule(TimePoint(10), [] {});
  EXPECT_TRUE(q.empty_at_or_before(TimePoint(9)));
  EXPECT_FALSE(q.empty_at_or_before(TimePoint(10)));
  EXPECT_EQ(q.next_time(), TimePoint(10));
}

TEST(EventQueueTest, PopMovesMoveOnlyCallables) {
  // EventFn is move-only capable and pop() must move the callable out of
  // its slot — a copying pop would fail to compile against this capture.
  EventQueue q;
  auto token = std::make_unique<int>(41);
  int result = 0;
  q.schedule(TimePoint(1), [token = std::move(token), &result] { result = *token + 1; });
  TimePoint at;
  EventFn fn;
  ASSERT_TRUE(q.pop(at, fn));
  fn();
  EXPECT_EQ(result, 42);
}

TEST(EventQueueTest, StaleHandleCannotCancelRecycledSlot) {
  // After an event fires, its slot recycles; a generation-counted handle
  // kept from the first event must not cancel (or report active for) the
  // event now occupying the same slot.
  EventQueue q;
  EventHandle first = q.schedule(TimePoint(1), [] {});
  TimePoint at;
  EventFn fn;
  ASSERT_TRUE(q.pop(at, fn));
  fn();
  EXPECT_FALSE(first.active());

  int fired = 0;
  q.schedule(TimePoint(2), [&] { ++fired; });  // reuses the freed slot
  first.cancel();                              // stale: must be a no-op
  while (q.pop(at, fn)) fn();
  EXPECT_EQ(fired, 1);
}

TEST(EventQueueTest, HandleOutlivesQueueSafely) {
  EventHandle h;
  {
    EventQueue q;
    h = q.schedule(TimePoint(1), [] {});
    EXPECT_TRUE(h.active());
  }
  EXPECT_FALSE(h.active());
  h.cancel();  // must not touch freed memory (ASan job enforces)
}

TEST(EventQueueTest, SteadyStateScheduleAndPopIsAllocationFree) {
  EventQueue q;
  TimePoint at;
  EventFn fn;
  // Warm-up: grow the slot slab, heap and free list to their high-water
  // capacity for this load shape.
  for (int round = 0; round < 3; ++round) {
    for (int i = 0; i < 512; ++i) {
      q.schedule(TimePoint(1000 - i), [] {});
    }
    while (q.pop(at, fn)) fn();
  }
  const std::size_t before = alloc::count();
  for (int i = 0; i < 512; ++i) {
    q.schedule(TimePoint(1000 - i), [] {});
  }
  while (q.pop(at, fn)) fn();
  EXPECT_EQ(alloc::count(), before)
      << "the warm schedule/pop cycle must not touch the heap";
}

TEST(EventQueueTest, EventsScheduledDuringRunExecute) {
  EventQueue q;
  std::vector<int> order;
  q.schedule(TimePoint(1), [&] {
    order.push_back(1);
    q.schedule(TimePoint(2), [&] { order.push_back(2); });
  });
  TimePoint at;
  EventFn fn;
  while (q.pop(at, fn)) fn();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

}  // namespace
}  // namespace lumiere::sim
