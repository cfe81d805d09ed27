#include <gtest/gtest.h>

#include <vector>

#include "util/delay_line.hpp"
#include "util/drain_queue.hpp"

namespace rdsim::util {
namespace {

TEST(DrainQueue, KeepsFifoOrderWhetherOrNotTheConsumerDrains) {
  // Push three, pop two, every round: the queue never empties, so the
  // consumed prefix is compacted away instead of the storage being reset.
  DrainQueue<int> q;
  std::vector<int> popped;
  int next = 0;
  for (int round = 0; round < 200; ++round) {
    for (int i = 0; i < 3; ++i) q.push(int{next++});
    for (int i = 0; i < 2; ++i) popped.push_back(q.pop());
  }
  EXPECT_EQ(q.size(), 200u);
  while (!q.empty()) popped.push_back(q.pop());
  ASSERT_EQ(popped.size(), 600u);
  for (int i = 0; i < 600; ++i) EXPECT_EQ(popped[static_cast<std::size_t>(i)], i);
  q.push(7);  // reusable once drained
  EXPECT_EQ(q.pop(), 7);
  EXPECT_TRUE(q.empty());
}

TEST(DelayLine, NothingVisibleBeforeDelayElapses) {
  DelayLine<int> dl{Duration::millis(100)};
  dl.push(TimePoint::from_micros(0), 42);
  EXPECT_FALSE(dl.read(TimePoint::from_micros(50000)).has_value());
  EXPECT_EQ(dl.read(TimePoint::from_micros(100000)).value(), 42);
}

TEST(DelayLine, ReturnsNewestVisibleValue) {
  DelayLine<int> dl{Duration::millis(10)};
  dl.push(TimePoint::from_micros(0), 1);
  dl.push(TimePoint::from_micros(5000), 2);
  dl.push(TimePoint::from_micros(50000), 3);
  // At t=20ms both 1 and 2 are visible; the newest wins.
  EXPECT_EQ(dl.read(TimePoint::from_micros(20000)).value(), 2);
  // Value 3 not yet visible; the last visible value is held.
  EXPECT_EQ(dl.read(TimePoint::from_micros(55000)).value(), 2);
  EXPECT_EQ(dl.read(TimePoint::from_micros(60000)).value(), 3);
}

TEST(DelayLine, HoldsLastValueForever) {
  DelayLine<int> dl{Duration::millis(1)};
  dl.push(TimePoint::from_micros(0), 9);
  EXPECT_EQ(dl.read(TimePoint::from_seconds(100.0)).value(), 9);
  EXPECT_EQ(dl.read(TimePoint::from_seconds(200.0)).value(), 9);
}

TEST(DelayLine, ClearResets) {
  DelayLine<int> dl{Duration::millis(1)};
  dl.push(TimePoint::from_micros(0), 9);
  dl.clear();
  EXPECT_FALSE(dl.read(TimePoint::from_seconds(1.0)).has_value());
  EXPECT_EQ(dl.pending(), 0u);
}

TEST(DelayLine, SetDelayAffectsVisibility) {
  DelayLine<int> dl{Duration::millis(100)};
  dl.push(TimePoint::from_micros(0), 5);
  dl.set_delay(Duration::millis(10));
  EXPECT_EQ(dl.read(TimePoint::from_micros(10000)).value(), 5);
}

}  // namespace
}  // namespace rdsim::util
