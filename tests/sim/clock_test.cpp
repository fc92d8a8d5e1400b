#include "sim/clock.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <stdexcept>
#include <vector>

namespace sct::sim {
namespace {

TEST(ClockTest, RejectsBadPeriods) {
  Kernel k;
  EXPECT_THROW(Clock(k, "clk", 0), std::invalid_argument);
  EXPECT_THROW(Clock(k, "clk", 3), std::invalid_argument);
}

TEST(ClockTest, RisingThenFallingWithinEachCycle) {
  Kernel k;
  Clock clk(k, "clk", 10);
  std::vector<char> order;
  clk.onRising([&] { order.push_back('R'); });
  clk.onFalling([&] { order.push_back('F'); });
  clk.runCycles(3);
  EXPECT_EQ(order, (std::vector<char>{'R', 'F', 'R', 'F', 'R', 'F'}));
  EXPECT_EQ(clk.cycle(), 3u);
}

TEST(ClockTest, EdgeTimestampsFollowThePeriod) {
  Kernel k;
  Clock clk(k, "clk", 10);
  std::vector<Time> rises;
  std::vector<Time> falls;
  clk.onRising([&] { rises.push_back(k.now()); });
  clk.onFalling([&] { falls.push_back(k.now()); });
  clk.runCycles(3);
  EXPECT_EQ(rises, (std::vector<Time>{10, 20, 30}));
  EXPECT_EQ(falls, (std::vector<Time>{15, 25, 35}));
}

TEST(ClockTest, PriorityOrdersHandlersWithinEdge) {
  Kernel k;
  Clock clk(k, "clk", 10);
  std::vector<int> order;
  clk.onRising([&] { order.push_back(2); }, /*priority=*/5);
  clk.onRising([&] { order.push_back(1); }, /*priority=*/-5);
  clk.runCycles(1);
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(ClockTest, EqualPriorityKeepsRegistrationOrder) {
  Kernel k;
  Clock clk(k, "clk", 10);
  std::vector<int> order;
  for (int i = 0; i < 4; ++i) {
    clk.onRising([&order, i] { order.push_back(i); });
  }
  clk.runCycles(1);
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
}

TEST(ClockTest, RemoveHandlerTakesEffect) {
  Kernel k;
  Clock clk(k, "clk", 10);
  int a = 0;
  int b = 0;
  const auto id = clk.onRising([&] { ++a; });
  clk.onRising([&] { ++b; });
  clk.runCycles(2);
  clk.removeHandler(id);
  clk.runCycles(2);
  EXPECT_EQ(a, 2);
  EXPECT_EQ(b, 4);
}

TEST(ClockTest, RemoveFromInsideHandlerStopsFutureCycles) {
  Kernel k;
  Clock clk(k, "clk", 10);
  int count = 0;
  Clock::HandlerId id = 0;
  id = clk.onRising([&] {
    ++count;
    if (count == 3) clk.removeHandler(id);
  });
  clk.onFalling([] {});  // Keeps the clock alive independently.
  clk.runCycles(6);
  EXPECT_EQ(count, 3);
}

TEST(ClockTest, ClockStopsWhenNoHandlersRemain) {
  Kernel k;
  Clock clk(k, "clk", 10);
  int count = 0;
  Clock::HandlerId id = 0;
  id = clk.onRising([&] {
    ++count;
    if (count == 2) clk.removeHandler(id);
  });
  clk.runCycles(100);  // Returns once the last handler is erased.
  EXPECT_EQ(count, 2);
  EXPECT_EQ(clk.cycle(), 2u);
  EXPECT_EQ(k.now(), 25u);
  EXPECT_EQ(k.dispatchedEvents(), 4u);
}

TEST(ClockTest, RunCyclesCountsWholeCycles) {
  Kernel k;
  Clock clk(k, "clk", 8);
  int rising = 0;
  int falling = 0;
  clk.onRising([&] { ++rising; });
  clk.onFalling([&] { ++falling; });
  clk.runCycles(5);
  EXPECT_EQ(rising, 5);
  EXPECT_EQ(falling, 5);
}

TEST(ClockTest, ChunkingDoesNotChangeTheDispatchCount) {
  for (const std::uint64_t chunk : {1u, 7u, 100u}) {
    Kernel k;
    Clock clk(k, "clk", 10);
    clk.onRising([] {});
    clk.onFalling([] {});
    for (std::uint64_t left = 100; left > 0;) {
      const std::uint64_t n = std::min(chunk, left);
      clk.runCycles(n);
      left -= n;
    }
    EXPECT_EQ(clk.cycle(), 100u) << "chunk " << chunk;
    EXPECT_EQ(k.dispatchedEvents(), 200u) << "chunk " << chunk;
    EXPECT_EQ(k.now(), 1005u) << "chunk " << chunk;
  }
}

TEST(ClockTest, WarpLandsOnWakeCyclesAndOnTheLastCycle) {
  Kernel k;
  Clock clk(k, "clk", 10);
  obs::StatsRegistry reg;
  clk.attachObs(reg);
  std::vector<std::uint64_t> cycles;
  std::vector<Time> times;
  Clock::HandlerId id = 0;
  id = clk.onRising([&] {
    cycles.push_back(clk.cycle());
    times.push_back(k.now());
    clk.parkHandler(id, clk.cycle() + 40);
  });
  clk.runCycles(100);
  EXPECT_EQ(cycles, (std::vector<std::uint64_t>{1, 41, 81}));
  EXPECT_EQ(times, (std::vector<Time>{10, 410, 810}));
  // The run's last cycle dispatches even with the handler parked.
  EXPECT_EQ(clk.cycle(), 100u);
  EXPECT_EQ(k.now(), 1005u);
  EXPECT_EQ(k.dispatchedEvents(), 8u);
  const obs::Snapshot snap = reg.snapshot();
  const obs::SnapshotEntry* warps = snap.find("clk.warps");
  ASSERT_NE(warps, nullptr);
  EXPECT_EQ(warps->count, 3u);
}

TEST(ClockTest, WarpFindsTheEarliestWakeAfterParksAmidBusyCycles) {
  // A falling handler that parks and is woken while a rising one runs
  // every cycle, as the layer-1 bus process is beside a running core;
  // then both park, and each warp must land on the earliest wake.
  Kernel k;
  Clock clk(k, "clk", 10);
  std::vector<std::uint64_t> rose;
  std::vector<std::uint64_t> fell;
  Clock::HandlerId fallId = 0;
  Clock::HandlerId riseId = 0;
  fallId = clk.onFalling([&] {
    fell.push_back(clk.cycle());
    clk.parkHandler(fallId, Clock::kNeverWake);
  });
  riseId = clk.onRising([&] {
    rose.push_back(clk.cycle());
    if (clk.cycle() % 3 == 0) clk.parkHandler(fallId, 0);
    if (clk.cycle() == 10) {
      clk.parkHandler(fallId, 57);
      clk.parkHandler(riseId, 73);
    }
  });
  clk.runCycles(100);
  std::vector<std::uint64_t> wantRose;
  for (std::uint64_t c = 1; c <= 10; ++c) wantRose.push_back(c);
  for (std::uint64_t c = 73; c <= 100; ++c) wantRose.push_back(c);
  EXPECT_EQ(rose, wantRose);
  EXPECT_EQ(fell, (std::vector<std::uint64_t>{1, 3, 6, 9, 57, 75, 78, 81, 84,
                                              87, 90, 93, 96, 99}));
  EXPECT_EQ(k.dispatchedEvents(), 2u * (10 + 1 + 28));
}

TEST(ClockTest, BreakEndsTheRunAfterItsFallingEdge) {
  Kernel k;
  Clock clk(k, "clk", 10);
  std::vector<char> order;
  clk.onRising([&] {
    order.push_back('R');
    if (clk.cycle() == 3) clk.requestBreak();
  });
  clk.onFalling([&] { order.push_back('F'); });
  clk.runCycles(10);
  EXPECT_EQ(clk.cycle(), 3u);
  EXPECT_EQ(order, (std::vector<char>{'R', 'F', 'R', 'F', 'R', 'F'}));
  EXPECT_EQ(k.now(), 35u);
  // Outside a run the request is a no-op: the next run clears it.
  clk.requestBreak();
  clk.runCycles(2);
  EXPECT_EQ(clk.cycle(), 5u);
}

TEST(ClockTest, SecondClockOnOneKernelThrows) {
  Kernel k;
  Clock clk(k, "clk", 10);
  EXPECT_THROW(Clock(k, "clk2", 10), std::logic_error);
}

} // namespace
} // namespace sct::sim
