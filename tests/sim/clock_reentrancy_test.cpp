// Clock re-entrancy and edge cases beyond the basic contract tests.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <vector>

#include "sim/clock.h"

namespace sct::sim {
namespace {

TEST(ClockReentrancyTest, HandlerMayRegisterAnotherHandler) {
  Kernel k;
  Clock clk(k, "clk", 10);
  int nested = 0;
  bool registered = false;
  clk.onRising([&] {
    if (!registered) {
      registered = true;
      clk.onRising([&] { ++nested; });
    }
  });
  clk.runCycles(3);
  // The nested handler runs on the cycles after its registration.
  EXPECT_GE(nested, 2);
}

TEST(ClockReentrancyTest, RegisteringAnEarlierHandlerKeepsTheEdgeOrder) {
  Kernel k;
  Clock clk(k, "clk", 10);
  int a = 0;
  int b = 0;
  int c = 0;
  clk.onRising([&] {
    ++a;
    // B sorts before A: it joins the edge from the next cycle on,
    // without running A twice or skipping C in this one.
    if (clk.cycle() == 1) clk.onRising([&] { ++b; }, /*priority=*/-1);
  });
  clk.onRising([&] { ++c; });
  clk.runCycles(1);
  EXPECT_EQ(a, 1);
  EXPECT_EQ(b, 0);
  EXPECT_EQ(c, 1);
  clk.runCycles(1);
  EXPECT_EQ(a, 2);
  EXPECT_EQ(b, 1);
  EXPECT_EQ(c, 2);
}

TEST(ClockReentrancyTest, RegisteringManyHandlersLeavesTheRunningOneIntact) {
  Kernel k;
  Clock clk(k, "clk", 10);
  struct State {
    std::array<int, 64> runs{};
    int registrar = 0;
    int later = 0;
  } s;
  // Two references: small enough for std::function to store the
  // closure inline, i.e. inside the handler vector. Growing that vector
  // under the running handler would free the captures it reads next.
  clk.onRising([&clk, &s] {
    if (clk.cycle() == 1) {
      for (std::size_t i = 0; i < s.runs.size(); ++i) {
        clk.onRising([&s, i] { ++s.runs[i]; }, /*priority=*/-1);
      }
    }
    ++s.registrar;
  });
  clk.onRising([&s] { ++s.later; });
  clk.runCycles(1);
  EXPECT_EQ(s.registrar, 1);
  EXPECT_EQ(s.later, 1);
  for (const int r : s.runs) EXPECT_EQ(r, 0);
  clk.runCycles(2);
  EXPECT_EQ(s.registrar, 3);
  EXPECT_EQ(s.later, 3);
  for (const int r : s.runs) EXPECT_EQ(r, 2);
}

TEST(ClockReentrancyTest, DeferredHandlerCanBeParkedOrRemovedAtOnce) {
  Kernel k;
  Clock clk(k, "clk", 10);
  int parked = 0;
  int removed = 0;
  clk.onRising([&] {
    if (clk.cycle() != 1) return;
    clk.parkHandler(clk.onRising([&] { ++parked; }), 3);
    clk.removeHandler(clk.onRising([&] { ++removed; }));
  });
  clk.runCycles(4);
  EXPECT_EQ(parked, 2);  // Cycles 3 and 4.
  EXPECT_EQ(removed, 0);
}

TEST(ClockReentrancyTest, RisingHandlerMayRegisterThisCyclesFallingHandler) {
  Kernel k;
  Clock clk(k, "clk", 10);
  std::vector<std::uint64_t> fell;
  clk.onRising([&] {
    if (clk.cycle() == 2) clk.onFalling([&] { fell.push_back(clk.cycle()); });
  });
  clk.runCycles(3);
  EXPECT_EQ(fell, (std::vector<std::uint64_t>{2, 3}));
}

TEST(ClockReentrancyTest, HandlerMayRemoveALaterHandler) {
  Kernel k;
  Clock clk(k, "clk", 10);
  int second = 0;
  Clock::HandlerId secondId = 0;
  clk.onRising([&] { clk.removeHandler(secondId); });
  secondId = clk.onRising([&] { ++second; });
  clk.runCycles(3);
  // Removed from within the same edge before it ever ran.
  EXPECT_EQ(second, 0);
}

TEST(ClockReentrancyTest, RunStopsWhenAllHandlersRemoveThemselves) {
  Kernel k;
  Clock clk(k, "clk", 10);
  Clock::HandlerId a = 0;
  Clock::HandlerId b = 0;
  int runsA = 0;
  int runsB = 0;
  a = clk.onRising([&] {
    ++runsA;
    clk.removeHandler(a);
  });
  b = clk.onFalling([&] {
    ++runsB;
    clk.removeHandler(b);
  });
  clk.runCycles(1000);  // Returns once both handlers are erased.
  EXPECT_EQ(runsA, 1);
  EXPECT_EQ(runsB, 1);
  EXPECT_EQ(clk.cycle(), 1u);
  EXPECT_EQ(k.dispatchedEvents(), 2u);
}

} // namespace
} // namespace sct::sim
