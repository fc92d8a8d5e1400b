// Clock re-entrancy and edge cases beyond the basic contract tests.
#include <gtest/gtest.h>

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
