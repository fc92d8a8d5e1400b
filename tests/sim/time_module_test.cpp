#include <gtest/gtest.h>

#include "sim/module.h"
#include "sim/time.h"

namespace sct::sim {
namespace {

TEST(TimeTest, UnitHelpers) {
  EXPECT_EQ(picoseconds(5), 5u);
  EXPECT_EQ(nanoseconds(3), 3'000u);
  EXPECT_EQ(microseconds(2), 2'000'000u);
  EXPECT_EQ(milliseconds(1), 1'000'000'000u);
}

TEST(TimeTest, PeriodFromMHz) {
  EXPECT_EQ(periodFromMHz(1), 1'000'000u);
  EXPECT_EQ(periodFromMHz(10), 100'000u);
  EXPECT_EQ(periodFromMHz(50), 20'000u);
}

TEST(ModuleTest, KeepsItsName) {
  struct Dummy : Module {
    using Module::Module;
  } m("dut.bus");
  EXPECT_EQ(m.name(), "dut.bus");
}

} // namespace
} // namespace sct::sim
