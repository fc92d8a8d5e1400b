#include "power/coeff_table.h"

#include <gtest/gtest.h>

#include <sstream>

namespace sct::power {
namespace {

using bus::SignalId;

TEST(CoeffTableTest, DefaultsToZero) {
  SignalEnergyTable t;
  for (const auto& info : bus::kSignalTable) {
    EXPECT_DOUBLE_EQ(t.coeff_fJ(info.id), 0.0);
  }
}

TEST(CoeffTableTest, SetAndGet) {
  SignalEnergyTable t;
  t.setCoeff_fJ(SignalId::EB_A, 123.5);
  EXPECT_DOUBLE_EQ(t.coeff_fJ(SignalId::EB_A), 123.5);
  EXPECT_DOUBLE_EQ(t.energyFor(SignalId::EB_A, 4), 494.0);
}

TEST(CoeffTableTest, SaveLoadRoundTrip) {
  SignalEnergyTable t;
  double v = 10.0;
  for (const auto& info : bus::kSignalTable) {
    t.setCoeff_fJ(info.id, v);
    v += 3.25;
  }
  std::stringstream ss;
  t.save(ss);
  const SignalEnergyTable loaded = SignalEnergyTable::load(ss);
  EXPECT_EQ(t, loaded);
}

TEST(CoeffTableTest, LoadSkipsCommentsAndBlankLines) {
  std::stringstream ss("# comment\n\nEB_A 42.5\n");
  const SignalEnergyTable t = SignalEnergyTable::load(ss);
  EXPECT_DOUBLE_EQ(t.coeff_fJ(SignalId::EB_A), 42.5);
  EXPECT_DOUBLE_EQ(t.coeff_fJ(SignalId::EB_RData), 0.0);
}

TEST(CoeffTableTest, InvertLineRoundTripsThroughTextFormat) {
  // The EB_Inv codec sideband is a first-class bundle: it must appear
  // in the saved table text and survive a load like any data signal
  // (a coefficient database written before the bundle existed still
  // loads — missing signals keep their current value).
  SignalEnergyTable t;
  t.setCoeff_fJ(SignalId::EB_Inv, 7.75);
  std::stringstream ss;
  t.save(ss);
  EXPECT_NE(ss.str().find("EB_Inv 7.75"), std::string::npos);
  const SignalEnergyTable loaded = SignalEnergyTable::load(ss);
  EXPECT_DOUBLE_EQ(loaded.coeff_fJ(SignalId::EB_Inv), 7.75);
}

TEST(CoeffTableTest, LoadRejectsUnknownSignal) {
  std::stringstream ss("EB_BOGUS 1.0\n");
  EXPECT_THROW(SignalEnergyTable::load(ss), std::runtime_error);
}

TEST(CoeffTableTest, LoadRejectsMalformedLine) {
  std::stringstream ss("EB_A notanumber\n");
  EXPECT_THROW(SignalEnergyTable::load(ss), std::runtime_error);
}

TEST(CoeffTableTest, LoadRejectsNegativeCoefficient) {
  std::stringstream ss("EB_A -5\n");
  EXPECT_THROW(SignalEnergyTable::load(ss), std::runtime_error);
}

TEST(CoeffTableTest, LoadRejectsRepeatedSignal) {
  std::stringstream ss("EB_A 1.0\nEB_RData 2.0\nEB_A 3.0\n");
  EXPECT_THROW(SignalEnergyTable::load(ss), std::runtime_error);
}

TEST(CoeffTableTest, LoadRejectsBytesAfterTheNumber) {
  std::stringstream ss("EB_A 1.0xyz\n");
  EXPECT_THROW(SignalEnergyTable::load(ss), std::runtime_error);
}

TEST(CoeffTableTest, LoadRejectsASecondNumber) {
  std::stringstream ss("EB_A 1.0 2.0\n");
  EXPECT_THROW(SignalEnergyTable::load(ss), std::runtime_error);
}

TEST(CoeffTableTest, LoadRejectsCoefficientAboveTheCap) {
  std::stringstream huge("EB_A 1e308\n");
  EXPECT_THROW(SignalEnergyTable::load(huge), std::runtime_error);
  // The cap itself, and trailing whitespace, still load.
  std::stringstream atCap("EB_A 1e6 \r\n");
  EXPECT_DOUBLE_EQ(SignalEnergyTable::load(atCap).coeff_fJ(SignalId::EB_A),
                   1e6);
}

} // namespace
} // namespace sct::power
