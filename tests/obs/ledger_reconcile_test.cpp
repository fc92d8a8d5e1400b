// Energy-attribution ledger reconciliation (the obs subsystem's core
// correctness contract): for both power models, on every workload of
// the equivalence suite plus dense random mixes, the ledger total must
// EQUAL the model's own attojoule accumulator and the sum the interval
// interface hands out, and the dimensional splits (by transaction
// class, by slave, by bundle) must each sum exactly to that total.
#include <gtest/gtest.h>

#include <cstdint>

#include "../testbench.h"
#include "bus/ec_signals.h"
#include "obs/ledger.h"
#include "power/characterizer.h"
#include "power/tl1_power_model.h"
#include "power/tl2_power_model.h"
#include "trace/workloads.h"

namespace sct {
namespace {

using power::SignalEnergyTable;
using testbench::Tl1Bench;
using testbench::Tl2Bench;

const SignalEnergyTable& characterizedTable() {
  static const SignalEnergyTable table = [] {
    testbench::RefBench tb;
    power::Characterizer ch(testbench::energyModel());
    tb.bus.addFrameListener(ch);
    tb.run(trace::characterizationTrace(1234, 800, testbench::bothRegions()));
    return ch.buildTable();
  }();
  return table;
}

/// Each axis sums exactly to the ledger total, which equals the model
/// total and (through the one conversion) the interval read.
template <typename Model>
void expectReconciles(const obs::EnergyLedger& ledger, Model& pm,
                      const std::string& what) {
  const obs::LedgerView v = ledger.view();
  std::uint64_t byClass = 0, bySlave = 0, byBundle = 0;
  for (const std::uint64_t e : v.byClass) byClass += e;
  for (const std::uint64_t e : v.bySlave) bySlave += e;
  for (const std::uint64_t e : v.byBundle) byBundle += e;
  EXPECT_EQ(byClass, ledger.total_aJ()) << what << " (class axis)";
  EXPECT_EQ(bySlave, ledger.total_aJ()) << what << " (slave axis)";
  EXPECT_EQ(byBundle, ledger.total_aJ()) << what << " (bundle axis)";
  EXPECT_EQ(ledger.total_aJ(), pm.totalEnergy_aJ()) << what << " (total)";
  EXPECT_EQ(bus::toFemtojoules(ledger.total_aJ()), pm.energySinceLastCall_fJ())
      << what << " (interval)";
  EXPECT_GT(ledger.total_aJ(), 0u) << what;
}

void checkTl1(const trace::BusTrace& t, const std::string& what) {
  Tl1Bench tb;
  power::Tl1PowerModel pm(characterizedTable());
  tb.bus.addObserver(pm);
  obs::EnergyLedger ledger;
  pm.attachLedger(ledger);
  tb.run(t);
  expectReconciles(ledger, pm, what);
}

void checkTl2(const trace::BusTrace& t, const std::string& what) {
  Tl2Bench tb;
  power::Tl2PowerModel pm(characterizedTable());
  tb.bus.addObserver(pm);
  obs::EnergyLedger ledger;
  pm.attachLedger(ledger);
  tb.run(t);
  expectReconciles(ledger, pm, what);
}

TEST(LedgerReconcileTest, Tl1VerificationSuite) {
  for (const trace::NamedTrace& nt : trace::verificationSuite(
           testbench::fastRegion(), testbench::waitedRegion())) {
    checkTl1(nt.trace, "tl1 " + nt.name);
  }
}

TEST(LedgerReconcileTest, Tl2VerificationSuite) {
  for (const trace::NamedTrace& nt : trace::verificationSuite(
           testbench::fastRegion(), testbench::waitedRegion())) {
    checkTl2(nt.trace, "tl2 " + nt.name);
  }
}

TEST(LedgerReconcileTest, Tl1RandomMixes) {
  for (std::uint64_t seed : {7u, 99u, 4242u}) {
    checkTl1(trace::randomMix(seed, 300, testbench::bothRegions(),
                              trace::MixRatios{2, 2, 1, 1, 1}, 3),
             "tl1 mix seed " + std::to_string(seed));
  }
}

TEST(LedgerReconcileTest, Tl2RandomMixes) {
  for (std::uint64_t seed : {7u, 99u, 4242u}) {
    checkTl2(trace::randomMix(seed, 300, testbench::bothRegions(),
                              trace::MixRatios{2, 2, 1, 1, 1}, 3),
             "tl2 mix seed " + std::to_string(seed));
  }
}

TEST(LedgerReconcileTest, Tl1AttributesClassesAndSlaves) {
  Tl1Bench tb;
  power::Tl1PowerModel pm(characterizedTable());
  tb.bus.addObserver(pm);
  obs::EnergyLedger ledger;
  pm.attachLedger(ledger);
  tb.run(trace::randomMix(5, 200, testbench::bothRegions(),
                          trace::MixRatios{1, 1, 1, 1, 1}, 0));
  // All classes active in this mix, both slaves decoded.
  EXPECT_GT(ledger.byClass_aJ(obs::TxClass::InstrRead), 0u);
  EXPECT_GT(ledger.byClass_aJ(obs::TxClass::DataRead), 0u);
  EXPECT_GT(ledger.byClass_aJ(obs::TxClass::Write), 0u);
  EXPECT_GT(ledger.bySlave_aJ(0), 0u);
  EXPECT_GT(ledger.bySlave_aJ(1), 0u);
  expectReconciles(ledger, pm, "tl1 class/slave mix");
}

TEST(LedgerReconcileTest, ResetClearsEverything) {
  obs::EnergyLedger ledger;
  ledger.add(bus::SignalId::EB_A, obs::TxClass::Write, 0, 2000);
  ledger.reset();
  EXPECT_EQ(ledger.total_aJ(), 0u);
  EXPECT_EQ(ledger.view(), obs::LedgerView{});
}

} // namespace
} // namespace sct
