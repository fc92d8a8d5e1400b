// LedgerView: the streamable per-session form of the attribution data.
// snapshot-before / snapshot-after / delta is how the serve daemon
// reports each session's energy split while the ledger keeps
// accumulating, and merge() is the fleet-aggregation fold.
#include <gtest/gtest.h>

#include <cstddef>

#include "bus/ec_signals.h"
#include "obs/ledger.h"

namespace sct {
namespace {

using obs::EnergyLedger;
using obs::LedgerView;
using obs::TxClass;

TEST(LedgerView, ViewCopiesEveryAccumulator) {
  EnergyLedger led;
  led.add(bus::SignalId::EB_A, TxClass::InstrRead, 0, 1500);
  led.add(bus::SignalId::EB_WData, TxClass::Write, 2, 2250);
  led.add(bus::SignalId::EB_RData, TxClass::DataRead, -1, 125);

  const LedgerView v = led.view();
  EXPECT_EQ(v.total_aJ(), 3875u);
  EXPECT_EQ(v.total_aJ(), led.total_aJ());
  EXPECT_EQ(v.byBundle[static_cast<std::size_t>(bus::SignalId::EB_A)], 1500u);
  EXPECT_EQ(v.byClass[static_cast<std::size_t>(TxClass::Write)], 2250u);
  // Slave -1 (decode miss) lands in slot 0.
  EXPECT_EQ(v.bySlave[0], 125u);
}

TEST(LedgerView, DeltaIsolatesTheSessionWindow) {
  EnergyLedger led;
  led.add(bus::SignalId::EB_A, TxClass::InstrRead, 0, 10000);
  const LedgerView before = led.view();

  led.add(bus::SignalId::EB_A, TxClass::InstrRead, 0, 3000);
  led.add(bus::SignalId::EB_Write, TxClass::Write, 1, 4000);
  const LedgerView after = led.view();

  const LedgerView d = obs::delta(after, before);
  EXPECT_EQ(d.total_aJ(), 7000u);
  EXPECT_EQ(d.byBundle[static_cast<std::size_t>(bus::SignalId::EB_A)], 3000u);
  EXPECT_EQ(d.byBundle[static_cast<std::size_t>(bus::SignalId::EB_Write)],
            4000u);
  EXPECT_EQ(d.byClass[static_cast<std::size_t>(TxClass::Write)], 4000u);
  EXPECT_EQ(d.bySlave[2], 4000u);
}

TEST(LedgerView, DeltaOfIdenticalViewsIsZero) {
  EnergyLedger led;
  led.add(bus::SignalId::EB_WData, TxClass::Write, 0, 5000);
  const LedgerView v = led.view();
  EXPECT_EQ(obs::delta(v, v), LedgerView{});
}

TEST(LedgerView, MergeAccumulatesComponentWise) {
  EnergyLedger a;
  a.add(bus::SignalId::EB_A, TxClass::InstrRead, 0, 1000);
  EnergyLedger b;
  b.add(bus::SignalId::EB_A, TxClass::InstrRead, 0, 2000);
  b.add(bus::SignalId::EB_RData, TxClass::DataRead, 1, 8000);

  LedgerView sum = a.view();
  obs::merge(sum, b.view());
  EXPECT_EQ(sum.total_aJ(), 11000u);
  EXPECT_EQ(sum.byBundle[static_cast<std::size_t>(bus::SignalId::EB_A)], 3000u);
  EXPECT_EQ(sum.byBundle[static_cast<std::size_t>(bus::SignalId::EB_RData)],
            8000u);
  EXPECT_EQ(sum.bySlave[2], 8000u);
}

TEST(LedgerView, DeltaIsExactAfterAnyHistory) {
  // Integer accumulators: a session's delta does not depend on what the
  // ledger held before it — no restore is needed for equal sessions to
  // produce equal deltas.
  EnergyLedger fresh;
  EnergyLedger used;
  used.add(bus::SignalId::EB_A, TxClass::InstrRead, 0, 123456789);
  const LedgerView freshStart = fresh.view();
  const LedgerView usedStart = used.view();
  for (EnergyLedger* led : {&fresh, &used}) {
    led->add(bus::SignalId::EB_A, TxClass::InstrRead, 0, 2000);
    led->add(bus::SignalId::EB_WData, TxClass::Write, 0, 3000);
  }
  EXPECT_EQ(obs::delta(fresh.view(), freshStart),
            obs::delta(used.view(), usedStart));
  EXPECT_EQ(obs::delta(used.view(), usedStart).total_aJ(), 5000u);
}

} // namespace
} // namespace sct
