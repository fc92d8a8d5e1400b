// HybridBus + FidelityController unit tests: switch protocol (quiesce,
// deferral, drain backpressure, Finished pickup across a switch), the
// ROI triggers, and region/counter bookkeeping.
#include "hier/hybrid_bus.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <string_view>

#include "../testbench.h"
#include "bus/memory_slave.h"
#include "hier/fidelity_controller.h"
#include "hier/roi_trigger.h"
#include "trace/replay_master.h"
#include "trace/workloads.h"

namespace sct::hier {
namespace {

struct HybridFixture : ::testing::Test {
  sim::Kernel kernel;
  sim::Clock clk{kernel, "clk", 10};
  HybridBus bus{clk, "ecbus"};
  bus::MemorySlave ram{"ram", testbench::fastCtl()};
  bus::MemorySlave waited{"eeprom", testbench::waitedCtl()};

  HybridFixture() {
    bus.attach(ram);
    bus.attach(waited);
  }

  /// Run rising-edge callback `fn` each cycle until it returns true;
  /// returns the cycles consumed (fails the test at `max`).
  template <typename F>
  std::uint64_t driveUntil(F&& fn, std::uint64_t max = 2000) {
    bool done = false;
    const auto id = clk.onRising([&] { done = done || fn(); });
    std::uint64_t n = 0;
    while (!done && n < max) {
      clk.runCycles(1);
      ++n;
    }
    clk.removeHandler(id);
    EXPECT_LT(n, max) << "driveUntil did not converge";
    return n;
  }
};

TEST_F(HybridFixture, StartsEventDrivenWithTl1Parked) {
  EXPECT_EQ(bus.active(), Fidelity::Tl2);
  EXPECT_TRUE(bus.tl1().suspended());
  EXPECT_FALSE(bus.switchPending());
  EXPECT_TRUE(bus.quiesced());

  HybridBus t1{clk, "ecbus1", Fidelity::Tl1};
  EXPECT_EQ(t1.active(), Fidelity::Tl1);
  EXPECT_FALSE(t1.tl1().suspended());
}

TEST_F(HybridFixture, AttachAgreesOnSelectIndices) {
  bus::MemorySlave extra{"extra", [] {
                           bus::SlaveControl c;
                           c.base = 0x4000;
                           c.size = 0x1000;
                           return c;
                         }()};
  EXPECT_EQ(bus.attach(extra), 2);
  EXPECT_EQ(bus.tl1().decoder().decode(0x4000), 2);
  EXPECT_EQ(bus.tl2().decoder().decode(0x4000), 2);
}

TEST_F(HybridFixture, TransactionsCompleteOnBothLayers) {
  for (const Fidelity f : {Fidelity::Tl2, Fidelity::Tl1}) {
    bus.requestSwitch(f);
    ASSERT_TRUE(f == bus.active() || bus.tryCompleteSwitch());
    trace::BusTrace t;
    trace::TraceEntry wr;
    wr.kind = bus::Kind::Write;
    wr.address = f == Fidelity::Tl1 ? 0x100u : 0x200u;
    wr.writeData[0] = 0xC0FFEE00u + static_cast<unsigned>(f);
    t.append(wr);
    trace::TraceEntry rd;
    rd.kind = bus::Kind::Read;
    rd.address = wr.address;
    t.append(rd);
    trace::ReplayMaster m(clk, "m", bus, bus, t);
    m.runToCompletion();
    ASSERT_TRUE(m.done());
    EXPECT_EQ(m.stats().errors, 0u);
    EXPECT_EQ(m.requests()[1].data[0], wr.writeData[0]);
    EXPECT_EQ(ram.peekWord(wr.address), wr.writeData[0]);
  }
  EXPECT_EQ(bus.tl1().stats().transactions(), 2u);
  EXPECT_EQ(bus.tl2().stats().transactions(), 2u);
}

TEST_F(HybridFixture, SwitchWhenIdleCompletesImmediately) {
  bus.requestSwitch(Fidelity::Tl1);
  EXPECT_TRUE(bus.switchPending());
  EXPECT_TRUE(bus.tryCompleteSwitch());
  EXPECT_EQ(bus.active(), Fidelity::Tl1);
  EXPECT_FALSE(bus.tl1().suspended());
  EXPECT_EQ(bus.switches(), 1u);

  // Requesting the active fidelity cancels a pending request.
  bus.requestSwitch(Fidelity::Tl2);
  bus.requestSwitch(Fidelity::Tl1);
  EXPECT_FALSE(bus.switchPending());
  EXPECT_FALSE(bus.tryCompleteSwitch());
  EXPECT_EQ(bus.switches(), 1u);
}

TEST_F(HybridFixture, SwitchDefersUntilInFlightDrainsAndRefusesNewWork) {
  // Open a transaction on the event-driven layer (waited slave: several
  // cycles of latency), then ask for TL1 mid-flight.
  bus::Tl1Request req;
  req.kind = bus::Kind::Read;
  req.address = 0x8000;
  bus::BusStatus st = bus::BusStatus::Wait;
  driveUntil([&] {
    st = bus.read(req);
    return true;
  });
  ASSERT_EQ(st, bus::BusStatus::Request);

  bus.requestSwitch(Fidelity::Tl1);
  EXPECT_FALSE(bus.tryCompleteSwitch()) << "must defer while in flight";
  EXPECT_EQ(bus.active(), Fidelity::Tl2);

  // Fresh submissions are refused while the drain is pending.
  bus::Tl1Request fresh;
  fresh.kind = bus::Kind::Read;
  fresh.address = 0x0;
  bus::BusStatus freshSt = bus::BusStatus::Ok;
  driveUntil([&] {
    freshSt = bus.read(fresh);
    return true;
  });
  EXPECT_EQ(freshSt, bus::BusStatus::Wait);
  EXPECT_EQ(fresh.stage, bus::Tl1Stage::Idle);
  EXPECT_EQ(bus.drainWaitAnswers(), 1u);

  // The in-flight transaction still completes; then the switch goes
  // through.
  driveUntil([&] {
    st = bus.read(req);
    return st == bus::BusStatus::Ok;
  });
  EXPECT_TRUE(bus.tryCompleteSwitch());
  EXPECT_EQ(bus.active(), Fidelity::Tl1);
}

TEST_F(HybridFixture, FinishedPickupSurvivesTheSwitch) {
  ram.pokeWord(0x40, 0xFEEDC0DE);
  bus::Tl1Request req;
  req.kind = bus::Kind::Read;
  req.address = 0x40;
  driveUntil([&] { return bus.read(req) == bus::BusStatus::Request; });
  // Let the lower transaction finish, then bring the bridge current:
  // quiesced() syncs, posting the payload as Finished.
  clk.runCycles(8);
  ASSERT_TRUE(bus.quiesced());
  ASSERT_EQ(req.stage, bus::Tl1Stage::Finished);

  // A posted-but-unpicked result must not block the switch...
  bus.requestSwitch(Fidelity::Tl1);
  EXPECT_TRUE(bus.tryCompleteSwitch());
  EXPECT_EQ(bus.active(), Fidelity::Tl1);

  // ...and the pickup is served on the other layer.
  bus::BusStatus st = bus::BusStatus::Wait;
  driveUntil([&] {
    st = bus.read(req);
    return true;
  });
  EXPECT_EQ(st, bus::BusStatus::Ok);
  EXPECT_EQ(req.data[0], 0xFEEDC0DEu);
  EXPECT_EQ(req.stage, bus::Tl1Stage::Idle);
}

// --------------------------------------------------------------------------
// Triggers
// --------------------------------------------------------------------------

TEST(RoiTriggerTest, AddressWatchArmsOnHitsAndExpires) {
  AddressWatchTrigger t({{0x8000, 0x100}}, /*holdCycles=*/16);
  EXPECT_FALSE(t.wantsRoi(0));

  bus::Tl1Request miss;
  miss.address = 0x100;
  t.onSubmit(miss, 5);
  EXPECT_FALSE(t.wantsRoi(5));
  EXPECT_EQ(t.hits(), 0u);

  bus::Tl1Request hit;
  hit.address = 0x8004;
  t.onSubmit(hit, 10);
  EXPECT_EQ(t.hits(), 1u);
  EXPECT_TRUE(t.wantsRoi(10));
  EXPECT_TRUE(t.wantsRoi(25));
  EXPECT_EQ(t.nextDecisionCycle(10), 26u);
  EXPECT_FALSE(t.wantsRoi(26));
  EXPECT_EQ(t.nextDecisionCycle(26), sim::Clock::kNeverWake);

  // A burst ending inside the window counts as a hit.
  bus::Tl1Request burst;
  burst.address = 0x7FF8;
  burst.beats = 4;
  t.onSubmit(burst, 40);
  EXPECT_EQ(t.hits(), 2u);
  EXPECT_TRUE(t.wantsRoi(41));
}

TEST(RoiTriggerTest, CycleWindowFollowsTheSchedule) {
  CycleWindowTrigger t({{30, 40}, {10, 20}});
  EXPECT_FALSE(t.wantsRoi(0));
  EXPECT_EQ(t.nextDecisionCycle(0), 10u);
  EXPECT_TRUE(t.wantsRoi(10));
  EXPECT_EQ(t.nextDecisionCycle(10), 20u);
  EXPECT_TRUE(t.wantsRoi(19));
  EXPECT_FALSE(t.wantsRoi(20));
  EXPECT_EQ(t.nextDecisionCycle(20), 30u);
  EXPECT_TRUE(t.wantsRoi(35));
  EXPECT_FALSE(t.wantsRoi(40));
  EXPECT_EQ(t.nextDecisionCycle(40), sim::Clock::kNeverWake);
}

TEST(RoiTriggerTest, EnergyBudgetTripsOnSustainedDraw) {
  // gsm5V: 10 mA at 5 V = 50 mW. chipScale 1, 10 ps cycles, window 10:
  // the 80 % threshold needs >= 40000 uW * 100 ps = 4e6 fJ per window.
  EnergyBudgetTrigger t(power::gsm5V(), /*clockPeriodPs=*/10,
                        /*chipScale=*/1.0, /*windowCycles=*/10,
                        /*triggerFraction=*/0.8, /*holdCycles=*/20);
  t.onEnergy(1.0e6, 3);
  EXPECT_FALSE(t.wantsRoi(10));  // Window closes quiet: 1e6 < 4e6.
  EXPECT_EQ(t.windowsTripped(), 0u);

  t.onEnergy(5.0e6, 15);
  EXPECT_TRUE(t.wantsRoi(20));  // Hot window: armed until 40.
  EXPECT_EQ(t.windowsTripped(), 1u);
  EXPECT_TRUE(t.wantsRoi(39));
  EXPECT_FALSE(t.wantsRoi(45));
}

// --------------------------------------------------------------------------
// Controller
// --------------------------------------------------------------------------

TEST_F(HybridFixture, ScopeGuardsSwitchAndRecordRegions) {
  FidelityController ctrl(clk, bus);
  EXPECT_EQ(bus.active(), Fidelity::Tl2);

  clk.runCycles(10);
  {
    RoiScope roi(ctrl);
    EXPECT_EQ(bus.active(), Fidelity::Tl1);
    {
      RoiScope nested(ctrl);  // Depth counts; no extra switch.
      EXPECT_EQ(ctrl.scopeDepth(), 2u);
    }
    EXPECT_EQ(bus.active(), Fidelity::Tl1);
    clk.runCycles(25);
  }
  EXPECT_EQ(bus.active(), Fidelity::Tl2);
  clk.runCycles(5);
  ctrl.finalize();

  EXPECT_EQ(ctrl.switches(), 2u);
  EXPECT_EQ(ctrl.roiCycles(), 25u);
  ASSERT_EQ(ctrl.regions().size(), 3u);
  EXPECT_EQ(ctrl.regions()[0].fidelity, Fidelity::Tl2);
  EXPECT_EQ(ctrl.regions()[1].fidelity, Fidelity::Tl1);
  EXPECT_EQ(ctrl.regions()[2].fidelity, Fidelity::Tl2);
  EXPECT_EQ(ctrl.regions()[1].toCycle - ctrl.regions()[1].fromCycle, 25u);
  // Regions tile the run.
  EXPECT_EQ(ctrl.regions()[0].fromCycle, 0u);
  EXPECT_EQ(ctrl.regions()[1].fromCycle, ctrl.regions()[0].toCycle);
  EXPECT_EQ(ctrl.regions()[2].fromCycle, ctrl.regions()[1].toCycle);
  EXPECT_EQ(ctrl.regions()[2].toCycle, clk.cycle());
}

TEST_F(HybridFixture, CycleWindowScheduleDrivesSwitchesDuringReplay) {
  FidelityController ctrl(clk, bus);
  CycleWindowTrigger windows({{40, 120}, {200, 280}});
  ctrl.addTrigger(windows);

  const auto workload = trace::randomMix(7, 300, testbench::bothRegions(),
                                         trace::MixRatios{}, 3);
  trace::ReplayMaster m(clk, "m", bus, bus, workload);
  m.runToCompletion();
  ASSERT_TRUE(m.done());
  EXPECT_EQ(m.stats().errors, 0u);
  ctrl.finalize();

  EXPECT_GE(ctrl.switches(), 2u);
  EXPECT_GT(ctrl.roiCycles(), 0u);
  EXPECT_EQ(ctrl.roiCycles() + [&] {
    std::uint64_t tl2 = 0;
    for (const auto& r : ctrl.regions()) {
      if (r.fidelity == Fidelity::Tl2) tl2 += r.toCycle - r.fromCycle;
    }
    return tl2;
  }(), clk.cycle());
  // Regions alternate and tile the run.
  for (std::size_t i = 1; i < ctrl.regions().size(); ++i) {
    EXPECT_NE(ctrl.regions()[i].fidelity, ctrl.regions()[i - 1].fidelity);
    EXPECT_EQ(ctrl.regions()[i].fromCycle, ctrl.regions()[i - 1].toCycle);
  }
  // Both layers carried part of the workload.
  EXPECT_GT(bus.tl1().stats().transactions(), 0u);
  EXPECT_GT(bus.tl2().stats().transactions(), 0u);
  EXPECT_EQ(bus.tl1().stats().transactions() +
                bus.tl2().stats().transactions(),
            workload.size());
}

TEST_F(HybridFixture, AddressWatchPullsCryptoTrafficIntoTl1) {
  FidelityController ctrl(clk, bus);
  AddressWatchTrigger watch({{0x8000, 0x100}}, /*holdCycles=*/32);
  ctrl.addTrigger(watch);

  // Fast-region traffic first, then a burst into the watched window.
  trace::BusTrace t;
  for (int i = 0; i < 20; ++i) {
    trace::TraceEntry e;
    e.kind = bus::Kind::Read;
    e.address = 0x100 + 4 * static_cast<bus::Address>(i);
    e.issueCycle = static_cast<std::uint64_t>(2 * i);
    t.append(e);
  }
  for (int i = 0; i < 8; ++i) {
    trace::TraceEntry e;
    e.kind = bus::Kind::Write;
    e.address = 0x8000 + 4 * static_cast<bus::Address>(i);
    e.writeData[0] = 0xA0 + static_cast<bus::Word>(i);
    e.issueCycle = 60 + static_cast<std::uint64_t>(i);
    t.append(e);
  }
  trace::ReplayMaster m(clk, "m", bus, bus, t);
  m.runToCompletion();
  ASSERT_TRUE(m.done());
  clk.runCycles(60);  // Let the hold expire and the bus switch back.
  ctrl.finalize();

  EXPECT_GT(watch.hits(), 0u);
  EXPECT_GE(ctrl.switches(), 2u);
  EXPECT_GT(ctrl.roiCycles(), 0u);
  EXPECT_EQ(bus.active(), Fidelity::Tl2);
  EXPECT_EQ(waited.peekWord(0x8000), 0xA0u);
  // The watched-window writes themselves ran cycle-true (the first one
  // trips the trigger; the switch lands before the re-armed window's
  // later writes are done).
  EXPECT_GT(bus.tl1().stats().writeTransactions, 0u);
}

TEST_F(HybridFixture, ObsCountersAndDrainWaitArePublished) {
  FidelityController ctrl(clk, bus);
  obs::StatsRegistry reg;
  obs::TraceRecorder rec(256);
  ctrl.attachObs(reg, &rec);

  clk.runCycles(3);
  ctrl.enterRoi();
  clk.runCycles(12);
  ctrl.exitRoi();
  clk.runCycles(3);
  ctrl.finalize();

  EXPECT_EQ(reg.counter("hier.switches").value(), 2u);
  EXPECT_EQ(reg.counter("hier.roi_cycles").value(), 12u);
  EXPECT_EQ(reg.counter("hier.drain_wait_cycles").value(),
            ctrl.drainWaitCycles());
  std::size_t instants = 0;
  for (std::size_t i = 0; i < rec.size(); ++i) {
    const auto& e = rec.event(i);
    if (e.phase == 'i' && std::string_view(e.cat) == "hier") ++instants;
  }
  EXPECT_EQ(instants, 2u);
}

} // namespace
} // namespace sct::hier
