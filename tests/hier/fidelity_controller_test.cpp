// FidelityController behaviour under load: misuse of the scope and
// profile API, an energy-budget trigger fed by a running controller,
// and the controller's wake contract in a TL2 region (it sleeps to its
// triggers' horizons and wakes for a submission only when a trigger
// says the submission may have changed its answer).
#include "hier/fidelity_controller.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <vector>

#include "../testbench.h"
#include "bus/memory_slave.h"
#include "bus/tl2_bridge.h"
#include "hier/hybrid_bus.h"
#include "hier/roi_trigger.h"
#include "power/budget.h"
#include "power/profile.h"
#include "power/tl1_power_model.h"
#include "power/tl2_power_model.h"
#include "trace/replay_master.h"
#include "trace/workloads.h"

namespace sct::hier {
namespace {

power::SignalEnergyTable distinctTable() {
  power::SignalEnergyTable t;
  for (std::size_t i = 0; i < bus::kSignalCount; ++i) {
    t.setCoeff_fJ(static_cast<bus::SignalId>(i),
                  7.25 + 1.0 / static_cast<double>(3 * i + 1));
  }
  return t;
}

/// A hybrid bus over the shared two-slave memory map, with both layers'
/// power models attached.
struct HybridRig {
  power::SignalEnergyTable table = distinctTable();
  sim::Kernel kernel;
  sim::Clock clk{kernel, "clk", 10};
  HybridBus bus{clk, "ecbus"};
  bus::MemorySlave fast{"ram", testbench::fastCtl()};
  bus::MemorySlave waited{"eeprom", testbench::waitedCtl()};
  power::Tl1PowerModel pm1{table};
  power::Tl2PowerModel pm2{table};

  HybridRig() {
    bus.attach(fast);
    bus.attach(waited);
    bus.tl1().addObserver(pm1);
    bus.tl2().addObserver(pm2);
  }
};

TEST(FidelityControllerMisuse, UnmatchedExitRoiThrowsAndKeepsTheDepth) {
  HybridRig rig;
  FidelityController ctrl(rig.clk, rig.bus);
  EXPECT_THROW(ctrl.exitRoi(), std::logic_error);
  EXPECT_EQ(ctrl.scopeDepth(), 0u);
  rig.clk.runCycles(10);
  EXPECT_EQ(ctrl.scopeDepth(), 0u);
  EXPECT_EQ(rig.bus.active(), Fidelity::Tl2);
  EXPECT_EQ(ctrl.switches(), 0u);

  // The controller stays usable: a matched scope still switches twice.
  ctrl.enterRoi();
  rig.clk.runCycles(4);
  ctrl.exitRoi();
  EXPECT_THROW(ctrl.exitRoi(), std::logic_error);
  EXPECT_EQ(ctrl.scopeDepth(), 0u);
  rig.clk.runCycles(4);
  ctrl.finalize();
  EXPECT_EQ(ctrl.switches(), 2u);
  EXPECT_EQ(ctrl.roiCycles(), 4u);
  EXPECT_EQ(rig.bus.active(), Fidelity::Tl2);
}

TEST(FidelityControllerMisuse, ProfileBeforePowerThrowsAndBindsNothing) {
  HybridRig rig;
  FidelityController ctrl(rig.clk, rig.bus);
  power::PowerProfile early(10);
  EXPECT_THROW(ctrl.attachProfile(early), std::logic_error);

  // The refused profile is never written; the proper order works.
  ctrl.attachPower(rig.pm1, rig.pm2);
  power::PowerProfile profile(10);
  ctrl.attachProfile(profile);
  const auto t = trace::randomMix(3, 40, testbench::bothRegions());
  {
    RoiScope roi(ctrl);
    trace::ReplayMaster m(rig.clk, "m", rig.bus, rig.bus, t);
    m.runToCompletion();
    rig.clk.runCycles(2);
  }
  rig.clk.runCycles(5);
  ctrl.finalize();
  EXPECT_TRUE(early.samples().empty());
  EXPECT_FALSE(profile.samples().empty());
}

/// Bursts of back-to-back traffic separated by idle stretches.
trace::BusTrace burstyTrace() {
  trace::BusTrace t;
  for (std::uint64_t burst = 0; burst < 3; ++burst) {
    const auto b = trace::randomMix(40 + burst, 150, testbench::bothRegions());
    const std::uint64_t base = 20 + burst * 900;
    for (trace::TraceEntry e : b.entries()) {
      e.issueCycle = base;
      t.append(e);
    }
  }
  return t;
}

TEST(FidelityControllerEnergy, BudgetTriggerTripsUnderARunningController) {
  // gsm5V budget: 10 mA at 5 V. With 10 ps cycles and a chip scale of
  // 4000, a busy 32-cycle window can draw more than 80% of it and an
  // idle one draws nothing, so the bursts trip the trigger again and
  // again and the run alternates between the layers, with both models
  // feeding the windows.
  HybridRig rig;
  FidelityController ctrl(rig.clk, rig.bus);
  EnergyBudgetTrigger budget(power::gsm5V(), /*clockPeriodPs=*/10,
                             /*chipScale=*/4000.0, /*windowCycles=*/32,
                             /*triggerFraction=*/0.8, /*holdCycles=*/64);
  ctrl.addTrigger(budget);
  ctrl.attachPower(rig.pm1, rig.pm2);

  const trace::BusTrace t = burstyTrace();
  trace::ReplayMaster m(rig.clk, "m", rig.bus, rig.bus, t);
  m.runToCompletion();
  ASSERT_TRUE(m.done());
  rig.clk.runCycles(400);
  ctrl.finalize();

  // Pinned on the controller that woke on every submission: a
  // controller that sleeps between its triggers' horizons feeds the
  // same window totals at the same closing ticks.
  struct Expected {
    Fidelity fidelity;
    std::uint64_t from, to;
    double energy_fJ;
  };
  const std::vector<Expected> expected = {
      {Fidelity::Tl2, 0, 83, 7899.5990000000002},
      {Fidelity::Tl1, 83, 148, 4063.3620000000001},
      {Fidelity::Tl2, 148, 213, 6929.5879999999997},
      {Fidelity::Tl1, 213, 274, 3784.3119999999999},
      {Fidelity::Tl2, 274, 373, 9406.4320000000007},
      {Fidelity::Tl1, 373, 427, 5176.3230000000003},
      {Fidelity::Tl2, 427, 461, 3926.3229999999999},
      {Fidelity::Tl1, 461, 512, 14.554},
      {Fidelity::Tl2, 512, 985, 8630.9889999999996},
      {Fidelity::Tl1, 985, 1137, 15817.427},
      {Fidelity::Tl2, 1137, 1162, 3374.7600000000002},
      {Fidelity::Tl1, 1162, 1344, 13660.209999999999},
      {Fidelity::Tl2, 1344, 1881, 9103.268},
      {Fidelity::Tl1, 1881, 1943, 4979.8649999999998},
      {Fidelity::Tl2, 1943, 2033, 10783.495999999999},
      {Fidelity::Tl1, 2033, 2272, 19668.353999999999},
      {Fidelity::Tl2, 2272, 2628, 0},
  };
  ASSERT_EQ(ctrl.regions().size(), expected.size());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    SCOPED_TRACE("region " + std::to_string(i));
    const FidelityController::Region& r = ctrl.regions()[i];
    EXPECT_EQ(r.fidelity, expected[i].fidelity);
    EXPECT_EQ(r.fromCycle, expected[i].from);
    EXPECT_EQ(r.toCycle, expected[i].to);
    EXPECT_EQ(r.energy_fJ, expected[i].energy_fJ);
  }
  EXPECT_EQ(budget.windowsTripped(), 20u);
  EXPECT_EQ(ctrl.switches(), 16u);
  EXPECT_EQ(rig.clk.cycle(), 2628u);
}

/// Never asks for an ROI; counts how often the controller consults it.
class CountingTrigger final : public RoiTrigger {
 public:
  bool wantsRoi(std::uint64_t /*cycle*/) override {
    ++consulted;
    return false;
  }
  std::uint64_t consulted = 0;
};

TEST(FidelityControllerWake, SleepsThroughATl2Region) {
  const auto t =
      trace::randomMix(17, 4000, testbench::bothRegions(), trace::MixRatios{});

  HybridRig rig;
  FidelityController ctrl(rig.clk, rig.bus);
  CountingTrigger quiet;
  ctrl.addTrigger(quiet);
  ctrl.attachPower(rig.pm1, rig.pm2);
  trace::ReplayMaster m(rig.clk, "m", rig.bus, rig.bus, t);
  const std::uint64_t cycles = m.runToCompletion();
  ASSERT_TRUE(m.done());
  ctrl.finalize();
  EXPECT_EQ(ctrl.switches(), 0u);
  EXPECT_LE(quiet.consulted, 2u);
  double energy_fJ = 0.0;
  for (const auto& r : ctrl.regions()) energy_fJ += r.energy_fJ;

  // Exactly layer 2: the same replay on a bridged TL2 bus.
  const power::SignalEnergyTable table = distinctTable();
  sim::Kernel kernel;
  sim::Clock clk{kernel, "clk", 10};
  bus::BridgedTl2Bus ref{clk, "ecbus"};
  bus::MemorySlave fast{"ram", testbench::fastCtl()};
  bus::MemorySlave waited{"eeprom", testbench::waitedCtl()};
  ref.attach(fast);
  ref.attach(waited);
  power::Tl2PowerModel pm(table);
  ref.addObserver(pm);
  trace::ReplayMaster refMaster(clk, "m", ref, ref, t);
  EXPECT_EQ(cycles, refMaster.runToCompletion());
  EXPECT_EQ(energy_fJ, pm.totalEnergy_fJ());
  EXPECT_EQ(m.stats().issueStallCycles, refMaster.stats().issueStallCycles);
}

} // namespace
} // namespace sct::hier
