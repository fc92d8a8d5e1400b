// Checkpoints across a parked gap.
//
// An idle Tl1Bus with a quiet energy engine and no observer parks its
// process, and an idle replay master parks until its next entry is due.
// That park state travels in the clk section's handler wake words; the
// bus section keeps the counts a ticking process would hold. A snapshot
// taken mid-gap, with both parked, must continue exactly like the
// uninterrupted run:
//  * restored into an identical rig, which stays parked and saves the
//    same bytes again;
//  * restored into a rig with a power::Tl1ProfileRecorder attached,
//    whose bus must tick every cycle to feed it (profile samples
//    included);
//  * restored with the bus handler's wake word at 0, as a build without
//    the idle park writes it: the bus runs, then parks again.
// The same holds for a CardRig snapshot taken while the core runs from
// its cache and the bus is parked.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "../testbench.h"
#include "bus/ec_signals.h"
#include "bus/memory_slave.h"
#include "bus/tl1_bus.h"
#include "ckpt/checkpoint.h"
#include "obs/ledger.h"
#include "power/card_rig.h"
#include "power/profile.h"
#include "power/tl1_power_model.h"
#include "sim/clock.h"
#include "trace/replay_master.h"
#include "trace/workloads.h"

namespace sct {
namespace {

using trace::BusTrace;

constexpr std::uint64_t kNever = sim::Clock::kNeverWake;

power::SignalEnergyTable distinctTable() {
  power::SignalEnergyTable t;
  for (std::size_t i = 0; i < bus::kSignalCount; ++i) {
    t.setCoeff_fJ(static_cast<bus::SignalId>(i),
                  2.0 + 0.5 * static_cast<double>(i));
  }
  return t;
}

// -- The clk section: u64 cycle, u64 next handler id, then the rising
// and the falling handlers, each a u32 count and (u64 id, u64 wake)
// pairs in dispatch order.

struct ClkWakes {
  std::uint64_t cycle = 0;
  std::vector<std::uint64_t> rising;
  std::vector<std::uint64_t> falling;
};

ClkWakes wakesOf(const ckpt::Snapshot& snap) {
  const ckpt::Snapshot::Section* clk = snap.find("clk");
  EXPECT_NE(clk, nullptr);
  ckpt::StateReader r(clk->payload);
  ClkWakes w;
  w.cycle = r.u64();
  (void)r.u64();
  for (std::vector<std::uint64_t>* edge : {&w.rising, &w.falling}) {
    const std::uint32_t n = r.u32();
    for (std::uint32_t i = 0; i < n; ++i) {
      (void)r.u64();
      edge->push_back(r.u64());
    }
  }
  return w;
}

/// `snap` with the first falling handler's (the bus process's) wake
/// word set to `wake`.
ckpt::Snapshot withBusWake(const ckpt::Snapshot& snap, std::uint64_t wake) {
  ckpt::Snapshot out;
  for (const ckpt::Snapshot::Section& s : snap.sections()) {
    std::vector<std::uint8_t> payload = s.payload;
    if (s.tag == "clk") {
      ckpt::StateReader r(payload);
      (void)r.u64();
      (void)r.u64();
      const std::uint32_t rising = r.u32();
      const std::size_t at = 8 + 8 + 4 + 16 * rising + 4 + 8;
      for (std::size_t b = 0; b < 8; ++b) {
        payload[at + b] = static_cast<std::uint8_t>(wake >> (8 * b));
      }
    }
    out.addSection(s.tag, s.version, std::move(payload));
  }
  return out;
}

void expectBusStatsEqual(const bus::Tl1BusStats& a, const bus::Tl1BusStats& b) {
  EXPECT_EQ(a.cycles, b.cycles);
  EXPECT_EQ(a.busyCycles, b.busyCycles);
  EXPECT_EQ(a.addrCycles, b.addrCycles);
  EXPECT_EQ(a.readBeats, b.readBeats);
  EXPECT_EQ(a.writeBeats, b.writeBeats);
  EXPECT_EQ(a.instrTransactions, b.instrTransactions);
  EXPECT_EQ(a.readTransactions, b.readTransactions);
  EXPECT_EQ(a.writeTransactions, b.writeTransactions);
  EXPECT_EQ(a.readBusErrors, b.readBusErrors);
  EXPECT_EQ(a.writeBusErrors, b.writeBusErrors);
  EXPECT_EQ(a.bytesRead, b.bytesRead);
  EXPECT_EQ(a.bytesWritten, b.bytesWritten);
}

/// Samples strictly after `cycle`.
std::vector<power::PowerProfile::Sample> samplesAfter(
    const power::PowerProfile& p, std::uint64_t cycle) {
  std::vector<power::PowerProfile::Sample> out;
  for (const auto& s : p.samples()) {
    if (s.cycle > cycle) out.push_back(s);
  }
  return out;
}

void expectSamplesEqual(const std::vector<power::PowerProfile::Sample>& a,
                        const std::vector<power::PowerProfile::Sample>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].cycle, b[i].cycle) << "sample " << i;
    EXPECT_EQ(a[i].energy_fJ, b[i].energy_fJ) << "sample " << i;
  }
}

// ---------------------------------------------------------------------------
// Replay rig

/// Register bursts far apart, over both test regions.
BusTrace burstsWithGaps() {
  BusTrace t;
  std::uint64_t cycle = 5;
  for (int b = 0; b < 12; ++b) {
    const BusTrace burst = trace::randomMix(
        100 + b, 10, testbench::bothRegions(), trace::MixRatios{}, 0);
    t.append(burst, cycle);
    cycle += 400;
  }
  return t;
}

struct ReplayRig {
  sim::Kernel kernel;
  sim::Clock clk{kernel, "clk", 10};
  bus::Tl1Bus bus{clk, "ecbus"};
  bus::MemorySlave fast{"ram", testbench::fastCtl()};
  bus::MemorySlave waited{"eeprom", testbench::waitedCtl()};
  power::Tl1PowerModel pm{distinctTable()};
  obs::EnergyLedger ledger;
  trace::ReplayMaster<bus::Tl1Bus> master;
  ckpt::CheckpointRegistry registry;
  power::PowerProfile profile{10};
  power::Tl1ProfileRecorder recorder{pm, profile};

  ReplayRig(const BusTrace& t, bool record)
      : master(clk, "master", bus, bus, t) {
    bus.attach(fast);
    bus.attach(waited);
    trace::fillRealistic(fast.data(), fast.sizeBytes(), 11);
    trace::fillRealistic(waited.data(), waited.sizeBytes(), 22);
    pm.attachLedger(ledger);
    bus.addObserver(pm);
    if (record) bus.addObserver(recorder);
    registry.add("kernel", kernel);
    registry.add("clk", clk);
    registry.add("ecbus", bus);
    registry.add("ram", fast);
    registry.add("eeprom", waited);
    registry.add("master", master);
    registry.add("pm", pm);
    registry.add("ledger", ledger);
  }
};

void expectSameRun(ReplayRig& got, ReplayRig& want) {
  EXPECT_EQ(got.clk.cycle(), want.clk.cycle());
  EXPECT_EQ(got.kernel.now(), want.kernel.now());
  const trace::ReplayStats& a = got.master.stats();
  const trace::ReplayStats& b = want.master.stats();
  EXPECT_EQ(a.completed, b.completed);
  EXPECT_EQ(a.errors, b.errors);
  EXPECT_EQ(a.issueStallCycles, b.issueStallCycles);
  EXPECT_EQ(a.finishCycle, b.finishCycle);
  ASSERT_EQ(got.master.requests().size(), want.master.requests().size());
  for (std::size_t i = 0; i < want.master.requests().size(); ++i) {
    const bus::Tl1Request& q = got.master.requests()[i];
    const bus::Tl1Request& r = want.master.requests()[i];
    EXPECT_EQ(q.acceptCycle, r.acceptCycle) << "request " << i;
    EXPECT_EQ(q.finishCycle, r.finishCycle) << "request " << i;
    EXPECT_EQ(q.data, r.data) << "request " << i;
  }
  expectBusStatsEqual(got.bus.stats(), want.bus.stats());
  for (std::size_t i = 0; i < bus::kSignalCount; ++i) {
    const auto id = static_cast<bus::SignalId>(i);
    EXPECT_EQ(got.pm.transitions(id), want.pm.transitions(id))
        << bus::signalName(id);
    EXPECT_EQ(got.pm.frame().get(id), want.pm.frame().get(id))
        << bus::signalName(id);
  }
  EXPECT_EQ(got.pm.totalEnergy_aJ(), want.pm.totalEnergy_aJ());
  EXPECT_EQ(got.pm.energyLastCycle_aJ(), want.pm.energyLastCycle_aJ());
  EXPECT_EQ(got.ledger.view(), want.ledger.view());
  EXPECT_EQ(got.fast.imageDigest(), want.fast.imageDigest());
  EXPECT_EQ(got.waited.imageDigest(), want.waited.imageDigest());
}

/// Run `rig` to a cycle in the middle of a gap, with the bus and the
/// master parked, past a third of the trace, and snapshot it there.
ckpt::Snapshot snapshotMidGap(ReplayRig& rig, std::size_t entries) {
  for (int i = 0; i < 100'000; ++i) {
    rig.clk.runCycles(1);
    if (rig.master.done()) break;
    if (rig.master.stats().completed < entries / 3 || !rig.bus.idle()) {
      continue;
    }
    ckpt::Snapshot snap = rig.registry.saveAll();
    const ClkWakes w = wakesOf(snap);
    if (w.falling.at(0) == kNever && w.rising.at(0) > w.cycle + 50) {
      return snap;
    }
  }
  ADD_FAILURE() << "no parked gap found";
  return {};
}

TEST(ParkedGapRestore, ReplayRigContinuesLikeTheUninterruptedRun) {
  const BusTrace t = burstsWithGaps();
  ReplayRig want(t, /*record=*/true);  // Ticks every cycle.
  want.master.runToCompletion();
  want.clk.runCycles(10);

  ReplayRig part(t, false);
  const ckpt::Snapshot snap = snapshotMidGap(part, t.size());
  const std::uint64_t at = part.clk.cycle();

  // Into an identical rig: it stays parked, and saves the same bytes.
  {
    ReplayRig cont(t, false);
    cont.registry.loadAll(snap);
    EXPECT_EQ(cont.registry.saveAll().serialize(), snap.serialize());
    cont.master.runToCompletion();
    cont.clk.runCycles(10);
    expectSameRun(cont, want);
    EXPECT_LT(cont.kernel.dispatchedEvents(), want.kernel.dispatchedEvents());
  }
  // Into a rig with a profile recorder: the bus ticks again.
  {
    ReplayRig cont(t, true);
    cont.registry.loadAll(snap);
    EXPECT_EQ(wakesOf(cont.registry.saveAll()).falling.at(0), 0u);
    cont.master.runToCompletion();
    cont.clk.runCycles(10);
    expectSameRun(cont, want);
    expectSamplesEqual(cont.profile.samples(), samplesAfter(want.profile, at));
  }
}

TEST(ParkedGapRestore, BusWakeZeroRunsAndParksAgain) {
  const BusTrace t = burstsWithGaps();
  ReplayRig want(t, true);
  want.master.runToCompletion();
  want.clk.runCycles(10);

  ReplayRig part(t, false);
  const ckpt::Snapshot snap = withBusWake(snapshotMidGap(part, t.size()), 0);
  ASSERT_EQ(wakesOf(snap).falling.at(0), 0u);

  ReplayRig cont(t, false);
  cont.registry.loadAll(snap);
  cont.clk.runCycles(2);
  EXPECT_EQ(wakesOf(cont.registry.saveAll()).falling.at(0), kNever)
      << "the idle bus did not park again";
  cont.master.runToCompletion();
  cont.clk.runCycles(10);
  expectSameRun(cont, want);
}

// ---------------------------------------------------------------------------
// CardRig

/// Long register-only inner loops between RAM stores: once the loop is
/// in the instruction cache the bus idles for hundreds of cycles.
const soc::AssembledProgram& gapProgram() {
  static const soc::AssembledProgram prog = soc::assemble(R"(
      li    $s2, 0x08000000
      addiu $t2, $zero, 7
      addiu $t3, $zero, 24
    outer:
      addiu $t5, $zero, 60
    inner:
      xor   $t2, $t2, $t5
      addu  $t2, $t2, $t3
      addiu $t5, $t5, -1
      bne   $t5, $zero, inner
      sw    $t2, 0($s2)
      addiu $s2, $s2, 4
      addiu $t3, $t3, -1
      bne   $t3, $zero, outer
      break
  )", soc::memmap::kRomBase);
  return prog;
}

struct RecordingCard {
  power::CardRig rig;
  power::PowerProfile profile{30'000};
  power::Tl1ProfileRecorder recorder{rig.pm, profile};

  explicit RecordingCard(const power::SignalEnergyTable& table)
      : rig(table, gapProgram()) {
    rig.soc.bus().addObserver(recorder);
  }
};

void expectSameCard(power::CardRig& got, power::CardRig& want) {
  EXPECT_EQ(got.soc.clock().cycle(), want.soc.clock().cycle());
  EXPECT_EQ(got.soc.kernel().now(), want.soc.kernel().now());
  for (unsigned i = 0; i < 32; ++i) {
    EXPECT_EQ(got.soc.cpu().reg(i), want.soc.cpu().reg(i)) << "reg " << i;
  }
  EXPECT_EQ(got.soc.cpu().stats().cycles, want.soc.cpu().stats().cycles);
  EXPECT_EQ(got.soc.ram().imageDigest(), want.soc.ram().imageDigest());
  expectBusStatsEqual(got.soc.bus().stats(), want.soc.bus().stats());
  for (std::size_t i = 0; i < bus::kSignalCount; ++i) {
    const auto id = static_cast<bus::SignalId>(i);
    EXPECT_EQ(got.pm.transitions(id), want.pm.transitions(id))
        << bus::signalName(id);
  }
  EXPECT_EQ(got.pm.totalEnergy_aJ(), want.pm.totalEnergy_aJ());
  EXPECT_EQ(got.pm.energyLastCycle_aJ(), want.pm.energyLastCycle_aJ());
}

TEST(ParkedGapRestore, CardRigContinuesLikeTheUninterruptedRun) {
  const power::SignalEnergyTable table = distinctTable();
  RecordingCard want(table);  // Ticks every cycle.
  ASSERT_TRUE(want.rig.soc.run());

  power::CardRig part(table, gapProgram());
  ckpt::Snapshot snap;
  for (int i = 0; i < 100'000 && snap.empty(); ++i) {
    part.soc.clock().runCycles(1);
    ASSERT_FALSE(part.soc.cpu().halted());
    if (part.soc.clock().cycle() < 2'000 || !part.quiesced()) continue;
    ckpt::Snapshot s = part.registry.saveAll();
    if (wakesOf(s).falling.at(0) == kNever) snap = std::move(s);
  }
  ASSERT_FALSE(snap.empty()) << "the bus never parked";
  const std::uint64_t at = part.soc.clock().cycle();

  {
    power::CardRig cont(table, gapProgram());
    cont.recycle(snap);
    EXPECT_EQ(cont.registry.saveAll().serialize(), snap.serialize());
    ASSERT_TRUE(cont.soc.run());
    expectSameCard(cont, want.rig);
  }
  {
    RecordingCard cont(table);
    cont.rig.recycle(snap);
    EXPECT_EQ(wakesOf(cont.rig.registry.saveAll()).falling.at(0), 0u);
    ASSERT_TRUE(cont.rig.soc.run());
    expectSameCard(cont.rig, want.rig);
    expectSamplesEqual(cont.profile.samples(), samplesAfter(want.profile, at));
  }
  {
    power::CardRig cont(table, gapProgram());
    cont.recycle(withBusWake(snap, 0));
    ASSERT_TRUE(cont.soc.run());
    expectSameCard(cont, want.rig);
  }
}

} // namespace
} // namespace sct
