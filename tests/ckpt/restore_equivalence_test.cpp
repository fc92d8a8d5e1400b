// The checkpoint subsystem's headline invariant: a run that is
// snapshotted at a quiesce point and restored into a freshly
// constructed, identically configured platform continues BIT-IDENTICAL
// to the uninterrupted run — elapsed cycles, read payloads, per-signal
// transition counts, bus statistics, model energy (exact double
// equality), ledger totals and the cycle-resolved power profile.
//
// Covered layers: TL1 (cycle-true bus + cycle-accurate power model +
// profile recorder + ledger), TL2 in both process modes (event-driven
// schedule and the per-cycle reference), and the adaptive-fidelity
// HybridBus with a harness-driven switch schedule. Snapshot points are
// found the way a real harness finds them: step one cycle at a time and
// attempt the save — non-quiesced cycles throw CheckpointError and the
// run simply continues.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <vector>

#include "../testbench.h"
#include "bus/ec_signals.h"
#include "bus/memory_slave.h"
#include "bus/tl1_bus.h"
#include "bus/tl2_bus.h"
#include "ckpt/checkpoint.h"
#include "hier/hybrid_bus.h"
#include "obs/ledger.h"
#include "power/profile.h"
#include "power/tl1_power_model.h"
#include "power/tl2_power_model.h"
#include "trace/replay_master.h"
#include "trace/workloads.h"

namespace sct {
namespace {

using trace::BusTrace;

power::SignalEnergyTable distinctTable() {
  power::SignalEnergyTable t;
  for (std::size_t i = 0; i < bus::kSignalCount; ++i) {
    t.setCoeff_fJ(static_cast<bus::SignalId>(i),
                  1.5 + 0.25 * static_cast<double>(i));
  }
  return t;
}

trace::MixRatios fullMix() {
  trace::MixRatios mix;
  mix.instrFetch = 1;
  return mix;
}

// ---------------------------------------------------------------------------
// TL1

struct Tl1Platform {
  sim::Kernel kernel;
  sim::Clock clk{kernel, "clk", 10};
  bus::Tl1Bus bus{clk, "ecbus"};
  bus::MemorySlave fast{"ram", testbench::fastCtl()};
  bus::MemorySlave waited{"eeprom", testbench::waitedCtl()};
  power::Tl1PowerModel pm{distinctTable()};
  obs::EnergyLedger ledger;
  power::PowerProfile profile{10};
  power::Tl1ProfileRecorder recorder{pm, profile};
  trace::ReplayMaster<bus::Tl1Bus> master;

  explicit Tl1Platform(const BusTrace& t)
      : master(clk, "master", bus, bus, t) {
    bus.attach(fast);
    bus.attach(waited);
    trace::fillRealistic(fast.data(), fast.sizeBytes(), 11);
    trace::fillRealistic(waited.data(), waited.sizeBytes(), 22);
    pm.attachLedger(ledger);
    bus.addObserver(pm);
    bus.addObserver(recorder);
  }

  void registerAll(ckpt::CheckpointRegistry& reg) {
    reg.add("kernel", kernel);
    reg.add("clk", clk);
    reg.add("ecbus", bus);
    reg.add("ram", fast);
    reg.add("eeprom", waited);
    reg.add("master", master);
    reg.add("pm", pm);
    reg.add("ledger", ledger);
    reg.add("profile", profile);
  }
};

struct Req1Snap {
  bus::BusStatus result = bus::BusStatus::Wait;
  int slave = -1;
  std::uint32_t waitCount = 0;
  std::uint64_t acceptCycle = 0;
  std::uint64_t finishCycle = 0;
  std::array<bus::Word, 4> data{};

  bool operator==(const Req1Snap&) const = default;
};

struct Tl1Result {
  std::uint64_t finalCycle = 0;
  trace::ReplayStats replay;
  bus::Tl1BusStats busStats;
  std::vector<Req1Snap> requests;
  std::array<std::uint64_t, bus::kSignalCount> transitions{};
  std::uint64_t pmTotal = 0;
  std::uint64_t pmLastCycle = 0;
  std::uint64_t ledgerTotal = 0;
  std::vector<std::uint64_t> ledgerByBundle;
  std::vector<power::PowerProfile::Sample> samples;
  std::uint64_t fastDigest = 0;
  std::uint64_t waitedDigest = 0;
};

Tl1Result collect(Tl1Platform& p) {
  Tl1Result r;
  r.finalCycle = p.clk.cycle();
  r.replay = p.master.stats();
  r.busStats = p.bus.stats();
  for (const bus::Tl1Request& q : p.master.requests()) {
    r.requests.push_back({q.result, q.slave, q.waitCount, q.acceptCycle,
                          q.finishCycle,
                          {q.data[0], q.data[1], q.data[2], q.data[3]}});
  }
  for (std::size_t i = 0; i < bus::kSignalCount; ++i) {
    r.transitions[i] = p.pm.transitions(static_cast<bus::SignalId>(i));
    r.ledgerByBundle.push_back(
        p.ledger.byBundle_aJ(static_cast<bus::SignalId>(i)));
  }
  r.pmTotal = p.pm.totalEnergy_aJ();
  r.pmLastCycle = p.pm.energyLastCycle_aJ();
  r.ledgerTotal = p.ledger.total_aJ();
  r.samples = p.profile.samples();
  r.fastDigest = p.fast.imageDigest();
  r.waitedDigest = p.waited.imageDigest();
  return r;
}

void expectTl1ReplayEqual(const trace::ReplayStats& a,
                          const trace::ReplayStats& b) {
  EXPECT_EQ(a.completed, b.completed);
  EXPECT_EQ(a.errors, b.errors);
  EXPECT_EQ(a.issueStallCycles, b.issueStallCycles);
  EXPECT_EQ(a.finishCycle, b.finishCycle);
}

void expectTl1BusStatsEqual(const bus::Tl1BusStats& a,
                            const bus::Tl1BusStats& b) {
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

void expectTl1Identical(const Tl1Result& restored,
                        const Tl1Result& uninterrupted) {
  EXPECT_EQ(restored.finalCycle, uninterrupted.finalCycle);
  expectTl1ReplayEqual(restored.replay, uninterrupted.replay);
  expectTl1BusStatsEqual(restored.busStats, uninterrupted.busStats);

  ASSERT_EQ(restored.requests.size(), uninterrupted.requests.size());
  for (std::size_t i = 0; i < uninterrupted.requests.size(); ++i) {
    EXPECT_EQ(restored.requests[i], uninterrupted.requests[i])
        << "request " << i;
  }
  EXPECT_EQ(restored.transitions, uninterrupted.transitions);
  EXPECT_EQ(restored.pmTotal, uninterrupted.pmTotal);
  EXPECT_EQ(restored.pmLastCycle, uninterrupted.pmLastCycle);
  EXPECT_EQ(restored.ledgerTotal, uninterrupted.ledgerTotal);
  EXPECT_EQ(restored.ledgerByBundle, uninterrupted.ledgerByBundle);

  ASSERT_EQ(restored.samples.size(), uninterrupted.samples.size());
  for (std::size_t i = 0; i < uninterrupted.samples.size(); ++i) {
    EXPECT_EQ(restored.samples[i].cycle, uninterrupted.samples[i].cycle)
        << "sample " << i;
    EXPECT_EQ(restored.samples[i].energy_fJ,
              uninterrupted.samples[i].energy_fJ)
        << "sample " << i;
  }
  EXPECT_EQ(restored.fastDigest, uninterrupted.fastDigest);
  EXPECT_EQ(restored.waitedDigest, uninterrupted.waitedDigest);
}

TEST(Tl1Restore, MidRunSnapshotContinuesBitIdentical) {
  for (const std::uint64_t seed : {1u, 7u, 42u}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    // Gaps up to 24 cycles: the waited slave's burst transactions take
    // ~15 cycles, so shorter gaps would keep the replay queue occupied
    // for the whole run and no mid-run quiesce point would ever appear.
    const BusTrace t = trace::randomMix(seed, 300, testbench::bothRegions(),
                                        fullMix(), /*issueGapMax=*/24);

    // Uninterrupted reference.
    Tl1Platform ref(t);
    ref.master.runToCompletion();
    ASSERT_TRUE(ref.master.done());
    const Tl1Result want = collect(ref);

    // Partial run to a mid-trace quiesce point.
    Tl1Platform part(t);
    ckpt::CheckpointRegistry saveReg;
    part.registerAll(saveReg);
    ckpt::Snapshot snap;
    std::string lastRefusal;
    while (true) {
      part.clk.runCycles(1);
      ASSERT_FALSE(part.master.done())
          << "snapshot point not mid-run; last refusal: " << lastRefusal;
      if (part.master.stats().completed < t.size() / 3) continue;
      try {
        snap = saveReg.saveAll();
        break;
      } catch (const ckpt::CheckpointError& e) {
        lastRefusal = e.what();
      }
    }

    // Restore into a fresh platform and continue.
    Tl1Platform cont(t);
    ckpt::CheckpointRegistry loadReg;
    cont.registerAll(loadReg);
    loadReg.loadAll(snap);
    EXPECT_EQ(cont.clk.cycle(), part.clk.cycle());
    cont.master.runToCompletion();
    ASSERT_TRUE(cont.master.done());
    expectTl1Identical(collect(cont), want);
  }
}

TEST(Tl1Restore, SnapshotIsSideEffectFree) {
  // Taking a snapshot must not perturb the run: a snapshotted-but-not-
  // restored run finishes exactly like one that never snapshotted.
  const BusTrace t = trace::randomMix(5, 250, testbench::bothRegions(),
                                      fullMix(), /*issueGapMax=*/2);
  Tl1Platform plain(t);
  plain.master.runToCompletion();
  const Tl1Result want = collect(plain);

  Tl1Platform probed(t);
  ckpt::CheckpointRegistry reg;
  probed.registerAll(reg);
  std::size_t taken = 0;
  while (!probed.master.done()) {
    probed.clk.runCycles(1);
    try {
      (void)reg.saveAll();
      ++taken;
    } catch (const ckpt::CheckpointError&) {
    }
  }
  EXPECT_GT(taken, 0u);
  expectTl1Identical(collect(probed), want);
}

TEST(Tl1Restore, RoundTripThroughDiskBytes) {
  // The same continuation, but through serialize() and deserialize() —
  // the on-disk byte format must carry every bit the in-memory
  // Snapshot does.
  const BusTrace t = trace::randomMix(9, 200, testbench::bothRegions(),
                                      fullMix(), /*issueGapMax=*/24);
  Tl1Platform ref(t);
  ref.master.runToCompletion();
  const Tl1Result want = collect(ref);

  Tl1Platform part(t);
  ckpt::CheckpointRegistry saveReg;
  part.registerAll(saveReg);
  ckpt::Snapshot snap;
  while (true) {
    part.clk.runCycles(1);
    ASSERT_FALSE(part.master.done());
    if (part.master.stats().completed < t.size() / 2) continue;
    try {
      snap = saveReg.saveAll();
      break;
    } catch (const ckpt::CheckpointError&) {
    }
  }
  const ckpt::Snapshot back = ckpt::Snapshot::deserialize(snap.serialize());

  Tl1Platform cont(t);
  ckpt::CheckpointRegistry loadReg;
  cont.registerAll(loadReg);
  loadReg.loadAll(back);
  cont.master.runToCompletion();
  expectTl1Identical(collect(cont), want);
}

// ---------------------------------------------------------------------------
// TL2 (event-driven and per-cycle process modes)

struct Tl2Platform {
  sim::Kernel kernel;
  sim::Clock clk{kernel, "clk", 10};
  bus::Tl2Bus bus{clk, "ecbus_tl2"};
  bus::MemorySlave fast{"ram", testbench::fastCtl()};
  bus::MemorySlave waited{"eeprom", testbench::waitedCtl()};
  power::Tl2PowerModel pm{distinctTable()};
  obs::EnergyLedger ledger;
  trace::Tl2ReplayMaster master;

  Tl2Platform(const BusTrace& t, bool perCycle)
      : master(clk, "master", bus, t) {
    bus.setPerCycleProcess(perCycle);
    bus.attach(fast);
    bus.attach(waited);
    trace::fillRealistic(fast.data(), fast.sizeBytes(), 11);
    trace::fillRealistic(waited.data(), waited.sizeBytes(), 22);
    pm.attachLedger(ledger);
    bus.addObserver(pm);
  }

  void registerAll(ckpt::CheckpointRegistry& reg) {
    reg.add("kernel", kernel);
    reg.add("clk", clk);
    reg.add("ecbus", bus);
    reg.add("ram", fast);
    reg.add("eeprom", waited);
    reg.add("master", master);
    reg.add("pm", pm);
    reg.add("ledger", ledger);
  }
};

struct Req2Snap {
  bus::BusStatus result = bus::BusStatus::Wait;
  int slave = -1;
  unsigned addrCycles = 0;
  unsigned dataCycles = 0;
  std::uint64_t acceptCycle = 0;
  std::uint64_t finishCycle = 0;

  bool operator==(const Req2Snap&) const = default;
};

struct Tl2Result {
  std::uint64_t finalCycle = 0;
  trace::ReplayStats replay;
  bus::Tl2BusStats busStats;
  std::vector<Req2Snap> requests;
  std::vector<std::array<std::uint8_t, 16>> readData;
  std::vector<std::uint64_t> estTransitions;
  std::uint64_t pmTotal = 0;
  std::uint64_t ledgerTotal = 0;
  std::uint64_t fastDigest = 0;
  std::uint64_t waitedDigest = 0;
};

Tl2Result collect(Tl2Platform& p, const BusTrace& t) {
  Tl2Result r;
  r.finalCycle = p.clk.cycle();
  r.replay = p.master.stats();
  r.busStats = p.bus.stats();
  for (const bus::Tl2Request& q : p.master.requests()) {
    r.requests.push_back({q.result, q.slave, q.addrCycles, q.dataCycles,
                          q.acceptCycle, q.finishCycle});
  }
  for (std::size_t i = 0; i < t.size(); ++i) {
    if (t[i].kind != bus::Kind::Write) r.readData.push_back(p.master.buffer(i));
  }
  for (std::size_t i = 0; i < bus::kSignalCount; ++i) {
    r.estTransitions.push_back(
        p.pm.estimatedTransitions(static_cast<bus::SignalId>(i)));
  }
  r.pmTotal = p.pm.totalEnergy_aJ();
  r.ledgerTotal = p.ledger.total_aJ();
  r.fastDigest = p.fast.imageDigest();
  r.waitedDigest = p.waited.imageDigest();
  return r;
}

void expectTl2Identical(const Tl2Result& restored,
                        const Tl2Result& uninterrupted) {
  EXPECT_EQ(restored.finalCycle, uninterrupted.finalCycle);
  EXPECT_EQ(restored.replay.completed, uninterrupted.replay.completed);
  EXPECT_EQ(restored.replay.errors, uninterrupted.replay.errors);
  EXPECT_EQ(restored.replay.issueStallCycles,
            uninterrupted.replay.issueStallCycles);
  EXPECT_EQ(restored.replay.finishCycle, uninterrupted.replay.finishCycle);

  EXPECT_EQ(restored.busStats.cycles, uninterrupted.busStats.cycles);
  EXPECT_EQ(restored.busStats.busyCycles, uninterrupted.busStats.busyCycles);
  EXPECT_EQ(restored.busStats.instrTransactions,
            uninterrupted.busStats.instrTransactions);
  EXPECT_EQ(restored.busStats.readTransactions,
            uninterrupted.busStats.readTransactions);
  EXPECT_EQ(restored.busStats.writeTransactions,
            uninterrupted.busStats.writeTransactions);
  EXPECT_EQ(restored.busStats.errors, uninterrupted.busStats.errors);
  EXPECT_EQ(restored.busStats.bytesRead, uninterrupted.busStats.bytesRead);
  EXPECT_EQ(restored.busStats.bytesWritten,
            uninterrupted.busStats.bytesWritten);

  ASSERT_EQ(restored.requests.size(), uninterrupted.requests.size());
  for (std::size_t i = 0; i < uninterrupted.requests.size(); ++i) {
    EXPECT_EQ(restored.requests[i], uninterrupted.requests[i])
        << "request " << i;
  }
  ASSERT_EQ(restored.readData.size(), uninterrupted.readData.size());
  for (std::size_t i = 0; i < uninterrupted.readData.size(); ++i) {
    EXPECT_EQ(restored.readData[i], uninterrupted.readData[i])
        << "read payload " << i;
  }
  EXPECT_EQ(restored.estTransitions, uninterrupted.estTransitions);
  EXPECT_EQ(restored.pmTotal, uninterrupted.pmTotal);
  EXPECT_EQ(restored.ledgerTotal, uninterrupted.ledgerTotal);
  EXPECT_EQ(restored.fastDigest, uninterrupted.fastDigest);
  EXPECT_EQ(restored.waitedDigest, uninterrupted.waitedDigest);
}

class Tl2RestoreModeTest : public ::testing::TestWithParam<bool> {};

TEST_P(Tl2RestoreModeTest, MidRunSnapshotContinuesBitIdentical) {
  const bool perCycle = GetParam();
  for (const std::uint64_t seed : {3u, 42u}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    // Wide gaps, for the same reason as the TL1 suite: the queue must
    // actually drain mid-run for a quiesce point to exist.
    const BusTrace t = trace::randomMix(seed, 300, testbench::bothRegions(),
                                        fullMix(), /*issueGapMax=*/24);

    Tl2Platform ref(t, perCycle);
    ref.master.runToCompletion();
    ASSERT_TRUE(ref.master.done());
    const Tl2Result want = collect(ref, t);

    Tl2Platform part(t, perCycle);
    ckpt::CheckpointRegistry saveReg;
    part.registerAll(saveReg);
    ckpt::Snapshot snap;
    std::string lastRefusal;
    while (true) {
      part.clk.runCycles(1);
      ASSERT_FALSE(part.master.done())
          << "snapshot point not mid-run; last refusal: " << lastRefusal;
      if (part.master.stats().completed < t.size() / 3) continue;
      try {
        snap = saveReg.saveAll();
        break;
      } catch (const ckpt::CheckpointError& e) {
        lastRefusal = e.what();
      }
    }

    // The restore target must be constructed in the same process mode.
    Tl2Platform cont(t, perCycle);
    ckpt::CheckpointRegistry loadReg;
    cont.registerAll(loadReg);
    loadReg.loadAll(snap);
    EXPECT_EQ(cont.clk.cycle(), part.clk.cycle());
    cont.master.runToCompletion();
    ASSERT_TRUE(cont.master.done());
    expectTl2Identical(collect(cont, t), want);
  }
}

INSTANTIATE_TEST_SUITE_P(ProcessModes, Tl2RestoreModeTest,
                         ::testing::Values(false, true),
                         [](const ::testing::TestParamInfo<bool>& info) {
                           return info.param ? "PerCycle" : "EventDriven";
                         });

// ---------------------------------------------------------------------------
// Hybrid (adaptive fidelity, harness-driven switch schedule)

struct SwitchEvent {
  std::uint64_t cycle;
  hier::Fidelity target;
};

struct HybridPlatform {
  sim::Kernel kernel;
  sim::Clock clk{kernel, "clk", 10};
  hier::HybridBus hb{clk, "ecbus"};
  bus::MemorySlave fast{"ram", testbench::fastCtl()};
  bus::MemorySlave waited{"eeprom", testbench::waitedCtl()};
  power::Tl1PowerModel pm1{distinctTable()};
  power::Tl2PowerModel pm2{distinctTable()};
  obs::EnergyLedger ledger1;
  power::PowerProfile profile{10};
  power::Tl1ProfileRecorder recorder{pm1, profile};
  trace::ReplayMaster<hier::HybridBus> master;

  explicit HybridPlatform(const BusTrace& t)
      : master(clk, "master", hb, hb, t) {
    hb.attach(fast);
    hb.attach(waited);
    trace::fillRealistic(fast.data(), fast.sizeBytes(), 11);
    trace::fillRealistic(waited.data(), waited.sizeBytes(), 22);
    pm1.attachLedger(ledger1);
    hb.tl1().addObserver(pm1);
    hb.tl1().addObserver(recorder);
    hb.tl2().addObserver(pm2);
  }

  void registerAll(ckpt::CheckpointRegistry& reg) {
    reg.add("kernel", kernel);
    reg.add("clk", clk);
    reg.add("ecbus", hb);
    reg.add("ram", fast);
    reg.add("eeprom", waited);
    reg.add("master", master);
    reg.add("pm1", pm1);
    reg.add("pm2", pm2);
    reg.add("ledger1", ledger1);
    reg.add("profile", profile);
  }

  /// Drive to completion under `schedule` (absolute switch-request
  /// cycles). Entries at or before the current cycle are treated as
  /// already applied — which is exactly the restored-run situation: the
  /// pre-snapshot switch state travels inside the HybridBus section.
  void runWithSchedule(const std::vector<SwitchEvent>& schedule) {
    std::size_t next = 0;
    while (next < schedule.size() && schedule[next].cycle <= clk.cycle()) {
      ++next;
    }
    while (!master.done()) {
      clk.runCycles(1);
      while (next < schedule.size() && schedule[next].cycle <= clk.cycle()) {
        hb.requestSwitch(schedule[next].target);
        ++next;
      }
      hb.tryCompleteSwitch();
    }
  }
};

struct HybridResult {
  std::uint64_t finalCycle = 0;
  std::uint64_t switches = 0;
  trace::ReplayStats replay;
  std::vector<Req1Snap> requests;
  std::array<std::uint64_t, bus::kSignalCount> transitions{};
  std::uint64_t pm1Total = 0;
  std::uint64_t pm2Total = 0;
  std::uint64_t ledgerTotal = 0;
  std::vector<power::PowerProfile::Sample> samples;
  std::uint64_t fastDigest = 0;
  std::uint64_t waitedDigest = 0;
};

HybridResult collect(HybridPlatform& p) {
  HybridResult r;
  r.finalCycle = p.clk.cycle();
  r.switches = p.hb.switches();
  r.replay = p.master.stats();
  for (const bus::Tl1Request& q : p.master.requests()) {
    r.requests.push_back({q.result, q.slave, q.waitCount, q.acceptCycle,
                          q.finishCycle,
                          {q.data[0], q.data[1], q.data[2], q.data[3]}});
  }
  for (std::size_t i = 0; i < bus::kSignalCount; ++i) {
    r.transitions[i] = p.pm1.transitions(static_cast<bus::SignalId>(i));
  }
  r.pm1Total = p.pm1.totalEnergy_aJ();
  r.pm2Total = p.pm2.totalEnergy_aJ();
  r.ledgerTotal = p.ledger1.total_aJ();
  r.samples = p.profile.samples();
  r.fastDigest = p.fast.imageDigest();
  r.waitedDigest = p.waited.imageDigest();
  return r;
}

void expectHybridIdentical(const HybridResult& restored,
                           const HybridResult& uninterrupted) {
  EXPECT_EQ(restored.finalCycle, uninterrupted.finalCycle);
  EXPECT_EQ(restored.switches, uninterrupted.switches);
  expectTl1ReplayEqual(restored.replay, uninterrupted.replay);
  ASSERT_EQ(restored.requests.size(), uninterrupted.requests.size());
  for (std::size_t i = 0; i < uninterrupted.requests.size(); ++i) {
    EXPECT_EQ(restored.requests[i], uninterrupted.requests[i])
        << "request " << i;
  }
  EXPECT_EQ(restored.transitions, uninterrupted.transitions);
  EXPECT_EQ(restored.pm1Total, uninterrupted.pm1Total);
  EXPECT_EQ(restored.pm2Total, uninterrupted.pm2Total);
  EXPECT_EQ(restored.ledgerTotal, uninterrupted.ledgerTotal);
  ASSERT_EQ(restored.samples.size(), uninterrupted.samples.size());
  for (std::size_t i = 0; i < uninterrupted.samples.size(); ++i) {
    EXPECT_EQ(restored.samples[i].cycle, uninterrupted.samples[i].cycle)
        << "sample " << i;
    EXPECT_EQ(restored.samples[i].energy_fJ,
              uninterrupted.samples[i].energy_fJ)
        << "sample " << i;
  }
  EXPECT_EQ(restored.fastDigest, uninterrupted.fastDigest);
  EXPECT_EQ(restored.waitedDigest, uninterrupted.waitedDigest);
}

TEST(HybridRestore, MidRunSnapshotContinuesBitIdentical) {
  // The switch schedule puts TL1 and TL2 regions on both sides of the
  // snapshot point; the FidelityController is deliberately not part of
  // the snapshot, so the harness drives switches by absolute cycle and
  // the restored run re-applies only the post-snapshot entries.
  const BusTrace t = trace::randomMix(13, 400, testbench::bothRegions(),
                                      fullMix(), /*issueGapMax=*/24);
  const std::vector<SwitchEvent> schedule = {
      {300, hier::Fidelity::Tl1},
      {1800, hier::Fidelity::Tl2},
      {3600, hier::Fidelity::Tl1},
  };

  HybridPlatform ref(t);
  ref.runWithSchedule(schedule);
  ASSERT_TRUE(ref.master.done());
  const HybridResult want = collect(ref);
  ASSERT_GE(want.switches, 2u) << "schedule never actually switched";

  // Partial run: same loop, but after each cycle past the target try to
  // snapshot (the attempt itself also exercises HybridBus::saveState's
  // quiesce precondition on non-quiesced cycles).
  HybridPlatform part(t);
  ckpt::CheckpointRegistry saveReg;
  part.registerAll(saveReg);
  ckpt::Snapshot snap;
  {
    std::size_t next = 0;
    bool saved = false;
    while (!saved) {
      part.clk.runCycles(1);
      ASSERT_FALSE(part.master.done()) << "snapshot point not mid-run";
      while (next < schedule.size() &&
             schedule[next].cycle <= part.clk.cycle()) {
        part.hb.requestSwitch(schedule[next].target);
        ++next;
      }
      part.hb.tryCompleteSwitch();
      if (part.master.stats().completed < t.size() / 3) continue;
      try {
        snap = saveReg.saveAll();
        saved = true;
      } catch (const ckpt::CheckpointError&) {
      }
    }
  }

  HybridPlatform cont(t);
  ckpt::CheckpointRegistry loadReg;
  cont.registerAll(loadReg);
  loadReg.loadAll(snap);
  EXPECT_EQ(cont.clk.cycle(), part.clk.cycle());
  EXPECT_EQ(cont.hb.active(), part.hb.active());
  cont.runWithSchedule(schedule);
  ASSERT_TRUE(cont.master.done());
  expectHybridIdentical(collect(cont), want);
}

TEST(HybridRestore, SaveWhileBusyThrows) {
  // Dense traffic with no issue gaps: the first cycles after the run
  // starts are guaranteed non-quiesced, and saveAll must reject them
  // with a CheckpointError rather than serialize a half-transferred
  // state.
  const BusTrace t =
      trace::randomMix(21, 60, std::vector{testbench::waitedRegion()},
                       fullMix(), /*issueGapMax=*/0);
  HybridPlatform p(t);
  ckpt::CheckpointRegistry reg;
  p.registerAll(reg);
  p.hb.requestSwitch(hier::Fidelity::Tl1);
  p.hb.tryCompleteSwitch();
  p.clk.runCycles(3);
  ASSERT_FALSE(p.hb.quiesced());
  EXPECT_THROW((void)reg.saveAll(), ckpt::CheckpointError);
}

} // namespace
} // namespace sct
