// The layer-1 idle park against the ticking oracle.
//
// Tl1Bus parks its falling-edge process over cycles in which it is
// idle, has no Tl1Observer and its energy engine is quiet, and the
// replay master parks while nothing is in flight, so the clock warps
// over the gaps between transactions. Any Tl1Observer keeps the bus
// ticking every cycle: the same replay with an observer that does
// nothing attached is the per-cycle oracle. The model alone must equal
// it bit for bit — total energy and every cycle's energyLastCycle_aJ()
// as a rising-edge probe reads it, transitions, the final frame, the
// ledger, every Tl1BusStats field, the replay statistics, every
// request's accept and finish cycle and read data, and the final clock
// cycle and kernel time — over random mixes with short, medium and
// long issue gaps and over the SPA burst shape, with and without a
// codec and a ledger.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "../testbench.h"
#include "bus/ec_signals.h"
#include "enc/codecs.h"
#include "obs/ledger.h"
#include "power/tl1_power_model.h"
#include "sim/rng.h"
#include "trace/replay_master.h"
#include "trace/workloads.h"

namespace sct {
namespace {

using bus::SignalId;
using trace::BusTrace;

power::SignalEnergyTable distinctTable() {
  power::SignalEnergyTable t;
  for (std::size_t i = 0; i < bus::kSignalCount; ++i) {
    t.setCoeff_fJ(static_cast<SignalId>(i),
                  3.5 + 1.0 / static_cast<double>(2 * i + 1));
  }
  return t;
}

/// The SPA replay's shape: bursts of eight back-to-back register writes
/// and four reads, far apart.
BusTrace spaShape(std::uint64_t seed, int bursts, std::uint64_t gap) {
  BusTrace t;
  sim::SplitMix64 data(seed);
  std::uint64_t cycle = 10;
  for (int b = 0; b < bursts; ++b) {
    for (bus::Address i = 0; i < 12; ++i) {
      trace::TraceEntry e;
      e.issueCycle = cycle++;
      e.kind = i < 8 ? bus::Kind::Write : bus::Kind::Read;
      e.address = 0x400 + 4 * i;
      e.writeData[0] = static_cast<bus::Word>(data.next());
      t.append(e);
    }
    cycle += gap;
  }
  return t;
}

struct NoOpObserver final : bus::Tl1Observer {};

struct Config {
  bool codec = false;
  bool ledger = false;
  bool oracle = false;  ///< Attach the no-op observer: the bus ticks.
  bool probe = false;   ///< Read energyLastCycle_aJ() every rising edge.
};

struct Outcome {
  std::uint64_t elapsed = 0;
  std::uint64_t finalCycle = 0;
  sim::Time now = 0;
  std::uint64_t total_aJ = 0;
  std::uint64_t last_aJ = 0;
  std::vector<std::uint64_t> perCycle_aJ;
  std::array<std::uint64_t, bus::kSignalCount> transitions{};
  std::array<std::uint64_t, bus::kSignalCount> frame{};
  obs::LedgerView ledger{};
  bus::Tl1BusStats stats;
  trace::ReplayStats replay;
  std::vector<std::uint64_t> acceptCycles;
  std::vector<std::uint64_t> finishCycles;
  std::vector<bus::Word> data;
  std::uint64_t dispatchedCycles = 0;
};

Outcome replay(const BusTrace& t, const Config& s) {
  testbench::Tl1Bench b;
  trace::fillRealistic(b.fast.data(), b.fast.sizeBytes(), 3);
  trace::fillRealistic(b.waited.data(), b.waited.sizeBytes(), 4);
  power::Tl1PowerModel pm(distinctTable());
  obs::EnergyLedger ledger;
  if (s.ledger) pm.attachLedger(ledger);
  b.bus.addObserver(pm);
  std::unique_ptr<bus::BusCodec> codec;
  if (s.codec) {
    codec = enc::makeCodec("bus-invert");
    b.bus.setCodec(codec.get());
  }
  NoOpObserver noop;
  if (s.oracle) b.bus.addObserver(noop);

  Outcome o;
  if (s.probe) {
    b.clk.onRising([&] { o.perCycle_aJ.push_back(pm.energyLastCycle_aJ()); });
  }
  trace::ReplayMaster master(b.clk, "master", b.bus, b.bus, t);
  o.elapsed = master.runToCompletion();
  EXPECT_TRUE(master.done());
  // Idle tail: the strobes fall, then the bus parks again.
  b.clk.runCycles(5);

  o.finalCycle = b.clk.cycle();
  o.now = b.kernel.now();
  o.dispatchedCycles = b.kernel.dispatchedEvents() / 2;
  o.total_aJ = pm.totalEnergy_aJ();
  o.last_aJ = pm.energyLastCycle_aJ();
  for (std::size_t i = 0; i < bus::kSignalCount; ++i) {
    o.transitions[i] = pm.transitions(static_cast<SignalId>(i));
    o.frame[i] = pm.frame().get(static_cast<SignalId>(i));
  }
  o.ledger = ledger.view();
  o.stats = b.bus.stats();
  o.replay = master.stats();
  for (const bus::Tl1Request& q : master.requests()) {
    o.acceptCycles.push_back(q.acceptCycle);
    o.finishCycles.push_back(q.finishCycle);
    o.data.insert(o.data.end(), q.data.begin(), q.data.end());
  }
  return o;
}

void expectSame(const Outcome& parked, const Outcome& ticked) {
  EXPECT_EQ(parked.elapsed, ticked.elapsed);
  EXPECT_EQ(parked.finalCycle, ticked.finalCycle);
  EXPECT_EQ(parked.now, ticked.now);
  EXPECT_EQ(parked.total_aJ, ticked.total_aJ);
  EXPECT_EQ(parked.last_aJ, ticked.last_aJ);
  EXPECT_EQ(parked.perCycle_aJ, ticked.perCycle_aJ);
  EXPECT_EQ(parked.transitions, ticked.transitions);
  EXPECT_EQ(parked.frame, ticked.frame);
  EXPECT_TRUE(parked.ledger == ticked.ledger);

  const bus::Tl1BusStats& a = parked.stats;
  const bus::Tl1BusStats& b = ticked.stats;
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

  EXPECT_EQ(parked.replay.completed, ticked.replay.completed);
  EXPECT_EQ(parked.replay.errors, ticked.replay.errors);
  EXPECT_EQ(parked.replay.issueStallCycles, ticked.replay.issueStallCycles);
  EXPECT_EQ(parked.replay.finishCycle, ticked.replay.finishCycle);
  EXPECT_EQ(parked.acceptCycles, ticked.acceptCycles);
  EXPECT_EQ(parked.finishCycles, ticked.finishCycles);
  EXPECT_EQ(parked.data, ticked.data);
}

void checkAgainstOracle(const BusTrace& t) {
  for (const bool codec : {false, true}) {
    for (const bool ledger : {false, true}) {
      for (const bool probe : {false, true}) {
        SCOPED_TRACE(std::string("codec ") + (codec ? "on" : "off") +
                     ", ledger " + (ledger ? "on" : "off") + ", probe " +
                     (probe ? "on" : "off"));
        const Outcome ticked = replay(t, {codec, ledger, true, probe});
        const Outcome parked = replay(t, {codec, ledger, false, probe});
        expectSame(parked, ticked);
        EXPECT_EQ(ticked.dispatchedCycles, ticked.finalCycle);
      }
    }
  }
}

trace::MixRatios fullMix() {
  trace::MixRatios mix;
  mix.instrFetch = 1;
  return mix;
}

TEST(Tl1ParkEquivalence, BackToBackMixMatchesTheTickingBus) {
  for (const std::uint64_t seed : {1u, 2u}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    checkAgainstOracle(trace::randomMix(seed, 300, testbench::bothRegions(),
                                        fullMix(), /*issueGapMax=*/0));
  }
}

TEST(Tl1ParkEquivalence, GappedMixMatchesTheTickingBus) {
  for (const std::uint64_t seed : {3u, 4u}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    checkAgainstOracle(trace::randomMix(seed, 300, testbench::bothRegions(),
                                        fullMix(), /*issueGapMax=*/24));
  }
}

TEST(Tl1ParkEquivalence, SparseMixMatchesTheTickingBus) {
  for (const std::uint64_t seed : {5u, 6u}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    checkAgainstOracle(trace::randomMix(seed, 120, testbench::bothRegions(),
                                        fullMix(), /*issueGapMax=*/600));
  }
}

TEST(Tl1ParkEquivalence, SpaBurstsMatchTheTickingBus) {
  checkAgainstOracle(spaShape(7, 24, 600));
}

TEST(Tl1ParkEquivalence, SpaReplayDispatchesUnderFivePercentOfItsCycles) {
  // Each burst keeps the bus and the master busy for about fifteen of
  // its 612 cycles; the rest are warped over.
  const Outcome o = replay(spaShape(8, 40, 600), Config{});
  EXPECT_LT(o.dispatchedCycles * 20, o.finalCycle)
      << o.dispatchedCycles << " of " << o.finalCycle << " cycles dispatched";
}

} // namespace
} // namespace sct
