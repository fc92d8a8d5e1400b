// Tl2MasterBridge over the per-cycle reference TL2 bus.
//
// setPerCycleProcess(true) routes the lower bus through its original
// countdown process, which answers every completion hint with
// kFinishUnknown: a master above the bridge then polls every cycle and
// the bridge may only trust the stages the falling-edge process
// publishes. Replays through the bridge must come out identical on
// both lower paths — cycles, replay statistics, every read payload and
// result, the bus statistics and the layer-2 model energy — so any
// collection shortcut keyed on the hint shows up here. The saturation
// case fills every class to the outstanding limit and checks that one
// more submit waits for a completion; the last case leaves finished
// transports uncollected until the bridge's slot table is full.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <vector>

#include "../testbench.h"
#include "bus/memory_slave.h"
#include "bus/tl2_bridge.h"
#include "power/tl2_power_model.h"
#include "trace/replay_master.h"
#include "trace/workloads.h"

namespace sct::bus {
namespace {

power::SignalEnergyTable distinctTable() {
  power::SignalEnergyTable t;
  for (std::size_t i = 0; i < kSignalCount; ++i) {
    t.setCoeff_fJ(static_cast<SignalId>(i),
                  5.5 + 1.0 / static_cast<double>(2 * i + 1));
  }
  return t;
}

struct BridgedReplay {
  std::uint64_t cycles = 0;
  trace::ReplayStats replay;
  std::vector<Tl1Request> requests;
  Tl2BusStats stats;
  std::uint64_t energy_aJ = 0;
  std::vector<Word> fastImage;
  std::vector<Word> waitedImage;
};

BridgedReplay replayBridged(const trace::BusTrace& t, bool perCycle) {
  const power::SignalEnergyTable table = distinctTable();
  sim::Kernel kernel;
  sim::Clock clk{kernel, "clk", 10};
  BridgedTl2Bus bus{clk, "bridged"};
  MemorySlave fast{"ram", testbench::fastCtl()};
  MemorySlave waited{"eeprom", testbench::waitedCtl()};
  bus.attach(fast);
  bus.attach(waited);
  bus.lower().setPerCycleProcess(perCycle);
  power::Tl2PowerModel pm(table);
  bus.addObserver(pm);

  trace::ReplayMaster m(clk, "m", bus, bus, t);
  BridgedReplay out;
  out.cycles = m.runToCompletion();
  EXPECT_TRUE(m.done());
  EXPECT_EQ(bus.pendingCount(), 0u);
  out.replay = m.stats();
  out.requests = m.requests();
  out.stats = bus.stats();
  out.energy_aJ = pm.totalEnergy_aJ();
  for (Address a = 0; a < 0x2000; a += 4) {
    out.fastImage.push_back(fast.peekWord(a));
    out.waitedImage.push_back(waited.peekWord(0x8000 + a));
  }
  return out;
}

void expectSameReplay(const BridgedReplay& event, const BridgedReplay& ref) {
  EXPECT_EQ(event.cycles, ref.cycles);
  EXPECT_EQ(event.replay.completed, ref.replay.completed);
  EXPECT_EQ(event.replay.errors, ref.replay.errors);
  EXPECT_EQ(event.replay.issueStallCycles, ref.replay.issueStallCycles);
  EXPECT_EQ(event.replay.finishCycle, ref.replay.finishCycle);
  ASSERT_EQ(event.requests.size(), ref.requests.size());
  for (std::size_t i = 0; i < ref.requests.size(); ++i) {
    EXPECT_EQ(event.requests[i].result, ref.requests[i].result) << i;
    EXPECT_EQ(event.requests[i].data, ref.requests[i].data) << i;
  }
  EXPECT_EQ(event.stats.cycles, ref.stats.cycles);
  EXPECT_EQ(event.stats.busyCycles, ref.stats.busyCycles);
  EXPECT_EQ(event.stats.instrTransactions, ref.stats.instrTransactions);
  EXPECT_EQ(event.stats.readTransactions, ref.stats.readTransactions);
  EXPECT_EQ(event.stats.writeTransactions, ref.stats.writeTransactions);
  EXPECT_EQ(event.stats.errors, ref.stats.errors);
  EXPECT_EQ(event.stats.bytesRead, ref.stats.bytesRead);
  EXPECT_EQ(event.stats.bytesWritten, ref.stats.bytesWritten);
  EXPECT_EQ(event.energy_aJ, ref.energy_aJ);
  EXPECT_EQ(event.fastImage, ref.fastImage);
  EXPECT_EQ(event.waitedImage, ref.waitedImage);
}

TEST(BridgePerCycleReference, DenseMixMatchesTheEventDrivenBus) {
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const auto t = trace::randomMix(seed, 800, testbench::bothRegions(),
                                    trace::MixRatios{});
    const BridgedReplay event = replayBridged(t, false);
    expectSameReplay(event, replayBridged(t, true));
    EXPECT_EQ(event.replay.completed, t.size());
    EXPECT_GT(event.replay.issueStallCycles, 0u)
        << "back-to-back issue must hit the outstanding limit";
    EXPECT_GT(event.energy_aJ, 0u);
  }
}

TEST(BridgePerCycleReference, SparseMixMatchesTheEventDrivenBus) {
  // All three classes (fetches included), issued up to 40 cycles apart:
  // the event-driven side parks across the gaps and warps.
  trace::MixRatios mix;
  mix.instrFetch = 1;
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const auto t = trace::randomMix(seed, 300, testbench::bothRegions(), mix,
                                    /*issueGapMax=*/40);
    const BridgedReplay event = replayBridged(t, false);
    expectSameReplay(event, replayBridged(t, true));
    EXPECT_EQ(event.replay.completed, t.size());
    EXPECT_GT(event.stats.instrTransactions, 0u);
  }
}

TEST(BridgePerCycleReference, ThirteenthSubmitWaitsForACompletion) {
  // Four transactions per class into the waited window fill the lower
  // bus to its outstanding limit; a 13th read is refused without
  // holding a bridge slot, and accepted once a read has completed.
  // The master here polls every payload every cycle, so the bridge's
  // poll-driven collection runs too.
  std::vector<std::vector<Word>> readBack;
  std::vector<std::uint64_t> acceptedAt;
  for (const bool perCycle : {false, true}) {
    SCOPED_TRACE(perCycle ? "per-cycle" : "event-driven");
    sim::Kernel kernel;
    sim::Clock clk{kernel, "clk", 10};
    BridgedTl2Bus bus{clk, "bridged"};
    MemorySlave fast{"ram", testbench::fastCtl()};
    MemorySlave waited{"eeprom", testbench::waitedCtl()};
    bus.attach(fast);
    bus.attach(waited);
    bus.lower().setPerCycleProcess(perCycle);
    for (unsigned i = 0; i < 16; ++i) {
      waited.pokeWord(0x8000 + 4 * i, 0xC0DE0000u + i);
    }

    constexpr unsigned kPerClass = kMaxOutstandingPerClass;
    constexpr std::size_t kCount = 3 * kPerClass + 1;
    std::array<Tl1Request, kCount> reqs{};
    const Kind kinds[3] = {Kind::InstrFetch, Kind::Read, Kind::Write};
    for (unsigned c = 0; c < 3; ++c) {
      for (unsigned i = 0; i < kPerClass; ++i) {
        Tl1Request& r = reqs[c * kPerClass + i];
        r.kind = kinds[c];
        r.address = 0x8000 + 4 * (c * kPerClass + i);
        r.data[0] = 0xAB000000u + c * kPerClass + i;
      }
    }
    Tl1Request& extra = reqs.back();
    extra.kind = Kind::Read;
    extra.address = 0x8000;
    const auto call = [&](Tl1Request& r) {
      return r.kind == Kind::InstrFetch ? bus.fetch(r)
             : r.kind == Kind::Read     ? bus.read(r)
                                        : bus.write(r);
    };

    std::array<BusStatus, kCount> last{};
    std::array<std::uint64_t, kCount> doneAt{};
    std::array<bool, kCount> accepted{};
    std::uint64_t completions = 0;
    std::uint64_t extraRefusals = 0;
    std::uint64_t extraAcceptedAt = 0;
    std::uint64_t completionsBeforeExtra = 0;
    const auto id = clk.onRising([&] {
      for (std::size_t i = 0; i < kCount; ++i) {
        if (doneAt[i] != 0) continue;
        const BusStatus s = call(reqs[i]);
        last[i] = s;
        if (s == BusStatus::Request) {
          accepted[i] = true;
          if (i + 1 == kCount) {
            extraAcceptedAt = clk.cycle();
            completionsBeforeExtra = completions;
          }
        } else if (s == BusStatus::Ok || s == BusStatus::Error) {
          doneAt[i] = clk.cycle();
          ++completions;
        } else if (i + 1 == kCount && !accepted[i]) {
          ++extraRefusals;
          EXPECT_EQ(bus.pendingCount(), 3 * kPerClass - completions)
              << "a refused submit must not keep a slot";
        }
      }
      if (completions == kCount) clk.requestBreak();
    });
    clk.runCycles(1);
    for (std::size_t i = 0; i + 1 < kCount; ++i) {
      EXPECT_EQ(last[i], BusStatus::Request) << i;
    }
    EXPECT_EQ(last.back(), BusStatus::Wait);
    EXPECT_EQ(bus.pendingCount(), 3 * kPerClass);
    clk.runCycles(500);
    clk.removeHandler(id);

    ASSERT_EQ(completions, kCount);
    EXPECT_GT(extraRefusals, 0u);
    EXPECT_GT(extraAcceptedAt, 1u);
    EXPECT_GT(completionsBeforeExtra, 0u)
        << "the 13th submit is accepted only after a completion";
    EXPECT_EQ(bus.pendingCount(), 0u);
    EXPECT_TRUE(bus.bridge().drained());
    std::vector<Word> words;
    for (const Tl1Request& r : reqs) {
      EXPECT_EQ(r.result, BusStatus::Ok);
      words.push_back(r.data[0]);
    }
    readBack.push_back(words);
    acceptedAt.push_back(extraAcceptedAt);
  }
  EXPECT_EQ(readBack[0], readBack[1]);
  EXPECT_EQ(acceptedAt[0], acceptedAt[1]);
}

TEST(BridgePerCycleReference, UncollectedResultsNeverOverflowTheSlots) {
  // A master that neither polls nor syncs keeps each finished transport
  // in a bridge slot, while the lower bus has room again. Three waves
  // of four reads finish that way (12 slots); the fourth wave's first
  // read takes the 13th slot, and its second finds the table full, so
  // the bridge posts the finished payloads to free it.
  for (const bool perCycle : {false, true}) {
    SCOPED_TRACE(perCycle ? "per-cycle" : "event-driven");
    sim::Kernel kernel;
    sim::Clock clk{kernel, "clk", 10};
    BridgedTl2Bus bus{clk, "bridged"};
    MemorySlave fast{"ram", testbench::fastCtl()};
    MemorySlave waited{"eeprom", testbench::waitedCtl()};
    bus.attach(fast);
    bus.attach(waited);
    bus.lower().setPerCycleProcess(perCycle);
    std::array<Tl1Request, 16> reqs{};
    for (unsigned i = 0; i < reqs.size(); ++i) {
      waited.pokeWord(0x8000 + 4 * i, 0x5100D000u + i);
      reqs[i].kind = Kind::Read;
      reqs[i].address = 0x8000 + 4 * i;
    }

    std::uint64_t done = 0;
    const auto id = clk.onRising([&] {
      const std::uint64_t c = clk.cycle();
      if (c == 1 || c == 31 || c == 61 || c == 91) {
        const unsigned first = static_cast<unsigned>(c / 30) * 4;
        for (unsigned i = first; i < first + 4; ++i) {
          EXPECT_EQ(bus.read(reqs[i]), BusStatus::Request) << i;
          if (i == 12) {
            EXPECT_EQ(bus.pendingCount(), 13u);
          }
          if (i == 13) {
            EXPECT_EQ(bus.pendingCount(), 2u);
            for (unsigned j = 0; j < 12; ++j) {
              EXPECT_EQ(reqs[j].stage, Tl1Stage::Finished) << j;
            }
          }
        }
        if (c == 61) {
          EXPECT_EQ(bus.pendingCount(), 12u);
        }
        return;
      }
      if (c < 120) return;
      for (Tl1Request& r : reqs) {
        if (r.stage == Tl1Stage::Idle && r.result != BusStatus::Wait) continue;
        const BusStatus s = bus.read(r);
        if (s == BusStatus::Ok || s == BusStatus::Error) ++done;
      }
      if (done == reqs.size()) clk.requestBreak();
    });
    clk.runCycles(400);
    clk.removeHandler(id);

    ASSERT_EQ(done, reqs.size());
    EXPECT_TRUE(bus.bridge().drained());
    for (unsigned i = 0; i < reqs.size(); ++i) {
      EXPECT_EQ(reqs[i].result, BusStatus::Ok) << i;
      EXPECT_EQ(reqs[i].data[0], 0x5100D000u + i) << i;
    }
  }
}

} // namespace
} // namespace sct::bus
