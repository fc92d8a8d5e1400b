#include "bus/tl2_bus.h"

#include <gtest/gtest.h>

#include <array>
#include <cstring>
#include <stdexcept>
#include <utility>
#include <vector>

#include "bus/memory_slave.h"
#include "bus/tl1_bus.h"
#include "bus_test_util.h"
#include "ckpt/state_io.h"
#include "sim/clock.h"
#include "sim/kernel.h"

namespace sct::bus {
namespace {

using testutil::driveAll;
using testutil::driveOne;

SlaveControl window(Address base, Address size, unsigned aw = 0,
                    unsigned rw = 0, unsigned ww = 0, unsigned bw = 0) {
  SlaveControl c;
  c.base = base;
  c.size = size;
  c.addrWait = aw;
  c.readWait = rw;
  c.writeWait = ww;
  c.burstBeatWait = bw;
  return c;
}

struct Tl2Fixture : public ::testing::Test {
  sim::Kernel kernel;
  sim::Clock clk{kernel, "clk", 10};
  Tl2Bus bus{clk, "ecbus_tl2"};
};

TEST_F(Tl2Fixture, IsolatedReadCostsOnePipelineFillCycleOverLayerOne) {
  MemorySlave ram("ram", window(0x1000, 0x1000));
  bus.attach(ram);
  ram.pokeWord(0x1010, 0xCAFEBABE);
  Word value = 0;
  Tl2Request req;
  req.kind = Kind::Read;
  req.address = 0x1010;
  req.data = reinterpret_cast<std::uint8_t*>(&value);
  req.bytes = 4;
  std::uint64_t elapsed = 0;
  EXPECT_EQ(driveOne(clk, bus, req, &elapsed), BusStatus::Ok);
  EXPECT_EQ(value, 0xCAFEBABEu);
  // Layer 1 takes 2 cycles; the idle data unit picks the transaction
  // up one estimated cycle after the address phase.
  EXPECT_EQ(elapsed, 3u);
}

TEST_F(Tl2Fixture, WritePointerPassing) {
  MemorySlave ram("ram", window(0, 0x1000));
  bus.attach(ram);
  Word value = 0x12345678;
  Tl2Request req;
  req.kind = Kind::Write;
  req.address = 0x40;
  req.data = reinterpret_cast<std::uint8_t*>(&value);
  req.bytes = 4;
  EXPECT_EQ(driveOne(clk, bus, req), BusStatus::Ok);
  EXPECT_EQ(ram.peekWord(0x40), 0x12345678u);
}

TEST_F(Tl2Fixture, BurstIsASingleTransaction) {
  MemorySlave ram("ram", window(0, 0x1000));
  bus.attach(ram);
  for (Address a = 0; a < 16; a += 4) {
    ram.pokeWord(a, static_cast<Word>(0xA0 + a));
  }
  std::array<std::uint8_t, 16> buf{};
  Tl2Request req;
  req.kind = Kind::Read;
  req.address = 0x0;
  req.data = buf.data();
  req.bytes = 16;
  std::uint64_t elapsed = 0;
  EXPECT_EQ(driveOne(clk, bus, req, &elapsed), BusStatus::Ok);
  EXPECT_EQ(elapsed, 6u);  // Layer 1's 4-beat burst (5) + pipeline fill.
  EXPECT_EQ(bus.stats().readTransactions, 1u);
  Word w = 0;
  std::memcpy(&w, &buf[8], 4);
  EXPECT_EQ(w, 0xA8u);
}

TEST_F(Tl2Fixture, WaitStatesFromControlAreEstimated) {
  MemorySlave ram("ram", window(0, 0x1000, /*aw=*/1, /*rw=*/2, /*ww=*/3,
                                /*bw=*/1));
  bus.attach(ram);
  std::array<std::uint8_t, 16> buf{};
  Tl2Request rd;
  rd.kind = Kind::Read;
  rd.address = 0x0;
  rd.data = buf.data();
  rd.bytes = 16;
  std::uint64_t elapsed = 0;
  EXPECT_EQ(driveOne(clk, bus, rd, &elapsed), BusStatus::Ok);
  // Address phase: aw+1 = 2 cycles; data phase rw + 4 beats + 3*bw = 9
  // cycles starting one cycle after the address phase; +1 pickup edge.
  EXPECT_EQ(elapsed, 12u);
}

TEST_F(Tl2Fixture, InstructionBitTravelsOnReadInterface) {
  MemorySlave rom("rom", window(0, 0x1000));
  bus.attach(rom);
  rom.pokeWord(0x80, 0xDEAD0001);
  Word v = 0;
  Tl2Request req;
  req.kind = Kind::InstrFetch;
  req.address = 0x80;
  req.data = reinterpret_cast<std::uint8_t*>(&v);
  req.bytes = 4;
  EXPECT_EQ(driveOne(clk, bus, req), BusStatus::Ok);
  EXPECT_EQ(v, 0xDEAD0001u);
  EXPECT_EQ(bus.stats().instrTransactions, 1u);
}

TEST_F(Tl2Fixture, InterfaceKindMismatchThrows) {
  Tl2Request req;
  req.kind = Kind::Write;
  EXPECT_THROW(bus.read(req), std::logic_error);
  req.kind = Kind::Read;
  EXPECT_THROW(bus.write(req), std::logic_error);
}

TEST_F(Tl2Fixture, NullPointerRejected) {
  Tl2Request req;
  req.kind = Kind::Read;
  req.address = 0x0;
  req.data = nullptr;
  req.bytes = 4;
  EXPECT_EQ(bus.read(req), BusStatus::Error);
}

TEST_F(Tl2Fixture, BadSizeRejected) {
  Word v = 0;
  Tl2Request req;
  req.kind = Kind::Read;
  req.address = 0x0;
  req.data = reinterpret_cast<std::uint8_t*>(&v);
  req.bytes = 3;
  EXPECT_EQ(bus.read(req), BusStatus::Error);
}

TEST_F(Tl2Fixture, DecodeMissFinishesWithError) {
  MemorySlave ram("ram", window(0x1000, 0x100));
  bus.attach(ram);
  Word v = 0;
  Tl2Request req;
  req.kind = Kind::Read;
  req.address = 0x9000;
  req.data = reinterpret_cast<std::uint8_t*>(&v);
  req.bytes = 4;
  EXPECT_EQ(driveOne(clk, bus, req), BusStatus::Error);
  EXPECT_EQ(bus.stats().errors, 1u);
}

TEST_F(Tl2Fixture, AccessRightViolationFinishesWithError) {
  SlaveControl c = window(0, 0x1000);
  c.canWrite = false;
  MemorySlave rom("rom", c);
  bus.attach(rom);
  Word v = 1;
  Tl2Request req;
  req.kind = Kind::Write;
  req.address = 0x0;
  req.data = reinterpret_cast<std::uint8_t*>(&v);
  req.bytes = 4;
  EXPECT_EQ(driveOne(clk, bus, req), BusStatus::Error);
}

TEST_F(Tl2Fixture, OutstandingLimitIsFourPerClass) {
  MemorySlave ram("ram", window(0, 0x1000, 0, /*rw=*/8));
  bus.attach(ram);
  std::array<Word, 6> vals{};
  std::vector<Tl2Request> reqs(6);
  int accepted = 0;
  for (std::size_t i = 0; i < reqs.size(); ++i) {
    reqs[i].kind = Kind::Read;
    reqs[i].address = 0x0;
    reqs[i].data = reinterpret_cast<std::uint8_t*>(&vals[i]);
    reqs[i].bytes = 4;
    if (bus.read(reqs[i]) == BusStatus::Request) ++accepted;
  }
  EXPECT_EQ(accepted, 4);
}

TEST_F(Tl2Fixture, ReadWriteOverlapKeepsParallelUnits) {
  // The same scenario as the layer-1 test
  // ReadAndWritePhasesRunInParallel (elapsed 5 there): layer 2 keeps
  // the parallel read/write units and loses only the pipeline-fill
  // cycle — the paper's systematic small over-estimation.
  MemorySlave ram("ram", window(0, 0x1000, 0, /*rw=*/2, /*ww=*/2));
  bus.attach(ram);
  Word rv = 0;
  Word wv = 0xBEEF;
  Tl2Request rd;
  rd.kind = Kind::Read;
  rd.address = 0x0;
  rd.data = reinterpret_cast<std::uint8_t*>(&rv);
  rd.bytes = 4;
  Tl2Request wr;
  wr.kind = Kind::Write;
  wr.address = 0x100;
  wr.data = reinterpret_cast<std::uint8_t*>(&wv);
  wr.bytes = 4;
  const std::uint64_t elapsed = driveAll(clk, bus, {&rd, &wr});
  EXPECT_GT(elapsed, 5u);  // Strictly worse than layer 1.
  EXPECT_EQ(elapsed, 6u);
}

TEST_F(Tl2Fixture, DynamicStretchIsInvisibleToLayer2) {
  // Layer 1 sees the EEPROM's dynamic write stretch; layer 2 sampled
  // only the static control wait states — an under-estimation source.
  MemorySlave eeprom("eeprom", window(0, 0x1000));
  eeprom.setExtraWritePerBeat(3);
  bus.attach(eeprom);
  Word v = 0x5A;
  Tl2Request wr;
  wr.kind = Kind::Write;
  wr.address = 0x10;
  wr.data = reinterpret_cast<std::uint8_t*>(&v);
  wr.bytes = 4;
  std::uint64_t elapsed = 0;
  EXPECT_EQ(driveOne(clk, bus, wr, &elapsed), BusStatus::Ok);
  EXPECT_EQ(elapsed, 3u);  // Layer 1 takes 5 for the same transfer.
  EXPECT_EQ(eeprom.peekWord(0x10), 0x5Au);
}

TEST_F(Tl2Fixture, BackToBackReadsLoseOnlyThePipelineFillCycle) {
  MemorySlave ram("ram", window(0, 0x1000));
  bus.attach(ram);
  std::array<Word, 4> vals{};
  std::vector<Tl2Request> reqs(4);
  std::vector<Tl2Request*> ptrs;
  for (std::size_t i = 0; i < reqs.size(); ++i) {
    reqs[i].kind = Kind::Read;
    reqs[i].address = 4 * i;
    reqs[i].data = reinterpret_cast<std::uint8_t*>(&vals[i]);
    reqs[i].bytes = 4;
    ptrs.push_back(&reqs[i]);
  }
  const std::uint64_t elapsed = driveAll(clk, bus, ptrs);
  EXPECT_EQ(elapsed, reqs.size() + 2);  // Layer 1: N + 1.
}

// Observer integration.
struct RecordingTl2Observer : Tl2Observer {
  std::vector<Tl2PhaseInfo> addr;
  std::vector<Tl2PhaseInfo> data;
  void addressPhaseDone(const Tl2PhaseInfo& i) override {
    addr.push_back(i);
  }
  void dataPhaseDone(const Tl2PhaseInfo& i) override { data.push_back(i); }
};

TEST_F(Tl2Fixture, ObserverSeesPhaseCompletionsOnly) {
  MemorySlave ram("ram", window(0, 0x1000, /*aw=*/2, /*rw=*/1));
  bus.attach(ram);
  RecordingTl2Observer obs;
  bus.addObserver(obs);
  Word v = 0;
  Tl2Request req;
  req.kind = Kind::Read;
  req.address = 0x30;
  req.data = reinterpret_cast<std::uint8_t*>(&v);
  req.bytes = 4;
  driveOne(clk, bus, req);
  ASSERT_EQ(obs.addr.size(), 1u);  // One event per phase, not per cycle.
  ASSERT_EQ(obs.data.size(), 1u);
  EXPECT_EQ(obs.addr[0].cycles, 3u);  // aw + 1.
  EXPECT_EQ(obs.data[0].cycles, 2u);  // rw + 1 beat.
  EXPECT_EQ(obs.data[0].bytes, 4u);
  EXPECT_EQ(obs.data[0].data, reinterpret_cast<std::uint8_t*>(&v));
}

/// Detaches itself — and optionally a later-registered peer — from
/// inside its first addressPhaseDone callback.
struct DetachingTl2Observer : Tl2Observer {
  DetachingTl2Observer(Tl2Bus& bus, Tl2Observer* peer)
      : bus(bus), peer(peer) {}
  void addressPhaseDone(const Tl2PhaseInfo&) override {
    ++addrCalls;
    bus.removeObserver(*this);
    if (peer != nullptr) bus.removeObserver(*peer);
  }
  void dataPhaseDone(const Tl2PhaseInfo&) override { ++dataCalls; }
  Tl2Bus& bus;
  Tl2Observer* peer;
  int addrCalls = 0;
  int dataCalls = 0;
};

TEST_F(Tl2Fixture, ObserverDetachDuringCallbackIsSafe) {
  // Removal mid-notification must not invalidate the iteration and
  // must take effect immediately: the removed observers see nothing
  // further, not even the rest of the current phase's fan-out.
  MemorySlave ram("ram", window(0, 0x1000));
  bus.attach(ram);
  RecordingTl2Observer before;  // Registered first: unaffected.
  RecordingTl2Observer after;   // Registered last: detached by proxy.
  DetachingTl2Observer det(bus, &after);
  bus.addObserver(before);
  bus.addObserver(det);
  bus.addObserver(after);

  Word v = 0;
  Tl2Request req;
  req.kind = Kind::Read;
  req.address = 0x10;
  req.data = reinterpret_cast<std::uint8_t*>(&v);
  req.bytes = 4;
  driveOne(clk, bus, req);

  EXPECT_EQ(before.addr.size(), 1u);
  EXPECT_EQ(before.data.size(), 1u);
  EXPECT_EQ(det.addrCalls, 1);  // Self-removed: no further callbacks.
  EXPECT_EQ(det.dataCalls, 0);
  EXPECT_TRUE(after.addr.empty());  // Removed before its turn.
  EXPECT_TRUE(after.data.empty());

  // The survivor keeps receiving phases on later transactions.
  Tl2Request req2 = req;
  req2.reset();
  req2.address = 0x20;
  driveOne(clk, bus, req2);
  EXPECT_EQ(before.addr.size(), 2u);
  EXPECT_EQ(before.data.size(), 2u);
  EXPECT_EQ(det.addrCalls, 1);
  EXPECT_TRUE(after.addr.empty());
}

/// Attaches a peer from inside its first addressPhaseDone callback.
struct AttachingTl2Observer : Tl2Observer {
  AttachingTl2Observer(Tl2Bus& bus, Tl2Observer& late) : bus(bus), late(late) {}
  void addressPhaseDone(const Tl2PhaseInfo&) override {
    if (!attached) {
      attached = true;
      bus.addObserver(late);
    }
  }
  Tl2Bus& bus;
  Tl2Observer& late;
  bool attached = false;
};

TEST_F(Tl2Fixture, ObserverAttachDuringCallbackStartsNextPhase) {
  // An addition mid-notification is first served from the next phase
  // on — it must not be invoked for the phase being fanned out.
  MemorySlave ram("ram", window(0, 0x1000));
  bus.attach(ram);
  RecordingTl2Observer late;
  AttachingTl2Observer att(bus, late);
  bus.addObserver(att);

  Word v = 0;
  Tl2Request req;
  req.kind = Kind::Read;
  req.address = 0x40;
  req.data = reinterpret_cast<std::uint8_t*>(&v);
  req.bytes = 4;
  driveOne(clk, bus, req);

  EXPECT_TRUE(late.addr.empty());  // Missed the triggering address phase.
  EXPECT_EQ(late.data.size(), 1u);  // Present from the data phase on.
}

/// RecordingTl2Observer that exposes the bus it is bound to.
struct BoundRecorder final : RecordingTl2Observer {
  const Tl2Bus* bound() const { return attachedBus(); }
};

TEST_F(Tl2Fixture, ObserverIsFedWhenTheBusIsBroughtCurrent) {
  // With an observer attached, the event-driven bus still stays parked:
  // phases that have passed are delivered when something brings the
  // bus current, not on their cycle, each stamped with its own cycle.
  MemorySlave ram("ram", window(0, 0x1000, /*aw=*/1, /*rw=*/2));
  bus.attach(ram);
  BoundRecorder obs;
  bus.addObserver(obs);
  EXPECT_EQ(obs.bound(), &bus);

  Word v = 0;
  Tl2Request req;
  req.kind = Kind::Read;
  req.address = 0x30;
  req.data = reinterpret_cast<std::uint8_t*>(&v);
  req.bytes = 4;
  clk.onRising([&] {
    if (req.stage == Tl2Stage::Idle && req.acceptCycle == 0) bus.read(req);
  });
  clk.runCycles(10);  // Both phases are long over; nobody asked.
  EXPECT_TRUE(obs.addr.empty());
  EXPECT_TRUE(obs.data.empty());
  EXPECT_EQ(req.stage, Tl2Stage::Queued);

  bus.syncObservers();
  ASSERT_EQ(obs.addr.size(), 1u);
  ASSERT_EQ(obs.data.size(), 1u);
  EXPECT_EQ(obs.addr[0].cycles, 2u);
  EXPECT_EQ(obs.data[0].cycles, 3u);
  EXPECT_EQ(req.stage, Tl2Stage::Finished);
  // Stamped from the schedule: accepted on edge 1, address phase done
  // on edge 2, data phase (rw + 1 beat) on edges 3..5.
  EXPECT_EQ(obs.addr[0].cycle, 2u);
  EXPECT_EQ(obs.data[0].cycle, 5u);
  EXPECT_EQ(req.finishCycle, 5u);

  bus.removeObserver(obs);
  EXPECT_EQ(obs.bound(), nullptr);
}

/// Observer that queries the bus from inside every callback and logs
/// (kind of phase, completion cycle) pairs.
struct QueryingObserver final : Tl2Observer {
  explicit QueryingObserver(Tl2Bus& bus) : bus(bus) {}
  void addressPhaseDone(const Tl2PhaseInfo& i) override { note(false, i); }
  void dataPhaseDone(const Tl2PhaseInfo& i) override { note(true, i); }
  void note(bool data, const Tl2PhaseInfo& i) {
    (void)bus.stats();
    (void)bus.idle();
    log.emplace_back(data, i.cycle);
  }
  Tl2Bus& bus;
  std::vector<std::pair<bool, std::uint64_t>> log;
};

std::vector<std::pair<bool, std::uint64_t>> queryInsideCallbacks(
    bool perCycle) {
  sim::Kernel kernel;
  sim::Clock clk{kernel, "clk", 10};
  Tl2Bus bus{clk, "ecbus_tl2"};
  bus.setPerCycleProcess(perCycle);
  MemorySlave ram("ram", window(0, 0x1000));
  bus.attach(ram);
  QueryingObserver obs(bus);
  bus.addObserver(obs);
  std::array<Word, 4> vals{};
  std::vector<Tl2Request> reqs(4);
  std::vector<Tl2Request*> ptrs;
  for (std::size_t i = 0; i < reqs.size(); ++i) {
    reqs[i].kind = Kind::Read;
    reqs[i].address = 4 * i;
    reqs[i].data = reinterpret_cast<std::uint8_t*>(&vals[i]);
    reqs[i].bytes = 4;
    ptrs.push_back(&reqs[i]);
  }
  driveAll(clk, bus, ptrs);
  return obs.log;
}

TEST(Tl2BusObserver, QueryInsideACallbackMissesNoPhase) {
  // Back-to-back reads put a data boundary and the next address
  // boundary on the same edge. An observer that queries the bus inside
  // the data callback must not retire that address boundary ahead of
  // its turn in the running retirement, which would skip its callback.
  const auto ev = queryInsideCallbacks(false);
  const auto pc = queryInsideCallbacks(true);
  EXPECT_EQ(ev.size(), 8u);
  EXPECT_EQ(ev, pc);
}

/// The bus section saved 10 idle cycles after one read on an
/// event-driven bus, with or without a stats() query first.
std::vector<std::uint8_t> savedAfterOneRead(bool queryStatsFirst) {
  sim::Kernel kernel;
  sim::Clock clk{kernel, "clk", 10};
  Tl2Bus bus{clk, "ecbus_tl2"};
  MemorySlave ram("ram", window(0, 0x1000, /*aw=*/1, /*rw=*/2));
  bus.attach(ram);
  Word v = 0;
  Tl2Request req;
  req.kind = Kind::Read;
  req.address = 0x30;
  req.data = reinterpret_cast<std::uint8_t*>(&v);
  req.bytes = 4;
  driveOne(clk, bus, req);
  clk.runCycles(10);
  if (queryStatsFirst) (void)bus.stats();
  ckpt::StateWriter w;
  bus.saveState(w);
  return w.take();
}

TEST(Tl2BusCheckpoint, SectionBytesDoNotDependOnAStatsQuery) {
  // The event-driven bus derives its cycle counters lazily; the section
  // must carry the derived values, not whatever the last stats() call
  // left behind.
  EXPECT_EQ(savedAfterOneRead(false), savedAfterOneRead(true));
}

TEST_F(Tl2Fixture, StatsAccumulate) {
  MemorySlave ram("ram", window(0, 0x1000));
  bus.attach(ram);
  std::array<std::uint8_t, 16> buf{};
  Tl2Request rd;
  rd.kind = Kind::Read;
  rd.address = 0x0;
  rd.data = buf.data();
  rd.bytes = 16;
  Tl2Request wr;
  wr.kind = Kind::Write;
  wr.address = 0x20;
  wr.data = buf.data();
  wr.bytes = 4;
  driveAll(clk, bus, {&rd, &wr});
  EXPECT_EQ(bus.stats().bytesRead, 16u);
  EXPECT_EQ(bus.stats().bytesWritten, 4u);
  EXPECT_EQ(bus.stats().transactions(), 2u);
}

} // namespace
} // namespace sct::bus
