#include "bus/tl1_bus.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <stdexcept>
#include <string>
#include <vector>

#include "bus/bus_codec.h"
#include "bus/memory_slave.h"
#include "bus_test_util.h"
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

struct Tl1Fixture : public ::testing::Test {
  sim::Kernel kernel;
  sim::Clock clk{kernel, "clk", 10};
  Tl1Bus bus{clk, "ecbus"};
};

TEST_F(Tl1Fixture, SingleZeroWaitReadTakesTwoCycles) {
  MemorySlave ram("ram", window(0x1000, 0x1000));
  bus.attach(ram);
  ram.pokeWord(0x1010, 0xCAFEBABE);

  Tl1Request req;
  req.kind = Kind::Read;
  req.address = 0x1010;
  std::uint64_t elapsed = 0;
  EXPECT_EQ(driveOne(clk, bus, req, &elapsed), BusStatus::Ok);
  EXPECT_EQ(req.data[0], 0xCAFEBABEu);
  // Submit edge + same-cycle addr/data completion + pickup edge.
  EXPECT_EQ(elapsed, 2u);
}

TEST_F(Tl1Fixture, WriteRoundTrip) {
  MemorySlave ram("ram", window(0, 0x1000));
  bus.attach(ram);

  Tl1Request wr;
  wr.kind = Kind::Write;
  wr.address = 0x20;
  wr.data[0] = 0x12345678;
  EXPECT_EQ(driveOne(clk, bus, wr), BusStatus::Ok);
  EXPECT_EQ(ram.peekWord(0x20), 0x12345678u);
}

TEST_F(Tl1Fixture, AddressWaitStatesStretchLatency) {
  MemorySlave ram("ram", window(0, 0x1000, /*aw=*/2));
  bus.attach(ram);
  Tl1Request req;
  req.kind = Kind::Read;
  req.address = 0x0;
  std::uint64_t elapsed = 0;
  EXPECT_EQ(driveOne(clk, bus, req, &elapsed), BusStatus::Ok);
  EXPECT_EQ(elapsed, 4u);  // 2 + addrWait.
}

TEST_F(Tl1Fixture, ReadWaitStatesStretchLatency) {
  MemorySlave ram("ram", window(0, 0x1000, 0, /*rw=*/3));
  bus.attach(ram);
  Tl1Request req;
  req.kind = Kind::Read;
  req.address = 0x0;
  std::uint64_t elapsed = 0;
  EXPECT_EQ(driveOne(clk, bus, req, &elapsed), BusStatus::Ok);
  EXPECT_EQ(elapsed, 5u);  // 2 + readWait.
}

TEST_F(Tl1Fixture, BurstReadLatency) {
  MemorySlave ram("ram", window(0, 0x1000));
  bus.attach(ram);
  for (Address a = 0; a < 16; a += 4) {
    ram.pokeWord(a, static_cast<Word>(0x100 + a));
  }
  Tl1Request req;
  req.kind = Kind::Read;
  req.address = 0x0;
  req.beats = 4;
  std::uint64_t elapsed = 0;
  EXPECT_EQ(driveOne(clk, bus, req, &elapsed), BusStatus::Ok);
  EXPECT_EQ(elapsed, 5u);  // 2 + 3 extra beats.
  for (unsigned b = 0; b < 4; ++b) {
    EXPECT_EQ(req.data[b], 0x100u + 4 * b);
  }
}

TEST_F(Tl1Fixture, BurstBeatWaitStates) {
  MemorySlave ram("ram", window(0, 0x1000, 0, 0, 0, /*bw=*/1));
  bus.attach(ram);
  Tl1Request req;
  req.kind = Kind::Read;
  req.address = 0x0;
  req.beats = 4;
  std::uint64_t elapsed = 0;
  EXPECT_EQ(driveOne(clk, bus, req, &elapsed), BusStatus::Ok);
  EXPECT_EQ(elapsed, 8u);  // 2 + 3 * (1 + beatWait).
}

TEST_F(Tl1Fixture, InstrFetchUsesInstructionInterface) {
  MemorySlave rom("rom", window(0, 0x1000));
  bus.attach(rom);
  rom.pokeWord(0x40, 0xAABBCCDD);
  Tl1Request req;
  req.kind = Kind::InstrFetch;
  req.address = 0x40;
  EXPECT_EQ(driveOne(clk, bus, req), BusStatus::Ok);
  EXPECT_EQ(req.data[0], 0xAABBCCDDu);
  EXPECT_EQ(bus.stats().instrTransactions, 1u);
}

TEST_F(Tl1Fixture, KindInterfaceMismatchThrows) {
  MemorySlave ram("ram", window(0, 0x1000));
  bus.attach(ram);
  Tl1Request req;
  req.kind = Kind::Write;
  EXPECT_THROW(bus.read(req), std::logic_error);
  EXPECT_THROW(bus.fetch(req), std::logic_error);
}

TEST_F(Tl1Fixture, DecodeMissIsBusError) {
  MemorySlave ram("ram", window(0x1000, 0x100));
  bus.attach(ram);
  Tl1Request req;
  req.kind = Kind::Read;
  req.address = 0x5000;
  EXPECT_EQ(driveOne(clk, bus, req), BusStatus::Error);
  EXPECT_EQ(bus.stats().readBusErrors, 1u);
  EXPECT_EQ(bus.stats().writeBusErrors, 0u);
}

TEST_F(Tl1Fixture, WriteErrorLandsOnWriteBus) {
  MemorySlave ram("ram", window(0x1000, 0x100));
  bus.attach(ram);
  Tl1Request req;
  req.kind = Kind::Write;
  req.address = 0x5000;
  EXPECT_EQ(driveOne(clk, bus, req), BusStatus::Error);
  EXPECT_EQ(bus.stats().writeBusErrors, 1u);
  EXPECT_EQ(bus.stats().readBusErrors, 0u);
}

TEST_F(Tl1Fixture, AccessRightViolationIsError) {
  SlaveControl c = window(0, 0x1000);
  c.canWrite = false;
  MemorySlave rom("rom", c);
  bus.attach(rom);
  Tl1Request req;
  req.kind = Kind::Write;
  req.address = 0x10;
  req.data[0] = 1;
  EXPECT_EQ(driveOne(clk, bus, req), BusStatus::Error);
  EXPECT_EQ(rom.peekWord(0x10), 0u);
}

TEST_F(Tl1Fixture, ExecRightViolationIsError) {
  SlaveControl c = window(0, 0x1000);
  c.canExec = false;
  MemorySlave ram("ram", c);
  bus.attach(ram);
  Tl1Request req;
  req.kind = Kind::InstrFetch;
  req.address = 0x10;
  EXPECT_EQ(driveOne(clk, bus, req), BusStatus::Error);
}

TEST_F(Tl1Fixture, BurstCrossingWindowEndIsError) {
  MemorySlave ram("ram", window(0, 0x10));
  bus.attach(ram);
  Tl1Request req;
  req.kind = Kind::Read;
  req.address = 0x8;
  req.beats = 4;  // Bytes 0x8..0x17 exceed the 0x10 window.
  EXPECT_EQ(driveOne(clk, bus, req), BusStatus::Error);
}

TEST_F(Tl1Fixture, MisalignedRequestRejectedImmediately) {
  MemorySlave ram("ram", window(0, 0x1000));
  bus.attach(ram);
  Tl1Request req;
  req.kind = Kind::Read;
  req.address = 0x2;
  req.size = AccessSize::Word;
  EXPECT_EQ(bus.read(req), BusStatus::Error);
  EXPECT_EQ(req.stage, Tl1Stage::Idle);  // Never entered the queues.
}

TEST_F(Tl1Fixture, InvalidBeatCountRejected) {
  MemorySlave ram("ram", window(0, 0x1000));
  bus.attach(ram);
  Tl1Request req;
  req.kind = Kind::Read;
  req.address = 0x0;
  req.beats = 5;
  EXPECT_EQ(bus.read(req), BusStatus::Error);
}

TEST_F(Tl1Fixture, BackToBackReadsPipelineAtOnePerCycle) {
  MemorySlave ram("ram", window(0, 0x1000));
  bus.attach(ram);
  std::vector<Tl1Request> reqs(4);
  std::vector<Tl1Request*> ptrs;
  for (std::size_t i = 0; i < reqs.size(); ++i) {
    reqs[i].kind = Kind::Read;
    reqs[i].address = 4 * i;
    ptrs.push_back(&reqs[i]);
  }
  const std::uint64_t elapsed = driveAll(clk, bus, ptrs);
  EXPECT_EQ(elapsed, reqs.size() + 1);  // One data beat per cycle.
}

TEST_F(Tl1Fixture, ReadAndWritePhasesRunInParallel) {
  // One read and one write, both with 2 data wait states: layer 1
  // overlaps the read phase and the write phase, so the pair costs the
  // same as the slower of the two plus the pipelined address phase.
  MemorySlave ram("ram", window(0, 0x1000, 0, /*rw=*/2, /*ww=*/2));
  bus.attach(ram);
  Tl1Request rd;
  rd.kind = Kind::Read;
  rd.address = 0x0;
  Tl1Request wr;
  wr.kind = Kind::Write;
  wr.address = 0x100;
  wr.data[0] = 0xBEEF;
  const std::uint64_t elapsed = driveAll(clk, bus, {&rd, &wr});
  // Read: addr in cycle 1, beat in cycle 3. Write: addr in cycle 2,
  // beat in cycle 4 (waits in 2 and 3, overlapping the read phase).
  // Pickup of the write result in cycle 5.
  EXPECT_EQ(elapsed, 5u);
  EXPECT_EQ(rd.result, BusStatus::Ok);
  EXPECT_EQ(wr.result, BusStatus::Ok);
}

TEST_F(Tl1Fixture, OutstandingLimitIsFourPerClass) {
  MemorySlave ram("ram", window(0, 0x1000, 0, /*rw=*/8));
  bus.attach(ram);
  std::vector<Tl1Request> reqs(6);
  int accepted = 0;
  int waited = 0;
  for (auto& r : reqs) {
    r.kind = Kind::Read;
    r.address = 0x0;
    const BusStatus s = bus.read(r);
    if (s == BusStatus::Request) ++accepted;
    if (s == BusStatus::Wait) ++waited;
  }
  EXPECT_EQ(accepted, 4);
  EXPECT_EQ(waited, 2);
}

TEST_F(Tl1Fixture, LimitsAreIndependentPerClass) {
  MemorySlave ram("ram", window(0, 0x1000, 0, 4, 4));
  bus.attach(ram);
  std::vector<Tl1Request> rd(4);
  std::vector<Tl1Request> wr(4);
  std::vector<Tl1Request> in(4);
  for (auto& r : rd) {
    r.kind = Kind::Read;
    EXPECT_EQ(bus.read(r), BusStatus::Request);
  }
  for (auto& r : wr) {
    r.kind = Kind::Write;
    EXPECT_EQ(bus.write(r), BusStatus::Request);
  }
  for (auto& r : in) {
    r.kind = Kind::InstrFetch;
    EXPECT_EQ(bus.fetch(r), BusStatus::Request);
  }
}

TEST_F(Tl1Fixture, DynamicSlaveStretchExtendsDataPhase) {
  MemorySlave eeprom("eeprom", window(0, 0x1000));
  eeprom.setExtraWritePerBeat(3);
  bus.attach(eeprom);
  Tl1Request wr;
  wr.kind = Kind::Write;
  wr.address = 0x10;
  wr.data[0] = 0x5A;
  std::uint64_t elapsed = 0;
  EXPECT_EQ(driveOne(clk, bus, wr, &elapsed), BusStatus::Ok);
  EXPECT_EQ(elapsed, 5u);  // 2 + 3 dynamic wait cycles.
  EXPECT_EQ(eeprom.peekWord(0x10), 0x5Au);
}

TEST_F(Tl1Fixture, PayloadIsReusableAfterCompletion) {
  MemorySlave ram("ram", window(0, 0x1000));
  bus.attach(ram);
  ram.pokeWord(0x0, 0x11);
  ram.pokeWord(0x4, 0x22);
  Tl1Request req;
  req.kind = Kind::Read;
  req.address = 0x0;
  EXPECT_EQ(driveOne(clk, bus, req), BusStatus::Ok);
  EXPECT_EQ(req.data[0], 0x11u);
  req.reset();
  req.address = 0x4;
  EXPECT_EQ(driveOne(clk, bus, req), BusStatus::Ok);
  EXPECT_EQ(req.data[0], 0x22u);
}

TEST_F(Tl1Fixture, StatsCountTransactionsAndBytes) {
  MemorySlave ram("ram", window(0, 0x1000));
  bus.attach(ram);
  Tl1Request rd;
  rd.kind = Kind::Read;
  rd.address = 0x0;
  rd.beats = 4;
  Tl1Request wr;
  wr.kind = Kind::Write;
  wr.address = 0x100;
  driveAll(clk, bus, {&rd, &wr});
  EXPECT_EQ(bus.stats().readTransactions, 1u);
  EXPECT_EQ(bus.stats().writeTransactions, 1u);
  EXPECT_EQ(bus.stats().bytesRead, 16u);
  EXPECT_EQ(bus.stats().bytesWritten, 4u);
  EXPECT_EQ(bus.stats().readBeats, 4u);
  EXPECT_EQ(bus.stats().writeBeats, 1u);
}

TEST_F(Tl1Fixture, IdleReflectsInFlightWork) {
  MemorySlave ram("ram", window(0, 0x1000, 0, 4));
  bus.attach(ram);
  EXPECT_TRUE(bus.idle());
  Tl1Request req;
  req.kind = Kind::Read;
  req.address = 0x0;
  bus.read(req);
  EXPECT_FALSE(bus.idle());
  driveOne(clk, bus, req);
  EXPECT_TRUE(bus.idle());
}

// Observer integration: verify phase events fire with correct payloads.
struct RecordingObserver : Tl1Observer {
  std::vector<AddressPhaseInfo> addr;
  std::vector<DataBeatInfo> reads;
  std::vector<DataBeatInfo> writes;
  void addressPhase(const AddressPhaseInfo& i) override { addr.push_back(i); }
  void readBeat(const DataBeatInfo& i) override { reads.push_back(i); }
  void writeBeat(const DataBeatInfo& i) override { writes.push_back(i); }
};

TEST_F(Tl1Fixture, ObserverSeesAddressPhaseEveryActiveCycle) {
  MemorySlave ram("ram", window(0, 0x1000, /*aw=*/2));
  bus.attach(ram);
  RecordingObserver obs;
  bus.addObserver(obs);
  Tl1Request req;
  req.kind = Kind::Read;
  req.address = 0x10;
  driveOne(clk, bus, req);
  ASSERT_EQ(obs.addr.size(), 3u);  // 1 + 2 wait cycles.
  EXPECT_FALSE(obs.addr[0].accepted);
  EXPECT_FALSE(obs.addr[1].accepted);
  EXPECT_TRUE(obs.addr[2].accepted);
  EXPECT_EQ(obs.addr[0].address, 0x10u);
}

TEST_F(Tl1Fixture, ObserverSeesBurstBeats) {
  MemorySlave ram("ram", window(0, 0x1000));
  bus.attach(ram);
  RecordingObserver obs;
  bus.addObserver(obs);
  Tl1Request req;
  req.kind = Kind::Read;
  req.address = 0x20;
  req.beats = 4;
  driveOne(clk, bus, req);
  ASSERT_EQ(obs.reads.size(), 4u);
  for (unsigned b = 0; b < 4; ++b) {
    EXPECT_EQ(obs.reads[b].address, 0x20u + 4 * b);
    EXPECT_EQ(obs.reads[b].beatIndex, b);
    EXPECT_EQ(obs.reads[b].last, b == 3);
  }
}

TEST_F(Tl1Fixture, OutstandingTotalMatchesIdleAcrossTheTransactionLife) {
  MemorySlave slow("eeprom", window(0x8000, 0x1000, 1, 2, 3, 1));
  bus.attach(slow);
  EXPECT_EQ(bus.outstandingTotal(), 0u);
  EXPECT_TRUE(bus.idle());

  // Three classes in flight at once: the total counts all of them.
  Tl1Request rd, wr, in;
  rd.kind = Kind::Read;
  rd.address = 0x8000;
  wr.kind = Kind::Write;
  wr.address = 0x8040;
  wr.data[0] = 0x1;
  in.kind = Kind::InstrFetch;
  in.address = 0x8080;
  std::uint64_t maxOutstanding = 0;
  bool sawBusyNonIdle = false;
  const auto probe = clk.onRising([&] {
    maxOutstanding = std::max(maxOutstanding, bus.outstandingTotal());
    // The assert inside outstandingTotal() cross-checks the queue view
    // every call; here we just confirm the public coupling.
    sawBusyNonIdle = sawBusyNonIdle ||
                     (bus.outstandingTotal() > 0 && !bus.idle());
  });
  driveAll(clk, bus, {&rd, &wr, &in});
  clk.removeHandler(probe);

  EXPECT_EQ(rd.result, BusStatus::Ok);
  EXPECT_EQ(wr.result, BusStatus::Ok);
  EXPECT_EQ(in.result, BusStatus::Ok);
  EXPECT_GE(maxOutstanding, 3u);
  EXPECT_TRUE(sawBusyNonIdle);
  EXPECT_EQ(bus.outstandingTotal(), 0u);
  EXPECT_TRUE(bus.idle());
}

TEST_F(Tl1Fixture, SuspendParksTheProcessAndResumeRestoresService) {
  MemorySlave ram("ram", window(0, 0x1000));
  bus.attach(ram);
  ram.pokeWord(0x40, 0x600DBEEF);

  ASSERT_TRUE(bus.idle());
  bus.suspendProcess();
  EXPECT_TRUE(bus.suspended());
  const std::uint64_t cyclesBefore = bus.stats().cycles;
  clk.runCycles(50);  // A parked process counts no cycles.
  EXPECT_EQ(bus.stats().cycles, cyclesBefore);

  bus.resumeProcess();
  EXPECT_FALSE(bus.suspended());
  Tl1Request req;
  req.kind = Kind::Read;
  req.address = 0x40;
  EXPECT_EQ(driveOne(clk, bus, req), BusStatus::Ok);
  EXPECT_EQ(req.data[0], 0x600DBEEFu);
}

// Misuse that would strand or split work throws in every build, naming
// the bus.
void expectLogicErrorNamingTheBus(const std::function<void()>& misuse) {
  try {
    misuse();
    ADD_FAILURE() << "no std::logic_error";
  } catch (const std::logic_error& e) {
    EXPECT_NE(std::string(e.what()).find("ecbus"), std::string::npos)
        << e.what();
  }
}

TEST_F(Tl1Fixture, SuspendOnABusyBusThrows) {
  MemorySlave ram("ram", window(0, 0x1000, 0, /*rw=*/3));
  bus.attach(ram);
  Tl1Request req;
  req.kind = Kind::Read;
  req.address = 0x40;
  ASSERT_EQ(bus.read(req), BusStatus::Request);
  expectLogicErrorNamingTheBus([&] { bus.suspendProcess(); });
  EXPECT_FALSE(bus.suspended());
  // The queued request is still served.
  clk.runCycles(10);
  EXPECT_EQ(bus.read(req), BusStatus::Ok);
}

TEST_F(Tl1Fixture, SetCodecOnABusyBusThrows) {
  struct PlainCodec final : BusCodec {
    std::string_view name() const override { return "plain"; }
  } codec;
  MemorySlave ram("ram", window(0, 0x1000));
  bus.attach(ram);
  Tl1Request req;
  req.kind = Kind::Write;
  req.address = 0x40;
  req.beats = 4;
  ASSERT_EQ(bus.write(req), BusStatus::Request);
  expectLogicErrorNamingTheBus([&] { bus.setCodec(&codec); });
  EXPECT_EQ(bus.codec(), nullptr);
  clk.runCycles(10);
  EXPECT_EQ(bus.write(req), BusStatus::Ok);
  bus.setCodec(&codec);  // Idle again: legal.
  EXPECT_EQ(bus.codec(), &codec);
}

TEST_F(Tl1Fixture, SubmitToASuspendedBusThrows) {
  MemorySlave ram("ram", window(0, 0x1000));
  bus.attach(ram);
  bus.suspendProcess();
  Tl1Request req;
  req.kind = Kind::Read;
  req.address = 0x40;
  expectLogicErrorNamingTheBus([&] { bus.read(req); });
  EXPECT_EQ(req.stage, Tl1Stage::Idle);
  EXPECT_TRUE(bus.idle());
  bus.resumeProcess();
  EXPECT_EQ(driveOne(clk, bus, req), BusStatus::Ok);
}

TEST_F(Tl1Fixture, IdleParkCountsEverySkippedCycle) {
  // The model alone parks the idle bus; stats() still counts one cycle
  // per falling edge, from any edge, and a submit wakes the process.
  MemorySlave ram("ram", window(0, 0x1000));
  bus.attach(ram);
  std::vector<std::uint64_t> seen;
  const auto probe = clk.onRising([&] { seen.push_back(bus.stats().cycles); });
  clk.runCycles(40);
  ASSERT_EQ(seen.size(), 40u);
  for (std::uint64_t c = 0; c < seen.size(); ++c) EXPECT_EQ(seen[c], c);
  EXPECT_EQ(bus.stats().cycles, 40u);
  clk.removeHandler(probe);
  clk.runCycles(100);
  EXPECT_EQ(bus.stats().cycles, 140u);
  Tl1Request req;
  req.kind = Kind::Read;
  req.address = 0x40;
  EXPECT_EQ(driveOne(clk, bus, req), BusStatus::Ok);
  EXPECT_EQ(bus.stats().cycles, clk.cycle());
  EXPECT_EQ(bus.stats().busyCycles, 1u);
}

TEST_F(Tl1Fixture, ObserverRemovalStopsEvents) {
  MemorySlave ram("ram", window(0, 0x1000));
  bus.attach(ram);
  RecordingObserver obs;
  bus.addObserver(obs);
  Tl1Request a;
  a.kind = Kind::Read;
  a.address = 0x0;
  driveOne(clk, bus, a);
  const std::size_t count = obs.reads.size();
  bus.removeObserver(obs);
  a.reset();
  driveOne(clk, bus, a);
  EXPECT_EQ(obs.reads.size(), count);
}

} // namespace
} // namespace sct::bus
