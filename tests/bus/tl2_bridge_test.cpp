#include "bus/tl2_bridge.h"

#include <gtest/gtest.h>

#include "../testbench.h"
#include "bus/memory_slave.h"
#include "bus_test_util.h"
#include "soc/assembler.h"
#include "soc/smartcard.h"
#include "trace/replay_master.h"
#include "trace/workloads.h"

namespace sct::bus {
namespace {

struct BridgeFixture : ::testing::Test {
  sim::Kernel kernel;
  sim::Clock clk{kernel, "clk", 10};
  BridgedTl2Bus bus{clk, "bridged"};
  MemorySlave ram{"ram", testbench::fastCtl()};
  MemorySlave waited{"eeprom", testbench::waitedCtl()};

  BridgeFixture() {
    bus.attach(ram);
    bus.attach(waited);
  }
};

TEST_F(BridgeFixture, SingleReadThroughTheBridge) {
  ram.pokeWord(0x40, 0xFEEDC0DE);
  trace::BusTrace t;
  trace::TraceEntry e;
  e.kind = Kind::Read;
  e.address = 0x40;
  t.append(e);
  trace::ReplayMaster m(clk, "m", bus, bus, t);
  m.runToCompletion();
  EXPECT_TRUE(m.done());
  EXPECT_EQ(m.requests()[0].data[0], 0xFEEDC0DEu);
}

TEST_F(BridgeFixture, BurstRoundTrip) {
  trace::BusTrace t;
  trace::TraceEntry wr;
  wr.kind = Kind::Write;
  wr.address = 0x80;
  wr.beats = 4;
  wr.writeData = {1, 2, 3, 4};
  t.append(wr);
  trace::TraceEntry rd;
  rd.kind = Kind::Read;
  rd.address = 0x80;
  rd.beats = 4;
  t.append(rd);
  trace::ReplayMaster m(clk, "m", bus, bus, t);
  m.runToCompletion();
  EXPECT_EQ(m.requests()[1].data, (std::array<Word, 4>{1, 2, 3, 4}));
}

TEST_F(BridgeFixture, SubWordLaneBehaviourMatchesLayer1) {
  ram.pokeWord(0x10, 0xAABBCCDD);
  trace::BusTrace t;
  trace::TraceEntry byteRead;
  byteRead.kind = Kind::Read;
  byteRead.address = 0x12;  // Lane 2: byte 0xBB.
  byteRead.size = AccessSize::Byte;
  t.append(byteRead);
  trace::ReplayMaster m(clk, "m", bus, bus, t);
  m.runToCompletion();
  // Lane presentation: the byte sits at bits [23:16].
  EXPECT_EQ((m.requests()[0].data[0] >> 16) & 0xFF, 0xBBu);
}

TEST_F(BridgeFixture, SubWordWriteMergesCorrectly) {
  ram.pokeWord(0x20, 0x11223344);
  trace::BusTrace t;
  trace::TraceEntry sb;
  sb.kind = Kind::Write;
  sb.address = 0x21;  // Lane 1.
  sb.size = AccessSize::Byte;
  sb.writeData[0] = 0x0000EE00;  // Lane-aligned, as a core drives it.
  t.append(sb);
  trace::ReplayMaster m(clk, "m", bus, bus, t);
  m.runToCompletion();
  EXPECT_EQ(ram.peekWord(0x20), 0x1122EE44u);
}

TEST_F(BridgeFixture, ErrorsPropagate) {
  trace::BusTrace t;
  trace::TraceEntry e;
  e.kind = Kind::Read;
  e.address = 0x40000;  // Unmapped.
  t.append(e);
  trace::ReplayMaster m(clk, "m", bus, bus, t);
  m.runToCompletion();
  EXPECT_EQ(m.stats().errors, 1u);
  EXPECT_EQ(bus.pendingCount(), 0u);
}

TEST_F(BridgeFixture, RandomWorkloadMatchesLayer1Results) {
  const auto workload =
      trace::randomMix(31, 120, testbench::bothRegions(),
                       trace::MixRatios{}, 2);
  trace::ReplayMaster m2(clk, "m2", bus, bus, workload);
  m2.runToCompletion();

  testbench::Tl1Bench tl1;
  trace::ReplayMaster m1(tl1.clk, "m1", tl1.bus, tl1.bus, workload);
  m1.runToCompletion();

  for (bus::Address a = 0; a < 0x2000; a += 4) {
    ASSERT_EQ(ram.peekWord(a), tl1.fast.peekWord(a)) << std::hex << a;
  }
  for (std::size_t i = 0; i < workload.size(); ++i) {
    EXPECT_EQ(m2.requests()[i].result, m1.requests()[i].result) << i;
  }
}

TEST_F(BridgeFixture, DrainedTracksInFlight) {
  EXPECT_TRUE(bus.bridge().drained());

  Tl1Request req;
  req.kind = Kind::Read;
  req.address = 0x8000;  // Waited window: several cycles in flight.
  BusStatus st = BusStatus::Wait;
  const auto submit = clk.onRising([&] { st = bus.read(req); });
  clk.runCycles(1);
  clk.removeHandler(submit);
  ASSERT_EQ(st, BusStatus::Request);
  EXPECT_FALSE(bus.bridge().drained());
  EXPECT_EQ(bus.pendingCount(), 1u);

  // Let the lower transaction complete; sync() posts the payload as
  // Finished and releases the slot — drained() again, before pickup.
  clk.runCycles(12);
  bus.bridge().sync();
  EXPECT_TRUE(bus.bridge().drained());
  EXPECT_EQ(req.stage, Tl1Stage::Finished);

  // The drained bridge stays fully usable: the pickup, then a new
  // transaction.
  const auto pickup = clk.onRising([&] { st = bus.read(req); });
  clk.runCycles(1);
  clk.removeHandler(pickup);
  EXPECT_EQ(st, BusStatus::Ok);
  EXPECT_EQ(req.stage, Tl1Stage::Idle);

  ram.pokeWord(0x100, 0x5EED5EED);
  trace::BusTrace t;
  trace::TraceEntry e;
  e.kind = Kind::Read;
  e.address = 0x100;
  t.append(e);
  trace::ReplayMaster m(clk, "m", bus, bus, t);
  m.runToCompletion();
  EXPECT_EQ(m.requests()[0].data[0], 0x5EED5EEDu);
}

TEST_F(BridgeFixture, AbandonedPayloadSlotIsNotAnsweredStale) {
  // Regression: a master that abandons an in-flight payload
  // (Tl1Request::reset()) and reuses the same object must get the NEW
  // transaction's result, never the stale slot's. The bridge finishes
  // the abandoned lower transaction out first (Wait), then re-enters
  // the payload as a fresh submit.
  ram.pokeWord(0x200, 0x0DDF00D5);
  waited.pokeWord(0x8040, 0x0BADF00D);

  Tl1Request req;
  req.kind = Kind::Read;
  req.address = 0x8040;  // Slow read, soon abandoned.
  BusStatus st = BusStatus::Wait;
  std::uint64_t waits = 0;
  int phase = 0;
  const auto id = clk.onRising([&] {
    if (phase == 0) {
      ASSERT_EQ(bus.read(req), BusStatus::Request);
      phase = 1;
      return;
    }
    if (phase == 1) {
      req.reset();  // Abandon mid-flight...
      req.kind = Kind::Read;
      req.address = 0x200;  // ...and reuse the object for a fast read.
      phase = 2;
    }
    st = bus.read(req);
    if (st == BusStatus::Wait && req.stage == Tl1Stage::Idle) ++waits;
    if (st == BusStatus::Ok || st == BusStatus::Error) clk.requestBreak();
  });
  clk.runCycles(200);
  clk.removeHandler(id);

  EXPECT_EQ(st, BusStatus::Ok);
  EXPECT_EQ(req.data[0], 0x0DDF00D5u) << "must not see the stale 0x8040 data";
  EXPECT_GT(waits, 0u) << "abandoned slot must drain before reuse";
  EXPECT_EQ(bus.pendingCount(), 0u);
}

TEST_F(BridgeFixture, DecodeErrorsMatchDirectTl2BusAcrossAllClasses) {
  // Unmapped addresses must error identically whether the master sits
  // on the bridged Tl1 interface or drives the Tl2 bus directly.
  for (const Kind kind : {Kind::Read, Kind::Write, Kind::InstrFetch}) {
    trace::BusTrace t;
    trace::TraceEntry e;
    e.kind = kind;
    e.address = 0x40000;  // Unmapped.
    t.append(e);
    trace::ReplayMaster m(clk, "m", bus, bus, t);
    m.runToCompletion();
    EXPECT_TRUE(m.done());
    EXPECT_EQ(m.stats().errors, 1u) << "kind " << static_cast<int>(kind);
    EXPECT_EQ(m.requests()[0].result, BusStatus::Error);
    EXPECT_EQ(bus.pendingCount(), 0u);
  }

  testbench::Tl2Bench direct;
  std::uint8_t buf[4] = {};
  Tl2Request d;
  d.kind = Kind::Read;
  d.address = 0x40000;
  d.data = buf;
  d.bytes = 4;
  EXPECT_EQ(testutil::driveOne(direct.clk, direct.bus, d), BusStatus::Error);
}

TEST(BridgedSocTest, FirmwareRunsIdenticallyAtLayer2Timing) {
  // The full SoC on the bridged layer-2 bus: same results, slightly
  // more (estimated) cycles than layer 1.
  constexpr const char* kProgram = R"(
      li   $s0, 0x08000000
      addiu $t0, $zero, 20
      addiu $t1, $zero, 0
    loop:
      addu $t1, $t1, $t0
      sw   $t1, 0($s0)
      lw   $t2, 0($s0)
      addiu $s0, $s0, 4
      addiu $t0, $t0, -1
      bne  $t0, $zero, loop
      break
  )";
  soc::SmartCardSoC<Tl1Bus> l1{soc::SocConfig{}};
  l1.loadProgram(soc::assemble(kProgram, soc::memmap::kRomBase));
  ASSERT_TRUE(l1.run());

  soc::SmartCardSoC<BridgedTl2Bus> l2{soc::SocConfig{}};
  l2.loadProgram(soc::assemble(kProgram, soc::memmap::kRomBase));
  ASSERT_TRUE(l2.run());
  ASSERT_FALSE(l2.cpu().faulted());

  for (unsigned i = 0; i < 20; ++i) {
    EXPECT_EQ(l2.ram().peekWord(soc::memmap::kRamBase + 4 * i),
              l1.ram().peekWord(soc::memmap::kRamBase + 4 * i));
  }
  EXPECT_GE(l2.cpu().stats().cycles, l1.cpu().stats().cycles);
  const double drift =
      static_cast<double>(l2.cpu().stats().cycles) /
      static_cast<double>(l1.cpu().stats().cycles);
  EXPECT_LT(drift, 1.6) << "layer-2 timing should stay in the same band";
}

} // namespace
} // namespace sct::bus
