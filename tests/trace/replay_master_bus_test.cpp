// The bus type picks the replay master's payload, the layer-1 spelling
// with one argument per EC interface takes a single bus, and a restart
// resets every layer's payload storage.
#include "trace/replay_master.h"

#include <gtest/gtest.h>

#include <cstring>
#include <stdexcept>
#include <type_traits>

#include "../testbench.h"
#include "bus/tl2_bridge.h"

namespace sct::trace {
namespace {

static_assert(std::is_same_v<Tl2ReplayMaster::Request, bus::Tl2Request>);
static_assert(
    std::is_same_v<ReplayMaster<bus::Tl1Bus>::Request, bus::Tl1Request>);
static_assert(std::is_same_v<ReplayMaster<bus::BridgedTl2Bus>::Request,
                             bus::Tl1Request>);
static_assert(
    std::is_same_v<ReplayMaster<ref::GlBus>::Request, bus::Tl1Request>);

BusTrace oneAccess(bus::Kind kind, bus::Word data = 0) {
  BusTrace t;
  TraceEntry e;
  e.kind = kind;
  e.address = 0x40;
  e.writeData[0] = data;
  t.append(e);
  return t;
}

TEST(ReplayMasterBusTest, TwoInterfacesMustBeOneBus) {
  testbench::Tl1Bench a;
  testbench::Tl1Bench b;
  const BusTrace t = oneAccess(bus::Kind::Read);
  EXPECT_THROW({ ReplayMaster m(a.clk, "m", a.bus, b.bus, t); },
               std::invalid_argument);
  ReplayMaster m(a.clk, "m", a.bus, a.bus, t);
  m.runToCompletion();
  EXPECT_EQ(m.stats().completed, 1u);
}

TEST(ReplayMasterBusTest, Layer2RestartStartsFromFreshBuffers) {
  testbench::Tl2Bench tb;
  const BusTrace write = oneAccess(bus::Kind::Write, 0xC0FFEE);
  const BusTrace read = oneAccess(bus::Kind::Read);
  Tl2ReplayMaster m(tb.clk, "m", tb.bus, write);
  m.runToCompletion();
  m.restart(read);
  EXPECT_EQ(m.requests().size(), 0u);
  EXPECT_EQ(m.buffer(0), PayloadBuffer{});
  m.runToCompletion();
  bus::Word got = 0;
  std::memcpy(&got, m.buffer(0).data(), sizeof got);
  EXPECT_EQ(got, 0xC0FFEEu);
  EXPECT_EQ(m.stats().completed, 1u);
}

} // namespace
} // namespace sct::trace
