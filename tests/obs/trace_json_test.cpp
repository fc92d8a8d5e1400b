// Timeline recorder: ring-buffer semantics, Chrome trace_event JSON
// shape, and — the acceptance criterion — TL2 spans carrying exactly
// the cycle stamps the bus hands its observers, even though both are
// emitted late, from the resolved schedule, rather than from per-cycle
// bookkeeping.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "../testbench.h"
#include "bus/ec_interfaces.h"
#include "obs/trace_json.h"
#include "trace/workloads.h"

namespace sct {
namespace {

TEST(TraceRecorderTest, SpanAndInstantFields) {
  obs::TraceRecorder rec(8);
  rec.span("tl1", "read", 10, 14, obs::Track::Bus,
           obs::TraceArg{"addr", 0x80}, obs::TraceArg{"beats", 4});
  rec.instant("clock", "warp", 20, obs::Track::Clock,
              obs::TraceArg{"cycles", 7});
  ASSERT_EQ(rec.size(), 2u);
  const obs::TraceRecorder::Event& s = rec.event(0);
  EXPECT_EQ(s.ts, 10u);
  EXPECT_EQ(s.dur, 4u);
  EXPECT_EQ(s.phase, 'X');
  const obs::TraceRecorder::Event& i = rec.event(1);
  EXPECT_EQ(i.ts, 20u);
  EXPECT_EQ(i.phase, 'i');
}

TEST(TraceRecorderTest, RingOverwritesOldestAndCountsDrops) {
  obs::TraceRecorder rec(2);
  for (std::uint64_t c = 0; c < 5; ++c) {
    rec.instant("t", "e", c, obs::Track::Kernel);
  }
  EXPECT_EQ(rec.size(), 2u);
  EXPECT_EQ(rec.dropped(), 3u);
  EXPECT_EQ(rec.event(0).ts, 3u);  // Oldest survivor is the 4th push.
  EXPECT_EQ(rec.event(1).ts, 4u);

  std::ostringstream os;
  rec.writeJson(os);
  EXPECT_NE(os.str().find("\"droppedEvents\":3"), std::string::npos);
}

TEST(TraceRecorderTest, JsonShape) {
  obs::TraceRecorder rec(8);
  rec.span("tl2", "read", 3, 5, obs::Track::Bus, obs::TraceArg{"addr", 16});
  rec.instant("clock", "park", 7, obs::Track::Clock);
  std::ostringstream os;
  rec.writeJson(os);
  const std::string json = os.str();
  EXPECT_NE(json.find("\"displayTimeUnit\":\"ns\""), std::string::npos);
  EXPECT_NE(json.find("\"traceEvents\":["), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\",\"ts\":3,\"dur\":2"), std::string::npos);
  EXPECT_NE(json.find("\"args\":{\"addr\":16}"), std::string::npos);
  // Instants are thread-scoped ('s':'t') and carry no duration.
  EXPECT_NE(json.find("\"ph\":\"i\",\"ts\":7,\"s\":\"t\""), std::string::npos);
  // Crude structural sanity: balanced braces and brackets.
  long braces = 0, brackets = 0;
  for (char c : json) {
    braces += (c == '{') - (c == '}');
    brackets += (c == '[') - (c == ']');
  }
  EXPECT_EQ(braces, 0);
  EXPECT_EQ(brackets, 0);
}

/// Records the completion cycle stamped on every TL2 phase callback.
struct PhaseCycleLog final : bus::Tl2Observer {
  void addressPhaseDone(const bus::Tl2PhaseInfo& info) override {
    addrCycles.push_back(info.cycle);
    addrLens.push_back(info.cycles);
  }
  void dataPhaseDone(const bus::Tl2PhaseInfo& info) override {
    dataCycles.push_back(info.cycle);
    dataLens.push_back(info.cycles);
  }
  std::vector<std::uint64_t> addrCycles, dataCycles;
  std::vector<unsigned> addrLens, dataLens;
};

TEST(TraceRecorderTest, Tl2SpansMatchObserverCallbackCycles) {
  // The event-driven bus stays parked: spans and callbacks both come
  // out of lazy retirement, after clock warps.
  testbench::Tl2Bench tb;
  PhaseCycleLog log;
  tb.bus.addObserver(log);
  obs::StatsRegistry reg;
  obs::TraceRecorder rec(1u << 14);
  tb.bus.attachObs(reg, &rec);

  const trace::BusTrace t = trace::randomMix(
      17, 120, testbench::bothRegions(), trace::MixRatios{2, 2, 1, 1, 1},
      /*issueGapMax=*/4);
  trace::Tl2ReplayMaster master(tb.clk, "master", tb.bus, t);
  master.runToCompletion();
  ASSERT_TRUE(master.done());
  EXPECT_EQ(rec.dropped(), 0u);

  std::vector<const obs::TraceRecorder::Event*> addrSpans, dataSpans, txSpans;
  for (std::size_t i = 0; i < rec.size(); ++i) {
    const obs::TraceRecorder::Event& e = rec.event(i);
    if (e.track == obs::Track::AddrPhase) addrSpans.push_back(&e);
    if (e.track == obs::Track::DataPhase) dataSpans.push_back(&e);
    if (e.track == obs::Track::Bus) txSpans.push_back(&e);
  }

  // Every phase span ends exactly at the cycle stamped on the matching
  // observer callback, and covers exactly the callback's phase length.
  ASSERT_EQ(addrSpans.size(), log.addrCycles.size());
  for (std::size_t i = 0; i < addrSpans.size(); ++i) {
    EXPECT_EQ(addrSpans[i]->ts + addrSpans[i]->dur, log.addrCycles[i])
        << "addr span " << i;
    EXPECT_EQ(addrSpans[i]->dur + 1, log.addrLens[i]) << "addr span " << i;
  }
  ASSERT_EQ(dataSpans.size(), log.dataCycles.size());
  for (std::size_t i = 0; i < dataSpans.size(); ++i) {
    EXPECT_EQ(dataSpans[i]->ts + dataSpans[i]->dur, log.dataCycles[i])
        << "data span " << i;
    EXPECT_EQ(dataSpans[i]->dur + 1, log.dataLens[i]) << "data span " << i;
  }

  // Transaction spans mirror the request records: the multiset of
  // (accept, finish) pairs is identical (emission order on same-cycle
  // ties is a unit-scheduling detail, so compare sorted).
  ASSERT_EQ(txSpans.size(), t.size());
  std::vector<std::pair<std::uint64_t, std::uint64_t>> fromSpans, fromReqs;
  for (const obs::TraceRecorder::Event* e : txSpans) {
    fromSpans.emplace_back(e->ts, e->ts + e->dur);
  }
  for (const bus::Tl2Request& r : master.requests()) {
    fromReqs.emplace_back(r.acceptCycle, r.finishCycle);
  }
  std::sort(fromSpans.begin(), fromSpans.end());
  std::sort(fromReqs.begin(), fromReqs.end());
  EXPECT_EQ(fromSpans, fromReqs);
}

TEST(TraceRecorderTest, Tl2SpanCyclesIdenticalWithAndWithoutObserver) {
  // Attaching an observer must not change a single span: the bus
  // retires boundaries lazily after clock warps either way.
  auto collect = [](bool withObserver) {
    testbench::Tl2Bench tb;
    PhaseCycleLog log;
    if (withObserver) tb.bus.addObserver(log);
    obs::StatsRegistry reg;
    obs::TraceRecorder rec(1u << 14);
    tb.bus.attachObs(reg, &rec);
    tb.run(trace::randomMix(23, 100, testbench::bothRegions(),
                            trace::MixRatios{2, 2, 1, 1, 1}, 5));
    // Sorted (track, ts, dur) triples: the cycle numbers are the
    // contract, not the emission order on same-cycle ties.
    std::vector<std::array<std::uint64_t, 3>> cycles;
    for (std::size_t i = 0; i < rec.size(); ++i) {
      const obs::TraceRecorder::Event& e = rec.event(i);
      cycles.push_back({static_cast<std::uint64_t>(e.track), e.ts, e.dur});
    }
    std::sort(cycles.begin(), cycles.end());
    return cycles;
  };
  EXPECT_EQ(collect(false), collect(true));
}

TEST(TraceRecorderTest, ClockEmitsWarpInstants) {
  testbench::Tl2Bench tb;
  obs::StatsRegistry reg;
  obs::TraceRecorder rec(1u << 14);
  tb.clk.attachObs(reg, &rec);
  // Sparse issue gaps leave dead cycles for the clock to warp over.
  tb.run(trace::randomMix(29, 60, testbench::bothRegions(),
                          trace::MixRatios{}, 8));
  EXPECT_GT(reg.counter("clk.warps").value(), 0u);
  bool sawWarpInstant = false;
  for (std::size_t i = 0; i < rec.size(); ++i) {
    const obs::TraceRecorder::Event& e = rec.event(i);
    if (e.phase == 'i' && std::string(e.name) == "warp") sawWarpInstant = true;
  }
  EXPECT_TRUE(sawWarpInstant);
}

} // namespace
} // namespace sct
