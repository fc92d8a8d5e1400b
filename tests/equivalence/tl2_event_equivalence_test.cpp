// TL2 fast-path equivalence: the event-driven schedule against the
// per-cycle reference.
//
// The layer-2 bus resolves its whole phase schedule at accept time and
// parks between boundaries (tl2_bus.h); the original per-cycle
// countdown survives behind setPerCycleProcess as the reference
// implementation. These tests drive the SAME workloads through both
// paths and require bit-identical results everywhere a master, an
// observer or a power model could look:
//  * Tl2BusStats and ReplayStats, field by field,
//  * per-request result/slave/phase lengths/accept/finish cycles,
//  * read-result payloads and final slave memory images,
//  * every observer callback, with the completion cycle it is stamped
//    with,
//  * Tl2PowerModel interval samples and accumulated energy (exact
//    equality: the attojoule total and every converted sample),
//  * the delivery contract: every observer is fed late and in bulk,
//    but in the per-cycle sequence with the per-cycle stamps, and
//    every read, attach and detach sees what the per-cycle reference
//    sees.
// Workloads sweep the interesting regimes: dense mixes (unit backlog),
// sparse issue gaps (dead-cycle warp), decode misses, wait-state
// combinations, and single-class floods that saturate the
// kMaxOutstandingPerClass backpressure.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "../testbench.h"
#include "bus/memory_slave.h"
#include "obs/stats.h"
#include "obs/trace_json.h"
#include "bus/tl2_bus.h"
#include "power/tl2_power_model.h"
#include "trace/replay_master.h"
#include "trace/workloads.h"

namespace sct {
namespace {

using bus::Kind;
using trace::BusTrace;

/// Distinct per-signal coefficients so a transition miscount on any
/// bundle shows up in the energy totals.
power::SignalEnergyTable variedTable() {
  power::SignalEnergyTable t;
  for (std::size_t i = 0; i < bus::kSignalCount; ++i) {
    t.setCoeff_fJ(static_cast<bus::SignalId>(i),
                  0.75 + 0.125 * static_cast<double>(i));
  }
  return t;
}

struct PhaseRecord {
  std::uint64_t cycle = 0;  ///< Completion cycle stamped on the callback.
  bool dataPhase = false;
  Kind kind = Kind::Read;
  bus::Address address = 0;
  std::size_t bytes = 0;
  unsigned beats = 0;
  unsigned cycles = 0;
  int slave = -1;
  bool error = false;
  std::uint64_t payloadSum = 0;  ///< Checksum of *data (pointers differ).

  bool operator==(const PhaseRecord&) const = default;
};

/// Records every observer callback together with its cycle stamp.
struct PhaseLogger : bus::Tl2Observer {
  void addressPhaseDone(const bus::Tl2PhaseInfo& i) override {
    log.push_back(make(i, false));
  }
  void dataPhaseDone(const bus::Tl2PhaseInfo& i) override {
    log.push_back(make(i, true));
  }

  std::vector<PhaseRecord> log;

 private:
  static PhaseRecord make(const bus::Tl2PhaseInfo& i, bool data) {
    PhaseRecord r;
    r.cycle = i.cycle;
    r.dataPhase = data;
    r.kind = i.kind;
    r.address = i.address;
    r.bytes = i.bytes;
    r.beats = i.beats;
    r.cycles = i.cycles;
    r.slave = i.slave;
    r.error = i.error;
    if (i.data != nullptr) {
      std::uint64_t sum = 1469598103934665603ull;
      for (std::size_t b = 0; b < i.bytes; ++b) {
        sum = (sum ^ i.data[b]) * 1099511628211ull;
      }
      r.payloadSum = sum;
    }
    return r;
  }
};

/// Samples the power model's interval method after every data phase —
/// the platform sampling pattern — so the interval stream itself is
/// pinned, not just the final total.
struct IntervalSampler final : bus::Tl2Observer {
  explicit IntervalSampler(power::Tl2PowerModel& pm) : pm_(pm) {}
  void dataPhaseDone(const bus::Tl2PhaseInfo&) override {
    samples.push_back(pm_.energySinceLastCall_fJ());
  }
  std::vector<double> samples;

 private:
  power::Tl2PowerModel& pm_;
};

struct RequestSnap {
  bus::BusStatus result = bus::BusStatus::Wait;
  int slave = -1;
  unsigned addrCycles = 0;
  unsigned dataCycles = 0;
  std::uint64_t acceptCycle = 0;
  std::uint64_t finishCycle = 0;

  bool operator==(const RequestSnap&) const = default;
};

struct RunResult {
  std::uint64_t elapsed = 0;
  bus::Tl2BusStats bus;
  trace::ReplayStats replay;
  std::vector<RequestSnap> requests;
  std::vector<std::array<std::uint8_t, 16>> readData;
  std::vector<PhaseRecord> phases;
  std::vector<double> intervals;
  std::uint64_t total_aJ = 0;
  std::vector<std::uint8_t> fastImage;
  std::vector<std::uint8_t> waitedImage;
};

/// The Tl2Bench platform with a configurable slow-window control block
/// and preloaded, realistic memory contents (read payloads matter).
struct Platform {
  sim::Kernel kernel;
  sim::Clock clk{kernel, "clk", 10};
  bus::Tl2Bus bus{clk, "ecbus_tl2"};
  bus::MemorySlave fast{"ram", testbench::fastCtl()};
  bus::MemorySlave waited;

  Platform(bool perCycle, const bus::SlaveControl& slowCtl)
      : waited("eeprom", slowCtl) {
    bus.setPerCycleProcess(perCycle);
    bus.attach(fast);
    bus.attach(waited);
    trace::fillRealistic(fast.data(), fast.sizeBytes(), 11);
    trace::fillRealistic(waited.data(), waited.sizeBytes(), 22);
  }
};

RunResult run(const BusTrace& t, bool perCycle,
              const bus::SlaveControl& slowCtl, bool withObservers = true) {
  Platform p(perCycle, slowCtl);
  power::Tl2PowerModel pm(variedTable());
  PhaseLogger logger;
  IntervalSampler sampler(pm);
  if (withObservers) {
    p.bus.addObserver(pm);
    p.bus.addObserver(logger);
    p.bus.addObserver(sampler);
  }

  trace::Tl2ReplayMaster master(p.clk, "master", p.bus, t);
  RunResult r;
  r.elapsed = master.runToCompletion();
  r.bus = p.bus.stats();
  r.replay = master.stats();
  for (const bus::Tl2Request& q : master.requests()) {
    r.requests.push_back({q.result, q.slave, q.addrCycles, q.dataCycles,
                          q.acceptCycle, q.finishCycle});
  }
  for (std::size_t i = 0; i < t.size(); ++i) {
    if (t[i].kind != Kind::Write) r.readData.push_back(master.buffer(i));
  }
  r.phases = std::move(logger.log);
  r.intervals = std::move(sampler.samples);
  r.total_aJ = pm.totalEnergy_aJ();
  r.fastImage.assign(p.fast.data(), p.fast.data() + p.fast.sizeBytes());
  r.waitedImage.assign(p.waited.data(),
                       p.waited.data() + p.waited.sizeBytes());
  return r;
}

void expectBusStatsEqual(const bus::Tl2BusStats& ev,
                         const bus::Tl2BusStats& pc) {
  EXPECT_EQ(ev.cycles, pc.cycles);
  EXPECT_EQ(ev.busyCycles, pc.busyCycles);
  EXPECT_EQ(ev.instrTransactions, pc.instrTransactions);
  EXPECT_EQ(ev.readTransactions, pc.readTransactions);
  EXPECT_EQ(ev.writeTransactions, pc.writeTransactions);
  EXPECT_EQ(ev.errors, pc.errors);
  EXPECT_EQ(ev.bytesRead, pc.bytesRead);
  EXPECT_EQ(ev.bytesWritten, pc.bytesWritten);
}

void expectReplayStatsEqual(const trace::ReplayStats& ev,
                            const trace::ReplayStats& pc) {
  EXPECT_EQ(ev.completed, pc.completed);
  EXPECT_EQ(ev.errors, pc.errors);
  EXPECT_EQ(ev.issueStallCycles, pc.issueStallCycles);
  EXPECT_EQ(ev.finishCycle, pc.finishCycle);
}

/// `ev` = event-driven run, `pc` = per-cycle reference run.
void expectIdentical(const RunResult& ev, const RunResult& pc) {
  EXPECT_EQ(ev.elapsed, pc.elapsed);
  expectBusStatsEqual(ev.bus, pc.bus);
  expectReplayStatsEqual(ev.replay, pc.replay);

  ASSERT_EQ(ev.requests.size(), pc.requests.size());
  for (std::size_t i = 0; i < pc.requests.size(); ++i) {
    const RequestSnap& a = ev.requests[i];
    const RequestSnap& b = pc.requests[i];
    EXPECT_EQ(a.result, b.result) << "request " << i;
    EXPECT_EQ(a.slave, b.slave) << "request " << i;
    EXPECT_EQ(a.addrCycles, b.addrCycles) << "request " << i;
    EXPECT_EQ(a.dataCycles, b.dataCycles) << "request " << i;
    EXPECT_EQ(a.acceptCycle, b.acceptCycle) << "request " << i;
    EXPECT_EQ(a.finishCycle, b.finishCycle) << "request " << i;
  }

  ASSERT_EQ(ev.readData.size(), pc.readData.size());
  for (std::size_t i = 0; i < pc.readData.size(); ++i) {
    EXPECT_EQ(ev.readData[i], pc.readData[i]) << "read payload " << i;
  }

  ASSERT_EQ(ev.phases.size(), pc.phases.size());
  for (std::size_t i = 0; i < pc.phases.size(); ++i) {
    EXPECT_EQ(ev.phases[i], pc.phases[i])
        << "callback " << i << ": event stamp " << ev.phases[i].cycle
        << " vs per-cycle " << pc.phases[i].cycle;
  }

  ASSERT_EQ(ev.intervals.size(), pc.intervals.size());
  for (std::size_t i = 0; i < pc.intervals.size(); ++i) {
    EXPECT_EQ(ev.intervals[i], pc.intervals[i]) << "interval sample " << i;
  }
  EXPECT_EQ(ev.total_aJ, pc.total_aJ);

  EXPECT_EQ(ev.fastImage, pc.fastImage);
  EXPECT_EQ(ev.waitedImage, pc.waitedImage);
}

trace::MixRatios fullMix() {
  trace::MixRatios mix;
  mix.instrFetch = 1;
  return mix;
}

class Tl2EventSeedTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(Tl2EventSeedTest, DenseMixBitIdentical) {
  const auto regions = testbench::bothRegions();
  const BusTrace t = trace::randomMix(GetParam(), 400, regions, fullMix(),
                                      /*issueGapMax=*/0);
  expectIdentical(run(t, /*perCycle=*/false, testbench::waitedCtl()),
                  run(t, /*perCycle=*/true, testbench::waitedCtl()));
}

TEST_P(Tl2EventSeedTest, SparseIssueGapsBitIdentical) {
  // Long idle spans between transactions: the regime where the
  // event-driven clock warps over dead cycles.
  const auto regions = testbench::bothRegions();
  const BusTrace t = trace::randomMix(GetParam() + 5000, 150, regions,
                                      fullMix(), /*issueGapMax=*/120);
  expectIdentical(run(t, false, testbench::waitedCtl()),
                  run(t, true, testbench::waitedCtl()));
}

TEST_P(Tl2EventSeedTest, DecodeMissesBitIdentical) {
  // A third region outside every slave window: those transactions
  // error out of the address phase (no data phase, missFinishCycles_
  // path in event mode).
  auto regions = testbench::bothRegions();
  regions.push_back(trace::TargetRegion{0x40000, 0x1000, true, true, true});
  const BusTrace t = trace::randomMix(GetParam() + 9000, 300, regions,
                                      fullMix(), /*issueGapMax=*/2);
  expectIdentical(run(t, false, testbench::waitedCtl()),
                  run(t, true, testbench::waitedCtl()));
}

INSTANTIATE_TEST_SUITE_P(Seeds, Tl2EventSeedTest,
                         ::testing::Values(1u, 2u, 3u, 42u));

TEST(Tl2EventEquivalence, WaitStateSweep) {
  // {addrWait, readWait, writeWait, burstBeatWait} combinations on the
  // slow window, including zero-wait and strongly asymmetric cases.
  const std::array<std::array<unsigned, 4>, 6> combos = {{
      {0, 0, 0, 0},
      {1, 0, 0, 0},
      {0, 3, 1, 0},
      {2, 1, 4, 1},
      {3, 5, 2, 2},
      {0, 0, 7, 3},
  }};
  const auto regions = testbench::bothRegions();
  for (std::size_t i = 0; i < combos.size(); ++i) {
    bus::SlaveControl ctl = testbench::waitedCtl();
    ctl.addrWait = combos[i][0];
    ctl.readWait = combos[i][1];
    ctl.writeWait = combos[i][2];
    ctl.burstBeatWait = combos[i][3];
    const BusTrace t = trace::randomMix(900 + i, 200, regions, fullMix(),
                                        /*issueGapMax=*/1);
    SCOPED_TRACE("wait combo " + std::to_string(i));
    expectIdentical(run(t, false, ctl), run(t, true, ctl));
  }
}

TEST(Tl2EventEquivalence, PerClassSaturation) {
  // Back-to-back floods of a single class: in-flight reaches
  // kMaxOutstandingPerClass and issue sees backpressure, so the
  // event-mode stall accounting must agree with the per-cycle count.
  const auto regions = testbench::bothRegions();
  for (int cls = 0; cls < 4; ++cls) {
    trace::MixRatios mix;
    mix.singleRead = cls == 0;
    mix.singleWrite = cls == 1;
    mix.burstRead = 0;
    mix.burstWrite = cls == 2;
    mix.instrFetch = cls == 3;
    const BusTrace t = trace::randomMix(7700 + static_cast<unsigned>(cls),
                                        250, regions, mix, /*issueGapMax=*/0);
    SCOPED_TRACE("class " + std::to_string(cls));
    expectIdentical(run(t, false, testbench::waitedCtl()),
                    run(t, true, testbench::waitedCtl()));
  }
}

TEST(Tl2EventEquivalence, ObserverFreeLazyRetirementAgrees) {
  // With no observer attached, only the master's own polls bring the
  // event-driven bus current; every stage transition and statistic is
  // retired lazily from the interface entry points. Results must still
  // be bit-identical to per-cycle processing.
  const auto regions = testbench::bothRegions();
  const BusTrace t =
      trace::randomMix(77, 300, regions, fullMix(), /*issueGapMax=*/2);
  expectIdentical(run(t, false, testbench::waitedCtl(), false),
                  run(t, true, testbench::waitedCtl(), false));
}

/// One mid-run snapshot of everything an external probe can see.
struct MidRunSnap {
  std::uint64_t cycle = 0;
  bool idle = false;
  bus::Tl2BusStats bus;
  std::uint64_t completed = 0;
  std::uint64_t issueStallCycles = 0;
};

std::vector<MidRunSnap> chunkedRun(const BusTrace& t, bool perCycle) {
  Platform p(perCycle, testbench::waitedCtl());
  trace::Tl2ReplayMaster master(p.clk, "master", p.bus, t);
  std::vector<MidRunSnap> snaps;
  while (!master.done()) {
    master.runToCompletion(/*maxCycles=*/37);
    MidRunSnap s;
    s.cycle = p.clk.cycle();
    s.idle = p.bus.idle();
    s.bus = p.bus.stats();
    s.completed = master.stats().completed;
    s.issueStallCycles = master.stats().issueStallCycles;
    snaps.push_back(s);
  }
  return snaps;
}

TEST(Tl2EventEquivalence, MidRunStatsQueriesAgree) {
  // stats()/idle() polled every 37 cycles while transactions are in
  // flight: the lazy counters must be brought current at the query
  // cycle, not only at completion.
  const auto regions = testbench::bothRegions();
  const BusTrace t =
      trace::randomMix(31, 200, regions, fullMix(), /*issueGapMax=*/4);
  const auto ev = chunkedRun(t, false);
  const auto pc = chunkedRun(t, true);
  ASSERT_EQ(ev.size(), pc.size());
  for (std::size_t i = 0; i < pc.size(); ++i) {
    SCOPED_TRACE("snapshot " + std::to_string(i));
    EXPECT_EQ(ev[i].cycle, pc[i].cycle);
    EXPECT_EQ(ev[i].idle, pc[i].idle);
    expectBusStatsEqual(ev[i].bus, pc[i].bus);
    EXPECT_EQ(ev[i].completed, pc[i].completed);
    EXPECT_EQ(ev[i].issueStallCycles, pc[i].issueStallCycles);
  }
}

struct AttachRunResult {
  std::vector<PhaseRecord> phases;
  std::vector<double> intervals;
  std::uint64_t total_aJ = 0;
  bus::Tl2BusStats bus;
  std::uint64_t finishCycle = 0;
};

AttachRunResult attachMidRun(const BusTrace& t, bool perCycle) {
  Platform p(perCycle, testbench::waitedCtl());
  power::Tl2PowerModel pm(variedTable());
  PhaseLogger logger;
  IntervalSampler sampler(pm);
  trace::Tl2ReplayMaster master(p.clk, "master", p.bus, t);
  master.runToCompletion(/*maxCycles=*/61);
  p.bus.addObserver(pm);
  p.bus.addObserver(logger);
  p.bus.addObserver(sampler);
  master.runToCompletion();
  AttachRunResult r;
  r.phases = std::move(logger.log);
  r.intervals = std::move(sampler.samples);
  r.total_aJ = pm.totalEnergy_aJ();
  r.bus = p.bus.stats();
  r.finishCycle = master.stats().finishCycle;
  return r;
}

TEST(Tl2EventEquivalence, ObserverAttachMidRunAgrees) {
  // 61 cycles run observer-free, then the power model, a logger and a
  // sampler attach. Phases completed before the attach are never
  // reported in either mode; everything after must match stamp for
  // stamp and joule for joule.
  const auto regions = testbench::bothRegions();
  const BusTrace t =
      trace::randomMix(53, 200, regions, fullMix(), /*issueGapMax=*/1);
  const AttachRunResult ev = attachMidRun(t, false);
  const AttachRunResult pc = attachMidRun(t, true);

  ASSERT_EQ(ev.phases.size(), pc.phases.size());
  for (std::size_t i = 0; i < pc.phases.size(); ++i) {
    EXPECT_EQ(ev.phases[i], pc.phases[i]) << "callback " << i;
  }
  ASSERT_EQ(ev.intervals.size(), pc.intervals.size());
  for (std::size_t i = 0; i < pc.intervals.size(); ++i) {
    EXPECT_EQ(ev.intervals[i], pc.intervals[i]) << "interval sample " << i;
  }
  EXPECT_EQ(ev.total_aJ, pc.total_aJ);
  expectBusStatsEqual(ev.bus, pc.bus);
  EXPECT_EQ(ev.finishCycle, pc.finishCycle);
}

// ---------------------------------------------------------------------------
// Delivery contract. Every observer is fed late: the event-driven bus
// never wakes for one and delivers passed phases in bulk, and every
// read of the model first brings the bus current. Each case pins a
// read, attach or detach pattern against the per-cycle reference,
// where every observer is fed on its own edge.

struct CycleSamples {
  std::vector<double> intervals;
  std::vector<std::uint64_t> totals;
};

CycleSamples sampleEveryCycle(const BusTrace& t, bool perCycle) {
  Platform p(perCycle, testbench::waitedCtl());
  power::Tl2PowerModel pm(variedTable());
  p.bus.addObserver(pm);
  trace::Tl2ReplayMaster master(p.clk, "master", p.bus, t);
  CycleSamples s;
  while (!master.done()) {
    p.clk.runCycles(1);
    s.intervals.push_back(pm.energySinceLastCall_fJ());
    s.totals.push_back(pm.totalEnergy_aJ());
  }
  return s;
}

TEST(Tl2DeliveryContract, ModelReadEveryCycleAgrees) {
  // bench/fig6_sampling's pattern: the model alone, its interval method
  // and its total read after every cycle. The event-driven bus feeds it
  // only when read, yet every sample must match.
  const auto regions = testbench::bothRegions();
  for (const unsigned gap : {0u, 2u, 9u}) {
    SCOPED_TRACE("issue gap " + std::to_string(gap));
    const BusTrace t =
        trace::randomMix(610 + gap, 150, regions, fullMix(), gap);
    const CycleSamples ev = sampleEveryCycle(t, false);
    const CycleSamples pc = sampleEveryCycle(t, true);
    EXPECT_EQ(ev.intervals, pc.intervals);
    EXPECT_EQ(ev.totals, pc.totals);
  }
}

std::vector<PhaseRecord> logAlone(const BusTrace& t, bool perCycle) {
  Platform p(perCycle, testbench::waitedCtl());
  PhaseLogger logger;
  p.bus.addObserver(logger);
  trace::Tl2ReplayMaster master(p.clk, "master", p.bus, t);
  master.runToCompletion();
  return std::move(logger.log);
}

TEST(Tl2DeliveryContract, LoggerAloneSeesThePerCycleSequence) {
  // Alone on the event-driven bus, a logger is fed in bulk, late. Its
  // sequence — every field, the cycle stamp, and the payload checksum
  // read at delivery — must equal the per-cycle reference's.
  auto missRegions = testbench::bothRegions();
  missRegions.push_back(trace::TargetRegion{0x40000, 0x1000, true, true, true});
  const std::array<BusTrace, 3> traces = {
      trace::randomMix(71, 300, testbench::bothRegions(), fullMix(), 0),
      trace::randomMix(72, 150, testbench::bothRegions(), fullMix(), 40),
      trace::randomMix(73, 300, missRegions, fullMix(), 2),
  };
  for (std::size_t i = 0; i < traces.size(); ++i) {
    SCOPED_TRACE("trace " + std::to_string(i));
    const std::vector<PhaseRecord> late = logAlone(traces[i], false);
    const std::vector<PhaseRecord> reference = logAlone(traces[i], true);
    ASSERT_EQ(late.size(), reference.size());
    for (std::size_t k = 0; k < reference.size(); ++k) {
      EXPECT_EQ(late[k], reference[k]) << "callback " << k;
    }
  }
}

/// A logger that detaches itself from inside its `limit`-th callback
/// (never, for 0).
struct SelfDetachingLogger final : PhaseLogger {
  SelfDetachingLogger(bus::Tl2Bus& bus, std::size_t limit)
      : owner_(bus), limit_(limit) {}
  void addressPhaseDone(const bus::Tl2PhaseInfo& i) override {
    PhaseLogger::addressPhaseDone(i);
    maybeDetach();
  }
  void dataPhaseDone(const bus::Tl2PhaseInfo& i) override {
    PhaseLogger::dataPhaseDone(i);
    maybeDetach();
  }

 private:
  void maybeDetach() {
    if (log.size() == limit_) owner_.removeObserver(*this);
  }
  bus::Tl2Bus& owner_;
  std::size_t limit_;
};

struct ProbeResult {
  std::size_t transitions = 0;  ///< Park/wake of the bus's handler.
  std::vector<PhaseRecord> logged;
  std::vector<PhaseRecord> selfDetached;
  std::uint64_t total_aJ = 0;
};

/// Replays `t` on the event-driven bus with the model, a logger and a
/// logger that leaves from inside its 150th callback attached, and
/// counts the park and wake transitions of the bus's falling handler
/// from the clock's trace hooks. A handler that is parked for good at
/// construction and never re-parked or woken is never dispatched.
ProbeResult probeBusProcess(const BusTrace& t) {
  sim::Kernel kernel;
  sim::Clock clk{kernel, "clk", 10};
  obs::StatsRegistry reg;
  obs::TraceRecorder rec(1u << 16);
  clk.attachObs(reg, &rec);
  bus::Tl2Bus bus{clk, "ecbus_tl2"};
  // The constructor parks the bus's handler until further notice: the
  // first transition the clock records, naming the handler.
  EXPECT_EQ(rec.size(), 1u);
  const std::uint64_t handler = rec.event(0).a0.value;
  EXPECT_EQ(rec.event(0).a1.value, sim::Clock::kNeverWake);

  bus::MemorySlave fast{"ram", testbench::fastCtl()};
  bus::MemorySlave waited{"eeprom", testbench::waitedCtl()};
  bus.attach(fast);
  bus.attach(waited);
  trace::fillRealistic(fast.data(), fast.sizeBytes(), 11);
  trace::fillRealistic(waited.data(), waited.sizeBytes(), 22);
  power::Tl2PowerModel pm(variedTable());
  PhaseLogger logger;
  SelfDetachingLogger leaver(bus, 150);
  bus.addObserver(pm);
  bus.addObserver(logger);
  bus.addObserver(leaver);
  trace::Tl2ReplayMaster master(clk, "master", bus, t);
  master.runToCompletion();

  ProbeResult r;
  r.total_aJ = pm.totalEnergy_aJ();
  r.logged = std::move(logger.log);
  r.selfDetached = std::move(leaver.log);
  EXPECT_EQ(rec.dropped(), 0u);
  for (std::size_t i = 1; i < rec.size(); ++i) {
    const obs::TraceRecorder::Event& e = rec.event(i);
    const std::string_view name = e.name;
    if ((name == "park" || name == "wake") && e.a0.value == handler) {
      ++r.transitions;
    }
  }
  return r;
}

TEST(Tl2DeliveryContract, NoObserverWakesTheEventDrivenBus) {
  // A dense run with the model, a logger and a self-detaching logger
  // attached: the bus's falling handler is dispatched 0 times, yet the
  // model ends on the per-cycle reference's energy and both logs match
  // the reference's callbacks, cycle stamps included.
  const BusTrace t = trace::randomMix(88, 400, testbench::bothRegions(),
                                      fullMix(), /*issueGapMax=*/0);
  const ProbeResult probe = probeBusProcess(t);
  const RunResult reference = run(t, /*perCycle=*/true, testbench::waitedCtl());
  EXPECT_EQ(probe.transitions, 0u);
  EXPECT_EQ(probe.total_aJ, reference.total_aJ);
  EXPECT_EQ(probe.logged, reference.phases);
  ASSERT_EQ(probe.selfDetached.size(), 150u);
  EXPECT_TRUE(std::equal(probe.selfDetached.begin(), probe.selfDetached.end(),
                         reference.phases.begin()));
}

struct DetachResult {
  std::uint64_t total_aJ = 0;
  std::size_t fedByDetach = 0;  ///< Phases the attach or detach delivered.
  std::vector<PhaseRecord> witness;
};

DetachResult detachModelMidRun(const BusTrace& t, bool perCycle) {
  Platform p(perCycle, testbench::waitedCtl());
  power::Tl2PowerModel pm(variedTable());
  PhaseLogger witness;
  p.bus.addObserver(pm);
  p.bus.addObserver(witness);
  trace::Tl2ReplayMaster master(p.clk, "master", p.bus, t);
  master.runToCompletion(/*maxCycles=*/61);
  const std::size_t before = witness.log.size();
  p.bus.removeObserver(pm);
  DetachResult r;
  r.fedByDetach = witness.log.size() - before;
  master.runToCompletion();
  r.total_aJ = pm.totalEnergy_aJ();
  r.witness = std::move(witness.log);
  return r;
}

TEST(Tl2DeliveryContract, DetachedModelKeepsExactlyThePhasesBeforeTheDetach) {
  // The model leaves after 61 cycles while passed boundaries are still
  // pending on the event-driven bus. The detach feeds them first, so the
  // model ends with exactly the energy the per-cycle reference gave it
  // by then, and the witness that stays sees every phase once.
  const BusTrace t = trace::randomMix(91, 200, testbench::bothRegions(),
                                      fullMix(), /*issueGapMax=*/0);
  const DetachResult ev = detachModelMidRun(t, false);
  const DetachResult pc = detachModelMidRun(t, true);
  EXPECT_GT(ev.fedByDetach, 0u);  // Boundaries were pending.
  EXPECT_EQ(pc.fedByDetach, 0u);
  EXPECT_EQ(ev.total_aJ, pc.total_aJ);
  EXPECT_EQ(ev.witness, pc.witness);
  EXPECT_GT(ev.total_aJ, 0u);
  EXPECT_LT(ev.total_aJ,
            run(t, /*perCycle=*/true, testbench::waitedCtl()).total_aJ);
}

DetachResult attachModelMidRun(const BusTrace& t, bool perCycle) {
  Platform p(perCycle, testbench::waitedCtl());
  power::Tl2PowerModel pm(variedTable());
  PhaseLogger witness;
  p.bus.addObserver(witness);
  trace::Tl2ReplayMaster master(p.clk, "master", p.bus, t);
  master.runToCompletion(/*maxCycles=*/61);
  const std::size_t before = witness.log.size();
  p.bus.addObserver(pm);
  DetachResult r;
  r.fedByDetach = witness.log.size() - before;
  master.runToCompletion();
  r.total_aJ = pm.totalEnergy_aJ();
  r.witness = std::move(witness.log);
  return r;
}

TEST(Tl2DeliveryContract, AttachedModelSeesOnlyThePhasesAfterTheAttach) {
  // The mirror case: the model arrives after 61 cycles while passed
  // boundaries are pending. The attach feeds them to the observers
  // already there first, so the model never sees a phase that
  // completed before it came.
  const BusTrace t = trace::randomMix(92, 200, testbench::bothRegions(),
                                      fullMix(), /*issueGapMax=*/0);
  const DetachResult ev = attachModelMidRun(t, false);
  const DetachResult pc = attachModelMidRun(t, true);
  EXPECT_GT(ev.fedByDetach, 0u);  // Boundaries were pending.
  EXPECT_EQ(pc.fedByDetach, 0u);
  EXPECT_EQ(ev.total_aJ, pc.total_aJ);
  EXPECT_EQ(ev.witness, pc.witness);
  EXPECT_GT(ev.total_aJ, 0u);
}

/// Reads the model inside its callbacks: the interval method in data
/// callbacks (like IntervalSampler), the total in address callbacks.
struct ModelReader final : bus::Tl2Observer {
  explicit ModelReader(power::Tl2PowerModel& pm) : pm_(pm) {}
  void addressPhaseDone(const bus::Tl2PhaseInfo&) override {
    totals.push_back(pm_.totalEnergy_aJ());
  }
  void dataPhaseDone(const bus::Tl2PhaseInfo&) override {
    intervals.push_back(pm_.energySinceLastCall_fJ());
  }
  std::vector<std::uint64_t> totals;
  std::vector<double> intervals;

 private:
  power::Tl2PowerModel& pm_;
};

struct ReaderResult {
  std::vector<std::uint64_t> totals;
  std::vector<double> intervals;
  std::uint64_t final_aJ = 0;
};

ReaderResult readModelBeforeItIsFed(const BusTrace& t, bool perCycle) {
  Platform p(perCycle, testbench::waitedCtl());
  power::Tl2PowerModel pm(variedTable());
  ModelReader reader(pm);
  p.bus.addObserver(reader);
  p.bus.addObserver(pm);
  trace::Tl2ReplayMaster master(p.clk, "master", p.bus, t);
  master.runToCompletion();
  return {std::move(reader.totals), std::move(reader.intervals),
          pm.totalEnergy_aJ()};
}

TEST(Tl2DeliveryContract, ObserverReadingTheModelBeforeItIsFedAgrees) {
  // An observer registered BEFORE the model reads it inside every
  // callback, so each read comes before the model is fed that phase.
  // The read runs inside a retirement and must deliver nothing early.
  // (IntervalSampler, registered after the model, covers the other
  // order in every run() above.)
  const BusTrace t = trace::randomMix(97, 300, testbench::bothRegions(),
                                      fullMix(), /*issueGapMax=*/1);
  const ReaderResult ev = readModelBeforeItIsFed(t, false);
  const ReaderResult pc = readModelBeforeItIsFed(t, true);
  EXPECT_FALSE(ev.totals.empty());
  EXPECT_EQ(ev.totals, pc.totals);
  EXPECT_EQ(ev.intervals, pc.intervals);
  EXPECT_EQ(ev.final_aJ, pc.final_aJ);
}

struct LeavesResult {
  std::vector<PhaseRecord> leaver;
  std::vector<PhaseRecord> witness;
  std::uint64_t total_aJ = 0;
};

/// Model, witness and one more logger; the logger leaves mid-run —
/// from inside its own 150th callback (`fromInside`), or between
/// cycles after 70 cycles.
LeavesResult loggerLeaves(const BusTrace& t, bool perCycle, bool fromInside) {
  Platform p(perCycle, testbench::waitedCtl());
  power::Tl2PowerModel pm(variedTable());
  PhaseLogger witness;
  SelfDetachingLogger leaver(p.bus, fromInside ? 150 : 0);
  p.bus.addObserver(pm);
  p.bus.addObserver(leaver);
  p.bus.addObserver(witness);
  trace::Tl2ReplayMaster master(p.clk, "master", p.bus, t);
  if (!fromInside) {
    master.runToCompletion(/*maxCycles=*/70);
    p.bus.removeObserver(leaver);
  }
  master.runToCompletion();
  LeavesResult r;
  r.leaver = std::move(leaver.log);
  r.witness = std::move(witness.log);
  r.total_aJ = pm.totalEnergy_aJ();
  return r;
}

TEST(Tl2DeliveryContract, LoggerLeavingMidRunLosesNothing) {
  // A logger leaves while the model and a witness stay, with passed
  // boundaries pending on the event-driven bus. No phase may be lost
  // or doubled for those who stay, and the leaver's log must end where
  // the per-cycle reference's does, either way.
  const BusTrace t = trace::randomMix(99, 250, testbench::bothRegions(),
                                      fullMix(), /*issueGapMax=*/1);
  for (const bool fromInside : {false, true}) {
    SCOPED_TRACE(fromInside ? "detached inside a callback"
                            : "detached between cycles");
    const LeavesResult ev = loggerLeaves(t, false, fromInside);
    const LeavesResult pc = loggerLeaves(t, true, fromInside);
    EXPECT_FALSE(ev.leaver.empty());
    EXPECT_LT(ev.leaver.size(), ev.witness.size());
    EXPECT_EQ(ev.leaver, pc.leaver);  // Cycle stamps included.
    EXPECT_EQ(ev.witness, pc.witness);
    EXPECT_EQ(ev.total_aJ, pc.total_aJ);
    EXPECT_EQ(ev.total_aJ,
              run(t, /*perCycle=*/true, testbench::waitedCtl()).total_aJ);
  }
}

} // namespace
} // namespace sct
