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
//  * the cycle number of every observer callback,
//  * Tl2PowerModel interval samples and accumulated energy (exact
//    equality: the attojoule total and every converted sample).
// Workloads sweep the interesting regimes: dense mixes (unit backlog),
// sparse issue gaps (dead-cycle warp), decode misses, wait-state
// combinations, and single-class floods that saturate the
// kMaxOutstandingPerClass backpressure.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <vector>

#include "../testbench.h"
#include "bus/memory_slave.h"
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
  std::uint64_t cycle = 0;  ///< Bus cycle the callback fired on.
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

/// Records every observer callback together with the cycle it fired on.
struct PhaseLogger final : bus::Tl2Observer {
  explicit PhaseLogger(const bus::Tl2Bus& bus) : bus_(bus) {}

  void addressPhaseDone(const bus::Tl2PhaseInfo& i) override {
    log.push_back(make(i, false));
  }
  void dataPhaseDone(const bus::Tl2PhaseInfo& i) override {
    log.push_back(make(i, true));
  }

  std::vector<PhaseRecord> log;

 private:
  PhaseRecord make(const bus::Tl2PhaseInfo& i, bool data) const {
    PhaseRecord r;
    r.cycle = bus_.cycle();
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

  const bus::Tl2Bus& bus_;
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
  PhaseLogger logger(p.bus);
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
        << "callback " << i << ": event cycle " << ev.phases[i].cycle
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
  // With no observer attached the event-driven bus never wakes its
  // clock handler; every stage transition and statistic is retired
  // lazily from the interface entry points. Results must still be
  // bit-identical to per-cycle processing.
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
  PhaseLogger logger(p.bus);
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
  // 61 cycles run observer-free (event mode: boundaries retired
  // lazily), then a power model attaches. Phases completed before the
  // attach are never reported in either mode; everything after must
  // match cycle for cycle and joule for joule.
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

} // namespace
} // namespace sct
