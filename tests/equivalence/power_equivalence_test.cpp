// The optimized layer-1 energy hot path against a naive reference.
//
// Tl1PowerModel::busCycleEnd was restructured for speed: early-out on
// unchanged frames, XOR + popcount Hamming distances, and direct
// indexing of the flat coefficient array instead of a table lookup per
// signal. None of that may change the numbers: this test replays
// random-mix workloads with the production model and an independently
// written naive observer (per-signal coeff_aJ, no early-out) attached
// to the same bus, and requires identical accumulated attojoules and
// transition counts.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "../testbench.h"
#include "bus/ec_signals.h"
#include "ckpt/state_io.h"
#include "enc/codecs.h"
#include "obs/ledger.h"
#include "power/tl1_power_model.h"
#include "trace/workloads.h"

namespace sct {
namespace {

using bus::SignalId;
using testbench::Tl1Bench;

/// Straight-line reimplementation of the layer-1 TL-to-RTL adapter the
/// way the original (pre-fast-path) code computed it: reconstruct the
/// signal frame from the bus phases, then walk every signal, take
/// hammingDistance and price it with coeff_aJ — unconditionally.
struct NaiveTl1Energy final : bus::Tl1Observer {
  explicit NaiveTl1Energy(const power::SignalEnergyTable& table)
      : table(table) {}

  void busCycleBegin(std::uint64_t) override {
    next = prev;
    next.set(SignalId::EB_AValid, 0);
    next.set(SignalId::EB_ARdy, 0);
    next.set(SignalId::EB_RdVal, 0);
    next.set(SignalId::EB_RBErr, 0);
    next.set(SignalId::EB_WDRdy, 0);
    next.set(SignalId::EB_WBErr, 0);
    next.set(SignalId::EB_Last, 0);
  }

  void addressPhase(const bus::AddressPhaseInfo& info) override {
    next.set(SignalId::EB_A, info.address);
    next.set(SignalId::EB_Instr, info.kind == bus::Kind::InstrFetch);
    next.set(SignalId::EB_Write, info.kind == bus::Kind::Write);
    next.set(SignalId::EB_Burst, info.beats > 1);
    next.set(SignalId::EB_BE, info.byteEnables);
    next.set(SignalId::EB_AValid, 1);
    next.set(SignalId::EB_Sel,
             info.error ? 0 : bus::AddressDecoder::selectMask(info.slave));
    if (info.accepted && !info.error) next.set(SignalId::EB_ARdy, 1);
  }

  void readBeat(const bus::DataBeatInfo& info) override {
    if (info.error) {
      next.set(SignalId::EB_RBErr, 1);
      next.set(SignalId::EB_Last, 1);
      return;
    }
    next.set(SignalId::EB_RData, info.data);
    next.set(SignalId::EB_RdVal, 1);
    if (info.last) next.set(SignalId::EB_Last, 1);
  }

  void writeBeat(const bus::DataBeatInfo& info) override {
    if (info.error) {
      next.set(SignalId::EB_WBErr, 1);
      next.set(SignalId::EB_Last, 1);
      return;
    }
    next.set(SignalId::EB_WData, info.data);
    next.set(SignalId::EB_WDRdy, 1);
    if (info.last) next.set(SignalId::EB_Last, 1);
  }

  void busCycleEnd(std::uint64_t) override {
    for (std::size_t i = 0; i < bus::kSignalCount; ++i) {
      const SignalId id = static_cast<SignalId>(i);
      const unsigned n = bus::hammingDistance(id, prev.get(id), next.get(id));
      transitions[i] += n;
      total_aJ += table.coeff_aJ(id) * n;
    }
    prev = next;
  }

  power::SignalEnergyTable table;
  bus::SignalFrame prev;
  bus::SignalFrame next;
  std::array<std::uint64_t, bus::kSignalCount> transitions{};
  std::uint64_t total_aJ = 0;
};

power::SignalEnergyTable distinctTable() {
  power::SignalEnergyTable t;
  for (std::size_t i = 0; i < bus::kSignalCount; ++i) {
    // Distinct, irrational-ish coefficients so a reordering or a
    // dropped term cannot cancel out.
    t.setCoeff_fJ(static_cast<SignalId>(i),
                  7.25 + 1.0 / static_cast<double>(3 * i + 1));
  }
  return t;
}

class PowerEquivalenceSeedTest
    : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(PowerEquivalenceSeedTest, FastPathEnergyBitIdenticalToNaive) {
  const auto table = distinctTable();
  trace::MixRatios mix;
  mix.instrFetch = 1;
  const trace::BusTrace workload =
      trace::randomMix(GetParam(), 400, testbench::bothRegions(), mix,
                       /*issueGapMax=*/3);

  Tl1Bench bench;
  power::Tl1PowerModel fast(table);
  NaiveTl1Energy naive(table);
  bench.bus.addObserver(fast);
  bench.bus.addObserver(naive);
  bench.run(workload);

  // Equal, not approximately equal: the fast path must count the same
  // transitions and price them with the same coefficients.
  EXPECT_EQ(fast.totalEnergy_aJ(), naive.total_aJ) << "seed " << GetParam();
  EXPECT_GT(fast.totalEnergy_aJ(), 0u);
  for (std::size_t i = 0; i < bus::kSignalCount; ++i) {
    EXPECT_EQ(fast.transitions(static_cast<SignalId>(i)),
              naive.transitions[i])
        << "signal " << bus::signalName(static_cast<SignalId>(i));
  }
}

INSTANTIATE_TEST_SUITE_P(RandomMixes, PowerEquivalenceSeedTest,
                         ::testing::Values(3u, 17u, 99u, 2024u));

/// NaiveTl1Energy plus the EB_Inv sideband, for runs with a codec
/// installed. The naive oracle never drives EB_Inv, so this wrapper
/// forwards every event to it and prices the two invert lines itself:
/// level signals that each data channel re-drives on its Ok beats.
struct NaiveTl1EnergyWithInv final : bus::Tl1Observer {
  explicit NaiveTl1EnergyWithInv(const power::SignalEnergyTable& table)
      : base(table) {}

  void busCycleBegin(std::uint64_t c) override { base.busCycleBegin(c); }
  void addressPhase(const bus::AddressPhaseInfo& info) override {
    base.addressPhase(info);
  }
  void readBeat(const bus::DataBeatInfo& info) override {
    base.readBeat(info);
    if (!info.error) drive(bus::kInvReadBit, info.invert);
  }
  void writeBeat(const bus::DataBeatInfo& info) override {
    base.writeBeat(info);
    if (!info.error) drive(bus::kInvWriteBit, info.invert);
  }
  void busCycleEnd(std::uint64_t c) override {
    base.busCycleEnd(c);
    const unsigned n = bus::hammingDistance(SignalId::EB_Inv, prevInv, inv);
    invTransitions += n;
    invTotal_aJ += base.table.coeff_aJ(SignalId::EB_Inv) * n;
    prevInv = inv;
    transitions = base.transitions;
    transitions[static_cast<std::size_t>(SignalId::EB_Inv)] += invTransitions;
    total_aJ = base.total_aJ + invTotal_aJ;
  }

  void drive(std::uint64_t bit, bool level) {
    inv = (inv & ~bit) | (level ? bit : 0);
  }

  NaiveTl1Energy base;
  std::uint64_t inv = 0;
  std::uint64_t prevInv = 0;
  std::uint64_t invTransitions = 0;
  std::uint64_t invTotal_aJ = 0;
  std::array<std::uint64_t, bus::kSignalCount> transitions{};
  std::uint64_t total_aJ = 0;
};

/// Registered after the model: reads its frame at every cycle end and
/// counts the situations the cases below claim to cover.
struct CoverageProbe final : bus::Tl1Observer {
  explicit CoverageProbe(const power::Tl1PowerModel& pm) : pm(pm) {}

  void busCycleBegin(std::uint64_t) override {
    events = 0;
    missThisCycle = false;
  }
  void addressPhase(const bus::AddressPhaseInfo& info) override {
    ++events;
    missThisCycle = missThisCycle || info.slave < 0;
  }
  void readBeat(const bus::DataBeatInfo&) override { ++events; }
  void writeBeat(const bus::DataBeatInfo&) override { ++events; }
  void busCycleEnd(std::uint64_t) override {
    const bus::SignalFrame& f = pm.frame();
    for (std::size_t k = 0; k < kHeld.size(); ++k) {
      held[k] += prev.get(kHeld[k]) != 0 && f.get(kHeld[k]) != 0;
    }
    if (missThisCycle && f.get(SignalId::EB_Sel) == 0 &&
        f.get(SignalId::EB_Last) != 0 &&
        (f.get(SignalId::EB_RBErr) | f.get(SignalId::EB_WBErr)) != 0) {
      ++misses;
    }
    if (events != 0) {
      quiet = 0;
      strobesLeftHigh = false;
      for (const SignalId s : kStrobes) {
        strobesLeftHigh = strobesLeftHigh || f.get(s) != 0;
      }
    } else if (++quiet == 2 && strobesLeftHigh) {
      ++gapsAfterHeldStrobes;
    }
    prev = f;
  }

  static constexpr std::array<SignalId, 4> kHeld{
      SignalId::EB_AValid, SignalId::EB_ARdy, SignalId::EB_RdVal,
      SignalId::EB_WDRdy};
  static constexpr std::array<SignalId, 7> kStrobes{
      SignalId::EB_AValid, SignalId::EB_ARdy,  SignalId::EB_RdVal,
      SignalId::EB_RBErr,  SignalId::EB_WDRdy, SignalId::EB_WBErr,
      SignalId::EB_Last};

  const power::Tl1PowerModel& pm;
  bus::SignalFrame prev;
  unsigned events = 0;
  bool missThisCycle = false;
  unsigned quiet = 0;
  bool strobesLeftHigh = false;
  /// Cycles a strobe of kHeld stayed high across a boundary.
  std::array<std::uint64_t, kHeld.size()> held{};
  /// Decode-miss cycles with Sel low and the error strobes and Last up.
  std::uint64_t misses = 0;
  /// Runs of at least two cycles without events after strobes were
  /// left high: the first drops them, the second is fully idle.
  std::uint64_t gapsAfterHeldStrobes = 0;
};

/// Replays `workload` with the model (driven directly from the bus
/// phases), `oracle` and a coverage probe, then requires the model to
/// match the oracle's total and every bundle's transition count.
/// Returns the probe's counts.
template <typename Oracle>
CoverageProbe runAgainst(Oracle& oracle, const trace::BusTrace& workload,
                         bus::BusCodec* codec = nullptr) {
  const auto table = distinctTable();
  Tl1Bench bench;
  bench.bus.setCodec(codec);
  power::Tl1PowerModel model(table);
  CoverageProbe probe(model);
  bench.bus.addObserver(model);
  bench.bus.addObserver(oracle);
  bench.bus.addObserver(probe);
  bench.run(workload);

  EXPECT_GT(model.totalEnergy_aJ(), 0u);
  EXPECT_EQ(model.totalEnergy_aJ(), oracle.total_aJ);
  for (std::size_t i = 0; i < bus::kSignalCount; ++i) {
    const SignalId id = static_cast<SignalId>(i);
    EXPECT_EQ(model.transitions(id), oracle.transitions[i])
        << "signal " << bus::signalName(id);
  }
  return probe;
}

trace::MixRatios allKinds() {
  trace::MixRatios mix;
  mix.instrFetch = 1;
  return mix;
}

TEST(PowerEquivalenceTest, DecodeMissesInLiveTraffic) {
  // Every fourth transaction is followed by a copy aimed at 0x4000, a
  // hole between the two slaves: the address phase fails at once with
  // Sel low, and the error strobe and Last rise on the data bus of the
  // transaction's class while live traffic keeps the other lanes busy.
  for (const std::uint64_t seed : {5u, 41u}) {
    SCOPED_TRACE(seed);
    const trace::BusTrace live = trace::randomMix(
        seed, 300, testbench::bothRegions(), allKinds(), /*issueGapMax=*/2);
    trace::BusTrace workload;
    for (std::size_t i = 0; i < live.size(); ++i) {
      workload.append(live[i]);
      if (i % 4 == 0) {
        trace::TraceEntry miss = live[i];
        miss.address = 0x4000 + (live[i].address & 0x0FF0);
        workload.append(miss);
      }
    }
    NaiveTl1Energy naive(distinctTable());
    const CoverageProbe probe = runAgainst(naive, workload);
    EXPECT_GT(probe.misses, 0u);
  }
}

TEST(PowerEquivalenceTest, IdleGapsAfterHeldStrobes) {
  // Issue gaps of up to 24 cycles leave the bus quiet for several
  // cycles after a transaction's last strobes: the first quiet cycle
  // prices their fall, the ones after it have nothing to price.
  for (const std::uint64_t seed : {6u, 77u}) {
    SCOPED_TRACE(seed);
    const trace::BusTrace workload = trace::randomMix(
        seed, 300, testbench::bothRegions(), allKinds(), /*issueGapMax=*/24);
    NaiveTl1Energy naive(distinctTable());
    const CoverageProbe probe = runAgainst(naive, workload);
    EXPECT_GT(probe.gapsAfterHeldStrobes, 0u);
  }
}

TEST(PowerEquivalenceTest, BackToBackBeatsHoldStrobesHigh) {
  // Back-to-back traffic on the zero-wait slave: consecutive address
  // phases keep AValid and ARdy high, and burst beats keep RdVal and
  // WDRdy high, across cycle boundaries.
  for (const std::uint64_t seed : {8u, 123u}) {
    SCOPED_TRACE(seed);
    const std::vector<trace::TargetRegion> fastOnly{testbench::fastRegion()};
    const trace::BusTrace workload = trace::randomMix(
        seed, 400, fastOnly, allKinds(), /*issueGapMax=*/0);
    NaiveTl1Energy naive(distinctTable());
    const CoverageProbe probe = runAgainst(naive, workload);
    for (std::size_t k = 0; k < probe.held.size(); ++k) {
      EXPECT_GT(probe.held[k], 0u)
          << bus::signalName(CoverageProbe::kHeld[k]) << " never held high";
    }
  }
}

TEST(PowerEquivalenceTest, CodecInstalledMatchesOracleDrivingInv) {
  // Bus-invert coding on both data buses: the wires carry encoded words
  // and the EB_Inv sideband toggles, both priced like any other lane.
  for (const std::uint64_t seed : {9u, 2025u}) {
    SCOPED_TRACE(seed);
    const trace::BusTrace workload = trace::randomMix(
        seed, 400, testbench::bothRegions(), allKinds(), /*issueGapMax=*/3);
    enc::BusInvertCodec codec;
    NaiveTl1EnergyWithInv naive(distinctTable());
    runAgainst(naive, workload, &codec);
    EXPECT_GT(naive.transitions[static_cast<std::size_t>(SignalId::EB_Inv)],
              0u);
  }
}

TEST(PowerEquivalenceTest, SecondModelOnOneBusThrows) {
  // A bus drives one model; a second would price every wire twice.
  const auto table = distinctTable();
  Tl1Bench bench;
  power::Tl1PowerModel first(table);
  power::Tl1PowerModel second(table);
  bench.bus.addObserver(first);
  try {
    bench.bus.addObserver(second);
    FAIL() << "a second model attached silently";
  } catch (const std::logic_error& e) {
    EXPECT_NE(std::string(e.what()).find("ecbus"), std::string::npos)
        << e.what();
  }
}

/// Registered before the model: at every cycle end, checks that the
/// model has already priced the cycle, by its EB_AValid lane.
struct EarlyObserver final : bus::Tl1Observer {
  explicit EarlyObserver(const power::Tl1PowerModel& pm) : pm(pm) {}

  void busCycleBegin(std::uint64_t) override { addressed = false; }
  void addressPhase(const bus::AddressPhaseInfo&) override {
    addressed = true;
  }
  void busCycleEnd(std::uint64_t) override {
    addressCycles += addressed;
    staleCycles += (pm.frame().get(SignalId::EB_AValid) != 0) != addressed;
  }

  const power::Tl1PowerModel& pm;
  bool addressed = false;
  std::uint64_t addressCycles = 0;
  std::uint64_t staleCycles = 0;
};

TEST(PowerEquivalenceTest, ModelAttachedAfterAnObserverRunsBeforeIt) {
  const trace::BusTrace workload = trace::randomMix(
      12, 200, testbench::bothRegions(), allKinds(), /*issueGapMax=*/3);
  Tl1Bench bench;
  power::Tl1PowerModel model(distinctTable());
  EarlyObserver early(model);
  NaiveTl1Energy naive(distinctTable());
  bench.bus.addObserver(early);
  bench.bus.addObserver(naive);
  bench.bus.addObserver(model);
  bench.run(workload);

  EXPECT_GT(early.addressCycles, 0u);
  EXPECT_EQ(early.staleCycles, 0u);
  EXPECT_EQ(model.totalEnergy_aJ(), naive.total_aJ);
}

std::vector<std::uint8_t> sectionOf(const power::Tl1PowerModel& pm) {
  ckpt::StateWriter w;
  pm.saveState(w);
  return w.take();
}

/// Registered after the model: logs the energy of every cycle. With
/// `ledger` set (the model's own), it then restores the model at every
/// cycle end, as restoring into a model that priced other traffic does:
/// it saves the model's section, prices a stray cycle on the model
/// (billed to a scratch ledger), so that every lane, old value, strobe
/// mask and owner holds other state, and loads the saved bytes back.
/// It counts the idle cycles after a restore with a strobe high, whose
/// fall only the restored state can price.
struct CycleLog final : bus::Tl1Observer {
  CycleLog(power::Tl1PowerModel& pm, obs::EnergyLedger* ledger)
      : pm(pm), ledger(ledger) {}

  void busCycleBegin(std::uint64_t) override { events = 0; }
  void addressPhase(const bus::AddressPhaseInfo&) override { ++events; }
  void readBeat(const bus::DataBeatInfo&) override { ++events; }
  void writeBeat(const bus::DataBeatInfo&) override { ++events; }
  void busCycleEnd(std::uint64_t) override {
    energies.push_back(pm.energyLastCycle_aJ());
    fallsAfterRestore += events == 0 && strobeHigh;
    if (ledger == nullptr) return;
    const std::vector<std::uint8_t> saved = sectionOf(pm);
    obs::EnergyLedger scratch;
    pm.attachLedger(scratch);
    pm.addressPhase({0xABCDE, bus::Kind::Write, bus::AccessSize::Word, 4,
                     0x5, /*slave=*/3, /*accepted=*/true, /*error=*/false,
                     nullptr});
    bus::DataBeatInfo beat;
    beat.kind = bus::Kind::Read;
    beat.data = 0x5A5A5A5A;
    beat.invert = true;
    beat.slave = 2;
    pm.readBeat(beat);
    beat.kind = bus::Kind::Write;
    beat.error = true;
    pm.writeBeat(beat);
    pm.busCycleEnd(0);
    pm.attachLedger(*ledger);
    ckpt::StateReader restore(saved);
    pm.loadState(restore);
    strobeHigh = false;
    for (const SignalId s : CoverageProbe::kStrobes) {
      strobeHigh = strobeHigh || pm.frame().get(s) != 0;
    }
  }

  power::Tl1PowerModel& pm;
  obs::EnergyLedger* ledger;
  unsigned events = 0;
  bool strobeHigh = false;
  std::vector<std::uint64_t> energies;
  std::uint64_t fallsAfterRestore = 0;
};

TEST(PowerEquivalenceTest, RestoreWithStrobesHighPricesTheirFall) {
  // A section saved the cycle a beat ends still has that beat's strobes
  // high; the restored model must price their fall on the next cycle,
  // exactly as the uninterrupted run does, and bill the same owners.
  const auto table = distinctTable();
  const trace::BusTrace workload = trace::randomMix(
      14, 300, testbench::bothRegions(), allKinds(), /*issueGapMax=*/6);

  Tl1Bench plainBench;
  power::Tl1PowerModel plain(table);
  obs::EnergyLedger plainLedger;
  plain.attachLedger(plainLedger);
  CycleLog plainLog(plain, nullptr);
  plainBench.bus.addObserver(plain);
  plainBench.bus.addObserver(plainLog);
  plainBench.run(workload);

  Tl1Bench restoredBench;
  power::Tl1PowerModel restored(table);
  obs::EnergyLedger restoredLedger;
  restored.attachLedger(restoredLedger);
  CycleLog restoredLog(restored, &restoredLedger);
  restoredBench.bus.addObserver(restored);
  restoredBench.bus.addObserver(restoredLog);
  restoredBench.run(workload);

  EXPECT_GT(restoredLog.fallsAfterRestore, 0u);
  EXPECT_EQ(restoredLog.energies, plainLog.energies);
  EXPECT_EQ(restored.totalEnergy_aJ(), plain.totalEnergy_aJ());
  for (std::size_t i = 0; i < bus::kSignalCount; ++i) {
    const SignalId id = static_cast<SignalId>(i);
    EXPECT_EQ(restored.transitions(id), plain.transitions(id))
        << "signal " << bus::signalName(id);
  }
  EXPECT_EQ(restoredLedger.view(), plainLedger.view());
  EXPECT_EQ(sectionOf(restored), sectionOf(plain));
}

} // namespace
} // namespace sct
