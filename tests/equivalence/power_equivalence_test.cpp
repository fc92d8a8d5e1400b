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

#include "../testbench.h"
#include "bus/ec_signals.h"
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
  power::Tl1PowerModel scalar(table);
  scalar.setPackedCounting(false);  // Force the scalar dirty-walk.
  NaiveTl1Energy naive(table);
  bench.bus.addObserver(fast);
  bench.bus.addObserver(scalar);
  bench.bus.addObserver(naive);
  bench.run(workload);

  // Equal, not approximately equal: the fast path must count the same
  // transitions and price them with the same coefficients.
  EXPECT_EQ(fast.totalEnergy_aJ(), naive.total_aJ) << "seed " << GetParam();
  EXPECT_GT(fast.totalEnergy_aJ(), 0u);
  // The packed-lane counting (wide XOR over the whole frame on busy
  // cycles) and the per-bundle scalar walk must agree term for term.
  EXPECT_EQ(fast.totalEnergy_aJ(), scalar.totalEnergy_aJ())
      << "seed " << GetParam();
  // Whether any cycle of a given random mix crosses kPackedLaneThreshold
  // is workload-dependent; PackedPathExercised below guarantees coverage
  // on a mix dense enough to take the wide pass.
  EXPECT_EQ(scalar.packedLaneCycles(), 0u);
  for (std::size_t i = 0; i < bus::kSignalCount; ++i) {
    EXPECT_EQ(fast.transitions(static_cast<SignalId>(i)),
              naive.transitions[i])
        << "signal " << bus::signalName(static_cast<SignalId>(i));
    EXPECT_EQ(fast.transitions(static_cast<SignalId>(i)),
              scalar.transitions(static_cast<SignalId>(i)))
        << "signal " << bus::signalName(static_cast<SignalId>(i));
  }
}

INSTANTIATE_TEST_SUITE_P(RandomMixes, PowerEquivalenceSeedTest,
                         ::testing::Values(3u, 17u, 99u, 2024u));

// Coverage guarantee for the packed-lane pass: a back-to-back mix of
// every transaction kind keeps flipping the address-phase control
// bundles (EB_Instr/EB_Write/EB_Burst/EB_BE) on top of the
// address/data traffic, so busy cycles dirty enough of the frame to
// cross kPackedLaneThreshold — and the wide pass must still price
// exactly the scalar walk's term sequence. (A single-kind workload
// does not qualify: its control bundles hold steady and busy cycles
// stay under the threshold, which is why the per-seed test above
// makes no packed-coverage claim.)
TEST(PowerEquivalenceTest, PackedPathExercised) {
  const auto table = distinctTable();
  trace::MixRatios mix;
  mix.instrFetch = 1;
  const trace::BusTrace workload =
      trace::randomMix(3u, 400, testbench::bothRegions(), mix,
                       /*issueGapMax=*/0);

  Tl1Bench bench;
  power::Tl1PowerModel fast(table);
  power::Tl1PowerModel scalar(table);
  scalar.setPackedCounting(false);
  NaiveTl1Energy naive(table);
  bench.bus.addObserver(fast);
  bench.bus.addObserver(scalar);
  bench.bus.addObserver(naive);
  bench.run(workload);

  EXPECT_GT(fast.packedLaneCycles(), 0u);
  EXPECT_EQ(scalar.packedLaneCycles(), 0u);
  EXPECT_EQ(fast.totalEnergy_aJ(), naive.total_aJ);
  EXPECT_EQ(fast.totalEnergy_aJ(), scalar.totalEnergy_aJ());
  for (std::size_t i = 0; i < bus::kSignalCount; ++i) {
    EXPECT_EQ(fast.transitions(static_cast<SignalId>(i)),
              naive.transitions[i])
        << "signal " << bus::signalName(static_cast<SignalId>(i));
  }
}

} // namespace
} // namespace sct
