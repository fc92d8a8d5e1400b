// The codec x workload sweep's headline contracts:
//
//  * threads=1 (sequential reference order) and threads=0 (worker
//    pool) produce BIT-IDENTICAL outcome tables — every energy double
//    and every counter — because each variant restores the same boot
//    snapshot into its worker's recycled platform.
//  * the fork-based sweep equals the boot-per-variant reference
//    (runFromBoot): restoring the snapshot is indistinguishable from
//    re-running the boot, per the ckpt restore-equivalence guarantee.
//  * bus-invert actually earns its keep on the random-data crypto
//    workload: fewer data-bus transitions and less data-bus energy
//    than the identity codec.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "enc/sweep.h"
#include "power/coeff_table.h"

namespace sct::enc {
namespace {

power::SignalEnergyTable distinctTable() {
  power::SignalEnergyTable t;
  for (std::size_t i = 0; i < bus::kSignalCount; ++i) {
    t.setCoeff_fJ(static_cast<bus::SignalId>(i),
                  1.5 + 0.25 * static_cast<double>(i));
  }
  return t;
}

const SweepRunner& runner() {
  static const SweepRunner r(distinctTable());
  return r;
}

void expectOutcomeIdentical(const EncOutcome& a, const EncOutcome& b) {
  EXPECT_EQ(a.variant.codec, b.variant.codec);
  EXPECT_EQ(a.variant.workload, b.variant.workload);
  EXPECT_EQ(a.transactions, b.transactions);
  EXPECT_EQ(a.cycles, b.cycles);
  EXPECT_EQ(a.total_fJ, b.total_fJ);
  EXPECT_EQ(a.perTxn_fJ, b.perTxn_fJ);
  EXPECT_EQ(a.dataBus_fJ, b.dataBus_fJ);
  EXPECT_EQ(a.addrBus_fJ, b.addrBus_fJ);
  EXPECT_EQ(a.dataTransitions, b.dataTransitions);
  EXPECT_EQ(a.addrTransitions, b.addrTransitions);
}

const EncOutcome& find(const std::vector<EncOutcome>& all,
                       const std::string& codec,
                       const std::string& workload) {
  for (const EncOutcome& o : all) {
    if (o.variant.codec == codec && o.variant.workload == workload) return o;
  }
  ADD_FAILURE() << "missing variant " << codec << "/" << workload;
  static const EncOutcome empty;
  return empty;
}

TEST(EncSweep, GridCoversEveryCodecWorkloadPair) {
  const auto grid = defaultGrid();
  EXPECT_EQ(grid.size(), codecNames().size() * workloadNames().size());
}

TEST(EncSweep, ThreadPoolIsBitIdenticalToSequential) {
  const auto grid = defaultGrid();
  const auto seq = runner().run(grid, 1);
  const auto pool = runner().run(grid, 0);
  ASSERT_EQ(seq.size(), grid.size());
  ASSERT_EQ(pool.size(), grid.size());
  for (std::size_t i = 0; i < grid.size(); ++i) {
    SCOPED_TRACE(grid[i].codec + "/" + grid[i].workload);
    expectOutcomeIdentical(pool[i], seq[i]);
  }
}

TEST(EncSweep, ForkedVariantsEqualBootPerVariantReference) {
  // Restoring the boot snapshot into a recycled platform must be
  // indistinguishable from booting again. The full grid, reversed, at
  // threads=1: ONE platform serves every codec and workload back to
  // back, in an order no other test uses, so master, codec or bus state
  // leaking from one variant into the next shows up against the
  // from-scratch path.
  std::vector<EncVariant> sample = defaultGrid();
  std::reverse(sample.begin(), sample.end());
  const auto forked = runner().run(sample, 1);
  ASSERT_EQ(forked.size(), sample.size());
  for (std::size_t i = 0; i < sample.size(); ++i) {
    SCOPED_TRACE(sample[i].codec + "/" + sample[i].workload);
    expectOutcomeIdentical(forked[i], runner().runFromBoot(sample[i]));
  }
}

TEST(EncSweep, OutcomesAreWellFormed) {
  const auto all = runner().run(defaultGrid(), 1);
  for (const EncOutcome& o : all) {
    SCOPED_TRACE(o.variant.codec + "/" + o.variant.workload);
    EXPECT_GT(o.transactions, 0u);
    EXPECT_GT(o.cycles, 0u);
    EXPECT_GT(o.total_fJ, 0.0);
    EXPECT_GT(o.perTxn_fJ, 0.0);
    EXPECT_GT(o.dataTransitions, 0u);
    EXPECT_GT(o.addrTransitions, 0u);
  }
}

TEST(EncSweep, BusInvertBeatsIdentityOnRandomDataCrypto) {
  const auto all = runner().run(defaultGrid(), 1);
  const EncOutcome& id = find(all, "identity", "crypto");
  const EncOutcome& bi = find(all, "bus-invert", "crypto");
  // Same workload phase, same cycle count — only the wire activity
  // differs.
  EXPECT_EQ(bi.transactions, id.transactions);
  EXPECT_EQ(bi.cycles, id.cycles);
  EXPECT_LT(bi.dataTransitions, id.dataTransitions);
  EXPECT_LT(bi.dataBus_fJ, id.dataBus_fJ);
  // A data-bus codec leaves the address bus alone.
  EXPECT_EQ(bi.addrTransitions, id.addrTransitions);
}

} // namespace
} // namespace sct::enc
