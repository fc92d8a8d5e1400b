// The sweep determinism headline (ISSUE 8 acceptance bar): the full
// scheme × profile grid produces BIT-IDENTICAL outcomes at threads=1
// and threads=N — brownout wall cycles, checkpoint digests, energy
// doubles, everything — and a fork-adopted variant equals the
// boot-per-variant reference (restore equivalence lifted to the
// intermittent layer).
#include "eh/sweep.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>
#include <string>
#include <vector>

#include "bus/ec_signals.h"
#include "power/coeff_table.h"

namespace sct {
namespace {

power::SignalEnergyTable fixedTable() {
  power::SignalEnergyTable t;
  for (std::size_t i = 0; i < bus::kSignalCount; ++i) {
    t.setCoeff_fJ(static_cast<bus::SignalId>(i),
                  1.5 + 0.25 * static_cast<double>(i));
  }
  return t;
}

constexpr unsigned kBlocks = 16;

/// Runner config calibrated to the fixed test table: its coefficients
/// give only ~7 fJ of bus energy per cycle (measured), so the static
/// draw is raised to 3 µW to put the chip at ~9e4 fJ/cycle — the
/// characterized-table regime — and the capacitor is halved so the
/// grid's ramping "swipe" profile browns out well inside the 16-block
/// main phase (~940 sim cycles) while "constant" still sustains.
eh::RunnerConfig testConfig() {
  eh::RunnerConfig cfg;
  cfg.supply.idlePower_uW = 3.0;
  cfg.supply.capacitance_nF = 5.0;
  return cfg;
}

void expectIdentical(const eh::SweepOutcome& a, const eh::SweepOutcome& b) {
  EXPECT_EQ(a.variant.scheme, b.variant.scheme);
  EXPECT_EQ(a.variant.profile, b.variant.profile);
  EXPECT_EQ(a.variant.seed, b.variant.seed);
  const eh::RunResult& x = a.result;
  const eh::RunResult& y = b.result;
  EXPECT_EQ(x.completed, y.completed);
  EXPECT_EQ(x.wallCycles, y.wallCycles);
  EXPECT_EQ(x.activeCycles, y.activeCycles);
  EXPECT_EQ(x.deadCycles, y.deadCycles);
  EXPECT_EQ(x.overheadCycles, y.overheadCycles);
  EXPECT_EQ(x.replayedCycles, y.replayedCycles);
  EXPECT_EQ(x.simCycles, y.simCycles);
  EXPECT_EQ(x.instructions, y.instructions);
  EXPECT_EQ(x.brownouts, y.brownouts);
  EXPECT_EQ(x.backups, y.backups);
  EXPECT_EQ(x.restores, y.restores);
  EXPECT_EQ(x.hardDeaths, y.hardDeaths);
  // Exact double bit patterns — the serve/ckpt determinism discipline.
  EXPECT_EQ(x.backupEnergy_fJ, y.backupEnergy_fJ);
  EXPECT_EQ(x.restoreEnergy_fJ, y.restoreEnergy_fJ);
  EXPECT_EQ(x.harvested_fJ, y.harvested_fJ);
  EXPECT_EQ(x.consumed_fJ, y.consumed_fJ);
  EXPECT_EQ(x.finalStored_fJ, y.finalStored_fJ);
  EXPECT_EQ(x.checkpointBytes, y.checkpointBytes);
  EXPECT_EQ(x.checkpointDigest, y.checkpointDigest);
  EXPECT_EQ(x.progressWord, y.progressWord);
  EXPECT_EQ(x.digestWord, y.digestWord);
  EXPECT_EQ(x.brownoutWallCycles, y.brownoutWallCycles);
  ASSERT_EQ(x.segments.size(), y.segments.size());
  for (std::size_t i = 0; i < x.segments.size(); ++i) {
    EXPECT_EQ(x.segments[i].wallStart, y.segments[i].wallStart);
    EXPECT_EQ(x.segments[i].wallEnd, y.segments[i].wallEnd);
    EXPECT_EQ(x.segments[i].simStart, y.segments[i].simStart);
    EXPECT_EQ(x.segments[i].simEnd, y.segments[i].simEnd);
    EXPECT_EQ(x.segments[i].energy, y.segments[i].energy);
  }
}

TEST(EhSweep, FactoriesKnowTheGridNames) {
  for (const char* p : {"constant", "burst", "swipe", "noisy"}) {
    SCOPED_TRACE(p);
    EXPECT_NE(eh::makeProfile(p, 1), nullptr);
  }
  for (const char* s : {"threshold", "quiesce", "parametric"}) {
    SCOPED_TRACE(s);
    EXPECT_NE(eh::makeScheme(s), nullptr);
  }
  EXPECT_THROW(eh::makeProfile("bogus", 0), std::invalid_argument);
  EXPECT_THROW(eh::makeScheme("bogus"), std::invalid_argument);

  const std::vector<eh::SweepVariant> grid = eh::defaultGrid();
  EXPECT_EQ(grid.size(), 12u);  // 3 schemes x 4 profiles
}

TEST(EhSweep, ThreadsOneVersusManyBitIdentical) {
  const power::SignalEnergyTable table = fixedTable();
  eh::SweepRunner sweep(table, kBlocks, testConfig());
  const std::vector<eh::SweepVariant> grid = eh::defaultGrid();

  const std::vector<eh::SweepOutcome> seq = sweep.run(grid, /*threads=*/1);
  const std::vector<eh::SweepOutcome> par = sweep.run(grid, /*threads=*/4);

  ASSERT_EQ(seq.size(), grid.size());
  ASSERT_EQ(par.size(), grid.size());
  for (std::size_t i = 0; i < grid.size(); ++i) {
    SCOPED_TRACE(grid[i].scheme + "/" + grid[i].profile);
    expectIdentical(seq[i], par[i]);
  }
  // The grid is not degenerate: at least one cell browned out and at
  // least one completed.
  bool anyBrownout = false;
  bool anyCompleted = false;
  for (const eh::SweepOutcome& o : seq) {
    anyBrownout = anyBrownout || o.result.brownouts > 0;
    anyCompleted = anyCompleted || o.result.completed;
  }
  EXPECT_TRUE(anyBrownout);
  EXPECT_TRUE(anyCompleted);
}

TEST(EhSweep, ForkAdoptedEqualsBootPerVariant) {
  const power::SignalEnergyTable table = fixedTable();
  eh::SweepRunner sweep(table, kBlocks, testConfig());

  // The full grid, reversed, at threads=1: ONE recycled runner serves
  // every scheme and field back to back, in an order no other test
  // uses, so per-run state leaking from one variant into the next
  // shows up against the boot-per-variant reference.
  std::vector<eh::SweepVariant> cells = eh::defaultGrid();
  std::reverse(cells.begin(), cells.end());
  const std::vector<eh::SweepOutcome> forked = sweep.run(cells, 1);
  ASSERT_EQ(forked.size(), cells.size());
  for (std::size_t i = 0; i < cells.size(); ++i) {
    SCOPED_TRACE(cells[i].scheme + "/" + cells[i].profile);
    const eh::SweepOutcome booted = sweep.runFromBoot(cells[i]);
    expectIdentical(forked[i], booted);
  }
}

TEST(EhSweep, RepeatedSweepsAreReproducible) {
  const power::SignalEnergyTable table = fixedTable();
  const std::vector<eh::SweepVariant> cell = {{"threshold", "noisy", 9}};

  eh::SweepRunner s1(table, kBlocks, testConfig());
  eh::SweepRunner s2(table, kBlocks, testConfig());
  // Independent parents produce the same boot snapshot bytes...
  EXPECT_EQ(s1.snapshot().saveToBuffer(), s2.snapshot().saveToBuffer());
  // ...and the same sweep outcomes.
  const auto a = s1.run(cell, 1);
  const auto b = s2.run(cell, 2);
  ASSERT_EQ(a.size(), 1u);
  ASSERT_EQ(b.size(), 1u);
  expectIdentical(a[0], b[0]);
}

} // namespace
} // namespace sct
