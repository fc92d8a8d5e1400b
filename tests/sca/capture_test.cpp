// RoiProfiler reuse. A fork worker keeps one rig — SoC, power model,
// profiler — for many traces and restores the boot snapshot before
// each, which rewinds the clock. The profiler is not checkpointed, so
// beginTrace() must leave nothing of the previous trace behind: above
// all not the ROI trigger's hold window, which would read as armed on
// the rewound clock and start the capture before the trace's own first
// crypto access. Pinned by comparing traces captured back to back on
// one profiler, in both orders, with traces from fresh profilers.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "bus/tl1_bus.h"
#include "ckpt/checkpoint.h"
#include "power/coeff_table.h"
#include "power/tl1_power_model.h"
#include "sca/capture.h"
#include "soc/assembler.h"
#include "soc/smartcard.h"

namespace sct {
namespace {

using Tl1Soc = soc::SmartCardSoC<bus::Tl1Bus>;

power::SignalEnergyTable fixedTable() {
  power::SignalEnergyTable t;
  for (std::size_t i = 0; i < bus::kSignalCount; ++i) {
    t.setCoeff_fJ(static_cast<bus::SignalId>(i),
                  1.5 + 0.25 * static_cast<double>(i));
  }
  return t;
}

/// Halts at once (the fork point); `main` encrypts the block in RAM
/// and pads so the capture window fills before the final halt.
const soc::AssembledProgram& firmware() {
  static const soc::AssembledProgram program = soc::assemble(R"(
    break
  main:
    li    $s1, 0x08000000
    li    $s2, 0x10000400
    lw    $t0, 0x20($s1)
    sw    $t0, 0x10($s2)
    lw    $t0, 0x24($s1)
    sw    $t0, 0x14($s2)
    addiu $t0, $zero, 1
    sw    $t0, 0x18($s2)
  cwait:
    lw    $t0, 0x1C($s2)
    bnez  $t0, cwait
    li    $t1, 64
  pad:
    addiu $t1, $t1, -1
    bnez  $t1, pad
    break
)",
                                                             soc::memmap::kRomBase);
  return program;
}

struct Trace {
  std::vector<std::int64_t> samples;
  std::uint64_t roiHits = 0;
  bool operator==(const Trace&) const = default;
};

struct Rig {
  Tl1Soc soc{soc::SocConfig{}};
  power::Tl1PowerModel pm;
  sca::RoiProfiler profiler;
  ckpt::CheckpointRegistry registry;

  explicit Rig(const power::SignalEnergyTable& table)
      : pm(table),
        profiler(pm, soc.crypto(),
                 {{soc::memmap::kCryptoBase, soc::memmap::kSfrWindow}},
                 sca::CaptureConfig{32, 64, 2.0, 64}) {
    soc.bus().addObserver(pm);
    soc.bus().addObserver(profiler);
    soc.loadProgram(firmware());
    soc.registerCheckpoint(registry);
    registry.add("pm", pm);
  }

  Trace capture(const ckpt::Snapshot& snap, std::uint32_t plaintext,
                std::uint64_t noiseSeed) {
    registry.loadAll(snap);
    soc.ram().pokeWord(soc::memmap::kRamBase + 0x20, plaintext);
    soc.ram().pokeWord(soc::memmap::kRamBase + 0x24, ~plaintext);
    profiler.beginTrace(noiseSeed);
    soc.cpu().reset(firmware().label("main"));
    EXPECT_TRUE(soc.run(100'000));
    EXPECT_TRUE(profiler.done());
    return {profiler.samples(), profiler.roiHits()};
  }
};

TEST(ScaCapture, ReusedProfilerMatchesFreshProfilersInEitherOrder) {
  const power::SignalEnergyTable table = fixedTable();
  Rig parent(table);
  ASSERT_TRUE(parent.soc.run(1000));
  const ckpt::Snapshot snap = parent.registry.saveAll();

  const Trace a = Rig(table).capture(snap, 0x12345678, 1);
  const Trace b = Rig(table).capture(snap, 0x9ABCDEF0, 2);
  ASSERT_NE(a.samples, b.samples);
  EXPECT_GT(a.roiHits, 0u);

  Rig ab(table);
  EXPECT_EQ(ab.capture(snap, 0x12345678, 1), a);
  EXPECT_EQ(ab.capture(snap, 0x9ABCDEF0, 2), b);

  Rig ba(table);
  EXPECT_EQ(ba.capture(snap, 0x9ABCDEF0, 2), b);
  EXPECT_EQ(ba.capture(snap, 0x12345678, 1), a);
}

} // namespace
} // namespace sct
