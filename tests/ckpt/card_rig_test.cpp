// power::CardRig, the one recyclable card platform the serve farm, the
// eh sweep and the sca trace factory share:
//   1. recycle() drains a rig stopped mid-transfer before it restores,
//      and the recycled rig then runs on exactly like a fresh rig
//      recycled from the same snapshot,
//   2. snapshotWhen() names its caller when it finds no snapshot point,
//   3. the section order of a card snapshot is pinned: the SoC's
//      fourteen sections, then "pm", then whatever the owner adds
//      (serve and eh: "ledger").
#include "power/card_rig.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "bus/ec_signals.h"
#include "eh/sweep.h"
#include "serve/card_instance.h"

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

/// EEPROM loads, ALU work and RAM stores in a long loop: the platform
/// passes in and out of quiesce points every few cycles.
const soc::AssembledProgram& loopProgram() {
  static const soc::AssembledProgram prog = soc::assemble(R"(
      li    $s0, 0x0A000000
      li    $s2, 0x08000000
      addiu $t2, $zero, 0
      addiu $t3, $zero, 400
    loop:
      lw    $t4, 0($s0)
      addu  $t2, $t2, $t4
      xor   $t2, $t2, $t3
      sw    $t2, 4($s2)
      addiu $s0, $s0, 4
      addiu $t3, $t3, -1
      bne   $t3, $zero, loop
      break
  )", soc::memmap::kRomBase);
  return prog;
}

const std::vector<std::string> kSocTags = {
    "kernel", "clk",  "ecbus",  "rom",    "ram",  "eeprom", "flash",
    "irqc",   "timer0", "timer1", "uart", "trng", "crypto", "cpu"};

std::vector<std::string> tagsOf(const ckpt::Snapshot& snap) {
  std::vector<std::string> tags;
  for (const ckpt::Snapshot::Section& s : snap.sections()) {
    tags.push_back(s.tag);
  }
  return tags;
}

TEST(CardRig, RecycleDrainsAMidTransferRigAndMatchesAFreshOne) {
  const power::SignalEnergyTable table = fixedTable();
  power::CardRig rig(table, loopProgram());
  const ckpt::Snapshot snap = rig.snapshotWhen(
      [&] { return rig.soc.clock().cycle() >= 200; }, 10'000, "test");

  // Run on to a cycle with a transfer in flight: a bare loadAll would
  // refuse to restore here.
  for (int i = 0; i < 1000 && rig.quiesced(); ++i) {
    rig.soc.clock().runCycles(1);
  }
  ASSERT_FALSE(rig.quiesced());
  rig.recycle(snap);

  power::CardRig fresh(table, loopProgram());
  fresh.recycle(snap);
  EXPECT_EQ(rig.soc.clock().cycle(), fresh.soc.clock().cycle());

  rig.soc.clock().runCycles(700);
  fresh.soc.clock().runCycles(700);
  EXPECT_EQ(rig.soc.clock().cycle(), fresh.soc.clock().cycle());
  EXPECT_EQ(rig.soc.ram().imageDigest(), fresh.soc.ram().imageDigest());
  EXPECT_EQ(rig.pm.totalEnergy_aJ(), fresh.pm.totalEnergy_aJ());
  EXPECT_GT(rig.pm.totalEnergy_aJ(), 0u);
  for (std::size_t i = 0; i < bus::kSignalCount; ++i) {
    const auto id = static_cast<bus::SignalId>(i);
    EXPECT_EQ(rig.pm.transitions(id), fresh.pm.transitions(id))
        << bus::signalName(id);
  }
}

TEST(CardRig, SnapshotWhenNamesItsCallerWhenNeverReady) {
  power::CardRig rig(fixedTable(), loopProgram());
  try {
    rig.snapshotWhen([] { return false; }, 500, "CardRigTest::neverReady");
    FAIL() << "expected CheckpointError";
  } catch (const ckpt::CheckpointError& e) {
    EXPECT_NE(std::string(e.what()).find("CardRigTest::neverReady"),
              std::string::npos)
        << e.what();
  }
}

TEST(CardRig, SectionOrderIsPinned) {
  const power::SignalEnergyTable table = fixedTable();
  std::vector<std::string> bare = kSocTags;
  bare.push_back("pm");
  power::CardRig rig(table, loopProgram());
  EXPECT_EQ(tagsOf(rig.registry.saveAll()), bare);

  std::vector<std::string> withLedger = bare;
  withLedger.push_back("ledger");
  EXPECT_EQ(tagsOf(serve::CardInstance::bootGolden(table)), withLedger);
  EXPECT_EQ(tagsOf(eh::SweepRunner(table, 2).snapshot()), withLedger);
}

} // namespace
} // namespace sct
