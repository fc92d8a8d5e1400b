// Full-system checkpointing and the boot-once/fork-many driver.
//
// Three layers of confidence on the SmartCardSoC platform:
//   1. MemorySlave::imageDigest identity (the cheap comparator every
//      other suite leans on, including the copy-on-write path),
//   2. a MID-RUN snapshot — taken at the first quiesce point the
//      firmware happens to pass, not at a halt — restored into a fresh
//      SoC continues bit-identically to the uninterrupted run,
//   3. a sweep that boots once and forks N configuration variants into
//      recycled SoCs (sim::runWorkers) produces exactly the results of
//      N boot-from-scratch jobs, sequentially and across worker threads.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "bus/memory_slave.h"
#include "bus/tl1_bus.h"
#include "ckpt/checkpoint.h"
#include "sim/parallel_runner.h"
#include "sim/rng.h"
#include "soc/assembler.h"
#include "soc/smartcard.h"

namespace sct {
namespace {

using Tl1Soc = soc::SmartCardSoC<bus::Tl1Bus>;

// ---------------------------------------------------------------------
// imageDigest

bus::SlaveControl plainCtl(std::size_t size) {
  bus::SlaveControl c;
  c.base = 0;
  c.size = size;
  return c;
}

void fillPattern(std::uint8_t* d, std::size_t n, unsigned seed) {
  sim::SplitMix64 rng(seed);
  for (std::size_t i = 0; i < n; ++i) {
    d[i] = static_cast<std::uint8_t>(rng.next());
  }
}

TEST(ImageDigest, EqualImagesEqualDigests) {
  bus::MemorySlave a("a", plainCtl(4096));
  bus::MemorySlave b("b", plainCtl(4096));
  EXPECT_EQ(a.imageDigest(), b.imageDigest());  // Both all-zero.

  fillPattern(a.data(), a.sizeBytes(), 7);
  fillPattern(b.data(), b.sizeBytes(), 7);
  EXPECT_EQ(a.imageDigest(), b.imageDigest());
  EXPECT_NE(a.imageDigest(), bus::MemorySlave("z", plainCtl(4096))
                                 .imageDigest());
}

TEST(ImageDigest, SensitiveToSingleByte) {
  bus::MemorySlave a("a", plainCtl(4096));
  fillPattern(a.data(), a.sizeBytes(), 3);
  const std::uint64_t before = a.imageDigest();
  a.data()[123] ^= 1;
  EXPECT_NE(a.imageDigest(), before);
  a.data()[123] ^= 1;
  EXPECT_EQ(a.imageDigest(), before);  // Deterministic, content-only.
}

TEST(ImageDigest, SharedImageMatchesPrototype) {
  static std::vector<std::uint8_t> proto(4096);
  fillPattern(proto.data(), proto.size(), 9);

  bus::MemorySlave cow("cow", plainCtl(proto.size()), proto.data());
  bus::MemorySlave plain("plain", plainCtl(proto.size()));
  fillPattern(plain.data(), plain.sizeBytes(), 9);
  EXPECT_EQ(cow.imageDigest(), plain.imageDigest());

  // The first mutation materializes a private copy; the digest tracks
  // the live image and the prototype stays untouched.
  cow.pokeWord(0, 0xDEADBEEF);
  plain.pokeWord(0, 0xDEADBEEF);
  EXPECT_EQ(cow.imageDigest(), plain.imageDigest());
  EXPECT_EQ(proto[0], static_cast<std::uint8_t>(sim::SplitMix64(9).next()));
}

// ---------------------------------------------------------------------
// Shared firmware: a boot phase (checksum EEPROM into RAM, greet over
// the UART, halt) and a parameterized sweep phase entered by resetting
// the core at the `phase2` label. The boot loop mixes cached ALU
// stretches with EEPROM loads and RAM stores, so the platform passes
// through mid-run quiesce points (cache-hit cycles with no outstanding
// bus transaction) — exactly what the snapshot tests need.
constexpr const char* kFirmware = R"(
    li    $s0, 0x0A000000   # EEPROM base
    li    $s2, 0x08000000   # RAM base
    addiu $t2, $zero, 0
    addiu $t3, $zero, 96    # iterations
  loop:
    lw    $t4, 0($s0)
    addu  $t2, $t2, $t4
    xor   $t2, $t2, $t3
    sll   $t5, $t2, 1
    addu  $t2, $t2, $t5
    sw    $t2, 4($s2)
    addiu $s0, $s0, 4
    addiu $t3, $t3, -1
    bne   $t3, $zero, loop
    li    $s1, 0x10000200   # UART base
    addiu $t0, $zero, 0x42  # 'B'
    jal   putc
    break
  putc:
    lw    $t1, 4($s1)       # STATUS
    andi  $t1, $t1, 1
    beq   $t1, $zero, putc
    sw    $t0, 0($s1)
    jr    $ra

  phase2:                   # sweep body: sum 1..param
    li    $s2, 0x08000000
    lw    $t3, 16($s2)      # parameter poked by the harness
    addiu $t2, $zero, 0
  ploop:
    addu  $t2, $t2, $t3
    addiu $t3, $t3, -1
    bne   $t3, $zero, ploop
    sw    $t2, 20($s2)
    break
)";

const soc::AssembledProgram& firmware() {
  static const soc::AssembledProgram prog =
      soc::assemble(kFirmware, soc::memmap::kRomBase);
  return prog;
}

void prepare(Tl1Soc& soc) {
  std::vector<std::uint8_t> eeprom(96 * 4);
  fillPattern(eeprom.data(), eeprom.size(), 5);
  soc.loadData(soc::memmap::kEepromBase, eeprom.data(), eeprom.size());
  soc.loadProgram(firmware());
}

/// Everything a run can be judged by; defaulted == makes the fork
/// comparisons one-liners.
struct SocResult {
  std::string transmitted;
  std::uint64_t clockCycle = 0;
  std::uint64_t pc = 0;
  std::vector<std::uint32_t> regs;
  std::uint64_t cpuCycles = 0;
  std::uint64_t instructions = 0;
  std::uint64_t ifetchStalls = 0;
  std::uint64_t loadStalls = 0;
  std::uint64_t storeStalls = 0;
  std::uint64_t busCycles = 0;
  std::uint64_t busBusy = 0;
  std::uint64_t busTransactions = 0;
  std::uint64_t ramDigest = 0;
  std::uint64_t eepromDigest = 0;
  std::uint32_t bootChecksum = 0;
  std::uint32_t sweepResult = 0;
  std::uint64_t timerTicks = 0;

  bool operator==(const SocResult&) const = default;
};

SocResult capture(Tl1Soc& soc) {
  SocResult r;
  r.transmitted = soc.uart().transmitted();
  r.clockCycle = soc.clock().cycle();
  r.pc = soc.cpu().pc();
  for (unsigned i = 0; i < 32; ++i) r.regs.push_back(soc.cpu().reg(i));
  r.cpuCycles = soc.cpu().stats().cycles;
  r.instructions = soc.cpu().stats().instructions;
  r.ifetchStalls = soc.cpu().stats().ifetchStallCycles;
  r.loadStalls = soc.cpu().stats().loadStallCycles;
  r.storeStalls = soc.cpu().stats().storeStallCycles;
  r.busCycles = soc.bus().stats().cycles;
  r.busBusy = soc.bus().stats().busyCycles;
  r.busTransactions = soc.bus().stats().transactions();
  r.ramDigest = soc.ram().imageDigest();
  r.eepromDigest = soc.eeprom().imageDigest();
  r.bootChecksum = soc.ram().peekWord(soc::memmap::kRamBase + 4);
  r.sweepResult = soc.ram().peekWord(soc::memmap::kRamBase + 20);
  r.timerTicks = soc.timer().ticks();
  return r;
}

// ---------------------------------------------------------------------
// Mid-run snapshot/restore

TEST(SocCheckpoint, MidRunSnapshotContinuesBitIdentical) {
  // Uninterrupted reference.
  Tl1Soc ref{soc::SocConfig{}};
  prepare(ref);
  ASSERT_TRUE(ref.run());
  ASSERT_FALSE(ref.cpu().faulted());
  ASSERT_EQ(ref.uart().transmitted(), "B");
  const SocResult want = capture(ref);

  // Interrupted run: step cycle by cycle, snapshot at the first quiesce
  // point the firmware passes after a short warmup. saveAll() throwing
  // CheckpointError on busy cycles is the designed behaviour.
  Tl1Soc part{soc::SocConfig{}};
  prepare(part);
  ckpt::Snapshot snap;
  bool taken = false;
  std::string lastRefusal;
  for (int i = 0; i < 20000 && !part.cpu().halted(); ++i) {
    part.clock().runCycles(1);
    if (part.clock().cycle() < 60) continue;
    try {
      snap = part.checkpoint();
      taken = true;
      break;
    } catch (const ckpt::CheckpointError& e) {
      lastRefusal = e.what();
    }
  }
  ASSERT_TRUE(taken) << "firmware never passed a quiesce point; last "
                        "refusal: "
                     << lastRefusal;
  ASSERT_FALSE(part.cpu().halted()) << "snapshot landed after the halt";

  // Restore into a fresh platform and let both finish.
  Tl1Soc cont{soc::SocConfig{}};
  prepare(cont);
  cont.restore(snap);
  EXPECT_EQ(cont.clock().cycle(), part.clock().cycle());
  EXPECT_EQ(cont.cpu().pc(), part.cpu().pc());

  ASSERT_TRUE(part.run());
  ASSERT_TRUE(cont.run());
  EXPECT_EQ(capture(part), want);
  EXPECT_EQ(capture(cont), want);
}

TEST(SocCheckpoint, SnapshotSurvivesDiskBytes) {
  // The same restore, but through serialize/deserialize — what the
  // golden file and any cross-process fork consumer exercise.
  Tl1Soc ref{soc::SocConfig{}};
  prepare(ref);
  ASSERT_TRUE(ref.run());
  const ckpt::Snapshot snap =
      ckpt::Snapshot::deserialize(ref.checkpoint().serialize());

  Tl1Soc back{soc::SocConfig{}};
  prepare(back);
  back.restore(snap);
  EXPECT_EQ(capture(back), capture(ref));
}

// ---------------------------------------------------------------------
// Fork sweeps

constexpr std::size_t kVariants = 6;

std::uint32_t paramFor(std::size_t i) {
  return static_cast<std::uint32_t>(5 + 3 * i);
}

/// The per-variant configuration delta + measured phase: poke the sweep
/// parameter, restart the core at the sweep entry, run to halt.
void runVariantPhase(Tl1Soc& soc, std::size_t i) {
  soc.ram().pokeWord(soc::memmap::kRamBase + 16, paramFor(i));
  soc.cpu().reset(firmware().label("phase2"));
  ASSERT_TRUE(soc.run());
  ASSERT_FALSE(soc.cpu().faulted());
}

/// A fork worker's rig: one prepared SoC, restored once per variant.
std::unique_ptr<Tl1Soc> makeForkSoc() {
  auto soc = std::make_unique<Tl1Soc>(soc::SocConfig{});
  prepare(*soc);
  return soc;
}

/// Reference job: pay for the whole boot, then the variant phase.
SocResult bootAndRunVariant(std::size_t i) {
  Tl1Soc soc{soc::SocConfig{}};
  prepare(soc);
  EXPECT_TRUE(soc.run());
  runVariantPhase(soc, i);
  return capture(soc);
}

TEST(SocFork, ForkedSweepMatchesBootPerJob) {
  const ckpt::Snapshot boot = [] {
    Tl1Soc parent{soc::SocConfig{}};
    prepare(parent);
    EXPECT_TRUE(parent.run());
    return parent.checkpoint();
  }();

  // threads=1: ONE recycled SoC serves every variant back to back, so
  // any state a restore fails to rewind leaks into the next variant and
  // shows up against the boot-per-job reference.
  std::vector<SocResult> forked(kVariants);
  sim::runWorkers(kVariants, /*threads=*/1, makeForkSoc,
                  [&](std::unique_ptr<Tl1Soc>& soc, std::size_t i) {
                    soc->restore(boot);
                    runVariantPhase(*soc, i);
                    forked[i] = capture(*soc);
                  });

  for (std::size_t i = 0; i < kVariants; ++i) {
    SCOPED_TRACE("variant " + std::to_string(i));
    const SocResult want = bootAndRunVariant(i);
    EXPECT_EQ(forked[i], want);
    // The sweep phase really ran with the variant's own parameter.
    const std::uint32_t p = paramFor(i);
    EXPECT_EQ(want.sweepResult, p * (p + 1) / 2);
  }
}

TEST(SocFork, ThreadedForksMatchSequential) {
  const ckpt::Snapshot boot = [] {
    Tl1Soc parent{soc::SocConfig{}};
    prepare(parent);
    EXPECT_TRUE(parent.run());
    return parent.checkpoint();
  }();

  const auto sweep = [&](unsigned threads) {
    std::vector<SocResult> out(kVariants);
    sim::runWorkers(kVariants, threads, makeForkSoc,
                    [&](std::unique_ptr<Tl1Soc>& soc, std::size_t i) {
                      soc->restore(boot);
                      runVariantPhase(*soc, i);
                      out[i] = capture(*soc);
                    });
    return out;
  };

  const std::vector<SocResult> sequential = sweep(1);
  const std::vector<SocResult> threaded = sweep(4);
  EXPECT_EQ(threaded, sequential);
}

} // namespace
} // namespace sct
