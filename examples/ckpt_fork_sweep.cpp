// Boot-once / fork-many exploration (src/ckpt).
//
// A configuration sweep re-simulates the same firmware under several
// variants, and every job pays the identical SoC boot prefix. This
// example boots the Figure-1 platform once, checkpoints it at the
// boot-complete quiesce point, then forks each sweep variant from the
// shared snapshot — and cross-checks one variant against a
// boot-from-scratch run to show the fork is bit-identical. The same
// snapshot is also written to disk and read back, which is all a
// cross-process consumer (or the tests/ckpt golden file) needs.
#include <chrono>
#include <cstdio>
#include <vector>

#include "bus/tl1_bus.h"
#include "ckpt/checkpoint.h"
#include "sim/parallel_runner.h"
#include "soc/assembler.h"
#include "soc/smartcard.h"

using namespace sct;

namespace {

using Soc = soc::SmartCardSoC<bus::Tl1Bus>;

// Boot: checksum a window of EEPROM into RAM (the expensive shared
// prefix). phase2: the short per-variant measured phase — sum 1..p for
// a parameter the harness pokes into RAM.
constexpr const char* kFirmware = R"(
    li    $s0, 0x0A000000   # EEPROM
    li    $s2, 0x08000000   # RAM
    addiu $t2, $zero, 0
    lw    $t6, 0($s2)       # boot loop length (poked below)
  boot:
    lw    $t4, 0($s0)
    addu  $t2, $t2, $t4
    xor   $t2, $t2, $t6
    addiu $s0, $s0, 4
    andi  $t5, $s0, 0xFFC
    bne   $t5, $zero, nowrap
    li    $s0, 0x0A000000
  nowrap:
    addiu $t6, $t6, -1
    bne   $t6, $zero, boot
    sw    $t2, 4($s2)
    break

  phase2:
    li    $s2, 0x08000000
    lw    $t3, 16($s2)      # variant parameter
    addiu $t2, $zero, 0
  ploop:
    addu  $t2, $t2, $t3
    addiu $t3, $t3, -1
    bne   $t3, $zero, ploop
    sw    $t2, 20($s2)
    break
)";

const soc::AssembledProgram& firmware() {
  static const auto prog = soc::assemble(kFirmware, soc::memmap::kRomBase);
  return prog;
}

void boot(Soc& s) {
  std::vector<std::uint8_t> eeprom(4096);
  for (std::size_t i = 0; i < eeprom.size(); ++i) {
    eeprom[i] = static_cast<std::uint8_t>(i * 37 + 11);
  }
  s.loadData(soc::memmap::kEepromBase, eeprom.data(), eeprom.size());
  s.loadProgram(firmware());
  s.ram().pokeWord(soc::memmap::kRamBase, 2000);
  s.run();
}

struct VariantResult {
  bus::Word sum = 0;
  std::uint64_t cycles = 0;
};

VariantResult runVariant(Soc& s, std::size_t i) {
  s.ram().pokeWord(soc::memmap::kRamBase + 16,
                   static_cast<bus::Word>(8 + 4 * i));
  s.cpu().reset(firmware().label("phase2"));
  s.run();
  return {s.ram().peekWord(soc::memmap::kRamBase + 20), s.clock().cycle()};
}

double seconds(std::chrono::steady_clock::time_point a,
               std::chrono::steady_clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

} // namespace

int main() {
  using Clock = std::chrono::steady_clock;
  constexpr std::size_t kVariants = 8;

  // --- Boot once, snapshot at the quiesce point -----------------------
  const auto t0 = Clock::now();
  const ckpt::Snapshot bootSnap = [] {
    Soc parent{soc::SocConfig{}};
    boot(parent);
    std::printf("parent booted: %llu cycles, RAM checksum 0x%08x\n",
                static_cast<unsigned long long>(parent.clock().cycle()),
                parent.ram().peekWord(soc::memmap::kRamBase + 4));
    return parent.checkpoint();
  }();
  const auto t1 = Clock::now();

  // The snapshot is plain framed bytes — a file round-trip is free.
  bootSnap.saveFile("fork_sweep_boot.sctck");
  const auto fromDisk = ckpt::Snapshot::loadFile("fork_sweep_boot.sctck");
  std::printf("snapshot: %zu sections, %zu bytes on disk\n",
              fromDisk.sections().size(), fromDisk.serialize().size());

  // --- Fork the sweep from the shared snapshot ------------------------
  // One SoC is built for the whole sweep and restored per variant.
  std::vector<VariantResult> forked(kVariants);
  sim::runWorkers(kVariants, /*threads=*/1,
                  [] { return Soc(soc::SocConfig{}); },
                  [&](Soc& s, std::size_t i) {
                    s.restore(bootSnap);
                    forked[i] = runVariant(s, i);
                  });
  const auto t2 = Clock::now();

  // --- Cross-check one variant against boot-from-scratch --------------
  Soc scratch{soc::SocConfig{}};
  boot(scratch);
  const VariantResult ref = runVariant(scratch, kVariants / 2);
  const auto t3 = Clock::now();
  const bool identical = ref.sum == forked[kVariants / 2].sum &&
                         ref.cycles == forked[kVariants / 2].cycles;

  std::printf("\n%-10s %-12s %s\n", "variant", "sweep sum", "final cycle");
  for (std::size_t i = 0; i < kVariants; ++i) {
    std::printf("%-10zu 0x%08x   %llu\n", i, forked[i].sum,
                static_cast<unsigned long long>(forked[i].cycles));
  }
  std::printf("\nfork vs boot-from-scratch (variant %zu): %s\n",
              kVariants / 2, identical ? "bit-identical" : "MISMATCH!");

  const double bootCost = seconds(t2, t3);  // One boot + one variant.
  const double forkSweep = seconds(t0, t2); // Boot once + N forks.
  // Host time varies run to run, so it stays off stdout.
  std::fprintf(stderr,
               "boot-per-job sweep would cost ~%.1f ms; fork sweep took "
               "%.1f ms (boot paid once, %.1f ms)\n",
               1e3 * bootCost * static_cast<double>(kVariants),
               1e3 * forkSweep, 1e3 * seconds(t0, t1));
  std::remove("fork_sweep_boot.sctck");
  return identical ? 0 : 1;
}
