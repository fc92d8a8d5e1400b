// Table 3 — "Simulation performance in executed bus transactions per
// second (T/s) for the transaction level models with and without
// energy estimation."
//
// Paper (kT/s): TL layer 1 = 85.3 with / 94.6 without estimation,
// TL layer 2 = 129.6 with / 145.8 without (factors 1 / 1.1 / 1.52 /
// 1.7). The test sequences contain "all combinations between single
// read, single write, burst read, and burst write transactions".
// Absolute rates depend on the host; the factors are the result.
#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdlib>
#include <iostream>

#include "trace/report.h"

#include "bench_util.h"
#include "ckpt/checkpoint.h"
#include "hier/fidelity_controller.h"
#include "hier/roi_trigger.h"
#include "power/tl1_power_model.h"
#include "power/tl2_power_model.h"
#include "sim/parallel_runner.h"
#include "soc/smartcard.h"

namespace {

using namespace sct;
using bench::ReplayPlatform;

/// SCT_BENCH_TINY=1 shrinks the workload for CI smoke runs: the point
/// there is "the bench still runs and reports", not a stable rate.
bool tinyMode() {
  const char* v = std::getenv("SCT_BENCH_TINY");
  return v != nullptr && v[0] != '\0' && v[0] != '0';
}

std::size_t workloadCount() { return tinyMode() ? 200 : 4000; }

const trace::BusTrace& perfWorkload() {
  // All four transaction classes, back-to-back, as in Section 4.2.
  static const trace::BusTrace t = trace::randomMix(
      777, workloadCount(), bench::platformRegions(), trace::MixRatios{});
  return t;
}

const trace::BusTrace& idleGapWorkload() {
  // Same mix with up to 100 idle cycles between issues — firmware-like
  // bursts separated by compute. Not part of the paper's Table 3; it
  // exercises the event-driven TL2 dead-cycle warp, which back-to-back
  // traffic cannot.
  static const trace::BusTrace t = trace::randomMix(
      777, workloadCount(), bench::platformRegions(), trace::MixRatios{},
      100);
  return t;
}

const trace::BusTrace& spaWorkload() {
  // SPA-acquisition shape: short dense bursts into the crypto
  // coprocessor's SFR window separated by long idle stretches (the card
  // waiting for the next command). The bursts are the regions of
  // interest — well under 25% of the simulated cycles; the rest is dead
  // time an event-driven layer warps over but a cycle-true layer must
  // grind through.
  static const trace::BusTrace t = [] {
    trace::BusTrace trace;
    const std::size_t rounds = tinyMode() ? 12 : 240;
    constexpr std::uint64_t kGapCycles = 600;
    std::uint64_t cycle = 10;
    std::uint64_t v = 0x9E3779B97F4A7C15ull;
    for (std::size_t r = 0; r < rounds; ++r) {
      for (bus::Address i = 0; i < 8; ++i) {  // Key + operand loads.
        trace::TraceEntry e;
        e.issueCycle = cycle++;
        e.kind = bus::Kind::Write;
        e.address = soc::memmap::kCryptoBase + 4 * i;
        v ^= v << 13;
        v ^= v >> 7;
        v ^= v << 17;
        e.writeData[0] = static_cast<bus::Word>(v);
        trace.append(e);
      }
      for (bus::Address i = 0; i < 4; ++i) {  // Result reads.
        trace::TraceEntry e;
        e.issueCycle = cycle++;
        e.kind = bus::Kind::Read;
        e.address = soc::memmap::kCryptoBase + 0x20 + 4 * i;
        trace.append(e);
      }
      cycle += kGapCycles;
    }
    return trace;
  }();
  return t;
}

void TL1_WithEstimation(benchmark::State& state) {
  const auto& workload = perfWorkload();
  const auto& table = bench::characterizedTable();
  for (auto _ : state) {
    ReplayPlatform<bus::Tl1Bus> platform;
    power::Tl1PowerModel pm(table);
    platform.ecbus.addObserver(pm);
    platform.replay(workload);
    benchmark::DoNotOptimize(pm.totalEnergy_fJ());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(workload.size()));
}

void TL1_WithoutEstimation(benchmark::State& state) {
  const auto& workload = perfWorkload();
  for (auto _ : state) {
    ReplayPlatform<bus::Tl1Bus> platform;
    platform.replay(workload);
    benchmark::DoNotOptimize(platform.ecbus.stats().transactions());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(workload.size()));
}

void TL2_WithEstimation(benchmark::State& state) {
  const auto& workload = perfWorkload();
  const auto& table = bench::characterizedTable();
  for (auto _ : state) {
    ReplayPlatform<bus::Tl2Bus> platform;
    power::Tl2PowerModel pm(table);
    platform.ecbus.addObserver(pm);
    platform.replay(workload);
    benchmark::DoNotOptimize(pm.totalEnergy_fJ());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(workload.size()));
}

void TL2_WithoutEstimation(benchmark::State& state) {
  const auto& workload = perfWorkload();
  for (auto _ : state) {
    ReplayPlatform<bus::Tl2Bus> platform;
    platform.replay(workload);
    benchmark::DoNotOptimize(platform.ecbus.stats().transactions());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(workload.size()));
}

void TL2_WithEstimation_IdleGaps(benchmark::State& state) {
  const auto& workload = idleGapWorkload();
  const auto& table = bench::characterizedTable();
  for (auto _ : state) {
    ReplayPlatform<bus::Tl2Bus> platform;
    power::Tl2PowerModel pm(table);
    platform.ecbus.addObserver(pm);
    platform.replay(workload);
    benchmark::DoNotOptimize(pm.totalEnergy_fJ());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(workload.size()));
}

void TL2_WithoutEstimation_IdleGaps(benchmark::State& state) {
  const auto& workload = idleGapWorkload();
  for (auto _ : state) {
    ReplayPlatform<bus::Tl2Bus> platform;
    platform.replay(workload);
    benchmark::DoNotOptimize(platform.ecbus.stats().transactions());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(workload.size()));
}

// Pure layer-1 baseline over the SPA workload: the cycle-true bus
// grinds through every idle cycle between the bursts.
void TL1_SpaDpa(benchmark::State& state) {
  const auto& workload = spaWorkload();
  const auto& table = bench::characterizedTable();
  for (auto _ : state) {
    ReplayPlatform<bus::Tl1Bus> platform;
    power::Tl1PowerModel pm(table);
    platform.ecbus.addObserver(pm);
    platform.replay(workload);
    benchmark::DoNotOptimize(pm.totalEnergy_fJ());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(workload.size()));
}

// Adaptive fidelity over the same SPA workload: an address watchpoint
// on the crypto SFR window pulls each burst into cycle-true TL1; the
// idle stretches run event-driven TL2 and warp over the dead cycles.
// The ROI traffic is still estimated with the layer-1 signal model.
void Hybrid_SpaDpa(benchmark::State& state) {
  const auto& workload = spaWorkload();
  const auto& table = bench::characterizedTable();
  for (auto _ : state) {
    ReplayPlatform<hier::HybridBus> platform;
    power::Tl1PowerModel pm1(table);
    platform.ecbus.tl1().addObserver(pm1);
    power::Tl2PowerModel pm2(table);
    platform.ecbus.tl2().addObserver(pm2);
    hier::AddressWatchTrigger watch(
        {{soc::memmap::kCryptoBase, soc::memmap::kSfrWindow}},
        /*holdCycles=*/48);
    hier::FidelityController ctrl(platform.clk, platform.ecbus);
    ctrl.addTrigger(watch);
    ctrl.attachPower(pm1, pm2);
    platform.replay(workload);
    ctrl.finalize();
    benchmark::DoNotOptimize(pm1.totalEnergy_fJ() + pm2.totalEnergy_fJ());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(workload.size()));
}

// ---------------------------------------------------------------------------
// Section 4.3 exploration cost: boot-per-job vs boot-once/fork-many.
//
// Every configuration sweep re-simulates the same applet under N
// interface variants, and each job pays the identical SoC boot prefix.
// Boot_Sweep is that naive shape; Fork_Sweep boots once, checkpoints at
// the quiesce point and restores the snapshot into each variant
// (src/ckpt). items_per_second counts completed variants, so the
// Fork_Sweep / Boot_Sweep ratio is the fork speed-up recorded by
// `scripts/bench.sh table3` as speedup.fork_over_boot_sweep.

using SweepSoc = soc::SmartCardSoC<bus::Tl1Bus>;

// Boot: a long checksum grind over EEPROM (the shared prefix worth
// amortizing). phase2: the short per-variant measured phase.
constexpr const char* kSweepFirmware = R"(
    li    $s0, 0x0A000000   # EEPROM base
    li    $s2, 0x08000000   # RAM base
    addiu $t2, $zero, 0
    lw    $t6, 0($s2)       # boot iteration count, poked by the harness
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

const sct::soc::AssembledProgram& sweepFirmware() {
  static const auto prog =
      sct::soc::assemble(kSweepFirmware, soc::memmap::kRomBase);
  return prog;
}

std::size_t sweepVariants() { return tinyMode() ? 3 : 12; }

void bootSweepSoc(SweepSoc& s) {
  std::vector<std::uint8_t> eeprom(4096);
  for (std::size_t i = 0; i < eeprom.size(); ++i) {
    eeprom[i] = static_cast<std::uint8_t>(i * 37 + 11);
  }
  s.loadData(soc::memmap::kEepromBase, eeprom.data(), eeprom.size());
  s.loadProgram(sweepFirmware());
  s.ram().pokeWord(soc::memmap::kRamBase,
                   tinyMode() ? 200 : 4000);  // Boot loop length.
  s.run();
}

void runSweepVariant(SweepSoc& s, std::size_t i) {
  s.ram().pokeWord(soc::memmap::kRamBase + 16,
                   static_cast<bus::Word>(8 + i));
  s.cpu().reset(sweepFirmware().label("phase2"));
  s.run();
  benchmark::DoNotOptimize(s.ram().peekWord(soc::memmap::kRamBase + 20));
}

void Boot_Sweep(benchmark::State& state) {
  const std::size_t variants = sweepVariants();
  for (auto _ : state) {
    for (std::size_t i = 0; i < variants; ++i) {
      SweepSoc s{soc::SocConfig{}};
      bootSweepSoc(s);
      runSweepVariant(s, i);
    }
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(variants));
}

void Fork_Sweep(benchmark::State& state) {
  const std::size_t variants = sweepVariants();
  for (auto _ : state) {
    const ckpt::Snapshot boot = [] {
      SweepSoc parent{soc::SocConfig{}};
      bootSweepSoc(parent);
      return parent.checkpoint();
    }();
    // Sequential forks: the ratio to Boot_Sweep isolates the amortized
    // boot, not thread-level parallelism (that is sim::runWorkers'
    // business and already benchmarked by sec43_exploration).
    sim::runWorkers(variants, /*threads=*/1,
                    [] { return SweepSoc(soc::SocConfig{}); },
                    [&boot](SweepSoc& s, std::size_t i) {
                      s.restore(boot);
                      runSweepVariant(s, i);
                    });
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(variants));
}

// ROADMAP item 2: the ISS dispatch loop itself. The same CPU-bound
// firmware (icache-resident ALU/branch kernel with a load/store per
// outer trip) runs once with the decoded-block frontend — the
// production default — and once with plain decode-on-fetch, the seed
// baseline. items_per_second counts executed instructions, and
// `scripts/bench.sh table3` records the ratio as
// speedup.decoded_block_over_seed.
constexpr const char* kIssFirmware = R"(
    li    $s2, 0x08000000    # RAM base
    lw    $t9, 0($s2)        # outer trip count, poked by the harness
    addiu $t0, $zero, 0
    addiu $t1, $zero, 1
  outer:
    addiu $t3, $zero, 8
  inner:
    addu  $t0, $t0, $t1
    xor   $t1, $t1, $t0
    sll   $t4, $t0, 3
    srl   $t5, $t1, 2
    or    $t0, $t4, $t5
    slt   $t6, $t0, $t1
    addiu $t3, $t3, -1
    bne   $t3, $zero, inner
    lw    $t7, 4($s2)
    addu  $t0, $t0, $t7
    sw    $t0, 4($s2)
    addiu $t9, $t9, -1
    bne   $t9, $zero, outer
    sw    $t0, 8($s2)
    break
)";

const sct::soc::AssembledProgram& issFirmware() {
  static const auto prog =
      sct::soc::assemble(kIssFirmware, soc::memmap::kRomBase);
  return prog;
}

void runIssBench(benchmark::State& state, bool decodedBlocks) {
  std::int64_t instructions = 0;
  for (auto _ : state) {
    soc::SocConfig cfg;
    cfg.cpu.decodedBlockCache = decodedBlocks;
    SweepSoc s{cfg};
    s.loadProgram(issFirmware());
    s.ram().pokeWord(soc::memmap::kRamBase, tinyMode() ? 100 : 3000);
    s.run();
    benchmark::DoNotOptimize(s.ram().peekWord(soc::memmap::kRamBase + 8));
    instructions += static_cast<std::int64_t>(s.cpu().stats().instructions);
  }
  state.SetItemsProcessed(instructions);
}

void ISS_DecodedBlocks(benchmark::State& state) {
  runIssBench(state, /*decodedBlocks=*/true);
}

void ISS_DecodeOnFetch(benchmark::State& state) {
  runIssBench(state, /*decodedBlocks=*/false);
}

// The layer-0 reference for context (the paper cites a ~100x TLM
// speed-up over RTL from related work; our layer 0 is itself a fast
// C++ model, so the gap is smaller but the ordering holds).
void Layer0_Reference(benchmark::State& state) {
  const auto& workload = perfWorkload();
  for (auto _ : state) {
    ReplayPlatform<ref::GlBus> platform(bench::energyModel());
    platform.replay(workload);
    benchmark::DoNotOptimize(platform.ecbus.energy().total_fJ);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(workload.size()));
}

BENCHMARK(TL1_WithEstimation);
BENCHMARK(TL1_WithoutEstimation);
BENCHMARK(TL2_WithEstimation);
BENCHMARK(TL2_WithoutEstimation);
BENCHMARK(TL2_WithEstimation_IdleGaps);
BENCHMARK(TL2_WithoutEstimation_IdleGaps);
BENCHMARK(TL1_SpaDpa);
BENCHMARK(Hybrid_SpaDpa);
BENCHMARK(Boot_Sweep);
BENCHMARK(Fork_Sweep);
BENCHMARK(ISS_DecodedBlocks);
BENCHMARK(ISS_DecodeOnFetch);
BENCHMARK(Layer0_Reference);

} // namespace

namespace {

/// Paper-shaped summary: measure each configuration directly and print
/// the Table 3 rows with factors relative to "TL1 with estimation".
void printPaperTable() {
  using Clock = std::chrono::steady_clock;
  const auto& workload = perfWorkload();
  const auto& table = bench::characterizedTable();

  auto rate = [&](auto&& runOnce) {
    // Warm up once, then time enough repetitions for a stable figure.
    runOnce();
    const auto start = Clock::now();
    int reps = 0;
    while (std::chrono::duration<double>(Clock::now() - start).count() <
           0.25) {
      runOnce();
      ++reps;
    }
    const double secs =
        std::chrono::duration<double>(Clock::now() - start).count();
    return static_cast<double>(reps) *
           static_cast<double>(workload.size()) / secs;
  };

  const double tl1WithE = rate([&] {
    ReplayPlatform<bus::Tl1Bus> p;
    power::Tl1PowerModel pm(table);
    p.ecbus.addObserver(pm);
    p.replay(workload);
  });
  const double tl1NoE = rate([&] {
    ReplayPlatform<bus::Tl1Bus> p;
    p.replay(workload);
  });
  const double tl2WithE = rate([&] {
    ReplayPlatform<bus::Tl2Bus> p;
    power::Tl2PowerModel pm(table);
    p.ecbus.addObserver(pm);
    p.replay(workload);
  });
  const double tl2NoE = rate([&] {
    ReplayPlatform<bus::Tl2Bus> p;
    p.replay(workload);
  });

  std::printf("\nTable 3 (paper shape): simulation performance in kT/s\n\n");
  trace::Table t({"Model", "with estimation kT/s", "Factor",
                  "without estimation kT/s", "Factor"});
  t.addRow({"TL Layer 1", trace::Table::num(tl1WithE / 1e3, 1), "1",
            trace::Table::num(tl1NoE / 1e3, 1),
            trace::Table::num(tl1NoE / tl1WithE, 2)});
  t.addRow({"TL Layer 2", trace::Table::num(tl2WithE / 1e3, 1),
            trace::Table::num(tl2WithE / tl1WithE, 2),
            trace::Table::num(tl2NoE / 1e3, 1),
            trace::Table::num(tl2NoE / tl1WithE, 2)});
  t.print(std::cout);
  std::printf("\nPaper reference (kT/s): TL1 85.3 / 94.6, TL2 129.6 / "
              "145.8 — factors 1 / 1.1 / 1.52 / 1.7.\n");
}

} // namespace

int main(int argc, char** argv) {
  std::printf(
      "Table 3: simulation performance (transactions per second).\n"
      "items_per_second below is the paper's T/s metric.\n\n");
  benchmark::AddCustomContext("sct_build_type", sct::bench::sctBuildType());
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  // The timed paper-shape table is meaningless on a smoke workload.
  if (!tinyMode()) printPaperTable();
  return 0;
}
