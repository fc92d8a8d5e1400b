// Shared pieces of the benchmark harness: the characterized coefficient
// table, the replay platform (the smart-card memory map without the
// core, for feeding recorded traces to each model layer), and the
// evaluation workload — EC-specification verification sequences plus a
// bus trace recorded from firmware running on the full SoC, exactly the
// paper's "assembly language test program [...] traced [...] and used
// as input test sequences for the transaction level models".
#ifndef SCT_BENCH_BENCH_UTIL_H
#define SCT_BENCH_BENCH_UTIL_H

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "bus/memory_slave.h"
#include "bus/tl1_bus.h"
#include "bus/tl2_bus.h"
#include "power/characterizer.h"
#include "power/coeff_table.h"
#include "ref/energy.h"
#include "ref/gl_bus.h"
#include "ref/parasitics.h"
#include "sim/clock.h"
#include "sim/kernel.h"
#include "soc/assembler.h"
#include "soc/smartcard.h"
#include "trace/bus_trace.h"
#include "trace/recorder.h"
#include "trace/replay_master.h"
#include "trace/workloads.h"

namespace sct::bench {

/// The benchmark binary's own build type, baked in at compile time.
/// Recorded into the google-benchmark JSON context (key
/// `sct_build_type`) so the guard in scripts/bench.sh can validate
/// the binary that actually produced the numbers — the CMake cache of
/// the build directory can lie (stale cache, binary copied between
/// trees); the binary cannot.
inline const char* sctBuildType() {
#if defined(NDEBUG) && defined(__OPTIMIZE__)
  return "release";
#else
  return "debug";
#endif
}

inline const ref::ParasiticDb& parasitics() {
  static const ref::ParasiticDb db = ref::ParasiticDb::makeDefault();
  return db;
}

inline const ref::TransitionEnergyModel& energyModel() {
  static const ref::TransitionEnergyModel model(parasitics(),
                                                ref::ProcessParams{});
  return model;
}

/// Program-like image contents keyed by (size, seed), generated once and
/// memcpy'd into every ReplayPlatform after that. Benchmarks construct a
/// platform per iteration, and regenerating a 256 KiB ROM image with
/// trace::fillRealistic dominated the constructor; the cached copy is
/// byte-identical. Thread-safe (internal lock), so parallel workers can
/// build platforms concurrently.
const std::uint8_t* realisticImage(std::size_t n, std::uint64_t seed);

/// Touch every lazily-built static used by the bench/exploration
/// harness (characterized table, workload traces, cached images) so
/// they are constructed before worker threads spawn. Call once from the
/// main thread before fanning simulations out over sim::runIndexed.
void prewarmSharedWorkloads();

/// Smart-card memory map without the core: a replay target. The SFR
/// region is modeled as plain registers-as-memory so that replays are
/// deterministic across model layers.
template <typename BusT>
struct ReplayPlatform {
  sim::Kernel kernel;
  sim::Clock clk{kernel, "clk", 10};
  BusT ecbus;
  bus::MemorySlave rom;
  bus::MemorySlave ram;
  bus::MemorySlave eeprom;
  bus::MemorySlave flash;
  bus::MemorySlave sfr;

  template <typename... BusArgs>
  explicit ReplayPlatform(BusArgs&&... busArgs)
      : ecbus(clk, "ecbus", std::forward<BusArgs>(busArgs)...),
        // Program-like ROM/flash contents so read data carries realistic
        // activity: copy-on-write views of cached prototype images
        // (contents identical to a per-platform fillRealistic), so a
        // platform built per benchmark iteration costs no image copy.
        rom("rom", romCtl(),
            realisticImage(static_cast<std::size_t>(soc::memmap::kRomSize),
                           11)),
        ram("ram", ramCtl()),
        eeprom("eeprom", eepromCtl()),
        flash("flash", flashCtl(),
              realisticImage(
                  static_cast<std::size_t>(soc::memmap::kFlashSize), 13)),
        sfr("sfr", sfrCtl()) {
    // Replay memories run at their advertised (specification) timing:
    // the verification sequences are spec examples. The dynamic-stretch
    // behaviour (which layer 2 cannot see) is exercised by the unit
    // tests and by the full-SoC benches instead.
    ecbus.attach(rom);
    ecbus.attach(ram);
    ecbus.attach(eeprom);
    ecbus.attach(flash);
    ecbus.attach(sfr);
  }

  /// Load the firmware image so replayed fetches return real code.
  void loadImage(const soc::AssembledProgram& p) {
    rom.load(p.origin, p.bytes(), p.byteSize());
  }

  /// Replay a trace to completion; returns elapsed cycles.
  std::uint64_t replay(const trace::BusTrace& t) {
    if constexpr (std::is_same_v<BusT, bus::Tl2Bus>) {
      trace::Tl2ReplayMaster master(clk, "master", ecbus, t);
      return master.runToCompletion();
    } else {
      trace::ReplayMaster master(clk, "master", ecbus, ecbus, t);
      return master.runToCompletion();
    }
  }

 private:
  static bus::SlaveControl romCtl() {
    bus::SlaveControl c;
    c.base = soc::memmap::kRomBase;
    c.size = soc::memmap::kRomSize;
    c.canWrite = false;
    return c;
  }
  static bus::SlaveControl ramCtl() {
    bus::SlaveControl c;
    c.base = soc::memmap::kRamBase;
    c.size = soc::memmap::kRamSize;
    return c;
  }
  static bus::SlaveControl eepromCtl() {
    bus::SlaveControl c;
    c.base = soc::memmap::kEepromBase;
    c.size = soc::memmap::kEepromSize;
    c.readWait = 1;
    c.writeWait = 3;
    return c;
  }
  static bus::SlaveControl flashCtl() {
    bus::SlaveControl c;
    c.base = soc::memmap::kFlashBase;
    c.size = soc::memmap::kFlashSize;
    c.readWait = 1;
    c.canWrite = false;
    return c;
  }
  static bus::SlaveControl sfrCtl() {
    bus::SlaveControl c;
    c.base = soc::memmap::kSfrBase;
    c.size = 0x1000;
    c.canExec = false;
    return c;
  }
};

/// Regions of the replay platform usable by random-mix generators.
inline std::vector<trace::TargetRegion> platformRegions() {
  using namespace soc::memmap;
  return {
      {kRomBase, kRomSize, true, false, true},
      {kRamBase, kRamSize, true, true, true},
      {kEepromBase, kEepromSize, true, true, true},
      {kFlashBase, kFlashSize, true, false, true},
  };
}

/// The assembly workload the evaluation traces: computation, flash →
/// RAM copy, EEPROM programming, SFR traffic (TRNG, UART, crypto).
const soc::AssembledProgram& workloadFirmware();

/// Bus trace of workloadFirmware() recorded on the full layer-1 SoC.
const trace::BusTrace& firmwareTrace();

/// Complete evaluation workload for Tables 1 and 2: verification suite
/// + recorded firmware trace + realistic random mix. A BusTrace is
/// plain immutable data once built; sharing it across replay workers by
/// const reference is safe provided it was constructed (first call)
/// before the workers spawn — see prewarmSharedWorkloads().
const trace::BusTrace& evaluationWorkload();

/// Coefficients characterized on the layer-0 platform with the dense
/// training mix (disjoint from the evaluation workload).
const power::SignalEnergyTable& characterizedTable();

} // namespace sct::bench

#endif // SCT_BENCH_BENCH_UTIL_H
