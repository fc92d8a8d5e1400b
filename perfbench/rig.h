// Replay rig and seeded inputs for perfbench.
//
// Everything here is built from the simulator's public headers only, so
// the benchmark does not depend on the repository's bench/ harness: the
// smart-card memory map without a core (a trace replay target for every
// bus layer), the layer-0 characterization that produces the coefficient
// table, and the workload inputs, each a pure function of the --seed
// argument.
#ifndef SCT_PERFBENCH_RIG_H
#define SCT_PERFBENCH_RIG_H

#include <cstdint>
#include <memory>
#include <type_traits>
#include <utility>
#include <vector>

#include "bus/memory_slave.h"
#include "power/characterizer.h"
#include "power/coeff_table.h"
#include "ref/energy.h"
#include "ref/gl_bus.h"
#include "ref/parasitics.h"
#include "sim/clock.h"
#include "sim/kernel.h"
#include "sim/rng.h"
#include "soc/smartcard.h"
#include "trace/bus_trace.h"
#include "trace/replay_master.h"
#include "trace/workloads.h"

namespace perfbench {

using namespace sct;

inline const ref::TransitionEnergyModel& energyModel() {
  static const ref::ParasiticDb db = ref::ParasiticDb::makeDefault();
  static const ref::TransitionEnergyModel model(db, ref::ProcessParams{});
  return model;
}

/// Program-like ROM/flash contents, generated once per process and
/// shared copy-on-write by every platform.
inline const std::uint8_t* realisticImage(std::size_t n, std::uint64_t seed) {
  static std::vector<std::pair<std::uint64_t, std::unique_ptr<std::uint8_t[]>>>
      cache;
  for (auto& [s, img] : cache) {
    if (s == seed) return img.get();
  }
  auto img = std::make_unique<std::uint8_t[]>(n);
  trace::fillRealistic(img.get(), n, seed);
  cache.emplace_back(seed, std::move(img));
  return cache.back().second.get();
}

/// The smart-card memory map without the core. The SFR region is plain
/// registers-as-memory so a replay is deterministic on every layer.
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
        rom("rom", ctl(soc::memmap::kRomBase, soc::memmap::kRomSize, 0, 0,
                       false),
            realisticImage(soc::memmap::kRomSize, 11)),
        ram("ram", ctl(soc::memmap::kRamBase, soc::memmap::kRamSize, 0, 0,
                       true)),
        eeprom("eeprom", ctl(soc::memmap::kEepromBase,
                             soc::memmap::kEepromSize, 1, 3, true)),
        flash("flash", ctl(soc::memmap::kFlashBase, soc::memmap::kFlashSize,
                           1, 0, false),
              realisticImage(soc::memmap::kFlashSize, 13)),
        sfr("sfr", ctl(soc::memmap::kSfrBase, 0x1000, 0, 0, true, false)) {
    ecbus.attach(rom);
    ecbus.attach(ram);
    ecbus.attach(eeprom);
    ecbus.attach(flash);
    ecbus.attach(sfr);
  }

 private:
  static bus::SlaveControl ctl(bus::Address base, bus::Address size,
                               unsigned readWait, unsigned writeWait,
                               bool canWrite, bool canExec = true) {
    bus::SlaveControl c;
    c.base = base;
    c.size = size;
    c.readWait = readWait;
    c.writeWait = writeWait;
    c.canWrite = canWrite;
    c.canExec = canExec;
    return c;
  }
};

/// Regions the random mixes draw addresses from.
inline std::vector<trace::TargetRegion> platformRegions() {
  using namespace soc::memmap;
  return {
      {kRomBase, kRomSize, true, false, true},
      {kRamBase, kRamSize, true, true, true},
      {kEepromBase, kEepromSize, true, true, true},
      {kFlashBase, kFlashSize, true, false, true},
  };
}

/// Coefficients characterized on the layer-0 platform over a fixed
/// training mix; no workload trace is drawn from this seed, so every
/// workload is held-out data for the table.
inline power::SignalEnergyTable characterize() {
  ReplayPlatform<ref::GlBus> platform(energyModel());
  power::Characterizer ch(energyModel());
  platform.ecbus.addFrameListener(ch);
  const auto regions = platformRegions();
  const trace::BusTrace training =
      trace::characterizationTrace(1234, 1500, regions);
  trace::ReplayMaster master(platform.clk, "master", platform.ecbus,
                             platform.ecbus, training);
  master.runToCompletion();
  return ch.buildTable();
}

/// table3_dense: the paper's Table 3 traffic — 4000 transactions of all
/// four classes, issued back to back.
inline trace::BusTrace denseTrace(std::uint64_t seed) {
  return trace::randomMix(sim::hash64(seed, 1), 4000, platformRegions(),
                          trace::MixRatios{});
}

/// spa_idle: SPA-acquisition shape — 240 bursts of 12 crypto-SFR
/// transactions (8 key/operand writes, 4 result reads) separated by 600
/// idle cycles.
inline trace::BusTrace spaTrace(std::uint64_t seed) {
  trace::BusTrace t;
  sim::SplitMix64 data(sim::hash64(seed, 2));
  std::uint64_t cycle = 10;
  for (int burst = 0; burst < 240; ++burst) {
    for (bus::Address i = 0; i < 12; ++i) {
      trace::TraceEntry e;
      e.issueCycle = cycle++;
      if (i < 8) {
        e.kind = bus::Kind::Write;
        e.address = soc::memmap::kCryptoBase + 4 * i;
        e.writeData[0] = static_cast<bus::Word>(data.next());
      } else {
        e.kind = bus::Kind::Read;
        e.address = soc::memmap::kCryptoBase + 0x20 + 4 * (i - 8);
      }
      t.append(e);
    }
    cycle += 600;
  }
  return t;
}

/// Layer-0 switching energy of a trace: the gate-level total minus the
/// static per-cycle baseline, which no transaction-level model sees.
inline double referenceSwitching_fJ(const trace::BusTrace& t) {
  ReplayPlatform<ref::GlBus> platform(energyModel());
  trace::ReplayMaster master(platform.clk, "master", platform.ecbus,
                             platform.ecbus, t);
  master.runToCompletion();
  return platform.ecbus.energy().total_fJ - platform.ecbus.energy().baseline_fJ;
}

} // namespace perfbench

#endif // SCT_PERFBENCH_RIG_H
