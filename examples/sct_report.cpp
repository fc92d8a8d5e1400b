// sct-report: one simulation, every observability surface.
//
//  1. Characterize signal-energy coefficients on the layer-0 reference.
//  2. Run a mixed workload on the layer-1 bus with the full obs stack
//     attached: StatsRegistry (clock + bus + kernel + master counters),
//     EnergyLedger (per-bundle / per-class / per-slave attribution,
//     bit-identical to the power model's total) and TraceRecorder.
//  3. Print paper-style attribution tables, dump the registry as JSON,
//     and optionally write a Chrome trace_event file for Perfetto.
//
// Usage: sct_report [trace.json]
#include <algorithm>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>
#include <vector>

#include "bus/memory_slave.h"
#include "bus/tl1_bus.h"
#include "hier/roi_trigger.h"
#include "obs/ledger.h"
#include "obs/stats.h"
#include "obs/trace_json.h"
#include "power/budget.h"
#include "power/characterizer.h"
#include "power/profile.h"
#include "power/tl1_power_model.h"
#include "ref/gl_bus.h"
#include "sim/clock.h"
#include "sim/kernel.h"
#include "soc/assembler.h"
#include "soc/smartcard.h"
#include "trace/replay_master.h"
#include "trace/report.h"
#include "trace/workloads.h"

using namespace sct;

namespace {

bus::SlaveControl ramCtl() {
  bus::SlaveControl c;
  c.base = 0x0000;
  c.size = 0x2000;
  return c;
}

bus::SlaveControl eepromCtl() {
  bus::SlaveControl c;
  c.base = 0x8000;
  c.size = 0x2000;
  c.addrWait = 1;
  c.readWait = 2;
  c.writeWait = 3;
  c.burstBeatWait = 1;
  return c;
}

std::vector<trace::TargetRegion> regions() {
  return {trace::TargetRegion{0x0000, 0x2000, true, true, true},
          trace::TargetRegion{0x8000, 0x2000, true, true, true}};
}

/// ROI-windowed per-region current statistics: one AddressWatchTrigger
/// per target region gates which cycles are "that region's", the same
/// way the sca corpus factory gates its crypto capture. Only the
/// min/mean/peak reduction is kept — SPA inspection of a region's draw
/// without exporting the full per-cycle trace.
class RegionRoiProfiler final : public bus::Tl1Observer {
 public:
  struct Region {
    std::string name;
    hier::AddressWatchTrigger trigger;
    std::vector<double> roiEnergy_fJ;  ///< One entry per armed cycle.
  };

  RegionRoiProfiler(const power::Tl1PowerModel& pm,
                    std::uint64_t holdCycles)
      : pm_(pm), holdCycles_(holdCycles) {}

  void addRegion(std::string name, bus::Address base, bus::Address size) {
    regions_.push_back(Region{
        std::move(name),
        hier::AddressWatchTrigger({{base, size}}, holdCycles_),
        {}});
  }

  void busCycleBegin(std::uint64_t cycle) override { cycle_ = cycle; }
  void addressPhase(const bus::AddressPhaseInfo& info) override {
    if (!info.accepted || info.request == nullptr) return;
    for (Region& r : regions_) r.trigger.onSubmit(*info.request, cycle_);
  }
  void busCycleEnd(std::uint64_t cycle) override {
    const double e = pm_.energyLastCycle_fJ();
    for (Region& r : regions_) {
      if (r.trigger.armed(cycle)) r.roiEnergy_fJ.push_back(e);
    }
  }

  const std::vector<Region>& regions() const { return regions_; }

 private:
  const power::Tl1PowerModel& pm_;
  std::uint64_t holdCycles_;
  std::uint64_t cycle_ = 0;
  std::vector<Region> regions_;
};

power::SignalEnergyTable characterize() {
  ref::ParasiticDb parasitics = ref::ParasiticDb::makeDefault();
  static const ref::TransitionEnergyModel model(parasitics,
                                                ref::ProcessParams{});
  sim::Kernel kernel;
  sim::Clock clock(kernel, "clk", 30'000);
  ref::GlBus refBus(clock, "refbus", model);
  bus::MemorySlave ram("ram", ramCtl());
  bus::MemorySlave eeprom("eeprom", eepromCtl());
  refBus.attach(ram);
  refBus.attach(eeprom);
  power::Characterizer ch(model);
  refBus.addFrameListener(ch);
  const trace::BusTrace training =
      trace::characterizationTrace(1, 800, regions());
  trace::ReplayMaster trainer(clock, "trainer", refBus, refBus, training);
  trainer.runToCompletion();
  return ch.buildTable();
}

} // namespace

int main(int argc, char** argv) {
  const power::SignalEnergyTable table = characterize();

  // --- The instrumented layer-1 system -------------------------------
  sim::Kernel kernel;
  sim::Clock clock(kernel, "clk", 30'000);
  bus::Tl1Bus ecbus(clock, "ecbus");
  bus::MemorySlave ram("ram", ramCtl());
  bus::MemorySlave eeprom("eeprom", eepromCtl());
  ecbus.attach(ram);
  ecbus.attach(eeprom);
  power::Tl1PowerModel pm(table);
  ecbus.addObserver(pm);
  power::PowerProfile profile(30'000);
  power::Tl1ProfileRecorder profRec(pm, profile);
  ecbus.addObserver(profRec);
  // After the power model: the ROI profiler reads the cycle's final
  // energy, exactly like the profile recorder above.
  RegionRoiProfiler roi(pm, /*holdCycles=*/8);
  roi.addRegion("ram", 0x0000, 0x2000);
  roi.addRegion("eeprom", 0x8000, 0x2000);
  ecbus.addObserver(roi);

  obs::StatsRegistry reg;
  obs::EnergyLedger ledger;
  obs::TraceRecorder rec(1u << 15);
  clock.attachObs(reg, &rec);
  ecbus.attachObs(reg, &rec);
  pm.attachLedger(ledger);

  const trace::BusTrace workload = trace::randomMix(
      42, 400, regions(), trace::MixRatios{3, 2, 2, 1, 2}, /*issueGapMax=*/3);
  trace::ReplayMaster master(clock, "master", ecbus, ecbus, workload);
  master.runToCompletion();
  master.publishObs(reg);
  kernel.publishObs(reg);

  // --- ISS dispatch-loop counters ------------------------------------
  // A short firmware run on the full SoC so the decoded-block cache
  // counters (iss.block_hits / iss.block_misses / iss.invalidations)
  // show up in the registry next to the bus-level numbers.
  {
    soc::SmartCardSoC<bus::Tl1Bus> soc{soc::SocConfig{}};
    soc.loadProgram(soc::assemble(R"(
          li    $s0, 0x08000000
          li    $s1, 200
        loop:
          addu  $t0, $t0, $s1
          xor   $t0, $t0, $s1
          addiu $s1, $s1, -1
          bne   $s1, $zero, loop
          sw    $t0, 0($s0)
          break
    )",
                                  soc::memmap::kRomBase));
    if (!soc.run()) std::fprintf(stderr, "warning: ISS demo did not halt\n");
    soc.cpu().publishObs(reg);
  }

  // --- Paper-style attribution tables --------------------------------
  const auto fJ = [](std::uint64_t aJ) { return bus::toFemtojoules(aJ); };
  const double total = fJ(ledger.total_aJ());
  std::printf("total energy: %.1f fJ over %llu bus cycles "
              "(ledger reconciles model total bit-identically: %s)\n\n",
              total,
              static_cast<unsigned long long>(ecbus.stats().cycles),
              ledger.total_aJ() == pm.totalEnergy_aJ() ? "yes" : "NO");

  const auto addRow = [&](trace::Table& t, std::string name,
                          std::uint64_t aJ) {
    t.addRow({std::move(name), trace::Table::num(fJ(aJ)),
              trace::Table::pct(total > 0 ? fJ(aJ) / total : 0.0)});
  };
  {
    trace::Table t({"class", "energy [fJ]", "share"});
    for (std::size_t c = 0; c < obs::kTxClassCount; ++c) {
      const auto cls = static_cast<obs::TxClass>(c);
      addRow(t, obs::txClassName(cls), ledger.byClass_aJ(cls));
    }
    t.print(std::cout);
    std::cout << "\n";
  }
  {
    trace::Table t({"slave", "energy [fJ]", "share"});
    const char* names[] = {"ram", "eeprom"};
    for (int s = 0; s < 2; ++s) addRow(t, names[s], ledger.bySlave_aJ(s));
    t.print(std::cout);
    std::cout << "\n";
  }
  {
    trace::Table t({"signal bundle", "energy [fJ]", "share"});
    for (const bus::SignalInfo& s : bus::kSignalTable) {
      addRow(t, std::string(s.name), ledger.byBundle_aJ(s.id));
    }
    t.print(std::cout);
    std::cout << "\n";
  }

  // --- Rolling current vs deployment budgets --------------------------
  // The same smoothed-draw view the eh brownout detector consumes live,
  // replayed over the recorded profile: peak rolling current against
  // each deployment class the paper names.
  {
    trace::Table t({"deployment class", "budget [mA]", "peak [mA]",
                    "mean [mA]", "verdict"});
    for (const power::SupplySpec& spec :
         {power::gsm5V(), power::iso7816Class3V(), power::contactless()}) {
      power::RollingCurrent rc(spec, 30'000);
      rc.feed(profile);
      t.addRow({spec.name, trace::Table::num(spec.maxCurrent_mA),
                trace::Table::num(rc.peakCurrent_mA(), 4),
                trace::Table::num(rc.meanCurrent_mA(), 4),
                rc.peakCurrent_mA() <= spec.maxCurrent_mA ? "within"
                                                          : "OVER"});
    }
    t.print(std::cout);
    std::cout << "\n";
  }

  // --- ROI-windowed per-region current --------------------------------
  // SPA-style inspection without the full trace: per address region,
  // the current over cycles its ROI trigger is armed — minimum and
  // peak over 16-cycle windows of ROI time, mean over all ROI cycles.
  {
    const power::SupplySpec spec = power::gsm5V();
    const double periodPs = 30'000.0;
    const double chipScale = 120.0;
    const auto toCurrent_mA = [&](double perCycle_fJ) {
      return perCycle_fJ * chipScale / periodPs / (spec.vdd * 1000.0);
    };
    constexpr std::size_t kWin = 16;
    trace::Table t({"region", "roi cycles", "min [mA]", "mean [mA]",
                    "peak [mA]"});
    for (const RegionRoiProfiler::Region& r : roi.regions()) {
      const std::vector<double>& e = r.roiEnergy_fJ;
      double sum = 0.0;
      for (const double v : e) sum += v;
      double minWin = 0.0;
      double peakWin = 0.0;
      if (e.size() >= kWin) {
        double win = 0.0;
        for (std::size_t i = 0; i < kWin; ++i) win += e[i];
        minWin = peakWin = win;
        for (std::size_t i = kWin; i < e.size(); ++i) {
          win += e[i] - e[i - kWin];
          minWin = std::min(minWin, win);
          peakWin = std::max(peakWin, win);
        }
      }
      t.addRow({r.name, std::to_string(e.size()),
                trace::Table::num(toCurrent_mA(minWin / kWin), 4),
                trace::Table::num(
                    e.empty() ? 0.0
                              : toCurrent_mA(sum /
                                             static_cast<double>(e.size())),
                    4),
                trace::Table::num(toCurrent_mA(peakWin / kWin), 4)});
    }
    t.print(std::cout);
    std::cout << "\n";
  }

  // --- Registry JSON --------------------------------------------------
  reg.gauge("energy.total_fJ").set(total);
  std::cout << "registry snapshot:\n";
  reg.writeJson(std::cout);
  std::cout << "\n";

  // --- Chrome trace (Perfetto / chrome://tracing) ---------------------
  if (argc > 1) {
    std::ofstream os(argv[1]);
    if (!os) {
      std::fprintf(stderr, "cannot open %s\n", argv[1]);
      return 1;
    }
    rec.writeJson(os);
    std::printf("wrote %zu timeline events (%llu dropped) to %s\n",
                rec.size(), static_cast<unsigned long long>(rec.dropped()),
                argv[1]);
  } else {
    std::printf("timeline: %zu events recorded (%llu dropped); "
                "pass a filename to write Chrome trace JSON\n",
                rec.size(), static_cast<unsigned long long>(rec.dropped()));
  }
  return 0;
}
