// Extension — the whole SoC at layer-2 fidelity.
//
// Haverinen's layer 2 is meant for "hardware architectural performance
// and behavior analysis, HW/SW partitioning, or cycle performance
// estimation". With the layer bridge (bus/tl2_bridge.h) the complete
// smart card — core, caches, peripherals, firmware — runs on the
// layer-2 bus: same results, estimated timing, layer-2 energy. This
// bench compares full-system runs across the two layers, which is the
// fidelity/speed decision a user of this library faces.
#include <chrono>
#include <cstdio>
#include <iostream>

#include "bench_util.h"
#include "bus/tl2_bridge.h"
#include "power/tl1_power_model.h"
#include "power/tl2_power_model.h"
#include "soc/smartcard.h"
#include "trace/report.h"

int main() {
  using namespace sct;
  using Clock = std::chrono::steady_clock;

  const auto& table = bench::characterizedTable();
  const auto& firmware = bench::workloadFirmware();

  // --- Layer 1 SoC -----------------------------------------------------
  soc::SmartCardSoC<bus::Tl1Bus> l1{soc::SocConfig{}};
  power::Tl1PowerModel pm1(table);
  l1.bus().addObserver(pm1);
  l1.loadProgram(firmware);
  const auto w1 = Clock::now();
  const bool ok1 = l1.run();
  const double host1 =
      std::chrono::duration<double, std::milli>(Clock::now() - w1).count();

  // --- Layer 2 SoC (through the layer bridge) --------------------------
  soc::SmartCardSoC<bus::BridgedTl2Bus> l2{soc::SocConfig{}};
  power::Tl2PowerModel pm2(table);
  l2.bus().addObserver(pm2);
  l2.loadProgram(firmware);
  const auto w2 = Clock::now();
  const bool ok2 = l2.run();
  const double host2 =
      std::chrono::duration<double, std::milli>(Clock::now() - w2).count();

  std::printf("Extension: full-SoC simulation at both bus layers "
              "(evaluation firmware)\n\n");
  trace::Table t({"Layer", "Simulated cycles", "Bus txns",
                  "Energy estimate (pJ)", "OK"});
  t.addRow({"layer 1 (cycle-true)",
            std::to_string(l1.cpu().stats().cycles),
            std::to_string(l1.bus().stats().transactions()),
            trace::Table::num(pm1.totalEnergy_fJ() / 1e3, 1),
            ok1 ? "yes" : "NO"});
  t.addRow({"layer 2 (estimated)",
            std::to_string(l2.cpu().stats().cycles),
            std::to_string(l2.bus().stats().transactions()),
            trace::Table::num(pm2.totalEnergy_fJ() / 1e3, 1),
            ok2 ? "yes" : "NO"});
  t.print(std::cout);
  // Host time varies run to run, so it stays off stdout.
  std::fprintf(stderr, "host time (ms): layer 1 %.2f, layer 2 %.2f\n", host1,
               host2);

  const bool sameResult =
      l1.ram().peekWord(soc::memmap::kRamBase + 0x90) ==
          l2.ram().peekWord(soc::memmap::kRamBase + 0x90) &&
      l1.uart().transmitted() == l2.uart().transmitted();
  const double drift =
      100.0 * (static_cast<double>(l2.cpu().stats().cycles) -
               static_cast<double>(l1.cpu().stats().cycles)) /
      static_cast<double>(l1.cpu().stats().cycles);
  std::printf("\nfunctional results identical: %s; layer-2 cycle "
              "estimate drift: %+.1f%%\n",
              sameResult ? "yes" : "NO", drift);
  std::printf("The blocking core masks most of layer 2's speed advantage"
              " at\nsystem level; pure bus replays (Table 3) show its "
              "full throughput.\n");
  return 0;
}
