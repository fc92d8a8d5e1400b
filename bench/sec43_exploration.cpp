// Section 4.3 / Figure 7 — "Energy Optimization using Transaction Level
// Bus Models": HW/SW interface exploration for the Java Card VM's
// hardware stack.
//
// For each interface alternative (address map, SFR organization,
// transactions used, slave wait states) the same applets run through
// the refined model — interpreter → master adapter → energy-aware TL1
// bus → slave adapter → stack — and the harness reports cycles,
// transactions and estimated energy, which is exactly the evidence the
// exploration needs to pick the best interface.
#include <cstdio>
#include <iostream>

#include "bench_util.h"
#include "jcvm/applets.h"
#include "jcvm/exploration.h"
#include "sim/parallel_runner.h"
#include "trace/report.h"

int main() {
  using namespace sct;
  using jcvm::ExplorationResult;

  // Build every lazily-constructed shared input on the main thread; the
  // sweep below fans configurations out over a worker pool and shares
  // the table by const reference.
  bench::prewarmSharedWorkloads();
  const auto& table = bench::characterizedTable();
  const unsigned threads = sim::defaultThreadCount();
  std::printf("Exploration sweep on %u thread(s) (override with "
              "SCT_THREADS); results are collected in configuration\n"
              "order, so the tables are identical at any thread count.\n\n",
              threads);

  struct Workload {
    std::string name;
    jcvm::JcProgram program;
    std::vector<jcvm::JcShort> args;
  };
  const Workload workloads[] = {
      {"sum_loop(60)", jcvm::applets::sumLoop(), {60}},
      {"fibonacci(18)", jcvm::applets::fibonacci(), {18}},
      {"wallet(credit 75)", jcvm::applets::wallet(100, 30000), {1, 75}},
      {"array_checksum(16)", jcvm::applets::arrayChecksum(), {16}},
      {"gcd(252, 105)", jcvm::applets::gcd(), {252, 105}},
      {"bubble_sort(10)", jcvm::applets::bubbleSort(), {10, 4}},
  };

  for (const Workload& w : workloads) {
    const ExplorationResult functional =
        jcvm::evaluateFunctional(w.program, w.args);
    std::printf("Workload %s — result %d, %llu bytecodes, %llu stack "
                "operations\n\n",
                w.name.c_str(), functional.result,
                static_cast<unsigned long long>(functional.bytecodes),
                static_cast<unsigned long long>(functional.stackOps));

    trace::Table t({"Interface config", "Bus txns", "Bus cycles",
                    "Bytes", "Energy (pJ)", "fJ/bytecode", "OK"});
    const std::vector<jcvm::InterfaceConfig> space =
        jcvm::defaultConfigSpace();
    const std::vector<ExplorationResult> results =
        jcvm::evaluateInterfaces(w.program, w.args, space, table, threads);
    for (std::size_t i = 0; i < space.size(); ++i) {
      const jcvm::InterfaceConfig& cfg = space[i];
      const ExplorationResult& r = results[i];
      t.addRow({cfg.name, std::to_string(r.busTransactions),
                std::to_string(r.busCycles),
                std::to_string(r.bytesOnBus),
                trace::Table::num(r.energy_fJ / 1e3, 1),
                trace::Table::num(r.energyPerBytecode_fJ(), 1),
                r.ok && r.result == functional.result ? "yes" : "NO"});
    }
    t.print(std::cout);
    std::printf("\n");
  }

  // Per-bytecode energy attribution for one applet/interface pair:
  // the actionable form of the exploration data.
  std::printf("Per-bytecode energy attribution (sum_loop on the "
              "combined-register interface):\n\n");
  std::vector<jcvm::BytecodeEnergyProfiler::Entry> ranking;
  jcvm::InterfaceConfig combined;
  combined.organization = jcvm::SfrOrganization::Combined;
  jcvm::evaluateInterface(jcvm::applets::sumLoop(), {60}, combined, table,
                          &ranking);
  trace::Table bt({"Bytecode", "Executions", "Energy (pJ)", "fJ/exec"});
  for (const auto& e : ranking) {
    bt.addRow({std::string(jcvm::mnemonic(e.op)), std::to_string(e.count),
               trace::Table::num(e.energy_fJ / 1e3, 1),
               trace::Table::num(e.energyPerExecution_fJ(), 1)});
  }
  bt.print(std::cout);

  std::printf(
      "\nReading the tables: the register organization and the\n"
      "transactions used to access the SFRs change the energy and\n"
      "cycle cost of the same applet by integer factors — the basis\n"
      "for choosing the HW/SW interface (paper, Section 4.3). The\n"
      "bytecode ranking shows where that energy goes: stack-touching\n"
      "bytecodes pay for their bus transactions, locals are free.\n");
  return 0;
}
