// Low-power bus-encoding exploration CLI: run the codec × workload
// grid over the fork-based sweep and print the energy-per-transaction
// economics of every cell — which encoding pays off on which traffic,
// and what the invert-line control overhead costs.
//
//   enc_sweep [threads]
//     threads  sweep workers (default 0 = hardware pool, 1 = serial)
//
// The run double-checks the subsystem's two headline contracts and
// fails (nonzero exit) if either breaks:
//  * the outcome table is bit-identical between threads=1 and the
//    worker pool (fork-based restore determinism), and
//  * bus-invert reduces data-bus transitions on the random-data
//    "crypto" workload relative to the identity codec.
#include <cstdlib>
#include <iostream>
#include <string>
#include <vector>

#include "bus/memory_slave.h"
#include "enc/sweep.h"
#include "power/characterizer.h"
#include "ref/energy.h"
#include "ref/gl_bus.h"
#include "ref/parasitics.h"
#include "sim/clock.h"
#include "sim/kernel.h"
#include "trace/replay_master.h"
#include "trace/report.h"
#include "trace/workloads.h"

namespace {

using sct::trace::Table;

/// Characterize a coefficient table on the layer-0 reference platform
/// (self-contained: the example does not link the bench harness).
sct::power::SignalEnergyTable characterize() {
  using namespace sct;
  static const ref::ParasiticDb db = ref::ParasiticDb::makeDefault();
  static const ref::TransitionEnergyModel model(db, ref::ProcessParams{});
  sim::Kernel kernel;
  sim::Clock clk(kernel, "clk", 10);
  ref::GlBus bus(clk, "ecbus_gl", model);
  bus::SlaveControl ctl;
  ctl.base = 0x0000;
  ctl.size = 0x4000;
  bus::MemorySlave mem("ram", ctl);
  bus.attach(mem);
  power::Characterizer ch(model);
  bus.addFrameListener(ch);
  const std::vector<trace::TargetRegion> regions = {
      {0x0000, 0x4000, true, true, true}};
  const trace::BusTrace training =
      trace::characterizationTrace(42, 400, regions);
  trace::ReplayMaster master(clk, "master", bus, bus, training);
  master.runToCompletion();
  return ch.buildTable();
}

bool identical(const sct::enc::EncOutcome& a, const sct::enc::EncOutcome& b) {
  return a.variant.codec == b.variant.codec &&
         a.variant.workload == b.variant.workload &&
         a.transactions == b.transactions && a.cycles == b.cycles &&
         a.total_fJ == b.total_fJ && a.perTxn_fJ == b.perTxn_fJ &&
         a.dataBus_fJ == b.dataBus_fJ && a.addrBus_fJ == b.addrBus_fJ &&
         a.dataTransitions == b.dataTransitions &&
         a.addrTransitions == b.addrTransitions;
}

const sct::enc::EncOutcome* find(const std::vector<sct::enc::EncOutcome>& all,
                                 const std::string& codec,
                                 const std::string& workload) {
  for (const sct::enc::EncOutcome& o : all) {
    if (o.variant.codec == codec && o.variant.workload == workload) return &o;
  }
  return nullptr;
}

} // namespace

int main(int argc, char** argv) {
  using namespace sct;
  unsigned threads = 0;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      std::cout << "usage: enc_sweep [threads]\n";
      return 0;
    }
    threads = static_cast<unsigned>(std::strtoul(arg.c_str(), nullptr, 10));
  }

  const power::SignalEnergyTable table = characterize();

  std::cout << "Low-power bus-encoding sweep: codec x workload grid\n"
            << "(boot prelude amortized via ckpt::ForkRunner; threads="
            << threads << ")\n\n";

  const enc::SweepRunner sweep(table);
  const std::vector<enc::EncVariant> grid = enc::defaultGrid();
  const std::vector<enc::EncOutcome> outcomes = sweep.run(grid, threads);

  std::cout << "Boot snapshot: " << sweep.snapshot().saveToBuffer().size()
            << " bytes shared by " << grid.size() << " variants\n";

  // Contract 1: the sweep is bit-identical at any worker count.
  const std::vector<enc::EncOutcome> reference = sweep.run(grid, 1);
  bool bitIdentical = outcomes.size() == reference.size();
  for (std::size_t i = 0; bitIdentical && i < outcomes.size(); ++i) {
    bitIdentical = identical(outcomes[i], reference[i]);
  }
  std::cout << "Worker-pool vs serial outcomes: "
            << (bitIdentical ? "bit-identical" : "MISMATCH") << "\n\n";

  for (const std::string& wl : enc::workloadNames()) {
    const enc::EncOutcome* id = find(outcomes, "identity", wl);
    if (id == nullptr) continue;
    std::cout << "Workload \"" << wl << "\" (" << id->transactions
              << " transactions, " << id->cycles << " bus cycles):\n";
    Table t({"codec", "fJ/txn", "vs identity", "data trans", "addr trans",
             "data fJ", "addr fJ"});
    for (const std::string& codec : enc::codecNames()) {
      const enc::EncOutcome* o = find(outcomes, codec, wl);
      if (o == nullptr) continue;
      t.addRow({codec, Table::num(o->perTxn_fJ, 1),
                Table::pct(o->perTxn_fJ / id->perTxn_fJ, 1),
                std::to_string(o->dataTransitions),
                std::to_string(o->addrTransitions),
                Table::num(o->dataBus_fJ, 1), Table::num(o->addrBus_fJ, 1)});
    }
    t.print(std::cout);
    std::cout << "\n";
  }
  std::cout << "(data trans/fJ include the EB_Inv control-line "
               "overhead)\n\n";

  // Contract 2: bus-invert earns its keep on random data.
  const enc::EncOutcome* idCrypto = find(outcomes, "identity", "crypto");
  const enc::EncOutcome* biCrypto = find(outcomes, "bus-invert", "crypto");
  bool invertWins = idCrypto != nullptr && biCrypto != nullptr &&
                    biCrypto->dataTransitions < idCrypto->dataTransitions;
  if (idCrypto != nullptr && biCrypto != nullptr) {
    std::cout << "bus-invert on \"crypto\": "
              << idCrypto->dataTransitions << " -> "
              << biCrypto->dataTransitions
              << " data-bus transitions (incl. EB_Inv), "
              << (invertWins ? "reduction confirmed" : "NO reduction")
              << "\n";
  }

  return bitIdentical && invertWins ? 0 : 1;
}
