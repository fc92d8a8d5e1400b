#include "jcvm/exploration.h"

#include "bus/tl1_bus.h"
#include "jcvm/master_adapter.h"
#include "power/tl1_power_model.h"
#include "sim/clock.h"
#include "sim/kernel.h"
#include "sim/parallel_runner.h"

namespace sct::jcvm {

ExplorationResult evaluateInterface(
    const JcProgram& program, const std::vector<JcShort>& args,
    const InterfaceConfig& config, const power::SignalEnergyTable& table,
    std::vector<BytecodeEnergyProfiler::Entry>* bytecodeRanking) {
  sim::Kernel kernel;
  sim::Clock clock(kernel, "clk", 30'000);
  bus::Tl1Bus ecbus(clock, "ecbus");
  power::Tl1PowerModel pm(table);
  ecbus.addObserver(pm);

  // Per-run observability: every worker owns its registry/ledger (one
  // kernel per task), so the sweep needs no locking and the snapshots
  // merge afterwards.
  obs::StatsRegistry reg;
  obs::EnergyLedger ledger;
  clock.attachObs(reg);
  ecbus.attachObs(reg);
  pm.attachLedger(ledger);

  bus::SlaveControl ctl;
  ctl.base = config.base;
  ctl.size = 0x100;
  ctl.addrWait = config.slaveAddrWait;
  ctl.readWait = config.slaveDataWait;
  ctl.writeWait = config.slaveDataWait;
  ctl.canExec = false;

  FunctionalStack backend(256);
  HwStackSlave hwStack("hwstack", ctl, config.organization, backend);
  ecbus.attach(hwStack);

  HwStackMasterAdapter::Config mc;
  mc.base = config.base;
  mc.organization = config.organization;
  mc.shadowDepth = config.shadowDepth;
  HwStackMasterAdapter adapter(clock, ecbus, mc);

  MemoryManager memory(program.staticFieldCount);
  Firewall firewall;
  Interpreter vm(program, adapter, memory, firewall);
  BytecodeEnergyProfiler profiler(pm);
  if (bytecodeRanking != nullptr) vm.setObserver(&profiler);

  ExplorationResult r;
  r.config = config.name;
  r.ok = vm.run(args);
  r.error = vm.error();
  r.result = vm.result();
  r.bytecodes = vm.stats().bytecodesExecuted;
  r.stackOps = vm.stats().stackOps;
  r.busTransactions = adapter.transport().busTransactions;
  r.busCycles = clock.cycle();
  r.bytesOnBus = adapter.transport().bytesOnBus;
  r.energy_fJ = pm.totalEnergy_fJ();
  if (bytecodeRanking != nullptr) *bytecodeRanking = profiler.ranking();

  kernel.publishObs(reg);
  if (bytecodeRanking != nullptr) profiler.publishTo(reg);
  reg.gauge("energy.total_fJ").set(ledger.total_fJ());
  for (std::size_t c = 0; c < obs::kTxClassCount; ++c) {
    const auto cls = static_cast<obs::TxClass>(c);
    reg.gauge(std::string("energy.by_class_fJ.") + obs::txClassName(cls))
        .set(ledger.byClass_fJ(cls));
  }
  r.obsSnapshot = reg.snapshot();
  return r;
}

ExplorationResult evaluateFunctional(const JcProgram& program,
                                     const std::vector<JcShort>& args) {
  FunctionalStack stack(256);
  MemoryManager memory(program.staticFieldCount);
  Firewall firewall;
  Interpreter vm(program, stack, memory, firewall);

  ExplorationResult r;
  r.config = "functional";
  r.ok = vm.run(args);
  r.error = vm.error();
  r.result = vm.result();
  r.bytecodes = vm.stats().bytecodesExecuted;
  r.stackOps = vm.stats().stackOps;
  return r;
}

std::vector<ExplorationResult> evaluateInterfaces(
    const JcProgram& program, const std::vector<JcShort>& args,
    const std::vector<InterfaceConfig>& space,
    const power::SignalEnergyTable& table, unsigned threads) {
  std::vector<ExplorationResult> results(space.size());
  sim::runIndexed(
      space.size(), threads, [&](std::size_t i) {
        results[i] = evaluateInterface(program, args, space[i], table);
      });
  return results;
}

obs::Snapshot mergeObsSnapshots(
    const std::vector<ExplorationResult>& results) {
  obs::Snapshot all;
  for (const ExplorationResult& r : results) obs::merge(all, r.obsSnapshot);
  return all;
}

std::vector<InterfaceConfig> defaultConfigSpace() {
  std::vector<InterfaceConfig> space;
  {
    InterfaceConfig c;
    c.name = "separate_regs";
    c.organization = SfrOrganization::Separate;
    space.push_back(c);
  }
  {
    InterfaceConfig c;
    c.name = "combined_reg";
    c.organization = SfrOrganization::Combined;
    space.push_back(c);
  }
  {
    InterfaceConfig c;
    c.name = "packed_pairs";
    c.organization = SfrOrganization::Packed;
    space.push_back(c);
  }
  {
    InterfaceConfig c;
    c.name = "combined_status_poll";
    c.organization = SfrOrganization::Combined;
    c.shadowDepth = false;  // Depth queries go over the bus.
    space.push_back(c);
  }
  {
    InterfaceConfig c;
    c.name = "combined_slow_slave";
    c.organization = SfrOrganization::Combined;
    c.slaveDataWait = 2;
    space.push_back(c);
  }
  {
    InterfaceConfig c;
    c.name = "combined_high_addr";
    c.organization = SfrOrganization::Combined;
    c.base = 0xF0000800;  // Address-map choice with heavy bit weight.
    space.push_back(c);
  }
  return space;
}

} // namespace sct::jcvm
