// HW/SW interface exploration harness (paper, Section 4.3).
//
// "This evaluation aims to support finding the best HW/SW interface
// between the java card interpreter and the hardware stack." A
// configuration fixes the address map (window base), the SFR
// organization, the transactions used (single vs. pair-combined,
// bus-read vs. shadowed depth) and the slave's wait states; evaluating
// it runs an applet on the refined model — interpreter → master
// adapter → energy-aware layer-1 bus → slave adapter → stack — and
// reports cycles, transactions and estimated energy. The pure
// functional model (Figure 7a) is the zero-cost reference point.
#ifndef SCT_JCVM_EXPLORATION_H
#define SCT_JCVM_EXPLORATION_H

#include <string>
#include <vector>

#include "jcvm/bytecode_profiler.h"
#include "jcvm/hw_stack.h"
#include "jcvm/interpreter.h"
#include "obs/ledger.h"
#include "obs/stats.h"
#include "power/coeff_table.h"

namespace sct::jcvm {

struct InterfaceConfig {
  std::string name;
  bus::Address base = 0x10000800;  ///< Address-map dimension.
  SfrOrganization organization = SfrOrganization::Combined;
  bool shadowDepth = true;  ///< Depth kept in SW vs. STATUS reads.
  unsigned slaveAddrWait = 0;
  unsigned slaveDataWait = 0;
};

struct ExplorationResult {
  std::string config;
  bool ok = false;
  VmError error = VmError::None;
  JcShort result = 0;
  std::uint64_t bytecodes = 0;
  std::uint64_t stackOps = 0;
  std::uint64_t busTransactions = 0;
  std::uint64_t busCycles = 0;
  std::uint64_t bytesOnBus = 0;
  double energy_fJ = 0.0;
  /// Per-configuration observability snapshot: clock warp/park stats,
  /// bus latency histograms, kernel counters, per-bytecode attribution
  /// and the energy split by transaction class. Each worker fills its
  /// own registry (one kernel per task), so snapshots merge across
  /// configurations with obs::merge without any locking.
  obs::Snapshot obsSnapshot;

  double energyPerBytecode_fJ() const {
    return bytecodes == 0 ? 0.0
                          : energy_fJ / static_cast<double>(bytecodes);
  }
};

/// Run `program` against a hardware stack configured per `config`,
/// with layer-1 energy estimation using `table`. When `bytecodeRanking`
/// is non-null it receives the per-bytecode energy attribution, most
/// expensive first.
ExplorationResult evaluateInterface(
    const JcProgram& program, const std::vector<JcShort>& args,
    const InterfaceConfig& config, const power::SignalEnergyTable& table,
    std::vector<BytecodeEnergyProfiler::Entry>* bytecodeRanking = nullptr);

/// Run `program` on the pure functional stack (Figure 7a): no bus, no
/// energy — the refinement baseline.
ExplorationResult evaluateFunctional(const JcProgram& program,
                                     const std::vector<JcShort>& args);

/// Sweep a whole configuration space, one independent simulation per
/// configuration, fanned out over `threads` workers (0 = use
/// sim::defaultThreadCount(), 1 = sequential on the
/// caller's thread). Each worker builds its own kernel/clock/bus/model
/// stack; `program` and `table` are shared read-only. Results come back
/// indexed by `space` order, so the output is identical to calling
/// evaluateInterface() in a loop no matter how many threads run.
std::vector<ExplorationResult> evaluateInterfaces(
    const JcProgram& program, const std::vector<JcShort>& args,
    const std::vector<InterfaceConfig>& space,
    const power::SignalEnergyTable& table, unsigned threads = 0);

/// The configuration space swept by the Section 4.3 bench.
std::vector<InterfaceConfig> defaultConfigSpace();

/// Fold every per-configuration snapshot into one aggregate view
/// (counters and histogram buckets sum; see obs::merge).
obs::Snapshot mergeObsSnapshots(const std::vector<ExplorationResult>& results);

} // namespace sct::jcvm

#endif // SCT_JCVM_EXPLORATION_H
