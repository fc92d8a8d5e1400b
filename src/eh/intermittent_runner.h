// Intermittent execution of one smart-card workload under a harvested
// supply: run while the capacitor holds, checkpoint at a quiesce point
// when the brownout detector trips, go dark, restore on recharge.
//
// Architecture mirrors serve::CardInstance — the runner owns a
// power::CardRig (TL1 SmartCardSoC, Tl1PowerModel, registry over the
// 14 platform sections plus "pm") and an EnergyLedger registered after
// it as "ledger" (the identical section set, so restores rewind the
// energy accumulators with the platform). On top of that sit the eh
// pieces:
//
//  * A supply hook registered on the falling clock edge at a priority
//    AFTER the bus process (the Tl1 bus commits its cycle and the
//    power model's busCycleEnd at priority 0): the hook reads the
//    power model's total-energy delta for the cycle just committed,
//    steps the SupplyModel (harvest then drain), feeds the
//    power::RollingCurrent window, and evaluates the BrownoutDetector.
//    On any event (trip, supply dead, core halted) it calls
//    Clock::requestBreak() so the outer loop regains control without
//    polling every cycle from outside. The hook is registered at
//    construction and gated by a flag — the clock's handler table is
//    part of the snapshot layout, so it must look identical in the
//    parent that boots the fork snapshot and in every variant that
//    restores it.
//
//  * Wall-clock accounting separate from the sim clock. A restore
//    rewinds the simulated platform (including its clock) to the
//    backup point, but the physical world does not rewind: wall cycles
//    advance monotonically through powered execution, dark recharge
//    and save/restore stalls. Forward progress is sim cycles; wall
//    cycles are what the transaction latency costs.
//
// The platform state the snapshot carries is exactly the serve set;
// the supply, detector and wall counters are deliberately NOT
// checkpointed — power loss rewinds the card, not the world.
#ifndef SCT_EH_INTERMITTENT_RUNNER_H
#define SCT_EH_INTERMITTENT_RUNNER_H

#include <cstdint>
#include <vector>

#include "ckpt/checkpoint.h"
#include "eh/backup_scheme.h"
#include "eh/brownout.h"
#include "eh/field_profile.h"
#include "eh/supply.h"
#include "obs/ledger.h"
#include "obs/stats.h"
#include "power/budget.h"
#include "power/card_rig.h"
#include "power/coeff_table.h"
#include "soc/assembler.h"

namespace sct::eh {

/// Runner knobs independent of supply/scheme choice.
struct RunnerConfig {
  SupplyConfig supply;
  /// Guard sized to the post-trip work it must buy — the quiesce hunt
  /// plus the backup engine's setup — at the CURRENT draw, per the
  /// detector contract. Keep it well below (restart - dead) / heavy
  /// draw: at the characterized chip's burst draw (~3.6e5 fJ/cycle)
  /// the default supply restarts with ~4.4e7 fJ above dead, so a guard
  /// of 128 would demand more headroom than a fresh restart provides
  /// and re-trip within cycles of every restore (a restore/trip
  /// livelock for schemes that skip the emergency save). 48 puts the
  /// guard level at the brownout threshold under sustained heavy load,
  /// leaving the debounced voltage trip primary and the predictive
  /// path covering spikes.
  BrownoutConfig brownout{4, 48};
  /// Rolling-current window feeding the detector (cycles).
  std::size_t currentWindowCycles = 64;
  /// Hard cap on wall cycles before the run is declared stuck.
  std::uint64_t maxWallCycles = 5'000'000;
  /// Chunk size for powered execution between event checks.
  std::uint64_t chunkCycles = 4096;
  /// Bound on the post-trip quiesce hunt (cycles).
  std::uint64_t quiesceHuntLimit = 20'000;
};

/// One powered interval between restore (or start) and power-down.
struct Segment {
  std::uint64_t wallStart = 0;
  std::uint64_t wallEnd = 0;
  std::uint64_t simStart = 0;
  std::uint64_t simEnd = 0;
  obs::LedgerView energy;  ///< Ledger delta over the interval.
};

struct RunResult {
  bool completed = false;        ///< Done marker written, core halted.
  std::uint64_t wallCycles = 0;  ///< Total wall time of the attempt.
  std::uint64_t activeCycles = 0;    ///< Powered, executing.
  std::uint64_t deadCycles = 0;      ///< Dark, recharging.
  std::uint64_t overheadCycles = 0;  ///< Save/restore stalls.
  std::uint64_t replayedCycles = 0;  ///< Progress lost to power-downs.
  std::uint64_t simCycles = 0;       ///< Final simulated clock cycle.
  std::uint64_t instructions = 0;
  std::uint64_t brownouts = 0;
  std::uint64_t backups = 0;    ///< Checkpoints written (beyond #0).
  std::uint64_t restores = 0;
  std::uint64_t hardDeaths = 0;  ///< Supply hit vDead before a save.
  double backupEnergy_fJ = 0.0;
  double restoreEnergy_fJ = 0.0;
  double harvested_fJ = 0.0;
  double consumed_fJ = 0.0;
  double finalStored_fJ = 0.0;
  std::size_t checkpointBytes = 0;    ///< Size of the last backup.
  std::uint64_t checkpointDigest = 0; ///< FNV-1a of the last backup.
  std::uint32_t progressWord = 0;     ///< Blocks finished (workload).
  std::uint32_t digestWord = 0;       ///< Workload digest word.
  std::vector<std::uint64_t> brownoutWallCycles;
  std::vector<Segment> segments;

  /// Fraction of wall time spent making forward progress.
  double dutyCycle() const {
    return wallCycles == 0
               ? 0.0
               : static_cast<double>(activeCycles) /
                     static_cast<double>(wallCycles);
  }
  double overheadRatio() const {
    return wallCycles == 0
               ? 0.0
               : static_cast<double>(overheadCycles) /
                     static_cast<double>(wallCycles);
  }
};

class IntermittentRunner {
 public:
  /// Builds the platform and loads `program`. The instance is at
  /// reset; call run() directly (cold start) or recycle() a snapshot
  /// from an identically constructed parent first.
  IntermittentRunner(const power::SignalEnergyTable& table,
                     const soc::AssembledProgram& program);

  IntermittentRunner(const IntermittentRunner&) = delete;
  IntermittentRunner& operator=(const IntermittentRunner&) = delete;

  /// Drive the platform (fully powered, no supply accounting) until
  /// the RAM word at kPreludeOffset reads `marker` and the platform
  /// quiesces, then snapshot. The boot parent for sweeps.
  ckpt::Snapshot bootToMarker(std::uint32_t marker,
                              std::uint64_t maxCycles = 2'000'000);

  /// Restore a snapshot taken by an identically constructed runner
  /// (power::CardRig::recycle: drain, then restore). Legal on a runner
  /// that already ran, finished or stopped by cfg.maxWallCycles
  /// mid-transfer: together with run()'s own reset of the per-run
  /// state, a recycled runner behaves exactly like a fresh one.
  void recycle(const ckpt::Snapshot& snap) { rig_.recycle(snap); }

  /// Execute the workload from the current platform state under
  /// `field` and `scheme`. Returns when the done marker is written and
  /// the core halts, or when cfg.maxWallCycles elapse. Resets every
  /// piece of per-run state the snapshot does not carry (supply,
  /// detector, wall counters, hook flags) on entry.
  RunResult run(const FieldProfile& field, const BackupScheme& scheme,
                const RunnerConfig& cfg);

  power::CardRig::Soc& soc() { return rig_.soc; }

 private:
  void hookCycle();

  obs::EnergyLedger ledger_;
  power::CardRig rig_;

  // Per-run state the falling-edge hook reads/writes (plain members:
  // the hook is registered once at construction and gated by
  // engaged_, keeping the clock's handler table — part of the
  // snapshot layout — identical across parent and variants).
  bool engaged_ = false;
  std::uint64_t pmMark_aJ_ = 0;
  std::uint64_t wall_ = 0;
  SupplyModel* supply_ = nullptr;
  power::RollingCurrent* rolling_ = nullptr;
  BrownoutDetector detector_;
  std::uint64_t periodicInterval_ = 0;
  std::uint64_t backupSimCycle_ = 0;
  bool saveRequested_ = false;
  bool periodicDue_ = false;
  bool died_ = false;
};

/// Publish one attempt's counters into an obs registry under the
/// `eh.` prefix (brownouts, backups, dead/active/overhead cycles,
/// backup energy, per-segment length histogram).
void publishRunObs(const RunResult& r, obs::StatsRegistry& reg);

} // namespace sct::eh

#endif // SCT_EH_INTERMITTENT_RUNNER_H
