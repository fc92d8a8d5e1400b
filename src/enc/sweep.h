// Codec × workload exploration over ckpt::ForkRunner.
//
// Every variant of a codec sweep executes the identical boot prelude
// (firmware-style fetch/read warm-up over ROM and RAM) before the
// measured workload phase — the amortizable prefix ForkRunner exists
// for. One parent platform replays the boot trace to completion at a
// quiesce point and is snapshotted; each variant restores that snapshot
// into a fresh, identically constructed platform, installs its codec on
// the bus, and replays only its workload trace. Outcomes are energy
// deltas between the post-boot and post-workload obs-ledger snapshots
// (bit-stable: the restored start state is bit-identical on every
// worker), so the sweep output is bit-identical at any worker count.
//
// The clock checkpoint demands an exactly matching handler set between
// save and restore, so the replay master is constructed on both sides
// (bus process first, master second) but deliberately NOT checkpointed:
// it is per-variant configuration — each variant's master is built over
// its own workload trace, and workload traces issue back-to-back, so a
// restored clock at boot-end cycle N replays them identically to the
// boot-per-variant reference (runFromBoot, the equivalence baseline).
#ifndef SCT_ENC_SWEEP_H
#define SCT_ENC_SWEEP_H

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "ckpt/fork_runner.h"
#include "enc/codecs.h"
#include "power/coeff_table.h"
#include "trace/bus_trace.h"

namespace sct::enc {

/// One cell of the sweep grid.
struct EncVariant {
  std::string codec;     ///< A codecNames() entry.
  std::string workload;  ///< A workloadNames() entry.
};

/// Energy delta of one variant's workload phase (boot excluded).
struct EncOutcome {
  EncVariant variant;
  std::uint64_t transactions = 0;
  std::uint64_t cycles = 0;  ///< Workload-phase bus cycles.
  double total_fJ = 0.0;     ///< Whole-interface energy (model total).
  double perTxn_fJ = 0.0;    ///< total_fJ / transactions.
  /// Ledger splits:
  double dataBus_fJ = 0.0;  ///< EB_RData + EB_WData + EB_Inv.
  double addrBus_fJ = 0.0;  ///< EB_A.
  /// Transition splits (always live — model counters):
  std::uint64_t dataTransitions = 0;  ///< EB_RData + EB_WData + EB_Inv.
  std::uint64_t addrTransitions = 0;  ///< EB_A.
};

/// The workload names the sweep grid iterates: "crypto" (write-heavy
/// random data — bus-invert's home turf), "jcvm" (fetch-heavy
/// program-like traffic), "memcpy" (sequential burst copies — gray
/// addressing's home turf).
const std::vector<std::string>& workloadNames();

/// The default codec × workload grid (every combination).
std::vector<EncVariant> defaultGrid();

class SweepRunner {
 public:
  /// Replays the boot prelude on the calling thread and keeps the
  /// snapshot; workload traces are generated eagerly here too, so
  /// run() workers only read shared immutable state. The coefficient
  /// table is copied — passing a temporary is fine.
  explicit SweepRunner(const power::SignalEnergyTable& table);

  /// Run every grid cell. threads follows ForkRunner semantics
  /// (0 = default pool, 1 = sequential reference order).
  std::vector<EncOutcome> run(const std::vector<EncVariant>& grid,
                              unsigned threads) const;

  /// The boot-per-variant reference: one platform boots, then a second
  /// master replays the workload with the codec installed. Bit-identical
  /// outcomes to run() (restore-equivalence); the bench baseline and
  /// the equivalence test.
  EncOutcome runFromBoot(const EncVariant& v) const;

  const ckpt::Snapshot& snapshot() const { return fork_.snapshot(); }
  const trace::BusTrace& workload(const std::string& name) const;

 private:
  EncOutcome runVariant(const ckpt::Snapshot& snap,
                        const EncVariant& v) const;

  power::SignalEnergyTable table_;
  trace::BusTrace bootTrace_;
  std::vector<std::pair<std::string, trace::BusTrace>> workloads_;
  ckpt::ForkRunner fork_;
};

} // namespace sct::enc

#endif // SCT_ENC_SWEEP_H
