// Scheme × field-profile exploration, booted once and forked per
// variant.
//
// Every variant of an intermittent-power sweep executes the identical
// boot prelude (RAM zeroize + EEPROM scan) before the measured crypto
// phase — an amortizable prefix. One parent runner boots the workload
// to the prelude marker at a quiesce point and is snapshotted; each
// variant restores that snapshot into its worker's recycled runner
// (sim::runWorkers: one runner per worker thread, built identically to
// the parent), attaches its own scheme × field supply, and runs only
// the intermittent main phase. Results are written into caller-owned
// slots keyed by variant index, and the supply/field evaluation is a
// pure function of wall cycle — so the sweep output is bit-identical at
// any worker count.
#ifndef SCT_EH_SWEEP_H
#define SCT_EH_SWEEP_H

#include <memory>
#include <string>
#include <vector>

#include "ckpt/checkpoint.h"
#include "eh/intermittent_runner.h"
#include "eh/workload.h"

namespace sct::eh {

/// One cell of the sweep grid.
struct SweepVariant {
  std::string scheme;   ///< "threshold" | "quiesce" | "parametric"
  std::string profile;  ///< "constant" | "burst" | "swipe" | "noisy"
  std::uint64_t seed = 0;  ///< Noise seed (noisy profile only).
};

struct SweepOutcome {
  SweepVariant variant;
  RunResult result;
};

/// Factory for the named profiles the sweep grid uses. Parameters are
/// fixed here so a grid cell name identifies an exact field shape.
std::unique_ptr<FieldProfile> makeProfile(const std::string& name,
                                          std::uint64_t seed);

/// Factory for the named schemes.
std::unique_ptr<BackupScheme> makeScheme(const std::string& name);

/// The default scheme × profile grid (every combination, seeded).
std::vector<SweepVariant> defaultGrid();

class SweepRunner {
 public:
  /// Boots the parent workload (blocks crypto blocks) to the prelude
  /// marker on the calling thread and keeps the snapshot. The
  /// coefficient table is copied — passing a temporary is fine.
  SweepRunner(const power::SignalEnergyTable& table, unsigned blocks,
              const RunnerConfig& cfg = {});

  /// Run every grid cell over sim::runWorkers (threads 0 = default
  /// count, 1 = sequential reference order in the caller).
  std::vector<SweepOutcome> run(const std::vector<SweepVariant>& grid,
                                unsigned threads) const;

  /// The boot-per-variant reference: construct a fresh runner, execute
  /// the prelude, then the intermittent phase. Bit-identical outcomes
  /// to run() (restore-equivalence into a recycled runner), used as the
  /// bench baseline and the equivalence test.
  SweepOutcome runFromBoot(const SweepVariant& v) const;

  const ckpt::Snapshot& snapshot() const { return boot_; }

 private:
  /// The intermittent main phase of `v` on a runner already at the
  /// prelude marker (recycled or booted).
  SweepOutcome runVariant(IntermittentRunner& runner,
                          const SweepVariant& v) const;

  power::SignalEnergyTable table_;
  soc::AssembledProgram program_;
  RunnerConfig cfg_;
  ckpt::Snapshot boot_;  ///< The parent at the prelude marker.
};

} // namespace sct::eh

#endif // SCT_EH_SWEEP_H
