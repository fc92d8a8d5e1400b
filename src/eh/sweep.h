// Scheme × field-profile exploration over ckpt::ForkRunner.
//
// Every variant of an intermittent-power sweep executes the identical
// boot prelude (RAM zeroize + EEPROM scan) before the measured crypto
// phase — exactly the amortizable prefix ForkRunner exists for. One
// parent runner boots the workload to the prelude marker at a quiesce
// point and is snapshotted; each variant restores that snapshot into
// its worker's recycled runner (built identically to the parent),
// attaches its own scheme × field supply, and runs only the
// intermittent main phase. Results are written into caller-owned slots
// keyed by variant index (the ParallelRunner discipline), and the
// supply/field evaluation is a pure function of wall cycle — so the
// sweep output is bit-identical at any worker count.
#ifndef SCT_EH_SWEEP_H
#define SCT_EH_SWEEP_H

#include <memory>
#include <string>
#include <vector>

#include "ckpt/fork_runner.h"
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
  /// marker on the calling thread and keeps the snapshot.
  SweepRunner(const power::SignalEnergyTable& table, unsigned blocks,
              const RunnerConfig& cfg = {});

  /// Run every grid cell. threads follows ForkRunner semantics
  /// (0 = default pool, 1 = sequential reference order).
  std::vector<SweepOutcome> run(const std::vector<SweepVariant>& grid,
                                unsigned threads) const;

  /// The boot-per-variant reference: construct a fresh runner, execute
  /// the prelude, then the intermittent phase. Bit-identical outcomes
  /// to run() (restore-equivalence into a recycled runner), used as the
  /// bench baseline and the equivalence test.
  SweepOutcome runFromBoot(const SweepVariant& v) const;

  const ckpt::Snapshot& snapshot() const { return fork_.snapshot(); }

 private:
  /// The intermittent main phase of `v` on a runner already at the
  /// prelude marker (adopted or booted).
  SweepOutcome runVariant(IntermittentRunner& runner,
                          const SweepVariant& v) const;

  const power::SignalEnergyTable* table_;
  soc::AssembledProgram program_;
  RunnerConfig cfg_;
  ckpt::ForkRunner fork_;
};

} // namespace sct::eh

#endif // SCT_EH_SWEEP_H
