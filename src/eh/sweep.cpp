#include "eh/sweep.h"

#include <stdexcept>

#include "sim/parallel_runner.h"

namespace sct::eh {

std::unique_ptr<FieldProfile> makeProfile(const std::string& name,
                                          std::uint64_t seed) {
  // Parameters sized against the default SupplyConfig and the
  // characterized coefficient table: the chip draws ~1e5 fJ per cycle
  // (~3.2 µW equivalent: idle 0.5 µW + bus energy × chipScale), so
  // "constant" and the noisy mean sustain execution while "burst" and
  // "swipe" average below the draw and force the card through
  // brownouts.
  if (name == "constant") {
    return std::make_unique<ConstantField>(5.0);
  }
  if (name == "burst") {
    return std::make_unique<SquareBurstField>(3.0, 6000, 6000);
  }
  if (name == "swipe") {
    return std::make_unique<SwipeField>(3.5, 4000, 8000, 15000);
  }
  if (name == "noisy") {
    return std::make_unique<NoisyField>(std::make_unique<ConstantField>(4.0),
                                        0.5, seed);
  }
  throw std::invalid_argument("unknown field profile: " + name);
}

std::unique_ptr<BackupScheme> makeScheme(const std::string& name) {
  if (name == "threshold") {
    return std::make_unique<ThresholdScheme>();
  }
  if (name == "quiesce") {
    // Clank-style frequent saves are incremental: cheaper per image.
    // The interval must fit inside one energy-limited segment (the
    // default supply buys ~300 powered cycles between restart and
    // brownout at the characterized draw), or progress falls back to
    // the runner's checkpoint-on-resume backstop.
    NvmCosts c;
    c.saveFixed_fJ = 5.0e5;
    c.savePerByte_fJ = 150.0;
    c.saveFixedCycles = 32;
    c.saveBytesPerCycle = 128;
    return std::make_unique<QuiesceScheme>(200, c);
  }
  if (name == "parametric") {
    // Belt and braces: periodic saves plus an emergency save on trip.
    return std::make_unique<ParametricScheme>("parametric", NvmCosts{},
                                              /*onBrownout=*/true,
                                              /*interval=*/500);
  }
  throw std::invalid_argument("unknown backup scheme: " + name);
}

std::vector<SweepVariant> defaultGrid() {
  std::vector<SweepVariant> grid;
  const char* schemes[] = {"threshold", "quiesce", "parametric"};
  const char* profiles[] = {"constant", "burst", "swipe", "noisy"};
  std::uint64_t seed = 1000;
  for (const char* s : schemes) {
    for (const char* p : profiles) {
      grid.push_back(SweepVariant{s, p, seed++});
    }
  }
  return grid;
}

SweepRunner::SweepRunner(const power::SignalEnergyTable& table,
                         unsigned blocks, const RunnerConfig& cfg)
    : table_(table),
      program_(cryptoWorkload(blocks)),
      cfg_(cfg),
      boot_([&] {
        IntermittentRunner parent(table_, program_);
        return parent.bootToMarker(kPreludeMagic);
      }()) {}

SweepOutcome SweepRunner::runVariant(IntermittentRunner& runner,
                                     const SweepVariant& v) const {
  const std::unique_ptr<FieldProfile> field = makeProfile(v.profile, v.seed);
  const std::unique_ptr<BackupScheme> scheme = makeScheme(v.scheme);
  SweepOutcome out;
  out.variant = v;
  out.result = runner.run(*field, *scheme, cfg_);
  return out;
}

std::vector<SweepOutcome> SweepRunner::run(
    const std::vector<SweepVariant>& grid, unsigned threads) const {
  std::vector<SweepOutcome> results(grid.size());
  // recycle() rewinds every checkpointed section; run() resets the
  // supply, detector and wall counters it does not carry.
  sim::runWorkers(
      grid.size(), threads,
      [&] { return IntermittentRunner(table_, program_); },
      [&](IntermittentRunner& runner, std::size_t i) {
        runner.recycle(boot_);
        results[i] = runVariant(runner, grid[i]);
      });
  return results;
}

SweepOutcome SweepRunner::runFromBoot(const SweepVariant& v) const {
  IntermittentRunner runner(table_, program_);
  runner.bootToMarker(kPreludeMagic);
  return runVariant(runner, v);
}

} // namespace sct::eh
