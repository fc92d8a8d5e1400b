// Layer-1 energy model (paper, Section 3.3 "Layer 1 Energy Model").
//
// "The power estimation unit is implemented as a dedicated module. It
// defines for each bus interface signal a member variable for the new
// and old value. The new values for all signals are set by the
// different bus phases. The bus process calls the energy calculation
// method after the write phase. [...] This methodology is like a
// transaction level to RTL adapter."
//
// Tl1PowerModel is that module: the transition-counting engine
// bus::Tl1FrameEnergy (src/bus/tl1_frame_energy.h) bound to the
// characterized coefficient table. Tl1Bus::addObserver attaches it as
// the bus's engine, which the bus drives on one non-virtual path, ahead
// of every Tl1Observer: the phases set the new values of a signal frame
// (buses and qualifiers hold, handshake strobes start each cycle low),
// and after the write phase it counts bit transitions between the old
// and new frames and converts them to energy with the per-signal
// coefficients — one fixed pass over every signal on each cycle that
// was driven or still has a strobe to fall, nothing at all on an idle
// one. The reconstructed frames are bit-identical to the layer-0
// reference model's frames on the same workload (a property enforced by
// tests), so the only estimation error left is the coefficient
// abstraction itself — slope, coupling, hazard and baseline detail
// averaged into one number per signal (Table 2, layer 1). Energy
// accumulates in whole attojoules (the inherited *_aJ accessors); the
// *_fJ interface methods convert once, at the read.
#ifndef SCT_POWER_TL1_POWER_MODEL_H
#define SCT_POWER_TL1_POWER_MODEL_H

#include <cstdint>

#include "bus/ec_signals.h"
#include "bus/tl1_frame_energy.h"
#include "power/coeff_table.h"
#include "power/power_if.h"

namespace sct::power {

class Tl1PowerModel final : public bus::Tl1FrameEnergy,
                            public CycleAccuratePowerIf {
 public:
  explicit Tl1PowerModel(const SignalEnergyTable& table)
      : bus::Tl1FrameEnergy(table.coeffs()) {}

  // CycleAccuratePowerIf
  double energyLastCycle_fJ() const override {
    return bus::toFemtojoules(energyLastCycle_aJ());
  }
  double energySinceLastCall_fJ() override {
    return bus::toFemtojoules(energySinceLastCall_aJ());
  }
  double totalEnergy_fJ() const override {
    return bus::toFemtojoules(totalEnergy_aJ());
  }

  /// -- Checkpoint (see ckpt/checkpoint.h): saveState and loadState are
  /// the engine's. The section holds the frame, the transition counts,
  /// the attojoule accumulators and the four owner groups' class and
  /// slave, so a restored model continues exactly where the saved run
  /// stood. Version 2: the EB_Inv codec sideband joined the signal
  /// inventory. Version 3: the energy accumulators are u64 aJ, no longer
  /// f64 fJ. Version 4: only the state the single-pass engine keeps —
  /// the shadow lanes, the per-cycle strobe masks and the per-lane
  /// owners of version 3 are derived or grouped.
  static constexpr std::uint32_t kCkptVersion = 4;
};

} // namespace sct::power

#endif // SCT_POWER_TL1_POWER_MODEL_H
