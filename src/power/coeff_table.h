// Per-signal energy coefficients.
//
// The paper's characterization step: "We abstracted all different
// transitions and use the average energy per transition for each signal
// considered for our power estimation." A SignalEnergyTable holds that
// abstraction — one femtojoule-per-transition coefficient per EC
// interface bundle — plus a text (de)serialization so characterized
// tables can be shipped with a platform.
//
// Thread-safety: a SignalEnergyTable is a plain value type (an array of
// doubles). Concurrent const access — coeff_fJ/coeffs/energyFor/save —
// from any number of threads is safe as long as no thread mutates the
// same instance; the parallel exploration runner relies on this by
// sharing one characterized table across workers by const reference.
#ifndef SCT_POWER_COEFF_TABLE_H
#define SCT_POWER_COEFF_TABLE_H

#include <array>
#include <iosfwd>
#include <string>

#include "bus/ec_signals.h"

namespace sct::power {

class SignalEnergyTable {
 public:
  SignalEnergyTable() = default;

  double coeff_fJ(bus::SignalId id) const {
    return coeffs_[static_cast<std::size_t>(id)];
  }

  /// The flat per-signal coefficient array, indexed by SignalId order.
  /// Hot loops (Tl1PowerModel::busCycleEnd) index this directly instead
  /// of paying an energyFor call per signal.
  const std::array<double, bus::kSignalCount>& coeffs() const {
    return coeffs_;
  }
  void setCoeff_fJ(bus::SignalId id, double fJPerTransition) {
    coeffs_[static_cast<std::size_t>(id)] = fJPerTransition;
  }

  /// Energy for `n` transitions on a bundle.
  double energyFor(bus::SignalId id, double transitions) const {
    return coeff_fJ(id) * transitions;
  }

  /// Serialize as "name fJ_per_transition" lines.
  void save(std::ostream& os) const;

  /// Largest coefficient load() accepts. The largest characterized
  /// coefficient (EB_A) is about 835 fJ; a table above this cap is a
  /// corrupt or hostile file, not a characterization.
  static constexpr double kMaxCoeff_fJ = 1e6;

  /// Parse the save() format. Throws std::runtime_error on unknown or
  /// repeated signal names, malformed lines, bytes after the value, and
  /// values that are not finite or lie outside [0, kMaxCoeff_fJ];
  /// missing signals keep their current value.
  static SignalEnergyTable load(std::istream& is);

  bool operator==(const SignalEnergyTable&) const = default;

 private:
  std::array<double, bus::kSignalCount> coeffs_{};
};

} // namespace sct::power

#endif // SCT_POWER_COEFF_TABLE_H
