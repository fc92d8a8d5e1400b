// Per-signal energy coefficients.
//
// The paper's characterization step: "We abstracted all different
// transitions and use the average energy per transition for each signal
// considered for our power estimation." A SignalEnergyTable holds that
// abstraction — one energy-per-transition coefficient per EC interface
// bundle, stored as whole attojoules (rounded once, on the way in) so
// the models price a transition count with one integer multiply — plus
// a text (de)serialization in femtojoules so characterized tables can
// be shipped with a platform.
//
// Thread-safety: a SignalEnergyTable is a plain value type (an array of
// integers). Concurrent const access — coeff_fJ/coeff_aJ/coeffs/save —
// from any number of threads is safe as long as no thread mutates the
// same instance; the parallel exploration runner relies on this by
// sharing one characterized table across workers by const reference.
#ifndef SCT_POWER_COEFF_TABLE_H
#define SCT_POWER_COEFF_TABLE_H

#include <array>
#include <cstdint>
#include <iosfwd>
#include <string>

#include "bus/ec_signals.h"

namespace sct::power {

class SignalEnergyTable {
 public:
  SignalEnergyTable() = default;

  std::uint64_t coeff_aJ(bus::SignalId id) const {
    return coeffs_[static_cast<std::size_t>(id)];
  }
  double coeff_fJ(bus::SignalId id) const {
    return bus::toFemtojoules(coeff_aJ(id));
  }

  /// The flat per-signal coefficient array (aJ), indexed by SignalId
  /// order. Hot loops (Tl1PowerModel::busCycleEnd) index this directly.
  const std::array<std::uint64_t, bus::kSignalCount>& coeffs() const {
    return coeffs_;
  }

  /// Store `fJPerTransition` rounded to the nearest whole attojoule.
  /// Throws std::runtime_error for a value that is not finite or lies
  /// outside [0, kMaxCoeff_fJ].
  void setCoeff_fJ(bus::SignalId id, double fJPerTransition);

  /// Serialize as "name fJ_per_transition" lines.
  void save(std::ostream& os) const;

  /// Largest coefficient setCoeff_fJ() and load() accept. The largest
  /// characterized coefficient (EB_A) is about 835 fJ; a table above
  /// this cap is a corrupt or hostile file, not a characterization.
  static constexpr double kMaxCoeff_fJ = 1e6;

  /// Parse the save() format. Throws std::runtime_error on unknown or
  /// repeated signal names, malformed lines, bytes after the value, and
  /// values that are not finite or lie outside [0, kMaxCoeff_fJ];
  /// missing signals keep their current value.
  static SignalEnergyTable load(std::istream& is);

  bool operator==(const SignalEnergyTable&) const = default;

 private:
  std::array<std::uint64_t, bus::kSignalCount> coeffs_{};
};

} // namespace sct::power

#endif // SCT_POWER_COEFF_TABLE_H
