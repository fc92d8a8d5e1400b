// EC interface signal inventory.
//
// The layer-1 power model works exactly like the paper describes: it is
// a transaction-level-to-RTL adapter that keeps an old and a new value
// for every bus interface signal, lets the bus phases update the new
// values, and counts bit transitions at the end of the cycle. The
// layer-0 reference model drives the same signal set cycle by cycle.
// Both share this inventory so that a "transition on EB_A bit 7" means
// the same thing in characterization and in estimation.
//
// The signal set follows the EC interface as described in the paper:
// one 36-bit address bus with control sideband, and *separate* 32-bit
// read and write data buses, each with its own error indication. Select
// lines of the bus controller's address decoder are included so that
// decoder activity is part of the energy picture.
#ifndef SCT_BUS_EC_SIGNALS_H
#define SCT_BUS_EC_SIGNALS_H

#include <array>
#include <bit>
#include <cstdint>
#include <string_view>

namespace sct::bus {

/// Every signal (bundle) of the modeled EC interface.
enum class SignalId : std::uint8_t {
  EB_A,       ///< Address bus, 36 bits.
  EB_Instr,   ///< Address phase is an instruction fetch, 1 bit.
  EB_Write,   ///< Address phase is a write, 1 bit.
  EB_Burst,   ///< Address phase starts a burst, 1 bit.
  EB_BE,      ///< Byte enables, 4 bits.
  EB_AValid,  ///< Master drives a valid address phase, 1 bit.
  EB_ARdy,    ///< Slave accepts the address phase, 1 bit.
  EB_RData,   ///< Read data bus, 32 bits.
  EB_RdVal,   ///< Read data valid, 1 bit.
  EB_RBErr,   ///< Read bus error, 1 bit.
  EB_WData,   ///< Write data bus, 32 bits.
  EB_WDRdy,   ///< Slave ready for write data, 1 bit.
  EB_WBErr,   ///< Write bus error, 1 bit.
  EB_Last,    ///< Last beat of a burst, 1 bit.
  EB_Sel,     ///< Decoder slave-select lines, 8 bits (one-hot).
  EB_Inv,     ///< Low-power codec invert control, 2 bits (write, read).
  kCount
};

inline constexpr std::size_t kSignalCount =
    static_cast<std::size_t>(SignalId::kCount);

struct SignalInfo {
  SignalId id;
  std::string_view name;
  unsigned width;  ///< Number of wires in the bundle.
};

inline constexpr std::array<SignalInfo, kSignalCount> kSignalTable{{
    {SignalId::EB_A, "EB_A", 36},
    {SignalId::EB_Instr, "EB_Instr", 1},
    {SignalId::EB_Write, "EB_Write", 1},
    {SignalId::EB_Burst, "EB_Burst", 1},
    {SignalId::EB_BE, "EB_BE", 4},
    {SignalId::EB_AValid, "EB_AValid", 1},
    {SignalId::EB_ARdy, "EB_ARdy", 1},
    {SignalId::EB_RData, "EB_RData", 32},
    {SignalId::EB_RdVal, "EB_RdVal", 1},
    {SignalId::EB_RBErr, "EB_RBErr", 1},
    {SignalId::EB_WData, "EB_WData", 32},
    {SignalId::EB_WDRdy, "EB_WDRdy", 1},
    {SignalId::EB_WBErr, "EB_WBErr", 1},
    {SignalId::EB_Last, "EB_Last", 1},
    {SignalId::EB_Sel, "EB_Sel", 8},
    {SignalId::EB_Inv, "EB_Inv", 2},
}};

/// Bit positions within the EB_Inv bundle: one invert indication per
/// data bus (the buses are separate, so each carries its own sideband
/// line). The lines are level signals like EB_Sel — they hold their
/// value until the next beat on the same channel re-drives them — and
/// stay at 0 unless a low-power codec (bus-invert / limited-weight,
/// src/enc) is installed on the bus; without one they never toggle and
/// contribute no transitions and no energy.
inline constexpr std::uint64_t kInvWriteBit = 0x1;  ///< EB_WData inverted.
inline constexpr std::uint64_t kInvReadBit = 0x2;   ///< EB_RData inverted.

constexpr const SignalInfo& signalInfo(SignalId id) {
  return kSignalTable[static_cast<std::size_t>(id)];
}

constexpr unsigned signalWidth(SignalId id) { return signalInfo(id).width; }
constexpr std::string_view signalName(SignalId id) { return signalInfo(id).name; }

/// Total number of individual wires across all bundles.
constexpr unsigned totalWireCount() {
  unsigned n = 0;
  for (const auto& s : kSignalTable) n += s.width;
  return n;
}

/// Simulated bus energy is counted in whole attojoules (aJ) as
/// std::uint64_t, from the per-signal coefficient through every model
/// total and ledger split, so sums are exact whatever their order. This
/// is the one conversion to the femtojoule doubles that reports print.
/// The division is correctly rounded, so a total that is a whole
/// number of aJ reads the same as an exact femtojoule sum would.
constexpr double toFemtojoules(std::uint64_t aJ) {
  return static_cast<double>(aJ) / 1000.0;
}

/// Value mask for a bundle (all defined bits set).
constexpr std::uint64_t signalMask(SignalId id) {
  const unsigned w = signalWidth(id);
  return w >= 64 ? ~std::uint64_t{0} : ((std::uint64_t{1} << w) - 1);
}

/// One cycle's worth of signal values. The frame represents the state of
/// every EC wire during a single clock cycle; buses hold their previous
/// value when idle (holding is the caller's responsibility — see
/// SignalFrameTracker in the power library).
class SignalFrame {
 public:
  constexpr SignalFrame() : values_{} {}

  constexpr std::uint64_t get(SignalId id) const {
    return values_[static_cast<std::size_t>(id)];
  }
  constexpr void set(SignalId id, std::uint64_t value) {
    values_[static_cast<std::size_t>(id)] = value & signalMask(id);
  }

  constexpr bool operator==(const SignalFrame&) const = default;

  /// Raw lane storage in bundle-index order. The layer-1 engine's
  /// cycle-end pass XORs whole frames through this view — one
  /// contiguous 64-bit lane per bundle, no per-signal accessor calls.
  constexpr const std::uint64_t* raw() const { return values_.data(); }

 private:
  std::array<std::uint64_t, kSignalCount> values_;
};

/// Number of bit positions that differ between two values of a bundle.
/// std::popcount lowers to a single POPCNT-class instruction on every
/// target we build for — the bit-clear loop this replaces was the
/// single hottest operation of the layer-1 energy adapter.
constexpr unsigned hammingDistance(SignalId id, std::uint64_t a,
                                   std::uint64_t b) {
  return static_cast<unsigned>(std::popcount((a ^ b) & signalMask(id)));
}

} // namespace sct::bus

#endif // SCT_BUS_EC_SIGNALS_H
