// Transition-counting engine of the layer-1 energy model (paper,
// Section 3.3): the signal frame the bus phases set, the old values it
// is compared with, and the pricing pass the bus process runs after the
// write phase. power::Tl1PowerModel is this engine bound to a
// characterized coefficient table; the engine itself takes the
// coefficients as a plain array of whole attojoules, so bus/ stays
// independent of power/. Tl1Bus::addObserver(Tl1FrameEnergy&) attaches
// it, and the bus drives it on one non-virtual path, ahead of every
// Tl1Observer: the phase hooks are header-visible and forced inline, so
// the per-event info structs inline away.
//
// One fixed pass per cycle, as a hardware bit-transition counter does
// it. The phase hooks only store: a bus, qualifier or select lane takes
// its new masked value, and a handshake strobe ORs its bit into this
// cycle's strobe mask — no hook compares a value or picks a path per
// signal. busCycleEnd sets the strobe lanes from the mask and runs one
// XOR / popcount / multiply loop over all 16 lanes. Every hook raises a
// strobe, so a cycle with an empty mask and no strobe left high from
// the cycle before cannot move a wire: it returns before the loop.
//
// Energy is an integer: each bundle costs its coefficient times its
// popcount, in aJ, summed in std::uint64_t. Integer addition is
// associative, so the total and the ledger's splits agree exactly
// whatever order they add in. At the characterized table a cycle with
// every wire toggling costs about 8.1e7 aJ, so the total cannot
// overflow before 2.2e11 cycles (1.4e8 cycles for a table with every
// coefficient at power::SignalEnergyTable::kMaxCoeff_fJ).
#ifndef SCT_BUS_TL1_FRAME_ENERGY_H
#define SCT_BUS_TL1_FRAME_ENERGY_H

#include <array>
#include <bit>
#include <cstdint>
#include <string>

#include "bus/decoder.h"
#include "bus/ec_interfaces.h"
#include "bus/ec_signals.h"
#include "ckpt/state_io.h"
#include "obs/ledger.h"

namespace sct::bus {

class Tl1FrameEnergy {
 public:
  explicit Tl1FrameEnergy(const std::array<std::uint64_t, kSignalCount>& coeff)
      : coeff_(coeff) {}

  // -- Cycle event hooks (the bus phases, in order) --------------------
  //
  // A cycle opens with every strobe low and every other lane holding
  // its value: the strobe mask is empty between cycles, and busCycleEnd
  // derives the strobe lanes from it. The hooks are forced inline: at
  // -O3 the inliner's size heuristics otherwise leave them as outlined
  // calls from the bus phases, measurably hot on the Table 3 benchmark.
  [[gnu::always_inline]] inline void addressPhase(
      const AddressPhaseInfo& info) {
    if (ledger_ != nullptr) owners_[kAddressGroup] = ownerOf(info);
    frame_.set(SignalId::EB_A, info.address);
    frame_.set(SignalId::EB_Instr, info.kind == Kind::InstrFetch);
    frame_.set(SignalId::EB_Write, info.kind == Kind::Write);
    frame_.set(SignalId::EB_Burst, info.beats > 1);
    frame_.set(SignalId::EB_BE, info.byteEnables);
    frame_.set(SignalId::EB_Sel,
               info.error ? 0 : AddressDecoder::selectMask(info.slave));
    strobes_ |= bitIf(SignalId::EB_AValid, true) |
                bitIf(SignalId::EB_ARdy, info.accepted && !info.error);
  }

  [[gnu::always_inline]] inline void readBeat(const DataBeatInfo& info) {
    if (ledger_ != nullptr) {
      owners_[kReadGroup] = owners_[kLastGroup] = ownerOf(info);
    }
    dataBeat(info, SignalId::EB_RData, kInvReadBit, SignalId::EB_RdVal,
             SignalId::EB_RBErr);
  }

  [[gnu::always_inline]] inline void writeBeat(const DataBeatInfo& info) {
    if (ledger_ != nullptr) {
      owners_[kWriteGroup] = owners_[kLastGroup] = ownerOf(info);
    }
    dataBeat(info, SignalId::EB_WData, kInvWriteBit, SignalId::EB_WDRdy,
             SignalId::EB_WBErr);
  }

  [[gnu::always_inline]] inline void busCycleEnd(std::uint64_t /*cycle*/) {
    // Standard RTL power estimation on the reconstructed signals: count
    // the transitions of each bundle and weight them with the
    // characterized average energy per transition.
    if ((strobes_ | strobesHigh_) == 0) {
      lastCycle_aJ_ = 0;  // Nothing driven, nothing left to fall.
      return;
    }
    const std::uint32_t strobes = strobes_;
    strobesHigh_ = strobes;
    strobes_ = 0;
    const std::uint64_t* cur = frame_.raw();
    std::array<std::uint64_t, kSignalCount> lane_aJ;
    std::uint64_t e = 0;
    for (std::size_t i = 0; i < kSignalCount; ++i) {
      // A strobe lane is its mask bit: high iff driven this cycle.
      const std::uint64_t v =
          (kStrobeMask >> i) & 1u ? (strobes >> i) & 1u : cur[i];
      const auto n = static_cast<std::uint64_t>(std::popcount(shadow_[i] ^ v));
      transitions_[i] += n;
      lane_aJ[i] = coeff_[i] * n;
      e += lane_aJ[i];
      shadow_[i] = v;
    }
    // Stored after the pass, so the pass reads the strobe lanes from
    // registers rather than from stores still in flight.
    for (const SignalId s : kStrobes) {
      frame_.set(s, strobes >> static_cast<unsigned>(s));
    }
    lastCycle_aJ_ = e;
    total_aJ_ += e;
    if (ledger_ != nullptr) bill(lane_aJ);
  }

  // -- Results ---------------------------------------------------------

  std::uint64_t energyLastCycle_aJ() const { return lastCycle_aJ_; }
  std::uint64_t totalEnergy_aJ() const { return total_aJ_; }

  /// No strobe driven, none left high, and nothing priced in the last
  /// cycle: a cycle without a phase event changes no state and no read
  /// of the engine, so Tl1Bus may park its process over such cycles.
  bool quiet() const {
    return (strobes_ | strobesHigh_) == 0 && lastCycle_aJ_ == 0;
  }

  std::uint64_t energySinceLastCall_aJ() {
    const std::uint64_t delta = total_aJ_ - intervalMarker_aJ_;
    intervalMarker_aJ_ = total_aJ_;
    return delta;
  }

  std::uint64_t transitions(SignalId id) const {
    return transitions_[static_cast<std::size_t>(id)];
  }

  /// The frame as reconstructed for the last completed cycle (valid
  /// after busCycleEnd).
  const SignalFrame& frame() const { return frame_; }

  /// Attach an energy-attribution ledger. Every cycle the engine
  /// prices bills it once: each bundle's energy on the bundle axis, and
  /// each owner group's sum on the class and slave axes, so each ledger
  /// axis sums exactly to the energy accrued since attaching. Detached:
  /// one null test per phase hook and per priced cycle.
  void attachLedger(obs::EnergyLedger& ledger) { ledger_ = &ledger; }

  /// -- Checkpoint section body (layout and version owned by
  /// power::Tl1PowerModel): the frame lanes, the transition counts, the
  /// three energy accumulators, then each owner group's class and slave.
  /// The rest of the engine is derived between cycles: the old values
  /// equal the frame, no strobe is driven yet, and the strobes left high
  /// are the frame's high strobe lanes.
  void saveState(ckpt::StateWriter& w) const {
    for (std::size_t i = 0; i < kSignalCount; ++i) w.u64(frame_.raw()[i]);
    for (const std::uint64_t v : transitions_) w.u64(v);
    w.u64(lastCycle_aJ_);
    w.u64(total_aJ_);
    w.u64(intervalMarker_aJ_);
    for (const Owner& o : owners_) {
      w.u8(o.cls);
      w.u8(static_cast<std::uint8_t>(o.slave));
    }
  }

  /// Throws ckpt::CheckpointError, naming the field, for a frame value
  /// wider than its bundle, a last-cycle energy or interval marker above
  /// the total, an owner class outside the ledger's class axis, or an
  /// owner slave below -1 (a decode miss; the ledger folds indices past
  /// its last slot into that slot, so any index from 0 up is one a
  /// platform can decode).
  void loadState(ckpt::StateReader& r) {
    for (std::size_t i = 0; i < kSignalCount; ++i) {
      const auto id = static_cast<SignalId>(i);
      const std::uint64_t v = r.u64();
      refuseIf((v & ~signalMask(id)) != 0, "frame lane wider than its bundle");
      frame_.set(id, v);
      shadow_[i] = v;
    }
    strobes_ = 0;
    strobesHigh_ = 0;
    for (const SignalId s : kStrobes) {
      strobesHigh_ |= bitIf(s, frame_.get(s) != 0);
    }
    for (std::uint64_t& v : transitions_) v = r.u64();
    lastCycle_aJ_ = r.u64();
    total_aJ_ = r.u64();
    intervalMarker_aJ_ = r.u64();
    refuseIf(lastCycle_aJ_ > total_aJ_, "last-cycle energy above the total");
    refuseIf(intervalMarker_aJ_ > total_aJ_,
             "interval marker above the total");
    for (Owner& o : owners_) {
      o.cls = r.u8();
      refuseIf(o.cls >= obs::kTxClassCount, "owner class out of range");
      o.slave = static_cast<std::int8_t>(r.u8());
      refuseIf(o.slave < -1, "owner slave out of range");
    }
  }

 private:
  /// Attribution owner of a group of lanes (see kGroupOf).
  struct Owner {
    std::uint8_t cls = 0;  ///< obs::TxClass.
    std::int8_t slave = 0;
  };

  /// The engine stamps owners per group of lanes that one hook always
  /// drives together, never per lane: the address phase's eight lanes,
  /// each data channel's bus and strobes, and EB_Last with EB_Inv,
  /// which the latest beat of either channel owns. A strobe that falls
  /// on a later cycle still bills its group's last driver.
  enum OwnerGroup : std::uint8_t {
    kAddressGroup,
    kReadGroup,
    kWriteGroup,
    kLastGroup,
    kOwnerGroups
  };
  static constexpr std::array<std::uint8_t, kSignalCount> kGroupOf{
      kAddressGroup, kAddressGroup, kAddressGroup, kAddressGroup,  // A..BE
      kAddressGroup, kAddressGroup, kAddressGroup,  // AValid, ARdy
      kReadGroup,    kReadGroup,    kReadGroup,     // RData, RdVal, RBErr
      kWriteGroup,   kWriteGroup,   kWriteGroup,    // WData, WDRdy, WBErr
      kLastGroup,    kAddressGroup, kLastGroup};    // Last, Sel, Inv

  /// The one-bit handshake strobes: high on a cycle that drives them,
  /// low otherwise.
  static constexpr std::array<SignalId, 7> kStrobes{
      SignalId::EB_AValid, SignalId::EB_ARdy,  SignalId::EB_RdVal,
      SignalId::EB_RBErr,  SignalId::EB_WDRdy, SignalId::EB_WBErr,
      SignalId::EB_Last};
  static constexpr std::uint32_t bitIf(SignalId id, bool on) {
    return static_cast<std::uint32_t>(on) << static_cast<unsigned>(id);
  }
  static constexpr std::uint32_t kStrobeMask = [] {
    std::uint32_t m = 0;
    for (const SignalId s : kStrobes) m |= 1u << static_cast<unsigned>(s);
    return m;
  }();

  template <typename Info>
  static Owner ownerOf(const Info& info) {
    return {static_cast<std::uint8_t>(obs::txClassOf(info.kind)),
            static_cast<std::int8_t>(info.slave)};
  }

  /// One beat on a data channel. An Ok beat drives the data bus and the
  /// channel's EB_Inv line and raises the valid strobe; an error beat
  /// leaves both holding and raises the error strobe. EB_Last rises on
  /// the last beat, and an error beat always ends the transfer.
  [[gnu::always_inline]] inline void dataBeat(const DataBeatInfo& info,
                                              SignalId data,
                                              std::uint64_t invBit,
                                              SignalId valid,
                                              SignalId error) {
    const bool ok = !info.error;
    const std::uint64_t inv = frame_.get(SignalId::EB_Inv);
    frame_.set(data, ok ? info.data : frame_.get(data));
    frame_.set(SignalId::EB_Inv,
               ok ? (inv & ~invBit) | (info.invert ? invBit : 0) : inv);
    strobes_ |= bitIf(valid, ok) | bitIf(error, !ok) |
                bitIf(SignalId::EB_Last, info.last || !ok);
  }

  /// Bill one cycle: every lane on the bundle axis in one bulk add, and
  /// each owner group's sum once on the class and slave axes. Lanes
  /// that did not toggle add 0, so no lane needs a test.
  void bill(const std::array<std::uint64_t, kSignalCount>& lane_aJ) {
    ledger_->addBundles(lane_aJ);
    std::array<std::uint64_t, kOwnerGroups> group_aJ{};
#pragma GCC unroll 16
    for (std::size_t i = 0; i < kSignalCount; ++i) {
      group_aJ[kGroupOf[i]] += lane_aJ[i];
    }
    for (std::size_t g = 0; g < kOwnerGroups; ++g) {
      ledger_->addOwned(static_cast<obs::TxClass>(owners_[g].cls),
                        owners_[g].slave, group_aJ[g]);
    }
  }

  static void refuseIf(bool bad, const char* what) {
    if (bad) {
      throw ckpt::CheckpointError(std::string("Tl1FrameEnergy::loadState: ") +
                                  what);
    }
  }

  std::array<std::uint64_t, kSignalCount> coeff_;  ///< aJ per transition.
  SignalFrame frame_;  ///< Wire values of the cycle in progress.
  /// Frame of the previous cycle. Invariant: shadow_ == frame_ at every
  /// cycle boundary.
  std::array<std::uint64_t, kSignalCount> shadow_{};
  std::uint32_t strobes_ = 0;      ///< Strobes driven this cycle.
  std::uint32_t strobesHigh_ = 0;  ///< Strobes the last cycle left high.
  std::array<std::uint64_t, kSignalCount> transitions_{};
  std::uint64_t lastCycle_aJ_ = 0;
  std::uint64_t total_aJ_ = 0;
  std::uint64_t intervalMarker_aJ_ = 0;

  // Energy attribution (null = detached).
  obs::EnergyLedger* ledger_ = nullptr;
  std::array<Owner, kOwnerGroups> owners_{};
};
static_assert(kSignalCount < 32, "strobe masks are 32 bits wide");

} // namespace sct::bus

#endif // SCT_BUS_TL1_FRAME_ENERGY_H
