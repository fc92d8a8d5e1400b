// Frame-reconstruction transition-counting engine of the layer-1
// energy model.
//
// This is the hot half of power::Tl1PowerModel (paper, Section 3.3),
// factored out so the layer-1 bus can drive it through non-virtual,
// header-visible calls: when an observer offering a fused engine
// (Tl1Observer::fusedFrameEnergy) attaches to Tl1Bus, the bus invokes
// the engine directly from its phases and the per-event info structs
// and touch chains inline away. The engine is deliberately
// power-agnostic at the interface level — it takes the characterized
// per-signal coefficients as a plain array of whole attojoules, so bus/
// stays independent of power/.
//
// Energy is an integer: each changed bundle costs its coefficient times
// its popcount, in aJ, summed in std::uint64_t. Integer addition is
// associative, so the scalar dirty-walk, the packed-lane pass and the
// ledger's splits all agree exactly with the total whatever order they
// add in. At the characterized table a cycle with every wire toggling
// costs about 8.1e7 aJ, so the total cannot overflow before 2.2e11
// cycles (1.4e8 cycles for a table with every coefficient at
// power::SignalEnergyTable::kMaxCoeff_fJ).
#ifndef SCT_BUS_TL1_FRAME_ENERGY_H
#define SCT_BUS_TL1_FRAME_ENERGY_H

#include <array>
#include <bit>
#include <cstdint>

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

  // -- Cycle event hooks (mirror bus::Tl1Observer, non-virtual) --------

  void busCycleBegin(std::uint64_t /*cycle*/) {
    // Open the cycle: buses, qualifiers and select lines hold their
    // values; handshake strobes return to the inactive level. The
    // strobe deassertion is handled lazily — strobe() cancels it for
    // bundles re-driven this cycle, busCycleEnd applies it to the rest
    // — so opening a cycle costs nothing.
  }

  // The event hooks are forced inline: they exist precisely so the bus
  // phases can absorb them (the fused drive path), and at -O3 the
  // inliner's size heuristics otherwise leave them as outlined calls —
  // measurably hot on the Table 3 benchmark.
  [[gnu::always_inline]] inline void addressPhase(
      const AddressPhaseInfo& info) {
    if (ledger_ != nullptr) noteAddressOwners(info);
    touch(SignalId::EB_A, info.address);
    touch(SignalId::EB_Instr, info.kind == Kind::InstrFetch);
    touch(SignalId::EB_Write, info.kind == Kind::Write);
    touch(SignalId::EB_Burst, info.beats > 1);
    touch(SignalId::EB_BE, info.byteEnables);
    strobe(SignalId::EB_AValid);
    touch(SignalId::EB_Sel,
          info.error ? 0 : AddressDecoder::selectMask(info.slave));
    if (info.accepted && !info.error) strobe(SignalId::EB_ARdy);
  }

  [[gnu::always_inline]] inline void readBeat(const DataBeatInfo& info) {
    if (ledger_ != nullptr) noteBeatOwners(info, /*isWrite=*/false);
    if (info.error) {
      strobe(SignalId::EB_RBErr);
      strobe(SignalId::EB_Last);
      return;
    }
    touch(SignalId::EB_RData, info.data);
    // Invert sideband of the read-data bus: level signal, so only the
    // read channel's bit is re-driven — the write bit holds.
    touch(SignalId::EB_Inv,
          (frame_.get(SignalId::EB_Inv) & ~kInvReadBit) |
              (info.invert ? kInvReadBit : 0));
    strobe(SignalId::EB_RdVal);
    if (info.last) strobe(SignalId::EB_Last);
  }

  [[gnu::always_inline]] inline void writeBeat(const DataBeatInfo& info) {
    if (ledger_ != nullptr) noteBeatOwners(info, /*isWrite=*/true);
    if (info.error) {
      strobe(SignalId::EB_WBErr);
      strobe(SignalId::EB_Last);
      return;
    }
    touch(SignalId::EB_WData, info.data);
    touch(SignalId::EB_Inv,
          (frame_.get(SignalId::EB_Inv) & ~kInvWriteBit) |
              (info.invert ? kInvWriteBit : 0));
    strobe(SignalId::EB_WDRdy);
    if (info.last) strobe(SignalId::EB_Last);
  }

  [[gnu::always_inline]] inline void busCycleEnd(std::uint64_t /*cycle*/) {
    // Standard RTL power estimation on the reconstructed signals: count
    // the transitions of each bundle and weight them with the
    // characterized average energy per transition.
    //
    // Hot-path shape: only bundles touched this cycle can differ from
    // their shadow (previous-cycle) value — everything else holds by
    // construction — so near-idle cycles walk the dirty mask with a
    // bare XOR + popcount per bundle, while busy cycles take the
    // packed-lane pass (one wide XOR over the whole frame). Frame
    // values are stored masked. Both paths produce the same integer
    // energy as the naive all-signals loop — the equivalence test pins
    // that down.
    //
    // Deferred strobe deassertion: strobes driven high last cycle and
    // not re-driven this cycle drop back to the inactive level now,
    // exactly as if every strobe were cleared eagerly at busCycleBegin.
    std::uint32_t drop = pendingLow_;
    pendingLow_ = strobeSetMask_;
    strobeSetMask_ = 0;
    dirty_ |= drop;
    while (drop != 0) {
      const unsigned i = static_cast<unsigned>(std::countr_zero(drop));
      drop &= drop - 1;
      // shadow_[i] still holds the high level from the last boundary.
      frame_.set(static_cast<SignalId>(i), 0);
    }
    std::uint64_t e = 0;
    std::uint32_t m = dirty_;
    dirty_ = 0;
    if (m != 0 && packed_ && std::popcount(m) >= kPackedLaneThreshold) {
      e = packedCycleEnergy();
    } else {
      while (m != 0) {
        const unsigned i = static_cast<unsigned>(std::countr_zero(m));
        m &= m - 1;
        const std::uint64_t cur = frame_.get(static_cast<SignalId>(i));
        const std::uint64_t diff = shadow_[i] ^ cur;
        if (diff != 0) {
          shadow_[i] = cur;
          e += price(i, static_cast<unsigned>(std::popcount(diff)));
        }
      }
    }
    lastCycle_aJ_ = e;
    total_aJ_ += e;
  }

  // -- Results ---------------------------------------------------------

  std::uint64_t energyLastCycle_aJ() const { return lastCycle_aJ_; }
  std::uint64_t totalEnergy_aJ() const { return total_aJ_; }

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

  void attachLedger(obs::EnergyLedger& ledger) { ledger_ = &ledger; }

  void setPackedCounting(bool on) { packed_ = on; }
  std::uint64_t packedLaneCycles() const { return packedLaneCycles_; }

  /// -- Checkpoint section body (layout and version owned by
  /// Tl1PowerModel).
  void saveState(ckpt::StateWriter& w) const {
    for (std::size_t i = 0; i < kSignalCount; ++i) {
      w.u64(frame_.get(static_cast<SignalId>(i)));
    }
    // At any quiesce point shadow_ == frame_ (busCycleEnd restores the
    // invariant every cycle); the slot layout matches the pre-packed
    // format, which stored one u64 per bundle here as well.
    for (const std::uint64_t v : shadow_) w.u64(v);
    w.u32(dirty_);
    w.u32(strobeSetMask_);
    w.u32(pendingLow_);
    for (const std::uint64_t v : transitions_) w.u64(v);
    w.u64(lastCycle_aJ_);
    w.u64(total_aJ_);
    w.u64(intervalMarker_aJ_);
    for (const std::uint8_t v : ownerClass_) w.u8(v);
    for (const std::int8_t v : ownerSlave_) {
      w.u8(static_cast<std::uint8_t>(v));
    }
  }

  /// Throws ckpt::CheckpointError for a signal mask naming a bundle at
  /// or above kSignalCount or an owner class at or above kTxClassCount:
  /// either would index past the frame or the ledger's class axis.
  void loadState(ckpt::StateReader& r) {
    for (std::size_t i = 0; i < kSignalCount; ++i) {
      frame_.set(static_cast<SignalId>(i), r.u64());
    }
    for (std::uint64_t& v : shadow_) v = r.u64();
    dirty_ = signalMaskFrom(r);
    strobeSetMask_ = signalMaskFrom(r);
    pendingLow_ = signalMaskFrom(r);
    for (std::uint64_t& v : transitions_) v = r.u64();
    lastCycle_aJ_ = r.u64();
    total_aJ_ = r.u64();
    intervalMarker_aJ_ = r.u64();
    for (std::uint8_t& v : ownerClass_) {
      v = r.u8();
      if (v >= obs::kTxClassCount) {
        throw ckpt::CheckpointError(
            "Tl1FrameEnergy::loadState: owner class out of range");
      }
    }
    for (std::int8_t& v : ownerSlave_) v = static_cast<std::int8_t>(r.u8());
  }

 private:
  /// Record a new value for a bundle. The pre-cycle value lives in the
  /// shadow frame (shadow_ == frame_ at every cycle boundary), so a
  /// touch only marks the bundle dirty and writes the new value; a
  /// write that leaves the value as-is is dropped outright (it cannot
  /// produce a transition), so busCycleEnd inspects just the signals
  /// that really moved — every other signal holds by construction.
  /// Handshake strobes must go through strobe() instead: their frame
  /// value is only valid once pending deassertions are accounted for.
  [[gnu::always_inline]] inline void touch(SignalId id, std::uint64_t value) {
    const auto i = static_cast<std::size_t>(id);
    const std::uint64_t masked = value & signalMask(id);
    if (frame_.get(id) == masked) return;  // Holds: no transition.
    dirty_ |= std::uint32_t{1} << i;
    frame_.set(id, masked);
  }

  /// Drive a one-bit handshake strobe to its active level. Strobes are
  /// low at cycle open (busCycleBegin semantics), so the first drive of
  /// a cycle is a 0 -> 1 edge — unless the previous cycle left the
  /// strobe high and its lazy deassertion is still pending, in which
  /// case the strobe simply holds and the deassertion is cancelled.
  [[gnu::always_inline]] inline void strobe(SignalId id) {
    const auto i = static_cast<std::size_t>(id);
    const std::uint32_t bit = std::uint32_t{1} << i;
    if (strobeSetMask_ & bit) return;  // Already high this cycle.
    strobeSetMask_ |= bit;
    if (pendingLow_ & bit) {
      pendingLow_ &= ~bit;  // Held high across the boundary: no edge.
      return;
    }
    // The strobe was low at the last cycle boundary, so shadow_[i] is
    // already 0 — only the new level needs recording.
    dirty_ |= bit;
    frame_.set(id, 1);
  }

  /// Stamp `id`'s attribution owner (used when the ledger is attached;
  /// a strobe deasserting on a later cycle still bills its last
  /// driver).
  void setOwner(SignalId id, obs::TxClass cls, int slave) {
    const auto i = static_cast<std::size_t>(id);
    ownerClass_[i] = static_cast<std::uint8_t>(cls);
    ownerSlave_[i] = static_cast<std::int8_t>(slave);
  }
  void noteAddressOwners(const AddressPhaseInfo& info);
  void noteBeatOwners(const DataBeatInfo& info, bool isWrite);

  /// Count `n` transitions on bundle `i` and return their energy (aJ),
  /// billing it to the bundle's owner when a ledger is attached.
  [[gnu::always_inline]] inline std::uint64_t price(unsigned i, unsigned n) {
    transitions_[i] += n;
    const std::uint64_t e = coeff_[i] * n;
    if (ledger_ != nullptr) {
      ledger_->add(static_cast<SignalId>(i),
                   static_cast<obs::TxClass>(ownerClass_[i]), ownerSlave_[i],
                   e);
    }
    return e;
  }

  /// Price the changed lanes of a busy cycle with one wide XOR pass
  /// over the whole packed frame (see tl1_frame_energy.cpp).
  std::uint64_t packedCycleEnergy();

  static std::uint32_t signalMaskFrom(ckpt::StateReader& r) {
    const std::uint32_t m = r.u32();
    if ((m >> kSignalCount) != 0) {
      throw ckpt::CheckpointError(
          "Tl1FrameEnergy::loadState: signal mask names no bundle");
    }
    return m;
  }

  /// Minimum dirty-bundle count before the packed-lane pass beats the
  /// scalar dirty-walk on this 16-bundle frame. Idle cycles and near-idle
  /// cycles (a few strobes deasserting) stay on the scalar fast path.
  /// Measured on the Table 3 replay: even with AVX-512 VPOPCNTQ strips
  /// the outlined packed call only wins once most of the frame changed
  /// (lowering this to 4 on an AVX-512 host cost ~5%), so the threshold
  /// is the same with and without the vector path.
  static constexpr int kPackedLaneThreshold = 10;

  std::array<std::uint64_t, kSignalCount> coeff_;  ///< aJ per transition.
  SignalFrame frame_;  ///< Wire values of the cycle in progress.
  /// Complete frame of the previous cycle, stored as raw lanes so the
  /// packed path can XOR it against frame_.raw() in bulk. Invariant:
  /// shadow_ == frame_ at every cycle boundary.
  std::array<std::uint64_t, kSignalCount> shadow_{};
  std::uint32_t dirty_ = 0;
  std::uint32_t strobeSetMask_ = 0;  ///< Strobes driven high this cycle.
  std::uint32_t pendingLow_ = 0;  ///< Strobes awaiting lazy deassertion.
  std::array<std::uint64_t, kSignalCount> transitions_{};
  std::uint64_t lastCycle_aJ_ = 0;
  std::uint64_t total_aJ_ = 0;
  std::uint64_t intervalMarker_aJ_ = 0;
  bool packed_ = true;  ///< Packed-lane counting enabled (test hook).
  std::uint64_t packedLaneCycles_ = 0;  ///< Diagnostics, not serialized.

  // Energy attribution (null = detached).
  obs::EnergyLedger* ledger_ = nullptr;
  std::array<std::uint8_t, kSignalCount> ownerClass_{};
  std::array<std::int8_t, kSignalCount> ownerSlave_{};
};
static_assert(kSignalCount < 32, "dirty_ mask is 32 bits wide");

} // namespace sct::bus

#endif // SCT_BUS_TL1_FRAME_ENERGY_H
