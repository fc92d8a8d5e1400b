// Layer-2 energy model (paper, Section 3.3 "Layer 2 Energy Model").
//
// "Due to the missing detailed timing information another approach is
// necessary. [...] Energy estimation is divided into two phases —
// address phase energy estimation and data phase energy estimation.
// The bus process passes the request to the corresponding energy
// estimation method after the [...] phase is finished. The entire
// address phase for a burst read or write is calculated at once."
//
// Estimation rules (and the inaccuracies they deliberately carry —
// "this model does not allow an accurate count of transitions for
// control signals [...] it considers each transaction phase on its own
// but does not consider interactions between following transactions"):
//
//  * EB_A:    driven-bit count of the address, charged against an idle
//             (zero) bus — the model keeps no cross-transaction state,
//             so repeated or sequential addresses are over-counted.
//  * Qualifiers (EB_Instr/EB_Write/EB_Burst/EB_BE): driven bits per
//             phase, same idle-state assumption.
//  * Handshake strobes: one full pulse (two transitions) per phase —
//             AValid+ARdy per address phase, RdVal or WDRdy per *beat*,
//             EB_Last per transaction. At layer 0/1, back-to-back
//             phases and streaming bursts hold these lines, so this
//             systematically over-counts — the dominant source of the
//             paper's +14.7 %.
//  * EB_Sel:  one pulse per transaction (the model cannot know whether
//             consecutive transactions hit the same slave's line).
//  * Data:    every beat is charged against an idle (zero) bus — "each
//             phase on its own", no inter-beat or inter-transaction
//             correlation; over-counts the strongly correlated data of
//             real instruction streams and arrays.
//
// The model keeps no cross-transaction state and adds integers, so the
// moment a phase is delivered cannot change any sum — which is why it
// can be fed the way every bus::Tl2Observer is: late, in bulk, in the
// per-cycle order, while the event-driven bus stays parked. Every read
// — totals, the interval method, transition counts, saveState — first
// brings that bus current (Tl2Bus::syncObservers), so each read equals
// what the per-cycle reference answers at the same point. A bound
// model must not be read after its bus is destroyed: declare it after
// the bus, as every in-tree site does.
#ifndef SCT_POWER_TL2_POWER_MODEL_H
#define SCT_POWER_TL2_POWER_MODEL_H

#include <cstdint>

#include "bus/ec_interfaces.h"
#include "bus/ec_signals.h"
#include "bus/tl2_bus.h"
#include "ckpt/state_io.h"
#include "obs/ledger.h"
#include "power/coeff_table.h"
#include "power/power_if.h"

namespace sct::power {

class Tl2PowerModel final : public bus::Tl2Observer, public IntervalPowerIf {
 public:
  explicit Tl2PowerModel(const SignalEnergyTable& table) : table_(table) {}

  // bus::Tl2Observer
  void addressPhaseDone(const bus::Tl2PhaseInfo& info) override;
  void dataPhaseDone(const bus::Tl2PhaseInfo& info) override;

  /// Total energy in whole attojoules.
  std::uint64_t totalEnergy_aJ() const {
    sync();
    return total_aJ_;
  }

  // IntervalPowerIf — the paper's layer-2 power interface has only the
  // interval method; Figure 6 shows the resulting phase-granular
  // sampling skew.
  double energySinceLastCall_fJ() override;
  double totalEnergy_fJ() const override {
    return bus::toFemtojoules(totalEnergy_aJ());
  }

  /// Estimated transition counts per bundle (diagnostics).
  std::uint64_t estimatedTransitions(bus::SignalId id) const {
    sync();
    return estTransitions_[static_cast<std::size_t>(id)];
  }

  /// Attach an energy-attribution ledger. Every per-phase energy term is
  /// forwarded, so each ledger axis sums exactly to the energy accrued
  /// since attaching (phases that completed before the attach are
  /// delivered first, unattributed). The ledger is fed as phases are
  /// delivered: it is current whenever the bus is — after any query of
  /// the bus or any read of this model. Read it after completion (every
  /// in-tree reader does) or after such a read.
  void attachLedger(obs::EnergyLedger& ledger) {
    sync();
    ledger_ = &ledger;
  }

  /// -- Checkpoint (see ckpt/checkpoint.h): estimated transition
  /// counters and energy accumulators. Version 3: the attribution
  /// context of the last phase is gone (it was never read back).
  static constexpr std::uint32_t kCkptVersion = 3;

  void saveState(ckpt::StateWriter& w) const {
    sync();
    for (const std::uint64_t v : estTransitions_) w.u64(v);
    w.u64(total_aJ_);
    w.u64(intervalMarker_aJ_);
  }

  /// Delivers pending phases first, so they cannot land on the
  /// restored state later.
  void loadState(ckpt::StateReader& r) {
    sync();
    for (std::uint64_t& v : estTransitions_) v = r.u64();
    total_aJ_ = r.u64();
    intervalMarker_aJ_ = r.u64();
  }

 private:
  void sync() const {
    if (const bus::Tl2Bus* b = attachedBus()) b->syncObservers();
  }
  template <bool kAttributed>
  void chargeAddressPhase(const bus::Tl2PhaseInfo& info);
  template <bool kAttributed>
  void chargeDataPhase(const bus::Tl2PhaseInfo& info);
  template <bool kAttributed>
  void addTransitions(bus::SignalId id, std::uint64_t n, obs::TxClass cls,
                      int slave);

  SignalEnergyTable table_;
  std::array<std::uint64_t, bus::kSignalCount> estTransitions_{};
  std::uint64_t total_aJ_ = 0;
  std::uint64_t intervalMarker_aJ_ = 0;
  obs::EnergyLedger* ledger_ = nullptr;  ///< Attribution; null = detached.
};

} // namespace sct::power

#endif // SCT_POWER_TL2_POWER_MODEL_H
