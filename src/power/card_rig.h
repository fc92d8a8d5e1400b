// One recyclable card rig: the TL1 SmartCardSoC with its layer-1 power
// model attached as the dedicated estimator module (paper §3.3), and
// one CheckpointRegistry over the SoC's fourteen sections, then "pm".
//
// Every consumer that boots a card once and re-simulates it many times
// (paper §4.3) — the serve farm, the eh sweep, the sca trace factory —
// holds one rig and restores it through recycle(). The rig owns the
// four decisions they share:
//  * which sections a card snapshot carries, and in what order: the
//    SoC's, then "pm". Owners register their own sections after it
//    (serve and eh add the energy ledger as "ledger");
//  * what counts as quiesced (quiesced());
//  * how to hunt a snapshot point (snapshotWhen());
//  * that a restore drains first (recycle());
//  * how many bytes of a snapshot are card state (cardStateBytes()).
// Whatever the snapshot does not carry — an ROI profiler, a supply
// hook's per-run state, per-trace pokes — the owner resets per use.
//
// Thread model: single-threaded, one rig per worker. Not movable: the
// bus and the registry hold the members' addresses; sim::runWorkers
// builds rigs in place through guaranteed copy elision.
#ifndef SCT_POWER_CARD_RIG_H
#define SCT_POWER_CARD_RIG_H

#include <cstdint>
#include <string>
#include <string_view>

#include "bus/tl1_bus.h"
#include "ckpt/checkpoint.h"
#include "power/coeff_table.h"
#include "power/tl1_power_model.h"
#include "soc/assembler.h"
#include "soc/smartcard.h"

namespace sct::power {

class CardRig {
 public:
  using Soc = soc::SmartCardSoC<bus::Tl1Bus>;

  /// Bound on settle() inside recycle(): a halted or polling core
  /// quiesces within a few cycles, the UART shifter within one frame.
  static constexpr std::uint64_t kSettleCycles = 100'000;

  /// Builds the SoC, attaches the power model and loads `program`.
  /// Restoring re-establishes each memory's baseline image first, so
  /// the program is loaded before any restore — identically in the rig
  /// that took a snapshot and in every rig that restores it.
  CardRig(const SignalEnergyTable& table, const soc::AssembledProgram& program)
      : pm(table) {
    soc.bus().addObserver(pm);
    soc.loadProgram(program);
    soc.registerCheckpoint(registry);
    socSections_ = registry.size();
    registry.add("pm", pm);
  }

  CardRig(const CardRig&) = delete;
  CardRig& operator=(const CardRig&) = delete;

  /// Nothing in flight: no core fetch, load or store, no outstanding
  /// bus transfer, UART shifter idle. The cheap pre-filter for a save;
  /// saveAll() still validates every section.
  bool quiesced() {
    return soc.cpu().busQuiesced() && soc.bus().outstandingTotal() == 0 &&
           !soc.uart().txBusy();
  }

  /// Run single cycles until quiesced(), at most `maxCycles` of them.
  void settle(std::uint64_t maxCycles) {
    for (std::uint64_t i = 0; i < maxCycles && !quiesced(); ++i) {
      soc.clock().runCycles(1);
    }
  }

  /// Step one cycle at a time until `ready()` holds at a quiesce point
  /// and the save succeeds. Throws CheckpointError naming `who` if that
  /// does not happen within `maxCycles` cycles.
  template <typename Ready>
  ckpt::Snapshot snapshotWhen(const Ready& ready, std::uint64_t maxCycles,
                              std::string_view who) {
    std::string lastRefusal;
    for (std::uint64_t i = 0; i < maxCycles; ++i) {
      soc.clock().runCycles(1);
      if (!ready() || !quiesced()) continue;
      try {
        return registry.saveAll();
      } catch (const ckpt::CheckpointError& e) {
        lastRefusal = e.what();
      }
    }
    throw ckpt::CheckpointError(
        std::string(who) + ": not ready at a quiesce point within " +
        std::to_string(maxCycles) + " cycles" +
        (lastRefusal.empty() ? std::string()
                             : "; last refusal: " + lastRefusal));
  }

  /// Bytes a card writes to NVM to back up `snap`, a snapshot of this
  /// rig's registry: its serialized size over the SoC's sections alone.
  /// "pm" and the owners' sections after it (the energy ledger) are
  /// simulator bookkeeping — signal history, transition counts,
  /// attribution — that no card stores, so a backup priced by this size
  /// does not move when that bookkeeping changes. Restores still load
  /// the whole snapshot.
  std::size_t cardStateBytes(const ckpt::Snapshot& snap) const {
    return snap.serializedSize(socSections_);
  }

  /// Drain to a quiesce point, then restore every registered section.
  /// Legal on a fresh rig and on one stopped anywhere, mid-transfer
  /// included. Throws CheckpointError if the restore is refused.
  void recycle(const ckpt::Snapshot& snap) {
    settle(kSettleCycles);
    registry.loadAll(snap);
  }

  Soc soc{soc::SocConfig{}};
  Tl1PowerModel pm;
  ckpt::CheckpointRegistry registry;

 private:
  std::size_t socSections_ = 0;  ///< Registered ahead of "pm".
};

} // namespace sct::power

#endif // SCT_POWER_CARD_RIG_H
