// One worker's card: a power::CardRig (TL1 SmartCardSoC + power model)
// plus its energy ledger, recyclable from a shared golden boot
// snapshot.
//
// The serve daemon's whole speed story lives here. Booting a card —
// constructing the platform, loading the applet, running the card OS
// cold-boot prelude (RAM zeroization, EEPROM scan, crypto self-test;
// ~25k bus cycles) to its command-wait loop — costs an order of
// magnitude more than the short session it serves. Instead, ONE card
// boots to the wait loop, a snapshot is taken at a quiesce point
// (bootGolden), and every worker's instance restores that snapshot
// before each session (recycle). The snapshot deliberately carries TWO
// sections beyond the SoC's own fourteen: the Tl1 power model ("pm",
// registered by the rig) and the energy ledger ("ledger", registered
// here after it). Restoring them rewinds every energy accumulator to the
// boot-end count, and the accumulators are integers, so a session's
// energy delta is the same no matter which worker ran it or how many
// sessions the instance served before — the threads=1 vs threads=N
// bit-identity contract.
//
// Thread model: a CardInstance is single-threaded (one per serve
// worker). The golden Snapshot is shared across workers by const
// reference — it is plain immutable data after bootGolden returns.
#ifndef SCT_SERVE_CARD_INSTANCE_H
#define SCT_SERVE_CARD_INSTANCE_H

#include <cstdint>
#include <string>
#include <vector>

#include "ckpt/checkpoint.h"
#include "obs/ledger.h"
#include "power/card_rig.h"
#include "power/coeff_table.h"
#include "serve/scenario.h"

namespace sct::serve {

/// Everything a session produces. Energies are exact attojoule counts;
/// the JSON layer prints them as femtojoules, losslessly.
struct SessionOutcome {
  bool ok = false;           ///< Every exchange completed (no timeout).
  bool expected = false;     ///< ...and every status word matched.
  std::vector<std::uint16_t> sw;  ///< Status word per step.
  std::uint64_t cycles = 0;  ///< Bus-clock cycles the session consumed.
  std::uint64_t instructions = 0;
  obs::LedgerView energy;    ///< Ledger delta over the session window.
  std::string error;         ///< Non-empty on failure.
};

class CardInstance {
 public:
  /// Builds the platform and loads the stock applet (PIN kCardPin).
  /// The instance is at reset — call recycle() with the golden
  /// snapshot before running sessions.
  explicit CardInstance(const power::SignalEnergyTable& table);

  CardInstance(const CardInstance&) = delete;
  CardInstance& operator=(const CardInstance&) = delete;

  /// Boot one card to the applet's command-wait loop and snapshot it
  /// at the first quiesce point (14 platform sections + pm + ledger).
  /// The warmup drives a complete GET CHALLENGE exchange first, which
  /// proves the command loop is live before the snapshot is taken.
  static ckpt::Snapshot bootGolden(const power::SignalEnergyTable& table);

  /// Rewind to the golden boot state (power::CardRig::recycle: drain,
  /// then restore every section). Safe on a freshly constructed
  /// instance and after any session, completed or not.
  void recycle(const ckpt::Snapshot& golden) { rig_.recycle(golden); }

  /// Drive one scenario script against the card. The caller must have
  /// recycle()d since the previous session. Status-word mismatches are
  /// reported, not thrown; a transport timeout marks ok = false and
  /// stops the script.
  SessionOutcome runSession(const std::vector<Step>& steps,
                            std::uint64_t maxCyclesPerStep = 2'000'000);

 private:
  obs::EnergyLedger ledger_;
  power::CardRig rig_;
};

} // namespace sct::serve

#endif // SCT_SERVE_CARD_INSTANCE_H
