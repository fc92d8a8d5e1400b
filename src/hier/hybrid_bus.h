// Adaptive-fidelity EC bus: runtime TL1 <-> TL2 layer switching.
//
// The paper picks one layer per run and trades accuracy for speed
// (Table 3). Smart-card analysis only needs cycle-accurate power
// inside regions of interest — the SPA/DPA crypto windows, an APDU
// command — so HybridBus owns BOTH models over the same attached
// slaves and hot-swaps the active one at run time: near-TL2 throughput
// outside the ROIs, TL1-exact cycles, signal frames and energy inside
// them. This is the speed/accuracy navigation Kim et al.'s AMBA TLM
// work motivates, applied across the paper's own hierarchy.
//
// Switch protocol (enforced here, driven by the FidelityController):
//  * A switch is requested at any time but only *completes* at a
//    quiesce point: the TL1 bus idle with zero outstanding in every
//    class, the TL2 bus idle, and the bridge drained. Requests made
//    mid-flight are deferred to the next drain.
//  * While a switch is pending the bus refuses new submissions
//    (BusStatus::Wait) so back-to-back masters cannot starve the
//    drain; polls of in-flight transactions pass through untouched.
//  * Finished payloads awaiting master pickup never block a switch —
//    the pickup is served here, layer-independently, exactly like
//    Tl1Bus::submitOrPoll's Finished branch.
//  * The inactive TL1 process is suspended (Tl1Bus::suspendProcess:
//    its idle park with counting stopped), so TL2 regions keep the
//    event-driven clock warp; its power model sees no callbacks, which
//    is what keeps hybrid TL1-region energy accumulation bit-identical
//    to a pure-TL1 run over the same transactions (idle TL1 cycles
//    only ever add 0).
//  * Every accepted submission is reported by a direct call to the
//    FidelityController bound to the bus (it binds itself on
//    construction), whose triggers decide whether it wakes.
#ifndef SCT_HIER_HYBRID_BUS_H
#define SCT_HIER_HYBRID_BUS_H

#include <cstdint>
#include <string>

#include "bus/ec_interfaces.h"
#include "bus/ec_request.h"
#include "bus/tl1_bus.h"
#include "bus/tl2_bridge.h"
#include "bus/tl2_bus.h"
#include "ckpt/state_io.h"
#include "sim/clock.h"

namespace sct::hier {

/// The two fidelity levels the hybrid bus can run at.
enum class Fidelity : std::uint8_t { Tl1, Tl2 };

constexpr const char* toString(Fidelity f) {
  return f == Fidelity::Tl1 ? "tl1" : "tl2";
}

class FidelityController;

/// Drop-in replacement for Tl1Bus/BridgedTl2Bus wherever a cycle-true
/// master expects the layer-1 interfaces: SmartCardSoC<hier::HybridBus>
/// runs unchanged, and trace::ReplayMaster<hier::HybridBus> replays on
/// it with layer-1 payloads.
class HybridBus final : public bus::EcInstrIf, public bus::EcDataIf {
 public:
  HybridBus(sim::Clock& clock, std::string name,
            Fidelity initial = Fidelity::Tl2);

  /// Register a slave with BOTH layers' decoders (same select index on
  /// each — asserted). The slave's state is shared; only the active
  /// layer ever transfers.
  int attach(bus::EcSlave& slave);

  // EcInstrIf / EcDataIf. Routing: Finished payloads are picked up
  // here (layer-independent), Idle payloads submit to the active layer
  // (refused while a switch is draining), anything else polls the
  // layer that owns it — which is always the active one, because a
  // switch only completes with nothing in flight.
  bus::BusStatus fetch(bus::Tl1Request& req) override;
  bus::BusStatus read(bus::Tl1Request& req) override;
  bus::BusStatus write(bus::Tl1Request& req) override;
  /// Completion hint (see Tl2Bus::nextFinishCycle): TL2 regions
  /// predict completions, so masters park and the clock warps; TL1
  /// regions answer kFinishUnknown — masters with work in flight poll
  /// every cycle there and keep asking, and idle ones park until their
  /// next issue (trace::ReplayMaster's idle rule).
  std::uint64_t nextFinishCycle();

  Fidelity active() const { return active_; }

  /// Ask for a layer switch. Completes immediately when already
  /// quiesced (via tryCompleteSwitch), otherwise stays pending until
  /// the next drain; requesting the currently active fidelity cancels
  /// a pending switch.
  void requestSwitch(Fidelity target);
  bool switchPending() const { return switchPending_; }
  Fidelity pendingTarget() const { return pendingTarget_; }

  /// Complete a pending switch if the quiesce condition holds. Returns
  /// true when the switch happened (the caller — normally the
  /// FidelityController — retries every cycle while draining).
  bool tryCompleteSwitch();

  /// The switch precondition: TL1 idle with zero outstanding, TL2 idle
  /// and the bridge drained. Brings the bridge's lazy completions
  /// current first, hence non-const.
  bool quiesced();

  /// Both layers drained (alias of quiesced() for harness symmetry
  /// with the other bus frontends).
  bool idle() { return quiesced(); }

  /// Completed switches so far.
  std::uint64_t switches() const { return switchCount_; }
  /// Wait answers handed to masters because a switch was draining.
  std::uint64_t drainWaitAnswers() const { return drainWaitAnswers_; }

  // The owned layers, for observer attachment (power models, tracers)
  // and stats.
  bus::Tl1Bus& tl1() { return tl1_; }
  const bus::Tl1Bus& tl1() const { return tl1_; }
  bus::Tl2Bus& tl2() { return tl2_; }
  const bus::Tl2Bus& tl2() const { return tl2_; }
  bus::Tl2MasterBridge& bridge() { return bridge_; }

  const std::string& name() const { return name_; }
  std::uint64_t cycle() const { return clock_.cycle(); }

  /// -- Checkpoint (see ckpt/checkpoint.h): both owned layers, the
  /// bridge and the switch bookkeeping, in one section. Only legal at a
  /// quiesce point — the same precondition a fidelity switch needs, so
  /// any cycle a switch could complete is also a snapshot cycle.
  /// Non-const: quiesced() brings the bridge's lazy completions
  /// current. The FidelityController is NOT part of the snapshot;
  /// checkpoint between its regions and re-drive ROIs from the harness.
  /// loadState refuses a fidelity byte other than tl1 (0) or tl2 (1).
  /// Version 3: the embedded Tl2Bus section is at its version 2.
  static constexpr std::uint32_t kCkptVersion = 3;
  void saveState(ckpt::StateWriter& w);
  void loadState(ckpt::StateReader& r);

 private:
  friend class FidelityController;  // Binds itself as controller_.

  bus::BusStatus route(bus::Tl1Request& req, bus::Kind kind);

  sim::Clock& clock_;
  std::string name_;
  bus::Tl1Bus tl1_;
  bus::Tl2Bus tl2_;
  bus::Tl2MasterBridge bridge_;
  Fidelity active_;
  Fidelity pendingTarget_;
  bool switchPending_ = false;
  std::uint64_t switchCount_ = 0;
  std::uint64_t drainWaitAnswers_ = 0;
  /// Told of every accepted submission (its address watchpoints listen);
  /// null while no controller drives this bus.
  FidelityController* controller_ = nullptr;
};

} // namespace sct::hier

#endif // SCT_HIER_HYBRID_BUS_H
