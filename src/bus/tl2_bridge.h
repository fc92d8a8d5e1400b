// Layer adapter: layer-1 master interface on a layer-2 bus.
//
// Haverinen's layering (paper, Section 2) lists "bridging layer three
// or layer two components to cycle accurate systems" as a layer use
// case. This bridge exposes the cycle-accurate EC master interfaces
// (EcInstrIf/EcDataIf with non-blocking request/wait/ok/error polling)
// and transports each transaction over a layer-2 bus as one
// pointer-passing transaction. A cycle-true master — e.g. the MIPS
// core — can thereby run on the fast layer-2 model unchanged, at
// layer-2 timing fidelity.
//
// Two completion disciplines coexist:
//  * Poll-driven (any master): each fetch/read/write call pumps the
//    lower transaction; the call that finds it finished returns the
//    final status directly, exactly the layer-1 "poll until Ok/Error"
//    contract.
//  * Stage-published (stage-gating masters): the lower bus publishes
//    its stages (the Tl2MasterIf contract), and so does the bridge —
//    sync() (called from nextFinishCycle(), mirroring the lazy
//    retirement of the event-driven Tl2Bus) completes every transport
//    whose lower transaction finished and posts the upper payload as
//    Tl1Stage::Finished for a later pickup poll. Masters may then gate
//    on the public stage field and park until nextFinishCycle() + 1.
#ifndef SCT_BUS_TL2_BRIDGE_H
#define SCT_BUS_TL2_BRIDGE_H

#include <array>
#include <cstring>
#include <unordered_map>

#include "bus/ec_interfaces.h"
#include "bus/ec_request.h"
#include "bus/tl2_bus.h"

namespace sct::bus {

class Tl2MasterBridge final : public EcInstrIf, public EcDataIf {
 public:
  explicit Tl2MasterBridge(Tl2MasterIf& lower) : lower_(lower) {}

  BusStatus fetch(Tl1Request& req) override { return transport(req); }
  BusStatus read(Tl1Request& req) override { return transport(req); }
  BusStatus write(Tl1Request& req) override { return transport(req); }

  /// Bring published upper stages current, then forward the lower
  /// bus's completion hint.
  std::uint64_t nextFinishCycle() override {
    sync();
    return lower_.nextFinishCycle();
  }

  /// Conservatively true: the lower bus may predict, and the sync()
  /// inside nextFinishCycle() is what publishes upper stages — masters
  /// must keep calling it either way.
  bool predictsFinish() const override { return true; }

  /// Complete every transport whose lower transaction has finished:
  /// result and read data move into the upper payload, which is posted
  /// as Tl1Stage::Finished for the master's pickup poll. O(pending).
  void sync();

  /// True when no transaction is in flight through the bridge
  /// (Finished payloads awaiting master pickup are no longer the
  /// bridge's — their slots are released when the result is posted).
  bool drained() const { return pending_.empty(); }

  /// Transactions currently in flight through the bridge.
  std::size_t pendingCount() const { return pending_.size(); }

  /// -- Checkpoint (see ckpt/checkpoint.h) ------------------------------
  /// A drained bridge holds no state beyond its construction arguments,
  /// so the section is empty: saving requires drained(), and loading
  /// verifies the target is drained too. Version 2: the stage-publishing
  /// byte is gone (every lower bus publishes its stages).
  static constexpr std::uint32_t kCkptVersion = 2;

  void saveState(ckpt::StateWriter& /*w*/) const {
    if (!drained()) {
      throw ckpt::CheckpointError(
          "Tl2MasterBridge::saveState: bridge is not drained (not a "
          "quiesce point)");
    }
  }

  void loadState(ckpt::StateReader& /*r*/) {
    if (!drained()) {
      throw ckpt::CheckpointError(
          "Tl2MasterBridge::loadState: restore target bridge is not "
          "drained");
    }
  }

 private:
  struct Slot {
    Tl2Request lower;
    std::array<std::uint8_t, 16> buffer;
  };

  BusStatus transport(Tl1Request& req);
  /// Move the finished lower result into the upper payload (lane
  /// placement included). The caller decides the upper stage.
  void copyOut(Tl1Request& req, Slot& s, BusStatus status);

  Tl2MasterIf& lower_;
  std::unordered_map<Tl1Request*, Slot> pending_;
};

/// A layer-2 bus packaged with its bridge: a drop-in replacement for
/// Tl1Bus wherever a cycle-true master expects the layer-1 interfaces
/// (e.g. SmartCardSoC<BridgedTl2Bus> runs the whole SoC at layer-2
/// timing fidelity).
class BridgedTl2Bus final : public EcInstrIf, public EcDataIf {
 public:
  BridgedTl2Bus(sim::Clock& clock, std::string name)
      : bus_(clock, std::move(name)), bridge_(bus_) {}

  int attach(EcSlave& slave) { return bus_.attach(slave); }
  void addObserver(Tl2Observer& obs) { bus_.addObserver(obs); }

  BusStatus fetch(Tl1Request& req) override { return bridge_.fetch(req); }
  BusStatus read(Tl1Request& req) override { return bridge_.read(req); }
  BusStatus write(Tl1Request& req) override { return bridge_.write(req); }
  std::uint64_t nextFinishCycle() override {
    return bridge_.nextFinishCycle();
  }
  bool predictsFinish() const override { return bridge_.predictsFinish(); }

  Tl2Bus& lower() { return bus_; }
  Tl2MasterBridge& bridge() { return bridge_; }
  const Tl2BusStats& stats() const { return bus_.stats(); }
  bool idle() const { return bus_.idle(); }
  std::size_t pendingCount() const { return bridge_.pendingCount(); }

  /// -- Checkpoint: one section covering the bus + bridge pair. Version
  /// 3: the embedded Tl2Bus section is at its version 2.
  static constexpr std::uint32_t kCkptVersion = 3;
  void saveState(ckpt::StateWriter& w) const {
    bus_.saveState(w);
    bridge_.saveState(w);
  }
  void loadState(ckpt::StateReader& r) {
    bus_.loadState(r);
    bridge_.loadState(r);
  }

 private:
  Tl2Bus bus_;
  Tl2MasterBridge bridge_;
};

} // namespace sct::bus

#endif // SCT_BUS_TL2_BRIDGE_H
