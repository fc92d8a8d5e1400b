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
//  * Poll-driven (any master): each fetch/read/write call brings the
//    lower bus current; the call that finds the lower transaction
//    finished returns the final status directly, exactly the layer-1
//    "poll until Ok/Error" contract.
//  * Stage-published (stage-gating masters): the lower bus publishes
//    its stages (the stage contract of EcInstrIf::fetch), and so does
//    the bridge — sync() and nextFinishCycle() bring the lower bus
//    current once, then complete every transport whose lower
//    transaction finished and post the upper payload as
//    Tl1Stage::Finished for a later pickup. Masters may then gate on the
//    public stage field and park until nextFinishCycle() + 1.
// Either way a finished lower payload is collected by the stage
// contract itself (`result`, then `stage = Idle`), never by a second
// lower call.
//
// In-flight transports live in a fixed slot table, found through a
// compact key array (the upper payload addresses) and an occupancy
// mask; nothing is allocated per transaction. The lower bus bounds the
// table: at most kMaxOutstandingPerClass unfinished transactions per
// class, plus the slot a submit borrows before the lower bus answers
// it. Slot addresses never change, because the lower bus holds
// pointers to their Tl2Requests while they are in flight.
#ifndef SCT_BUS_TL2_BRIDGE_H
#define SCT_BUS_TL2_BRIDGE_H

#include <array>
#include <bit>
#include <cstdint>
#include <cstring>

#include "bus/ec_interfaces.h"
#include "bus/ec_request.h"
#include "bus/tl2_bus.h"

namespace sct::bus {

class Tl2MasterBridge final : public EcInstrIf, public EcDataIf {
 public:
  explicit Tl2MasterBridge(Tl2Bus& lower) : lower_(lower) {}

  BusStatus fetch(Tl1Request& req) override { return transport(req); }
  BusStatus read(Tl1Request& req) override { return transport(req); }
  BusStatus write(Tl1Request& req) override { return transport(req); }

  /// Forward the lower bus's completion hint (see
  /// Tl2Bus::nextFinishCycle) — the one call that brings the lower bus
  /// current — then publish the upper stages as sync() does. A
  /// stage-gating master calls it every cycle it has work in flight.
  std::uint64_t nextFinishCycle() {
    const std::uint64_t next = lower_.nextFinishCycle();
    postFinished();
    return next;
  }

  /// Complete every transport whose lower transaction has finished:
  /// result and read data move into the upper payload, which is posted
  /// as Tl1Stage::Finished for the master's pickup poll; a payload the
  /// master reset() while in flight is left Idle. O(pending).
  void sync() {
    if (occupied_ != 0) nextFinishCycle();
  }

  /// True when no transaction is in flight through the bridge
  /// (Finished payloads awaiting master pickup are no longer the
  /// bridge's — their slots are released when the result is posted).
  bool drained() const { return occupied_ == 0; }

  /// Transactions currently in flight through the bridge.
  std::size_t pendingCount() const {
    return static_cast<std::size_t>(std::popcount(occupied_));
  }

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

  /// Every unfinished lower transaction holds one slot, plus the one a
  /// submit borrows until the lower bus accepts or refuses it.
  static constexpr unsigned kSlots = 3 * kMaxOutstandingPerClass + 1;
  static_assert(kSlots <= 32, "the occupancy mask is 32 bits wide");
  static constexpr std::uint32_t kAllSlots = (std::uint64_t{1} << kSlots) - 1;

  BusStatus transport(Tl1Request& req);
  /// The slot carrying `req`, or kSlots.
  unsigned find(const Tl1Request& req) const;
  /// Claim a free slot for `req`.
  unsigned acquire(Tl1Request& req);
  void release(unsigned i) {
    occupied_ &= ~(std::uint32_t{1} << i);
    keys_[i] = nullptr;
  }
  /// Collect every finished lower transaction and post its upper
  /// payload as Finished (the lower bus must already be current).
  void postFinished();
  /// Pick up a finished lower payload by the stage contract.
  static BusStatus collect(Tl2Request& lower) {
    const BusStatus status = lower.result;
    lower.stage = Tl2Stage::Idle;
    return status;
  }
  /// Move the finished lower result into the upper payload (lane
  /// placement included). The caller decides the upper stage.
  void copyOut(Tl1Request& req, Slot& s, BusStatus status);

  Tl2Bus& lower_;
  std::uint32_t occupied_ = 0;  ///< Bit i: slots_[i] is in flight.
  std::array<Tl1Request*, kSlots> keys_{};
  std::array<Slot, kSlots> slots_{};
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
  std::uint64_t nextFinishCycle() { return bridge_.nextFinishCycle(); }

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
