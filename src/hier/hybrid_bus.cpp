#include "hier/hybrid_bus.h"

#include <cassert>
#include <string>
#include <utility>

#include "hier/fidelity_controller.h"

namespace sct::hier {

namespace {

/// A snapshot is outside input: a byte naming neither layer would
/// leave active() equal to neither enumerator.
Fidelity loadFidelity(ckpt::StateReader& r, const char* field) {
  const std::uint8_t v = r.u8();
  if (v > static_cast<std::uint8_t>(Fidelity::Tl2)) {
    throw ckpt::CheckpointError("HybridBus::loadState: " +
                                std::string(field) + " fidelity byte " +
                                std::to_string(v) + " names no layer");
  }
  return static_cast<Fidelity>(v);
}

} // namespace

HybridBus::HybridBus(sim::Clock& clock, std::string name, Fidelity initial)
    : clock_(clock),
      name_(std::move(name)),
      tl1_(clock, name_ + ".tl1"),
      tl2_(clock, name_ + ".tl2"),
      bridge_(tl2_),
      active_(initial),
      pendingTarget_(initial) {
  // The inactive cycle-true process must not burn falling edges (or
  // strobe its observers) while the event-driven layer carries the
  // traffic.
  if (active_ == Fidelity::Tl2) tl1_.suspendProcess();
}

int HybridBus::attach(bus::EcSlave& slave) {
  const int idx = tl1_.attach(slave);
  const int idx2 = tl2_.attach(slave);
  assert(idx == idx2 && "layer decoders must agree on select indices");
  (void)idx2;
  return idx;
}

bus::BusStatus HybridBus::fetch(bus::Tl1Request& req) {
  return route(req, bus::Kind::InstrFetch);
}

bus::BusStatus HybridBus::read(bus::Tl1Request& req) {
  return route(req, bus::Kind::Read);
}

bus::BusStatus HybridBus::write(bus::Tl1Request& req) {
  return route(req, bus::Kind::Write);
}

bus::BusStatus HybridBus::route(bus::Tl1Request& req, bus::Kind kind) {
  if (req.stage == bus::Tl1Stage::Finished) {
    // Pickup of a posted result. Served here so that a payload finished
    // on one layer can be collected after a switch to the other; both
    // layers' own pickup branches do exactly this.
    const bus::BusStatus result = req.result;
    req.stage = bus::Tl1Stage::Idle;
    return result;
  }
  const bool fresh = req.stage == bus::Tl1Stage::Idle;
  if (fresh && switchPending_) {
    // Refuse new work while draining toward the switch — otherwise a
    // back-to-back master keeps the active layer busy forever.
    ++drainWaitAnswers_;
    return bus::BusStatus::Wait;
  }
  bus::BusStatus status;
  if (active_ == Fidelity::Tl1) {
    status = kind == bus::Kind::InstrFetch  ? tl1_.fetch(req)
             : kind == bus::Kind::Read      ? tl1_.read(req)
                                            : tl1_.write(req);
  } else {
    status = kind == bus::Kind::InstrFetch  ? bridge_.fetch(req)
             : kind == bus::Kind::Read      ? bridge_.read(req)
                                            : bridge_.write(req);
  }
  if (fresh && status == bus::BusStatus::Request && controller_ != nullptr) {
    controller_->noteSubmit(req);
  }
  return status;
}

std::uint64_t HybridBus::nextFinishCycle() {
  if (active_ == Fidelity::Tl1) return bus::kFinishUnknown;
  return bridge_.nextFinishCycle();
}

bool HybridBus::quiesced() {
  // Bring the event-driven layer's lazy completions current first, so
  // finished-but-unretired transports don't read as in flight.
  bridge_.sync();
  return tl1_.outstandingTotal() == 0 && tl2_.idle() && bridge_.drained();
}

void HybridBus::requestSwitch(Fidelity target) {
  if (target == active_) {
    switchPending_ = false;  // Cancel: already there (or changed back).
    return;
  }
  pendingTarget_ = target;
  switchPending_ = true;
}

bool HybridBus::tryCompleteSwitch() {
  if (!switchPending_ || !quiesced()) return false;
  switchPending_ = false;
  active_ = pendingTarget_;
  if (active_ == Fidelity::Tl1) {
    tl1_.resumeProcess();
  } else {
    tl1_.suspendProcess();
  }
  ++switchCount_;
  return true;
}

void HybridBus::saveState(ckpt::StateWriter& w) {
  if (!quiesced()) {
    throw ckpt::CheckpointError(
        "HybridBus::saveState: not quiesced (snapshot only at quiesce "
        "points)");
  }
  tl1_.saveState(w);
  tl2_.saveState(w);
  bridge_.saveState(w);
  w.u8(static_cast<std::uint8_t>(active_));
  w.u8(static_cast<std::uint8_t>(pendingTarget_));
  w.b(switchPending_);
  w.u64(switchCount_);
  w.u64(drainWaitAnswers_);
}

void HybridBus::loadState(ckpt::StateReader& r) {
  if (!quiesced()) {
    throw ckpt::CheckpointError(
        "HybridBus::loadState: restore target is not quiesced");
  }
  tl1_.loadState(r);
  tl2_.loadState(r);
  bridge_.loadState(r);
  active_ = loadFidelity(r, "active");
  pendingTarget_ = loadFidelity(r, "pending-target");
  switchPending_ = r.b();
  switchCount_ = r.u64();
  drainWaitAnswers_ = r.u64();
}

} // namespace sct::hier
