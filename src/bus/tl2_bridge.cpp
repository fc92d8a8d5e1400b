#include "bus/tl2_bridge.h"

namespace sct::bus {

void Tl2MasterBridge::copyOut(Tl1Request& req, Slot& s, BusStatus status) {
  if (status == BusStatus::Ok && req.kind != Kind::Write) {
    if (req.burst() || req.size == AccessSize::Word) {
      std::memcpy(req.data.data(), s.buffer.data(), s.lower.bytes);
    } else {
      // The layer-1 read bus presents sub-word data on its natural
      // lanes; shift the byte-exact layer-2 payload into place.
      Word w = 0;
      std::memcpy(&w, s.buffer.data(), s.lower.bytes);
      const unsigned lane = static_cast<unsigned>(req.address & 0x3u);
      req.data[0] = w << (8 * lane);
    }
  }
  req.beatsDone = req.beats;
  req.result = status;
}

void Tl2MasterBridge::sync() {
  if (pending_.empty()) return;
  // An event-driven lower bus defers its completion bookkeeping; asking
  // for the next finish brings it current (O(1) when it already is)
  // before trusting the published stages.
  lower_.nextFinishCycle();
  for (auto it = pending_.begin(); it != pending_.end();) {
    Slot& s = it->second;
    if (s.lower.stage != Tl2Stage::Finished) {
      ++it;
      continue;
    }
    Tl1Request& req = *it->first;
    const BusStatus status = s.lower.kind == Kind::Write
                                 ? lower_.write(s.lower)
                                 : lower_.read(s.lower);
    copyOut(req, s, status);
    req.stage = Tl1Stage::Finished;
    it = pending_.erase(it);
  }
}

BusStatus Tl2MasterBridge::transport(Tl1Request& req) {
  auto it = pending_.find(&req);
  if (it == pending_.end()) {
    if (req.stage == Tl1Stage::Finished) {
      // sync() posted the result; this poll is the pickup.
      const BusStatus result = req.result;
      req.stage = Tl1Stage::Idle;
      return result;
    }
    // First call: validate like the layer-1 bus would, then open a
    // layer-2 transaction.
    if (req.stage != Tl1Stage::Idle) return BusStatus::Wait;
    const bool alignedOk =
        req.burst() ? (req.size == AccessSize::Word &&
                       isAligned(AccessSize::Word, req.address))
                    : isAligned(req.size, req.address);
    if (req.beats == 0 || req.beats > kMaxBurstBeats || !alignedOk ||
        (req.address & ~kAddressMask) != 0) {
      req.result = BusStatus::Error;
      return BusStatus::Error;
    }
    Slot slot;
    slot.lower.kind = req.kind;
    slot.lower.address = req.address;
    slot.lower.bytes = req.byteCount();
    if (req.kind == Kind::Write) {
      if (req.burst() || req.size == AccessSize::Word) {
        std::memcpy(slot.buffer.data(), req.data.data(),
                    slot.lower.bytes);
      } else {
        // Sub-word stores arrive lane-aligned on the layer-1 write bus;
        // extract the active lanes for the byte-exact layer-2 transfer.
        const unsigned lane = static_cast<unsigned>(req.address & 0x3u);
        std::memcpy(slot.buffer.data(),
                    reinterpret_cast<const std::uint8_t*>(
                        req.data.data()) +
                        lane,
                    slot.lower.bytes);
      }
    }
    auto [pos, inserted] = pending_.emplace(&req, std::move(slot));
    Slot& s = pos->second;
    s.lower.data = s.buffer.data();
    const BusStatus status = s.lower.kind == Kind::Write
                                 ? lower_.write(s.lower)
                                 : lower_.read(s.lower);
    if (status == BusStatus::Error) {
      pending_.erase(pos);
      req.result = BusStatus::Error;
      return BusStatus::Error;
    }
    if (status != BusStatus::Request) {
      // Accept refused (outstanding limit); retry transparently on the
      // next poll.
      pending_.erase(pos);
      return BusStatus::Wait;
    }
    req.stage = Tl1Stage::Requested;
    req.result = BusStatus::Wait;
    return BusStatus::Request;
  }

  if (req.stage == Tl1Stage::Idle) {
    // The master abandoned this payload (Tl1Request::reset()) while its
    // previous transaction was still in flight and is now re-submitting
    // the same object. Finish the abandoned lower transaction out
    // before accepting the payload anew — answering from the stale slot
    // would hand the master a result it never asked for.
    Slot& s = it->second;
    if (s.lower.stage != Tl2Stage::Finished) lower_.nextFinishCycle();
    const BusStatus stale = s.lower.kind == Kind::Write
                                ? lower_.write(s.lower)
                                : lower_.read(s.lower);
    if (stale != BusStatus::Ok && stale != BusStatus::Error) {
      return BusStatus::Wait;  // Old transaction still draining.
    }
    pending_.erase(it);
    return transport(req);  // Re-enter as a fresh submit.
  }

  // Poll the lower transaction. The lower bus publishes its stage
  // transitions (an event-driven Tl2Bus moves the payload to Finished
  // when it retires the boundary), so a poll before that point is a
  // guaranteed side-effect-free Wait — skip the call entirely; the
  // cycle-true master above polls every cycle regardless.
  Slot& s = it->second;
  if (s.lower.stage != Tl2Stage::Finished) {
    // An event-driven lower bus defers its completion bookkeeping;
    // asking for the next finish brings it current (O(1) when it
    // already is) before trusting the published stage.
    lower_.nextFinishCycle();
    if (s.lower.stage != Tl2Stage::Finished) return BusStatus::Wait;
  }
  const BusStatus status = s.lower.kind == Kind::Write
                               ? lower_.write(s.lower)
                               : lower_.read(s.lower);
  if (status != BusStatus::Ok && status != BusStatus::Error) {
    return BusStatus::Wait;
  }
  copyOut(req, s, status);
  req.stage = Tl1Stage::Idle;
  pending_.erase(it);
  return status;
}

} // namespace sct::bus
