#include "bus/tl2_bridge.h"

#include <cassert>

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

unsigned Tl2MasterBridge::find(const Tl1Request& req) const {
  for (std::uint32_t m = occupied_; m != 0; m &= m - 1) {
    const unsigned i = static_cast<unsigned>(std::countr_zero(m));
    if (keys_[i] == &req) return i;
  }
  return kSlots;
}

unsigned Tl2MasterBridge::acquire(Tl1Request& req) {
  // Only a master that leaves finished payloads uncollected can fill
  // the table; posting them leaves just the unfinished lower
  // transactions, which the lower bus bounds below kSlots.
  if (occupied_ == kAllSlots) sync();
  assert(occupied_ != kAllSlots);
  const unsigned i = static_cast<unsigned>(std::countr_one(occupied_));
  occupied_ |= std::uint32_t{1} << i;
  keys_[i] = &req;
  return i;
}

void Tl2MasterBridge::postFinished() {
  for (std::uint32_t m = occupied_; m != 0; m &= m - 1) {
    const unsigned i = static_cast<unsigned>(std::countr_zero(m));
    Slot& s = slots_[i];
    if (s.lower.stage != Tl2Stage::Finished) continue;
    Tl1Request& req = *keys_[i];
    const BusStatus status = collect(s.lower);
    // A payload the master abandoned in flight (Tl1Request::reset())
    // waits for no result: drop it, so that a re-submit of the object
    // opens a new transaction instead of picking this one up.
    if (req.stage != Tl1Stage::Idle) {
      copyOut(req, s, status);
      req.stage = Tl1Stage::Finished;
    }
    release(i);
  }
}

BusStatus Tl2MasterBridge::transport(Tl1Request& req) {
  const unsigned i = find(req);
  if (i == kSlots) {
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
    const unsigned slot = acquire(req);
    Slot& s = slots_[slot];
    s.lower = Tl2Request{};
    s.lower.kind = req.kind;
    s.lower.address = req.address;
    s.lower.bytes = req.byteCount();
    s.lower.data = s.buffer.data();
    if (req.kind == Kind::Write) {
      if (req.burst() || req.size == AccessSize::Word) {
        std::memcpy(s.buffer.data(), req.data.data(), s.lower.bytes);
      } else {
        // Sub-word stores arrive lane-aligned on the layer-1 write bus;
        // extract the active lanes for the byte-exact layer-2 transfer.
        const unsigned lane = static_cast<unsigned>(req.address & 0x3u);
        std::memcpy(s.buffer.data(),
                    reinterpret_cast<const std::uint8_t*>(req.data.data()) +
                        lane,
                    s.lower.bytes);
      }
    }
    const BusStatus status = s.lower.kind == Kind::Write
                                 ? lower_.write(s.lower)
                                 : lower_.read(s.lower);
    if (status != BusStatus::Request) {
      // Rejected, or accept refused (outstanding limit): the slot goes
      // back, and a refusal retries transparently on the next poll.
      release(slot);
      if (status != BusStatus::Error) return BusStatus::Wait;
      req.result = BusStatus::Error;
      return BusStatus::Error;
    }
    req.stage = Tl1Stage::Requested;
    req.result = BusStatus::Wait;
    return BusStatus::Request;
  }

  // Poll the lower transaction. An event-driven lower bus defers its
  // completion bookkeeping; asking for the next finish brings it
  // current (O(1) when it already is) before trusting the published
  // stage.
  lower_.nextFinishCycle();
  Slot& s = slots_[i];
  if (s.lower.stage != Tl2Stage::Finished) return BusStatus::Wait;
  const BusStatus status = collect(s.lower);
  if (req.stage == Tl1Stage::Idle) {
    // The master abandoned this payload (Tl1Request::reset()) while its
    // previous transaction was in flight, and is now re-submitting the
    // same object. The abandoned transaction has finished out (until
    // then this answered Wait); drop its result — answering from the
    // stale slot would hand the master a result it never asked for —
    // and accept the payload anew.
    release(i);
    return transport(req);
  }
  copyOut(req, s, status);
  req.stage = Tl1Stage::Idle;
  release(i);
  return status;
}

} // namespace sct::bus
