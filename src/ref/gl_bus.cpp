#include "ref/gl_bus.h"

#include <algorithm>
#include <stdexcept>

namespace sct::ref {

using bus::AccessSize;
using bus::Address;
using bus::BusStatus;
using bus::Kind;
using bus::SignalFrame;
using bus::SignalId;
using bus::Tl1Request;
using bus::Tl1Stage;
using bus::Word;

GlBus::GlBus(sim::Clock& clock, std::string name,
             const TransitionEnergyModel& energyModel,
             const HazardParams& hazards)
    : sim::Module(std::move(name)),
      clock_(clock),
      energyModel_(energyModel),
      hazards_(hazards) {
  processId_ = clock_.onFalling([this] { process(); });
}

GlBus::~GlBus() { clock_.removeHandler(processId_); }

void GlBus::removeFrameListener(FrameListener& l) {
  listeners_.erase(std::remove(listeners_.begin(), listeners_.end(), &l),
                   listeners_.end());
}

// ---------------------------------------------------------------------------
// Master protocol (EC accept/poll rules)
// ---------------------------------------------------------------------------

BusStatus GlBus::fetch(Tl1Request& req) {
  return submitOrPoll(req, Kind::InstrFetch);
}
BusStatus GlBus::read(Tl1Request& req) {
  return submitOrPoll(req, Kind::Read);
}
BusStatus GlBus::write(Tl1Request& req) {
  return submitOrPoll(req, Kind::Write);
}

unsigned& GlBus::outstanding(Kind k) {
  switch (k) {
    case Kind::InstrFetch: return outstandingInstr_;
    case Kind::Read: return outstandingRead_;
    case Kind::Write: return outstandingWrite_;
  }
  return outstandingRead_;  // unreachable
}

BusStatus GlBus::submitOrPoll(Tl1Request& req, Kind expectedKind) {
  if (req.kind != expectedKind) {
    throw std::logic_error(name() +
                           ": request kind does not match the interface");
  }
  if (req.stage == Tl1Stage::Finished) {
    const BusStatus result = req.result;
    req.stage = Tl1Stage::Idle;
    return result;
  }
  if (req.stage != Tl1Stage::Idle) return BusStatus::Wait;

  const bool alignedOk =
      req.burst() ? (req.size == AccessSize::Word &&
                     bus::isAligned(AccessSize::Word, req.address))
                  : bus::isAligned(req.size, req.address);
  if (req.beats == 0 || req.beats > bus::kMaxBurstBeats || !alignedOk ||
      (req.address & ~bus::kAddressMask) != 0) {
    req.result = BusStatus::Error;
    return BusStatus::Error;
  }
  if (outstanding(req.kind) >= bus::kMaxOutstandingPerClass) {
    return BusStatus::Wait;
  }
  req.stage = Tl1Stage::Requested;
  req.result = BusStatus::Wait;
  req.beatsDone = 0;
  req.slave = -1;
  req.acceptCycle = clock_.cycle();
  ++outstanding(req.kind);
  accepted_.push_back(&req);
  return BusStatus::Request;
}

bool GlBus::idle() const {
  return accepted_.empty() && readPending_.empty() && writePending_.empty() &&
         addrUnit_.txn == nullptr && readUnit_.txn == nullptr &&
         writeUnit_.txn == nullptr;
}

void GlBus::retire(Tl1Request& req, BusStatus result) {
  req.result = result;
  req.stage = Tl1Stage::Finished;
  req.finishCycle = clock_.cycle();
  --outstanding(req.kind);
  switch (req.kind) {
    case Kind::InstrFetch: ++stats_.instrTransactions; break;
    case Kind::Read: ++stats_.readTransactions; break;
    case Kind::Write: ++stats_.writeTransactions; break;
  }
  if (result == BusStatus::Error) {
    if (req.kind == Kind::Write) {
      ++stats_.writeBusErrors;
    } else {
      ++stats_.readBusErrors;
    }
  }
}

// ---------------------------------------------------------------------------
// Wire-level cycle machine
// ---------------------------------------------------------------------------

void GlBus::process() {
  ++stats_.cycles;
  SignalFrame next = frame_;
  // Handshake strobes return to their inactive level every cycle; the
  // address/data buses, qualifiers and select lines hold their value.
  next.set(SignalId::EB_AValid, 0);
  next.set(SignalId::EB_ARdy, 0);
  next.set(SignalId::EB_RdVal, 0);
  next.set(SignalId::EB_RBErr, 0);
  next.set(SignalId::EB_WDRdy, 0);
  next.set(SignalId::EB_WBErr, 0);
  next.set(SignalId::EB_Last, 0);

  GlitchCounts glitches{};
  const bool busy = !idle();
  stepAddressUnit(next, glitches);
  stepReadUnit(next);
  stepWriteUnit(next);
  if (busy) ++stats_.busyCycles;

  const CycleEnergy e = energyModel_.cycleEnergy(frame_, next, glitches);
  energy_.add(e, frame_, next);
  for (FrameListener* l : listeners_) {
    l->onFrame(clock_.cycle(), frame_, next, glitches, e);
  }
  frame_ = next;
}

void GlBus::driveAddress(SignalFrame& next, GlitchCounts& glitches,
                         const Tl1Request& req) {
  const std::uint64_t oldAddr = next.get(SignalId::EB_A);
  if (oldAddr != (req.address & bus::kAddressMask)) {
    // Combinational hazards while the decoder and the address mux settle.
    const unsigned flipped =
        bus::hammingDistance(SignalId::EB_A, oldAddr, req.address);
    glitches[static_cast<std::size_t>(SignalId::EB_Sel)] +=
        hazards_.selectPerAddrBit * flipped;
    glitches[static_cast<std::size_t>(SignalId::EB_A)] +=
        hazards_.addrMuxPerAddrBit * flipped;
  }
  next.set(SignalId::EB_A, req.address);
  next.set(SignalId::EB_Instr, req.kind == Kind::InstrFetch ? 1 : 0);
  next.set(SignalId::EB_Write, req.kind == Kind::Write ? 1 : 0);
  next.set(SignalId::EB_Burst, req.burst() ? 1 : 0);
  next.set(SignalId::EB_BE, bus::byteEnables(req.size, req.address));
  next.set(SignalId::EB_AValid, 1);
  next.set(SignalId::EB_Sel, bus::AddressDecoder::selectMask(req.slave));
}

void GlBus::stepAddressUnit(SignalFrame& next, GlitchCounts& glitches) {
  if (addrUnit_.txn == nullptr) {
    if (accepted_.empty()) return;
    Tl1Request& req = *accepted_.front();
    accepted_.pop_front();
    addrUnit_.txn = &req;
    req.stage = Tl1Stage::Address;
    req.slave = decoder_.decode(req.address);
    bool error = req.slave < 0;
    if (!error) {
      const bus::SlaveControl& c = decoder_.control(req.slave);
      error = !c.allows(req.kind) ||
              (req.burst() && !c.contains(req.address + 4u * req.beats - 1));
      addrUnit_.count = error ? 0 : c.addrWait;
    } else {
      addrUnit_.count = 0;
    }
    if (error) {
      driveAddress(next, glitches, req);
      next.set(SignalId::EB_Sel, 0);
      next.set(req.kind == Kind::Write ? SignalId::EB_WBErr
                                       : SignalId::EB_RBErr,
               1);
      next.set(SignalId::EB_Last, 1);  // The error terminates the burst.
      ++stats_.addrCycles;
      retire(req, BusStatus::Error);
      addrUnit_.txn = nullptr;
      return;
    }
  }

  Tl1Request& req = *addrUnit_.txn;
  ++stats_.addrCycles;
  driveAddress(next, glitches, req);
  if (addrUnit_.count > 0) {
    --addrUnit_.count;
    return;
  }
  next.set(SignalId::EB_ARdy, 1);
  req.stage = Tl1Stage::DataQueued;
  const bus::SlaveControl& c = decoder_.control(req.slave);
  if (req.kind == Kind::Write) {
    req.waitCount = c.writeWait;
    writePending_.push_back(&req);
  } else {
    req.waitCount = c.readWait;
    readPending_.push_back(&req);
  }
  addrUnit_.txn = nullptr;
}

void GlBus::stepReadUnit(SignalFrame& next) {
  if (readUnit_.txn == nullptr) {
    if (readPending_.empty()) return;
    readUnit_.txn = readPending_.front();
    readPending_.pop_front();
    readUnit_.txn->stage = Tl1Stage::Data;
    readUnit_.count = readUnit_.txn->waitCount;
    readUnit_.beat = 0;
  }
  Tl1Request& req = *readUnit_.txn;
  if (readUnit_.count > 0) {
    --readUnit_.count;
    return;
  }
  const Address beatAddr = req.address + 4u * readUnit_.beat;
  Word data = 0;
  const BusStatus s =
      decoder_.slave(req.slave).readBeat(beatAddr, req.size, data);
  if (s == BusStatus::Wait) return;
  if (s == BusStatus::Error) {
    next.set(SignalId::EB_RBErr, 1);
    next.set(SignalId::EB_Last, 1);
    ++stats_.readBeats;
    retire(req, BusStatus::Error);
    readUnit_.txn = nullptr;
    return;
  }
  req.data[readUnit_.beat] = data;
  next.set(SignalId::EB_RData, data);
  next.set(SignalId::EB_RdVal, 1);
  ++stats_.readBeats;
  stats_.bytesRead += req.burst() ? 4 : static_cast<unsigned>(req.size);
  ++readUnit_.beat;
  req.beatsDone = static_cast<std::uint8_t>(readUnit_.beat);
  if (readUnit_.beat == req.beats) {
    next.set(SignalId::EB_Last, 1);
    retire(req, BusStatus::Ok);
    readUnit_.txn = nullptr;
  } else {
    readUnit_.count = decoder_.control(req.slave).burstBeatWait;
  }
}

void GlBus::stepWriteUnit(SignalFrame& next) {
  if (writeUnit_.txn == nullptr) {
    if (writePending_.empty()) return;
    writeUnit_.txn = writePending_.front();
    writePending_.pop_front();
    writeUnit_.txn->stage = Tl1Stage::Data;
    writeUnit_.count = writeUnit_.txn->waitCount;
    writeUnit_.beat = 0;
  }
  Tl1Request& req = *writeUnit_.txn;
  if (writeUnit_.count > 0) {
    --writeUnit_.count;
    return;
  }
  const Address beatAddr = req.address + 4u * writeUnit_.beat;
  const Word data = req.data[writeUnit_.beat];
  const BusStatus s = decoder_.slave(req.slave).writeBeat(
      beatAddr, req.size, bus::byteEnables(req.size, beatAddr), data);
  if (s == BusStatus::Wait) return;
  if (s == BusStatus::Error) {
    next.set(SignalId::EB_WBErr, 1);
    next.set(SignalId::EB_Last, 1);
    ++stats_.writeBeats;
    retire(req, BusStatus::Error);
    writeUnit_.txn = nullptr;
    return;
  }
  next.set(SignalId::EB_WData, data);
  next.set(SignalId::EB_WDRdy, 1);
  ++stats_.writeBeats;
  stats_.bytesWritten += req.burst() ? 4 : static_cast<unsigned>(req.size);
  ++writeUnit_.beat;
  req.beatsDone = static_cast<std::uint8_t>(writeUnit_.beat);
  if (writeUnit_.beat == req.beats) {
    next.set(SignalId::EB_Last, 1);
    retire(req, BusStatus::Ok);
    writeUnit_.txn = nullptr;
  } else {
    writeUnit_.count = decoder_.control(req.slave).burstBeatWait;
  }
}

} // namespace sct::ref
