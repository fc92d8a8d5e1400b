#include "bus/tl1_bus.h"

#include <algorithm>
#include <cassert>
#include <stdexcept>
#include <typeinfo>

#include "bus/bus_codec.h"
#include "bus/memory_slave.h"
#include "bus/tl1_frame_energy.h"

namespace sct::bus {

Tl1Bus::Tl1Bus(sim::Clock& clock, std::string name)
    : sim::Module(std::move(name)), clock_(clock) {
  // The bus process runs on the falling edge; masters and slaves are
  // expected to act on the rising edge (paper, Figure 2).
  processId_ = clock_.onFallingRaw(
      [](void* self) { static_cast<Tl1Bus*>(self)->busProcess(); }, this);
}

Tl1Bus::~Tl1Bus() { clock_.removeHandler(processId_); }

int Tl1Bus::attach(EcSlave& slave) {
  const int idx = decoder_.attach(slave);
  slaveControls_.push_back(&slave.control());
  // Exact-type check, not a plain dynamic_cast: a subclass overriding a
  // beat function must keep taking the virtual path.
  auto* mem = dynamic_cast<MemorySlave*>(&slave);
  directSlaves_.push_back(
      mem != nullptr && typeid(slave) == typeid(MemorySlave) ? mem : nullptr);
  return idx;
}

void Tl1Bus::addObserver(Tl1Observer& obs) {
  observers_.push_back(&obs);
  publish_ = true;
  if (parked_ && !suspended_) wakeProcess();  // Observers see every cycle.
}

void Tl1Bus::removeObserver(Tl1Observer& obs) {
  observers_.erase(std::remove(observers_.begin(), observers_.end(), &obs),
                   observers_.end());
  publish_ = fe_ != nullptr || !observers_.empty();
}

void Tl1Bus::addObserver(Tl1FrameEnergy& engine) {
  if (fe_ != nullptr) {
    throw std::logic_error(name() +
                           ": a frame-energy engine is already attached");
  }
  fe_ = &engine;
  publish_ = true;
  if (parked_ && !suspended_) wakeProcess();  // It parks once quiet.
}

void Tl1Bus::setCodec(BusCodec* codec) {
  if (!idle()) {
    throw std::logic_error(name() + ": setCodec() on a busy bus would split "
                                    "a burst across encodings");
  }
  codec_ = codec;
}

// ---------------------------------------------------------------------------
// Master interfaces
// ---------------------------------------------------------------------------

BusStatus Tl1Bus::fetch(Tl1Request& req) {
  return submitOrPoll(req, Kind::InstrFetch);
}

BusStatus Tl1Bus::read(Tl1Request& req) {
  return submitOrPoll(req, Kind::Read);
}

BusStatus Tl1Bus::write(Tl1Request& req) {
  return submitOrPoll(req, Kind::Write);
}

bool Tl1Bus::validate(const Tl1Request& req) const {
  if (req.beats == 0 || req.beats > kMaxBurstBeats) return false;
  if (req.burst()) {
    // Bursts are word-sized, word-aligned sequences.
    if (req.size != AccessSize::Word) return false;
    if (!isAligned(AccessSize::Word, req.address)) return false;
  } else if (!isAligned(req.size, req.address)) {
    return false;
  }
  return (req.address & ~kAddressMask) == 0;
}

unsigned& Tl1Bus::outstanding(Kind k) {
  switch (k) {
    case Kind::InstrFetch: return outstandingInstr_;
    case Kind::Read: return outstandingRead_;
    case Kind::Write: return outstandingWrite_;
  }
  return outstandingRead_;  // unreachable
}

unsigned Tl1Bus::outstanding(Kind k) const {
  return const_cast<Tl1Bus*>(this)->outstanding(k);
}

BusStatus Tl1Bus::submitOrPoll(Tl1Request& req, Kind expectedKind) {
  if (req.kind != expectedKind) {
    throw std::logic_error(name() + ": request kind does not match the "
                                    "invoked master interface");
  }
  switch (req.stage) {
    case Tl1Stage::Idle: {
      if (!validate(req)) {
        req.result = BusStatus::Error;
        return BusStatus::Error;
      }
      if (outstanding(req.kind) >= kMaxOutstandingPerClass) {
        return BusStatus::Wait;  // Not accepted; the master retries.
      }
      if (parked_) {
        if (suspended_) {
          throw std::logic_error(name() + ": submit to a suspended bus would "
                                          "never be served");
        }
        wakeProcess();
      }
      req.stage = Tl1Stage::Requested;
      req.result = BusStatus::Wait;
      req.beatsDone = 0;
      req.slave = -1;
      req.acceptCycle = clock_.cycle();
      ++outstanding(req.kind);
      requestQueue_.push_back(&req);
      if (obsDepth_ != nullptr) {
        obsDepth_->record(requestQueue_.size());
      }
      return BusStatus::Request;
    }
    case Tl1Stage::Finished: {
      const BusStatus result = req.result;
      req.stage = Tl1Stage::Idle;  // Picked up; payload reusable.
      return result;
    }
    default:
      return BusStatus::Wait;
  }
}

bool Tl1Bus::idle() const {
  return requestQueue_.empty() && readQueue_.empty() && writeQueue_.empty() &&
         addrCurrent_ == nullptr && readCurrent_ == nullptr &&
         writeCurrent_ == nullptr;
}

std::uint64_t Tl1Bus::outstandingTotal() const {
  const std::uint64_t total =
      outstandingInstr_ + outstandingRead_ + outstandingWrite_;
  // Every accepted-but-unfinished request sits in exactly one queue or
  // current slot, and finish() decrements its class count as the result
  // is posted — so the counters and the queue view must agree.
  assert((total == 0) == idle());
  assert(total <= 3u * kMaxOutstandingPerClass);
  return total;
}

void Tl1Bus::suspendProcess() {
  if (!idle()) {
    throw std::logic_error(name() + ": suspendProcess() on a busy bus would "
                                    "strand its queued requests");
  }
  syncParkedCycles();  // An idle park counts up to here.
  suspended_ = true;
  parked_ = true;
  clock_.parkHandler(processId_, sim::Clock::kNeverWake);
}

void Tl1Bus::resumeProcess() {
  if (!suspended_) return;
  // Counting restarts at the next edge the process runs on; it parks
  // again once idle and quiet.
  suspended_ = false;
  parked_ = false;
  clock_.parkHandler(processId_, 0);
}

void Tl1Bus::wakeProcess() {
  syncParkedCycles();
  parked_ = false;
  clock_.parkHandler(processId_, 0);
}

void Tl1Bus::syncParkedCycles() const {
  if (!parked_ || suspended_) return;
  const std::uint64_t edge = clock_.lastFallingEdge();
  stats_.cycles += edge - cycleNow_;
  cycleNow_ = edge;
}

void Tl1Bus::saveState(ckpt::StateWriter& w) const {
  if (!idle()) {
    throw ckpt::CheckpointError(
        "Tl1Bus::saveState: bus is not idle (not a quiesce point)");
  }
  syncParkedCycles();
  w.u64(stats_.cycles);
  w.u64(stats_.busyCycles);
  w.u64(stats_.addrCycles);
  w.u64(stats_.readBeats);
  w.u64(stats_.writeBeats);
  w.u64(stats_.instrTransactions);
  w.u64(stats_.readTransactions);
  w.u64(stats_.writeTransactions);
  w.u64(stats_.readBusErrors);
  w.u64(stats_.writeBusErrors);
  w.u64(stats_.bytesRead);
  w.u64(stats_.bytesWritten);
  w.u64(cycleNow_);
  w.b(suspended_);
}

void Tl1Bus::loadState(ckpt::StateReader& r) {
  if (!idle()) {
    throw ckpt::CheckpointError(
        "Tl1Bus::loadState: restore target bus is not idle");
  }
  stats_.cycles = r.u64();
  stats_.busyCycles = r.u64();
  stats_.addrCycles = r.u64();
  stats_.readBeats = r.u64();
  stats_.writeBeats = r.u64();
  stats_.instrTransactions = r.u64();
  stats_.readTransactions = r.u64();
  stats_.writeTransactions = r.u64();
  stats_.readBusErrors = r.u64();
  stats_.writeBusErrors = r.u64();
  stats_.bytesRead = r.u64();
  stats_.bytesWritten = r.u64();
  cycleNow_ = r.u64();
  suspended_ = r.b();
  anyActivityThisCycle_ = false;
  // The clock section, restored first, holds the process's park state.
  parked_ = clock_.wakeCycle(processId_) > clock_.cycle();
  if (parked_ && !suspended_ && !observers_.empty()) wakeProcess();
}

// ---------------------------------------------------------------------------
// Bus process
// ---------------------------------------------------------------------------

void Tl1Bus::busProcess() {
  cycleNow_ = clock_.cycle();
  anyActivityThisCycle_ = false;
  ++stats_.cycles;
  for (Tl1Observer* obs : observers_) obs->busCycleBegin(cycleNow_);

  // getSlaveState(): the paper's first phase samples every slave's
  // control interface. The control references were cached at attach
  // time (EcSlave::control guarantees a stable reference that only
  // changes between cycles), so the phases below read them directly —
  // the per-cycle snapshot copy would be byte-identical.
  addressPhase();
  readPhase();
  writePhase();

  if (anyActivityThisCycle_) ++stats_.busyCycles;
  if (fe_ != nullptr) fe_->busCycleEnd(cycleNow_);
  for (Tl1Observer* obs : observers_) obs->busCycleEnd(cycleNow_);

  // Idle park: an idle bus with a quiet engine and no observer would
  // tick through identical cycles until the next submit wakes it.
  if (!anyActivityThisCycle_ && observers_.empty() &&
      (fe_ == nullptr || fe_->quiet())) {
    parked_ = true;
    clock_.parkHandler(processId_, sim::Clock::kNeverWake);
  }
}

// The one drive path of a phase event: the energy engine first, then
// the observers. Forced inline, so the engine's hooks inline into the
// phases and the info structs they read never reach memory.
[[gnu::always_inline]] inline void Tl1Bus::publishAddressPhase(
    const AddressPhaseInfo& info) {
  if (fe_ != nullptr) fe_->addressPhase(info);
  for (Tl1Observer* obs : observers_) obs->addressPhase(info);
}

[[gnu::always_inline]] inline void Tl1Bus::publishBeat(
    const DataBeatInfo& info, bool isWrite) {
  if (isWrite) {
    if (fe_ != nullptr) fe_->writeBeat(info);
    for (Tl1Observer* obs : observers_) obs->writeBeat(info);
  } else {
    if (fe_ != nullptr) fe_->readBeat(info);
    for (Tl1Observer* obs : observers_) obs->readBeat(info);
  }
}

void Tl1Bus::finish(Tl1Request& req, BusStatus result) {
  req.result = result;
  req.stage = Tl1Stage::Finished;
  req.finishCycle = cycleNow_;
  --outstanding(req.kind);
  ++finishEpoch_;
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
  if (obsLatency_ != nullptr) noteFinishObs(req, result);
}

void Tl1Bus::attachObs(obs::StatsRegistry& reg, obs::TraceRecorder* rec) {
  const std::string& n = name();
  obsWaits_ = &reg.histogram(n + ".txn_wait_cycles", {0, 1, 2, 4, 8, 16});
  obsBurst_ = &reg.histogram(n + ".burst_beats", {1, 2, 4});
  obsDepth_ = &reg.histogram(n + ".queue_depth", {1, 2, 4, 8});
  obsErrors_ = &reg.counter(n + ".bus_errors");
  obsRec_ = rec;
  // Last: obsLatency_ doubles as the attached flag, so it must only
  // become non-null once every other handle is live.
  obsLatency_ =
      &reg.histogram(n + ".txn_latency_cycles", {1, 2, 4, 8, 16, 32});
}

void Tl1Bus::noteFinishObs(const Tl1Request& req, BusStatus result) {
  const std::uint64_t latency = req.finishCycle - req.acceptCycle + 1;
  obsLatency_->record(latency);
  // A wait-free transaction takes one address cycle plus one cycle per
  // beat; anything beyond that is slave wait states or queueing.
  const std::uint64_t ideal = 1u + req.beats;
  obsWaits_->record(latency > ideal ? latency - ideal : 0);
  obsBurst_->record(req.beats);
  if (result == BusStatus::Error) obsErrors_->add();
  if (obsRec_ != nullptr) {
    obsRec_->span("tl1", toString(req.kind).data(), req.acceptCycle,
                  req.finishCycle, obs::Track::Bus,
                  obs::TraceArg{"addr", req.address},
                  obs::TraceArg{"beats", req.beats});
  }
}

void Tl1Bus::addressPhase() {
  if (addrCurrent_ == nullptr) {
    if (requestQueue_.empty()) return;  // Idle: buses hold their values.
    addrCurrent_ = requestQueue_.front();
    requestQueue_.pop_front();
    Tl1Request& req = *addrCurrent_;
    req.stage = Tl1Stage::Address;
    // With a codec installed the decoder sits behind the decode stage —
    // a real encode/decode round trip, so a non-invertible address
    // codec misroutes and fails correctness suites, not just energy.
    req.slave = decoder_.decode(
        codec_ == nullptr
            ? req.address
            : codec_->decodeAddress(codec_->encodeAddress(req.address)));
    bool error = req.slave < 0;
    if (!error) {
      const SlaveControl& c = *slaveControls_[static_cast<std::size_t>(req.slave)];
      error = !c.allows(req.kind) ||
              (req.burst() && !c.contains(req.address + 4u * req.beats - 1));
      req.waitCount = error ? 0 : c.addrWait;
    } else {
      req.waitCount = 0;
    }
    if (error) {
      // Decode miss or access-right violation: the phase terminates and
      // the error is indicated on the corresponding data bus error line.
      if (publish_) {
        AddressPhaseInfo info{
            codec_ == nullptr ? req.address
                              : codec_->encodeAddress(req.address),
            req.kind, req.size, req.beats,
            byteEnables(req.size, req.address), req.slave,
            /*accepted=*/true, /*error=*/true, &req};
        publishAddressPhase(info);
        DataBeatInfo beat;
        beat.address = req.address;
        beat.kind = req.kind;
        beat.error = true;
        beat.last = true;
        beat.slave = req.slave;
        publishBeat(beat, req.kind == Kind::Write);
      }
      finish(req, BusStatus::Error);
      addrCurrent_ = nullptr;
      anyActivityThisCycle_ = true;
      ++stats_.addrCycles;
      return;
    }
  }

  Tl1Request& req = *addrCurrent_;
  anyActivityThisCycle_ = true;
  ++stats_.addrCycles;
  const bool accepted = req.waitCount == 0;
  if (publish_) {
    // info.address is the value driven on EB_A — encoded when a codec
    // is installed. Routing and range checks above used the payload
    // address; only the wires (and thus the power model) see the code.
    AddressPhaseInfo info{
        codec_ == nullptr ? req.address : codec_->encodeAddress(req.address),
        req.kind, req.size, req.beats, byteEnables(req.size, req.address),
        req.slave, accepted, /*error=*/false, &req};
    publishAddressPhase(info);
  }
  if (!accepted) {
    --req.waitCount;
    return;
  }
  // Address phase completes this cycle: hand over to the data queues.
  req.stage = Tl1Stage::DataQueued;
  const SlaveControl& c = *slaveControls_[static_cast<std::size_t>(req.slave)];
  if (req.kind == Kind::Write) {
    req.waitCount = c.writeWait;
    writeQueue_.push_back(&req);
  } else {
    req.waitCount = c.readWait;
    readQueue_.push_back(&req);
  }
  addrCurrent_ = nullptr;
}

void Tl1Bus::readPhase() { dataPhase(readCurrent_, readQueue_); }

void Tl1Bus::writePhase() { dataPhase(writeCurrent_, writeQueue_); }

void Tl1Bus::dataPhase(Tl1Request*& current, RequestRing& queue) {
  if (current == nullptr) {
    if (queue.empty()) return;
    current = queue.front();
    queue.pop_front();
    current->stage = Tl1Stage::Data;
    // The first-beat wait states were preloaded by the address phase.
  }

  Tl1Request& req = *current;
  anyActivityThisCycle_ = true;
  if (req.waitCount > 0) {
    --req.waitCount;  // Slave-inserted wait state; no beat this cycle.
    return;
  }

  const Address beatAddr = req.address + 4u * req.beatsDone;
  const std::uint8_t lanes = byteEnables(req.size, beatAddr);
  const bool isWrite = req.kind == Kind::Write;
  Word data = 0;
  // Wire view of the beat when a codec is installed: enc.wire is what
  // the data bus carries (and what the power model prices), enc.invert
  // the EB_Inv sideband level. The encode is a side-effect-free peek —
  // a slave Wait stretch means the wire is not driven this cycle, so
  // codec state only advances via commit*() once the beat completes.
  EncodedWord enc;
  BusStatus s;
  // Direct beat calls for plain MemorySlaves (see directSlaves_):
  // identical functions, minus the per-beat virtual hop.
  MemorySlave* mem = directSlaves_[static_cast<std::size_t>(req.slave)];
  if (isWrite) {
    data = req.data[req.beatsDone];
    Word slaveWord = data;
    if (codec_ != nullptr) {
      enc = codec_->encodeWrite(data);
      // The slave decodes the wire back to the payload — a real round
      // trip, so a broken codec corrupts memory, not just energy.
      slaveWord = codec_->decodeWrite(enc);
    }
    s = mem != nullptr
            ? mem->MemorySlave::writeBeat(beatAddr, req.size, lanes, slaveWord)
            : decoder_.slave(req.slave).writeBeat(beatAddr, req.size, lanes,
                                                  slaveWord);
  } else {
    s = mem != nullptr
            ? mem->MemorySlave::readBeat(beatAddr, req.size, data)
            : decoder_.slave(req.slave).readBeat(beatAddr, req.size, data);
    if (s == BusStatus::Ok) {
      if (codec_ != nullptr) {
        enc = codec_->encodeRead(data);
        req.data[req.beatsDone] = codec_->decodeRead(enc);
      } else {
        req.data[req.beatsDone] = data;
      }
    }
  }
  if (s == BusStatus::Wait) return;  // Dynamic stretch by the slave.

  // The beat completed and (on Ok) the encoded word was driven: advance
  // codec channel state exactly once. Error beats never drive the data
  // wires, so they do not commit.
  if (codec_ != nullptr && s == BusStatus::Ok) {
    if (isWrite) {
      codec_->commitWrite(enc);
    } else {
      codec_->commitRead(enc);
    }
  }

  if (publish_) {
    DataBeatInfo beat;
    beat.address = beatAddr;
    beat.kind = req.kind;
    beat.data = codec_ != nullptr && s == BusStatus::Ok ? enc.wire : data;
    beat.invert = codec_ != nullptr && s == BusStatus::Ok && enc.invert;
    beat.byteEnables = lanes;
    beat.beatIndex = req.beatsDone;
    beat.last = (s == BusStatus::Error) || (req.beatsDone + 1u == req.beats);
    beat.error = s == BusStatus::Error;
    beat.slave = req.slave;
    publishBeat(beat, isWrite);
  }

  if (isWrite) {
    ++stats_.writeBeats;
    if (s == BusStatus::Ok) stats_.bytesWritten += req.burst() ? 4 : static_cast<unsigned>(req.size);
  } else {
    ++stats_.readBeats;
    if (s == BusStatus::Ok) stats_.bytesRead += req.burst() ? 4 : static_cast<unsigned>(req.size);
  }

  if (s == BusStatus::Error) {
    finish(req, BusStatus::Error);
    current = nullptr;
    return;
  }
  ++req.beatsDone;
  if (req.beatsDone == req.beats) {
    finish(req, BusStatus::Ok);
    current = nullptr;
  } else {
    const SlaveControl& c = *slaveControls_[static_cast<std::size_t>(req.slave)];
    req.waitCount = c.burstBeatWait;
  }
}

} // namespace sct::bus
