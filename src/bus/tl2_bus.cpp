#include "bus/tl2_bus.h"

#include <algorithm>
#include <cassert>
#include <cstdlib>
#include <stdexcept>

namespace sct::bus {

Tl2Bus::Tl2Bus(sim::Clock& clock, std::string name)
    : sim::Module(clock.kernel(), std::move(name)), clock_(clock) {
  // Only the per-cycle reference path runs the process; in event mode
  // it stays parked for good.
  processId_ = clock_.onFallingRaw(
      [](void* self) { static_cast<Tl2Bus*>(self)->busProcess(); }, this);
  firstEdge_ = currentEdge();
  clock_.parkHandler(processId_, sim::Clock::kNeverWake);
}

Tl2Bus::~Tl2Bus() { clock_.removeHandler(processId_); }

void Tl2Bus::setPerCycleProcess(bool v) {
  if (v == perCycle_) return;
  if (!idle()) {
    throw std::logic_error(name() +
                           ": setPerCycleProcess with transactions in flight");
  }
  if (v) {
    // Materialise the lazily derived counters, then continue ticking
    // them per falling edge from the next edge on.
    syncLazyStats();
    clock_.parkHandler(processId_, 0);
  } else {
    // Re-base the lazy counters so they extend the ticked ones.
    firstEdge_ = lastVirtualEdge() + 1 - stats_.cycles;
    closedBusyCycles_ = stats_.busyCycles;
    busyOpen_ = false;
    addrFree_ = readFree_ = writeFree_ = 0;
    clock_.parkHandler(processId_, sim::Clock::kNeverWake);
  }
  perCycle_ = v;
}

void Tl2Bus::addObserver(Tl2Observer& obs) {
  if (!perCycle_) retireDue();
  observers_.push_back(&obs);
  obs.attachedBus_ = this;
}

void Tl2Bus::removeObserver(Tl2Observer& obs) {
  if (!perCycle_) retireDue();
  auto it = std::find(observers_.begin(), observers_.end(), &obs);
  if (it == observers_.end()) return;
  obs.attachedBus_ = nullptr;
  if (notifyDepth_ > 0) {
    // Mid-notification: keep indices stable, compact afterwards.
    *it = nullptr;
    observersDirty_ = true;
  } else {
    observers_.erase(it);
  }
}

void Tl2Bus::notifyAddressPhase(const Tl2Request& req, std::uint64_t cycle) {
  Tl2PhaseInfo info;
  info.kind = req.kind;
  info.address = req.address;
  info.bytes = req.bytes;
  info.beats = req.beatCount();
  info.cycles = req.addrCycles;
  info.cycle = cycle;
  info.slave = req.slave;
  info.error = req.slave < 0;
  ++notifyDepth_;
  // By index, with the size snapshotted: callbacks may detach any
  // observer (slot nulled above) or attach new ones (first notified
  // from the next phase).
  const std::size_t n = observers_.size();
  for (std::size_t i = 0; i < n && i < observers_.size(); ++i) {
    if (Tl2Observer* obs = observers_[i]) obs->addressPhaseDone(info);
  }
  --notifyDepth_;
  if (notifyDepth_ == 0 && observersDirty_) {
    observers_.erase(std::remove(observers_.begin(), observers_.end(),
                                 static_cast<Tl2Observer*>(nullptr)),
                     observers_.end());
    observersDirty_ = false;
  }
}

void Tl2Bus::notifyDataPhase(const Tl2Request& req, bool ok,
                             std::uint64_t cycle) {
  Tl2PhaseInfo info;
  info.kind = req.kind;
  info.address = req.address;
  info.data = req.data;
  info.bytes = req.bytes;
  info.beats = req.beatCount();
  info.cycles = req.dataCycles;
  info.cycle = cycle;
  info.slave = req.slave;
  info.error = !ok;
  ++notifyDepth_;
  const std::size_t n = observers_.size();
  for (std::size_t i = 0; i < n && i < observers_.size(); ++i) {
    if (Tl2Observer* obs = observers_[i]) obs->dataPhaseDone(info);
  }
  --notifyDepth_;
  if (notifyDepth_ == 0 && observersDirty_) {
    observers_.erase(std::remove(observers_.begin(), observers_.end(),
                                 static_cast<Tl2Observer*>(nullptr)),
                     observers_.end());
    observersDirty_ = false;
  }
}

BusStatus Tl2Bus::read(Tl2Request& req) {
  if (req.kind == Kind::Write) {
    throw std::logic_error(name() + ": write request on the read interface");
  }
  return submitOrPoll(req);
}

BusStatus Tl2Bus::write(Tl2Request& req) {
  if (req.kind != Kind::Write) {
    throw std::logic_error(name() + ": read request on the write interface");
  }
  return submitOrPoll(req);
}

bool Tl2Bus::validate(const Tl2Request& req) const {
  if (req.data == nullptr) return false;
  if ((req.address & ~kAddressMask) != 0) return false;
  switch (req.bytes) {
    case 1: return true;
    case 2: return (req.address & 0x1u) == 0;
    case 4:
    case 8:
    case 12:
    case 16: return (req.address & 0x3u) == 0;
    default: return false;
  }
}

unsigned& Tl2Bus::outstanding(Kind k) {
  switch (k) {
    case Kind::InstrFetch: return outstandingInstr_;
    case Kind::Read: return outstandingRead_;
    case Kind::Write: return outstandingWrite_;
  }
  assert(false && "Tl2Bus::outstanding: corrupted Kind");
  std::abort();
}

std::uint64_t Tl2Bus::currentEdge() const {
  // The falling edge the bus process would next run in (equivalently:
  // the edge a submit made right now is first visible to). During the
  // rising dispatch of cycle C that is C's own falling edge; during the
  // falling dispatch it is already the *next* cycle's, because this
  // bus's falling slot precedes any code that could call in here (the
  // bus is constructed before its masters). Outside a cycle, cycle C is
  // complete and the next falling edge belongs to C + 1.
  const std::uint64_t c = clock_.cycle();
  return (clock_.midCycle() && !clock_.inFallingDispatch()) ? c : c + 1;
}

BusStatus Tl2Bus::submitOrPoll(Tl2Request& req) {
  // Event mode defers phase bookkeeping; bring it current first so the
  // outstanding slots, stages and results below reflect every boundary
  // the per-cycle model would have processed by now.
  if (!perCycle_) retireDue();
  switch (req.stage) {
    case Tl2Stage::Idle: {
      if (!validate(req)) {
        req.result = BusStatus::Error;
        return BusStatus::Error;
      }
      if (outstanding(req.kind) >= kMaxOutstandingPerClass) {
        return BusStatus::Wait;
      }
      // Timing estimation happens at creation time: sample the decoded
      // slave's wait states now (paper, Section 3.2).
      req.slave = decoder_.decode(req.address);
      const unsigned beats = req.beatCount();
      if (req.slave >= 0) {
        const SlaveControl& c = decoder_.control(req.slave);
        const bool allowed =
            c.allows(req.kind) && c.contains(req.address + req.bytes - 1);
        if (allowed) {
          req.addrCycles = c.addrWait + 1;
          const unsigned dataWait =
              req.kind == Kind::Write ? c.writeWait : c.readWait;
          req.dataCycles = dataWait + beats + c.burstBeatWait * (beats - 1);
        } else {
          req.slave = -1;  // Treated like a decode miss below.
        }
      }
      if (req.slave < 0) {
        req.addrCycles = 1;
        req.dataCycles = 0;
      }
      req.addrCyclesLeft = req.addrCycles;
      req.dataCyclesLeft = req.dataCycles;
      req.stage = Tl2Stage::Queued;
      req.result = BusStatus::Wait;
      req.acceptCycle = clock_.cycle();
      ++outstanding(req.kind);
      if (perCycle_) {
        requestQueue_.push_back(&req);
      } else {
        scheduleRequest(req);
      }
      if (obsDepth_ != nullptr) {
        obsDepth_->record(requestQueue_.size());
      }
      return BusStatus::Request;
    }
    case Tl2Stage::Finished: {
      const BusStatus result = req.result;
      req.stage = Tl2Stage::Idle;
      return result;
    }
    default:
      return BusStatus::Wait;
  }
}

bool Tl2Bus::idle() const {
  if (!perCycle_) retireDue();
  return requestQueue_.empty() && readQueue_.empty() && writeQueue_.empty() &&
         addrCurrent_ == nullptr && readCurrent_ == nullptr &&
         writeCurrent_ == nullptr;
}

const Tl2BusStats& Tl2Bus::stats() const {
  if (!perCycle_) {
    retireDue();
    syncLazyStats();
  }
  return stats_;
}

void Tl2Bus::retireDue() const {
  const std::uint64_t e = lastVirtualEdge();
  if (e == lastRetireEdge_) return;
  lastRetireEdge_ = e;
  // Logically const: everything retired here is determined by the
  // schedule fixed at accept; only its materialisation is deferred.
  const_cast<Tl2Bus*>(this)->retireThrough(e);
}

void Tl2Bus::retireThrough(std::uint64_t through) {
  std::uint64_t last = 0;
  bool any = false;
  for (;;) {
    // The queue fronts carry each unit's next boundary, ascending.
    const std::uint64_t r = readQueue_.empty()
                                ? sim::Clock::kNeverWake
                                : readQueue_.front()->dataDoneCycle;
    const std::uint64_t w = writeQueue_.empty()
                                ? sim::Clock::kNeverWake
                                : writeQueue_.front()->dataDoneCycle;
    const std::uint64_t data = std::min(r, w);
    // Address boundaries before the next data boundary go first; on a
    // shared edge the data units run first, as in busProcess. A data
    // front never waits on a pending address boundary of its own
    // request (data-done > address-done).
    while (!requestQueue_.empty()) {
      Tl2Request& req = *requestQueue_.front();
      if (req.addrDoneCycle >= data || req.addrDoneCycle > through) break;
      requestQueue_.pop_front();
      last = req.addrDoneCycle;
      any = true;
      completeAddressPhase(req);
    }
    if (data > through) break;
    completeDataPhase(r <= w ? readQueue_ : writeQueue_);
    last = data;
    any = true;
  }
  if (any && busyOpen_ && requestQueue_.empty() && readQueue_.empty() &&
      writeQueue_.empty()) {
    closedBusyCycles_ += last - busyFrom_ + 1;
    busyOpen_ = false;
  }
}

std::uint64_t Tl2Bus::lastVirtualEdge() const {
  // Last falling edge the per-cycle process would have seen by now.
  const std::uint64_t c = clock_.cycle();
  if (clock_.midCycle() && !clock_.inFallingDispatch()) {
    return c == 0 ? 0 : c - 1;
  }
  return c;
}

void Tl2Bus::syncLazyStats() const {
  const std::uint64_t e = lastVirtualEdge();
  stats_.cycles = (e >= firstEdge_) ? e - firstEdge_ + 1 : 0;
  stats_.busyCycles = closedBusyCycles_;
  if (busyOpen_) {
    const std::uint64_t upTo = std::min(e, nextEventCycle());
    if (upTo >= busyFrom_) stats_.busyCycles += upTo - busyFrom_ + 1;
  }
}

std::uint64_t Tl2Bus::nextEventCycle() const {
  std::uint64_t next = sim::Clock::kNeverWake;
  if (!requestQueue_.empty()) {
    next = std::min(next, requestQueue_.front()->addrDoneCycle);
  }
  if (!readQueue_.empty()) {
    next = std::min(next, readQueue_.front()->dataDoneCycle);
  }
  if (!writeQueue_.empty()) {
    next = std::min(next, writeQueue_.front()->dataDoneCycle);
  }
  return next;
}

std::uint64_t Tl2Bus::nextFinishCycle() const {
  if (perCycle_) return kFinishUnknown;
  // Doubles as the masters' sync point: a wake-on-completion master
  // asks for the next finish at the top of its cycle, and the retire
  // below publishes every stage transition the per-cycle model would
  // have made by now (O(1) when already current).
  retireDue();
  // Earliest pending completion: per class the oldest unfinished
  // transaction completes first (the unit is FIFO and its free cycle is
  // monotone), so the queue fronts carry the candidates. Decode misses
  // finish with their address phase and are tracked separately —
  // a miss queued behind a slow transfer may finish long before it.
  std::uint64_t next = kFinishNone;
  if (!readQueue_.empty()) {
    next = std::min(next, readQueue_.front()->dataDoneCycle);
  }
  if (!writeQueue_.empty()) {
    next = std::min(next, writeQueue_.front()->dataDoneCycle);
  }
  if (!missFinishCycles_.empty()) {
    next = std::min(next, missFinishCycles_.front());
  }
  return next;
}

void Tl2Bus::scheduleRequest(Tl2Request& req) {
  // Resolve the whole phase schedule with event arithmetic. The first
  // falling edge that can serve the request is the one a per-cycle
  // process would first see it on; each unit serialises FIFO, so its
  // next-free cycle fully determines the phase placement.
  const std::uint64_t submit = currentEdge();
  const std::uint64_t addrStart = std::max(submit, addrFree_);
  req.addrDoneCycle = addrStart + req.addrCycles - 1;
  addrFree_ = req.addrDoneCycle + 1;
  if (req.slave < 0) {
    // Decode miss: finishes (with Error) at the end of the address
    // phase; no data phase.
    req.dataDoneCycle = 0;
    missFinishCycles_.push_back(req.addrDoneCycle);
  } else {
    // Pipeline-fill coarseness: the data unit picks the transaction up
    // the cycle after the address phase completed, or as soon as the
    // unit drains its backlog.
    std::uint64_t& dataFree =
        (req.kind == Kind::Write) ? writeFree_ : readFree_;
    const std::uint64_t dataStart = std::max(req.addrDoneCycle + 1, dataFree);
    req.dataDoneCycle = dataStart + req.dataCycles - 1;
    dataFree = req.dataDoneCycle + 1;
    auto& queue = (req.kind == Kind::Write) ? writeQueue_ : readQueue_;
    queue.push_back(&req);
  }
  requestQueue_.push_back(&req);
  if (!busyOpen_) {
    busyOpen_ = true;
    busyFrom_ = submit;
  }
}

void Tl2Bus::completeAddressPhase(Tl2Request& req) {
  if (!observers_.empty()) notifyAddressPhase(req, req.addrDoneCycle);
  req.addrCyclesLeft = 0;
  if (obsRec_ != nullptr) noteAddrPhaseObs(req);
  if (req.slave < 0) {
    missFinishCycles_.pop_front();
    finish(req, BusStatus::Error, req.addrDoneCycle);
  } else {
    req.stage = Tl2Stage::DataWait;
  }
}

void Tl2Bus::completeDataPhase(RequestRing& queue) {
  Tl2Request& req = *queue.front();
  queue.pop_front();

  // One pointer-passing block transfer at the end of the phase.
  EcSlave& slave = decoder_.slave(req.slave);
  bool ok;
  if (req.kind == Kind::Write) {
    ok = slave.writeBlock(req.address, req.data, req.bytes);
  } else {
    ok = slave.readBlock(req.address, req.data, req.bytes);
  }

  if (!observers_.empty()) notifyDataPhase(req, ok, req.dataDoneCycle);
  req.dataCyclesLeft = 0;
  if (obsRec_ != nullptr) noteDataPhaseObs(req);
  finish(req, ok ? BusStatus::Ok : BusStatus::Error, req.dataDoneCycle);
}

void Tl2Bus::busProcess() {
  ++stats_.cycles;
  const bool busy = !idle();
  // Data units run before the address unit: a transaction leaving the
  // address phase this cycle is first served by an idle data unit in
  // the next cycle (the pipeline-fill estimation coarseness documented
  // in the header), while a backlogged data unit loses nothing.
  dataPhase(readCurrent_, readQueue_);
  dataPhase(writeCurrent_, writeQueue_);
  addressPhase();
  if (busy) ++stats_.busyCycles;
}

void Tl2Bus::finish(Tl2Request& req, BusStatus result, std::uint64_t cycle) {
  req.result = result;
  req.stage = Tl2Stage::Finished;
  req.finishCycle = cycle;
  --outstanding(req.kind);
  switch (req.kind) {
    case Kind::InstrFetch: ++stats_.instrTransactions; break;
    case Kind::Read: ++stats_.readTransactions; break;
    case Kind::Write: ++stats_.writeTransactions; break;
  }
  if (result == BusStatus::Error) {
    ++stats_.errors;
  } else if (req.kind == Kind::Write) {
    stats_.bytesWritten += req.bytes;
  } else {
    stats_.bytesRead += req.bytes;
  }
  if (obsLatency_ != nullptr) noteFinishObs(req, result);
}

void Tl2Bus::saveState(ckpt::StateWriter& w) const {
  if (!idle()) {  // Retires due boundaries, so the lazy state is current.
    throw ckpt::CheckpointError(
        "Tl2Bus::saveState: bus is not idle (not a quiesce point)");
  }
  // Event mode: derive the lazy cycle counters, so the section does not
  // depend on whether anything called stats() before the save.
  if (!perCycle_) syncLazyStats();
  w.b(perCycle_);
  w.u64(stats_.cycles);
  w.u64(stats_.busyCycles);
  w.u64(stats_.instrTransactions);
  w.u64(stats_.readTransactions);
  w.u64(stats_.writeTransactions);
  w.u64(stats_.errors);
  w.u64(stats_.bytesRead);
  w.u64(stats_.bytesWritten);
  w.u64(firstEdge_);
  w.u64(closedBusyCycles_);
}

void Tl2Bus::loadState(ckpt::StateReader& r) {
  if (!idle()) {
    throw ckpt::CheckpointError(
        "Tl2Bus::loadState: restore target bus is not idle");
  }
  const bool savedPerCycle = r.b();
  if (savedPerCycle != perCycle_) {
    throw ckpt::CheckpointError(
        "Tl2Bus::loadState: process mode differs from the saved bus "
        "(call setPerCycleProcess before restoring)");
  }
  stats_.cycles = r.u64();
  stats_.busyCycles = r.u64();
  stats_.instrTransactions = r.u64();
  stats_.readTransactions = r.u64();
  stats_.writeTransactions = r.u64();
  stats_.errors = r.u64();
  stats_.bytesRead = r.u64();
  stats_.bytesWritten = r.u64();
  firstEdge_ = r.u64();
  closedBusyCycles_ = r.u64();
  // An idle bus has every unit free by the next edge and no busy
  // interval open; the retirement cache re-validates on first use.
  addrFree_ = readFree_ = writeFree_ = 0;
  busyFrom_ = 0;
  busyOpen_ = false;
  lastRetireEdge_ = 0;
}

void Tl2Bus::attachObs(obs::StatsRegistry& reg, obs::TraceRecorder* rec) {
  const std::string& n = name();
  obsDepth_ = &reg.histogram(n + ".queue_depth", {1, 2, 4, 8});
  obsErrors_ = &reg.counter(n + ".bus_errors");
  obsRec_ = rec;
  // Last: obsLatency_ doubles as the attached flag, so it must only
  // become non-null once every other handle is live.
  obsLatency_ =
      &reg.histogram(n + ".txn_latency_cycles", {1, 2, 4, 8, 16, 32});
}

void Tl2Bus::noteAddrPhaseObs(const Tl2Request& req) {
  obsRec_->span("tl2", "addr_phase", req.addrDoneCycle - req.addrCycles + 1,
                req.addrDoneCycle, obs::Track::AddrPhase,
                obs::TraceArg{"addr", req.address});
}

void Tl2Bus::noteDataPhaseObs(const Tl2Request& req) {
  obsRec_->span("tl2", "data_phase", req.dataDoneCycle - req.dataCycles + 1,
                req.dataDoneCycle, obs::Track::DataPhase,
                obs::TraceArg{"addr", req.address},
                obs::TraceArg{"bytes", req.bytes});
}

void Tl2Bus::noteFinishObs(const Tl2Request& req, BusStatus result) {
  obsLatency_->record(req.finishCycle - req.acceptCycle + 1);
  if (result == BusStatus::Error) obsErrors_->add();
  if (obsRec_ != nullptr) {
    obsRec_->span("tl2", toString(req.kind).data(), req.acceptCycle,
                  req.finishCycle, obs::Track::Bus,
                  obs::TraceArg{"addr", req.address},
                  obs::TraceArg{"bytes", req.bytes});
  }
}

void Tl2Bus::addressPhase() {
  if (addrCurrent_ == nullptr) {
    if (requestQueue_.empty()) return;
    addrCurrent_ = requestQueue_.front();
    requestQueue_.pop_front();
  }
  Tl2Request& req = *addrCurrent_;
  if (req.addrCyclesLeft > 0) --req.addrCyclesLeft;
  if (req.addrCyclesLeft > 0) return;

  // Address phase finishes this cycle.
  notifyAddressPhase(req, clock_.cycle());

  if (req.slave < 0) {
    finish(req, BusStatus::Error, clock_.cycle());
  } else {
    req.stage = Tl2Stage::DataWait;
    if (req.kind == Kind::Write) {
      writeQueue_.push_back(&req);
    } else {
      readQueue_.push_back(&req);
    }
  }
  addrCurrent_ = nullptr;
}

void Tl2Bus::dataPhase(Tl2Request*& current, RequestRing& queue) {
  if (current == nullptr) {
    if (queue.empty()) return;
    current = queue.front();
    queue.pop_front();
  }
  Tl2Request& req = *current;
  if (req.dataCyclesLeft > 0) --req.dataCyclesLeft;
  if (req.dataCyclesLeft > 0) return;

  // Data phase finishes this cycle: one pointer-passing block transfer.
  EcSlave& slave = decoder_.slave(req.slave);
  bool ok;
  if (req.kind == Kind::Write) {
    ok = slave.writeBlock(req.address, req.data, req.bytes);
  } else {
    ok = slave.readBlock(req.address, req.data, req.bytes);
  }
  notifyDataPhase(req, ok, clock_.cycle());

  finish(req, ok ? BusStatus::Ok : BusStatus::Error, clock_.cycle());
  current = nullptr;
}

} // namespace sct::bus
