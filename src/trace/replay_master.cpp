#include "trace/replay_master.h"

#include <algorithm>
#include <cstring>
#include <stdexcept>

#include "bus/tl1_bus.h"

namespace sct::trace {

using bus::BusStatus;
using bus::Kind;
using bus::Tl1Request;
using bus::Tl2Request;

namespace {

BusStatus invoke(bus::EcInstrIf& instrIf, bus::EcDataIf& dataIf,
                 Tl1Request& req) {
  switch (req.kind) {
    case Kind::InstrFetch: return instrIf.fetch(req);
    case Kind::Read: return dataIf.read(req);
    case Kind::Write: return dataIf.write(req);
  }
  return BusStatus::Error;
}

/// Devirtualized twin of invoke() for the common single-Tl1Bus case:
/// Tl1Bus is final, so these resolve to direct calls.
BusStatus invokeDirect(bus::Tl1Bus& b, Tl1Request& req) {
  switch (req.kind) {
    case Kind::InstrFetch: return b.fetch(req);
    case Kind::Read: return b.read(req);
    case Kind::Write: return b.write(req);
  }
  return BusStatus::Error;
}

BusStatus invoke(bus::Tl2MasterIf& busIf, Tl2Request& req) {
  return req.kind == Kind::Write ? busIf.write(req) : busIf.read(req);
}

bool finished(BusStatus s) {
  return s == BusStatus::Ok || s == BusStatus::Error;
}

} // namespace

// ---------------------------------------------------------------------------
// ReplayMaster (layers 0 and 1)
// ---------------------------------------------------------------------------

ReplayMaster::ReplayMaster(sim::Clock& clock, std::string name,
                           bus::EcInstrIf& instrIf, bus::EcDataIf& dataIf,
                           const BusTrace& trace, unsigned maxInFlight)
    : sim::Module(std::move(name)),
      clock_(clock),
      instrIf_(instrIf),
      dataIf_(dataIf),
      maxInFlight_(maxInFlight),
      predictive_(instrIf.predictsFinish() || dataIf.predictsFinish()),
      epochGated_(instrIf.finishEpoch() != bus::kEpochUnknown &&
                  dataIf.finishEpoch() != bus::kEpochUnknown),
      trace_(trace.entries()) {
  // The trace is referenced in place (constructor contract: it outlives
  // the master); request payloads are materialised lazily, one per
  // entry as it is issued. reserve() to full size keeps in-flight
  // pointers stable.
  if (auto* b = dynamic_cast<bus::Tl1Bus*>(&instrIf); b != nullptr &&
      static_cast<bus::EcDataIf*>(b) == &dataIf) {
    tl1_ = b;  // Both interfaces are one Tl1Bus: direct-dispatch path.
  }
  requests_.reserve(trace_.size());
  inFlight_.reserve(maxInFlight_);
  handlerId_ = clock_.onRisingRaw(
      [](void* self) { static_cast<ReplayMaster*>(self)->onRisingEdge(); },
      this);
}

ReplayMaster::~ReplayMaster() { clock_.removeHandler(handlerId_); }

const ReplayStats& ReplayMaster::stats() const {
  // While parked on a refusal, credit the stall cycles the per-cycle
  // polling discipline would have counted so far.
  syncStalls(clock_.cycle());
  return stats_;
}

void ReplayMaster::syncStalls(std::uint64_t through) const {
  if (stallOpen_ && through > stallSyncedThrough_) {
    stats_.issueStallCycles += through - stallSyncedThrough_;
    stallSyncedThrough_ = through;
  }
}

void ReplayMaster::onRisingEdge() {
  const std::uint64_t cycle = clock_.cycle();
  // An adapter over an event-driven bus (the Tl2MasterBridge) defers
  // completion bookkeeping until asked; querying the next finish
  // publishes every stage transition due by now, so the gates below
  // read fresh stages. A cycle-true bus never predicts (predictsFinish()
  // false) and publishes stages from its own process — no pump needed,
  // no virtual calls spent.
  if (predictive_ && !inFlight_.empty()) {
    instrIf_.nextFinishCycle();
    dataIf_.nextFinishCycle();
  }
  // Completion-epoch gate: while the interfaces' finishEpoch sum is
  // unchanged, no in-flight transaction can have reached Finished and
  // no outstanding slot can have freed — the Finished scan and a
  // pending refused issue are both guaranteed no-ops.
  bool mayComplete = true;
  if (epochGated_) {
    // Same change detection either way: with one underlying bus the
    // generic sum is exactly twice the direct read, so "moved" agrees.
    const std::uint64_t ep = tl1_ != nullptr
                                 ? tl1_->finishEpoch()
                                 : instrIf_.finishEpoch() + dataIf_.finishEpoch();
    mayComplete = ep != lastEpoch_;
    lastEpoch_ = ep;
  }
  if (stallOpen_) {
    if (!mayComplete && !inFlight_.empty()) {
      // The refusal can only clear once a completion frees its class
      // slot; nothing finished, so the retry would be refused again.
      // The skipped stall cycles are credited lazily (syncStalls).
      return;
    }
    // One stall per skipped rising edge; the retry below re-counts
    // this cycle if refused again.
    syncStalls(cycle - 1);
    stallOpen_ = false;
  }
  // Poll transactions in flight. Every bus publishes its stage
  // transitions (the EcInstrIf stage contract): a payload whose public
  // stage is not Finished is still owned by the bus, and a Finished
  // payload is collected directly from the payload fields — the pickup
  // poll is exactly `result = req.result, stage = Idle`, so no call is
  // made at all.
  if (mayComplete) {
    for (auto it = inFlight_.begin(); it != inFlight_.end();) {
      Tl1Request& q = **it;
      if (q.stage != bus::Tl1Stage::Finished) {
        ++it;
        continue;
      }
      q.stage = bus::Tl1Stage::Idle;
      ++stats_.completed;
      if (q.result == BusStatus::Error) ++stats_.errors;
      stats_.finishCycle = cycle;
      it = inFlight_.erase(it);
    }
  }
  // Issue further transactions in trace order, materialising each
  // request from its trace entry on first touch.
  bool refused = false;
  while (nextIssue_ < trace_.size() &&
         trace_[nextIssue_].issueCycle <= cycle &&
         inFlight_.size() < maxInFlight_) {
    if (requests_.size() == nextIssue_) {
      const TraceEntry& e = trace_[nextIssue_];
      Tl1Request& r = requests_.emplace_back();
      r.kind = e.kind;
      r.address = e.address;
      r.size = e.size;
      r.beats = e.beats;
      r.data = e.writeData;
    }
    Tl1Request& req = requests_[nextIssue_];
    const BusStatus s = tl1_ != nullptr ? invokeDirect(*tl1_, req)
                                        : invoke(instrIf_, dataIf_, req);
    if (s == BusStatus::Request) {
      inFlight_.push_back(&req);
      ++nextIssue_;
    } else if (s == BusStatus::Error) {
      // Rejected at validation; counts as an immediately failed entry.
      ++stats_.completed;
      ++stats_.errors;
      stats_.finishCycle = cycle;
      ++nextIssue_;
    } else {
      ++stats_.issueStallCycles;
      stallSyncedThrough_ = cycle;
      refused = true;
      // Accept refused (outstanding limit); retry next cycle — or, on
      // an epoch-keeping bus, on the next cycle a completion occurs
      // (the stall accounting stays cycle-exact via syncStalls).
      if (epochGated_) stallOpen_ = true;
      break;
    }
  }
  if (done()) {
    if (!doneNotified_) {
      doneNotified_ = true;
      clock_.requestBreak();
    }
    if (predictive_ &&
        instrIf_.nextFinishCycle() != bus::kFinishUnknown &&
        dataIf_.nextFinishCycle() != bus::kFinishUnknown) {
      clock_.parkHandler(handlerId_, sim::Clock::kNeverWake);
    }
    return;
  }
  if (predictive_) parkUntilNextWork(refused);
}

void ReplayMaster::parkUntilNextWork(bool refused) {
  // See Tl2ReplayMaster::parkUntilNextWork — identical reasoning, over
  // the minimum of the two interfaces' predictions (they usually refer
  // to the same bus object; a duplicate sync is a cheap no-op).
  const std::uint64_t nfInstr = instrIf_.nextFinishCycle();
  if (nfInstr == bus::kFinishUnknown) return;  // Poll every cycle.
  const std::uint64_t nfData = dataIf_.nextFinishCycle();
  if (nfData == bus::kFinishUnknown) return;
  const std::uint64_t nf = std::min(nfInstr, nfData);
  std::uint64_t wake =
      (nf == bus::kFinishNone) ? sim::Clock::kNeverWake : nf + 1;
  if (refused) {
    stallOpen_ = true;
    // A refusal with nothing in flight is not waiting on a completion
    // (an adaptive-fidelity bus refuses new work while draining for a
    // layer switch) — retry every cycle instead of sleeping on a wake
    // that will never come.
    if (nf == bus::kFinishNone) wake = clock_.cycle() + 1;
  } else if (nextIssue_ < trace_.size() && inFlight_.size() < maxInFlight_) {
    wake = std::min(wake, trace_[nextIssue_].issueCycle);
  }
  if (wake > clock_.cycle() + 1) clock_.parkHandler(handlerId_, wake);
}

std::uint64_t ReplayMaster::runToCompletion(std::uint64_t maxCycles) {
  // One big runCycles() call per attempt: the handler requests a clock
  // break on the cycle the trace completes, so this sees the same
  // elapsed cycle count as stepping one cycle at a time — without
  // re-entering the run loop per cycle, and without defeating the
  // clock's dead-cycle warp.
  const std::uint64_t start = clock_.cycle();
  while (!done() && clock_.cycle() - start < maxCycles) {
    clock_.runCycles(maxCycles - (clock_.cycle() - start));
  }
  return clock_.cycle() - start;
}

void ReplayMaster::restart(const BusTrace& trace) {
  if (!inFlight_.empty()) {
    throw std::logic_error("ReplayMaster::restart: transactions in flight");
  }
  trace_ = trace.entries();
  requests_.clear();
  requests_.reserve(trace_.size());  // In-flight pointers stay stable.
  nextIssue_ = 0;
  lastEpoch_ = 0;
  doneNotified_ = false;
  stallOpen_ = false;
  stallSyncedThrough_ = 0;
  stats_ = {};
}

void ReplayMaster::saveState(ckpt::StateWriter& w) const {
  if (!inFlight_.empty()) {
    throw ckpt::CheckpointError(
        "ReplayMaster::saveState: transactions in flight (snapshot only at "
        "quiesce points)");
  }
  // Stats are saved raw (without syncing open stalls): the lazy credit
  // depends only on stallSyncedThrough_ and the clock cycle, both of
  // which travel, so the restored master resumes the identical lazy
  // accounting.
  w.u64(static_cast<std::uint64_t>(trace_.size()));
  w.u64(static_cast<std::uint64_t>(nextIssue_));
  w.u64(static_cast<std::uint64_t>(requests_.size()));
  for (const Tl1Request& q : requests_) {
    for (const bus::Word v : q.data) w.u32(v);
    w.u8(static_cast<std::uint8_t>(q.result));
    w.u8(static_cast<std::uint8_t>(q.stage));
    w.u8(q.beatsDone);
    w.i64(q.slave);
    w.u32(q.waitCount);
    w.u64(q.acceptCycle);
    w.u64(q.finishCycle);
  }
  w.b(doneNotified_);
  w.b(stallOpen_);
  w.u64(stallSyncedThrough_);
  w.u64(stats_.completed);
  w.u64(stats_.errors);
  w.u64(stats_.issueStallCycles);
  w.u64(stats_.finishCycle);
}

void ReplayMaster::loadState(ckpt::StateReader& r) {
  if (!inFlight_.empty()) {
    throw ckpt::CheckpointError(
        "ReplayMaster::loadState: restore target has transactions in flight");
  }
  if (r.u64() != trace_.size()) {
    throw ckpt::CheckpointError(
        "ReplayMaster::loadState: trace length differs from the saved "
        "replay");
  }
  nextIssue_ = static_cast<std::size_t>(r.u64());
  // A refused issue leaves one request materialised ahead of
  // nextIssue_, so the count may exceed the issue cursor by one.
  const std::size_t count = static_cast<std::size_t>(r.u64());
  if (count > trace_.size() || count < nextIssue_ ||
      count > nextIssue_ + 1) {
    throw ckpt::CheckpointError(
        "ReplayMaster::loadState: corrupt request materialisation count");
  }
  requests_.clear();
  for (std::size_t i = 0; i < count; ++i) {
    const TraceEntry& e = trace_[i];
    Tl1Request& q = requests_.emplace_back();
    q.kind = e.kind;
    q.address = e.address;
    q.size = e.size;
    q.beats = e.beats;
    for (bus::Word& v : q.data) v = r.u32();
    q.result = static_cast<BusStatus>(r.u8());
    q.stage = static_cast<bus::Tl1Stage>(r.u8());
    q.beatsDone = r.u8();
    q.slave = static_cast<int>(r.i64());
    q.waitCount = r.u32();
    q.acceptCycle = r.u64();
    q.finishCycle = r.u64();
  }
  doneNotified_ = r.b();
  stallOpen_ = r.b();
  stallSyncedThrough_ = r.u64();
  stats_.completed = r.u64();
  stats_.errors = r.u64();
  stats_.issueStallCycles = r.u64();
  stats_.finishCycle = r.u64();
}

// ---------------------------------------------------------------------------
// Tl2ReplayMaster
// ---------------------------------------------------------------------------

Tl2ReplayMaster::Tl2ReplayMaster(sim::Clock& clock, std::string name,
                                 bus::Tl2MasterIf& busIf,
                                 const BusTrace& trace, unsigned maxInFlight)
    : sim::Module(std::move(name)),
      clock_(clock),
      busIf_(busIf),
      maxInFlight_(maxInFlight),
      trace_(trace.entries()) {
  // Same reference-in-place-then-lazy-materialise construction as
  // ReplayMaster (see above). Buffers are resized up front
  // (value-initialised storage, cheap) so result pointers can be
  // handed out at issue time.
  requests_.reserve(trace_.size());
  buffers_.resize(trace_.size());
  inFlight_.reserve(maxInFlight_);
  handlerId_ = clock_.onRisingRaw(
      [](void* self) { static_cast<Tl2ReplayMaster*>(self)->onRisingEdge(); },
      this);
}

Tl2ReplayMaster::~Tl2ReplayMaster() { clock_.removeHandler(handlerId_); }

const ReplayStats& Tl2ReplayMaster::stats() const {
  // While parked on a refusal, credit the stall cycles the per-cycle
  // polling discipline would have counted so far.
  syncStalls(clock_.cycle());
  return stats_;
}

void Tl2ReplayMaster::syncStalls(std::uint64_t through) const {
  if (stallOpen_ && through > stallSyncedThrough_) {
    stats_.issueStallCycles += through - stallSyncedThrough_;
    stallSyncedThrough_ = through;
  }
}

void Tl2ReplayMaster::onRisingEdge() {
  const std::uint64_t cycle = clock_.cycle();
  if (stallOpen_) {
    // Woken at completion + 1: the refusal persisted through every
    // skipped rising edge (the outstanding slot only frees on the
    // completion's falling edge), so the per-cycle count is exactly one
    // stall per skipped cycle. The retry below re-counts this cycle if
    // it is refused again.
    syncStalls(cycle - 1);
    stallOpen_ = false;
  }
  // An event-driven bus without observers defers completion bookkeeping
  // until asked; querying the next finish publishes every stage
  // transition due by now, so the gate below reads fresh stages.
  if (!inFlight_.empty()) busIf_.nextFinishCycle();
  // Same Finished-stage gate as ReplayMaster::onRisingEdge().
  for (auto it = inFlight_.begin(); it != inFlight_.end();) {
    if ((*it)->stage != bus::Tl2Stage::Finished) {
      ++it;
      continue;
    }
    const BusStatus s = invoke(busIf_, **it);
    if (finished(s)) {
      ++stats_.completed;
      if (s == BusStatus::Error) ++stats_.errors;
      stats_.finishCycle = clock_.cycle();
      it = inFlight_.erase(it);
    } else {
      ++it;
    }
  }
  bool refused = false;
  while (nextIssue_ < trace_.size() &&
         trace_[nextIssue_].issueCycle <= clock_.cycle() &&
         inFlight_.size() < maxInFlight_) {
    if (requests_.size() == nextIssue_) {
      const TraceEntry& e = trace_[nextIssue_];
      Tl2Request& r = requests_.emplace_back();
      r.kind = e.kind;
      r.address = e.address;
      r.bytes = e.byteCount();
      r.data = buffers_[nextIssue_].data();
      if (e.kind == Kind::Write) {
        std::memcpy(r.data, e.writeData.data(), r.bytes);
      }
    }
    Tl2Request& req = requests_[nextIssue_];
    const BusStatus s = invoke(busIf_, req);
    if (s == BusStatus::Request) {
      inFlight_.push_back(&req);
      ++nextIssue_;
    } else if (s == BusStatus::Error) {
      ++stats_.completed;
      ++stats_.errors;
      stats_.finishCycle = clock_.cycle();
      ++nextIssue_;
    } else {
      ++stats_.issueStallCycles;
      stallSyncedThrough_ = cycle;
      refused = true;
      break;
    }
  }
  if (done()) {
    if (!doneNotified_) {
      doneNotified_ = true;
      clock_.requestBreak();
    }
    if (busIf_.nextFinishCycle() != bus::kFinishUnknown) {
      clock_.parkHandler(handlerId_, sim::Clock::kNeverWake);
    }
    return;
  }
  parkUntilNextWork(refused);
}

void Tl2ReplayMaster::parkUntilNextWork(bool refused) {
  const std::uint64_t nf = busIf_.nextFinishCycle();
  if (nf == bus::kFinishUnknown) return;  // Poll every cycle.
  // Wake-on-completion: nothing observable changes for this master
  // before the earliest completion is ready for pickup (finish + 1) or
  // the next trace entry becomes due — park until then. A refused
  // issue can only proceed once a completion frees its class slot, and
  // an in-flight transaction always has a predicted finish, so the
  // wake below is never kFinishNone while work remains.
  std::uint64_t wake =
      (nf == bus::kFinishNone) ? sim::Clock::kNeverWake : nf + 1;
  if (refused) {
    stallOpen_ = true;
  } else if (nextIssue_ < trace_.size() && inFlight_.size() < maxInFlight_) {
    wake = std::min(wake, trace_[nextIssue_].issueCycle);
  }
  // The handler just ran, so its stored wake is <= the current cycle;
  // when the target is simply "next cycle" leaving it untouched means
  // the same thing and saves the clock call (the dense-traffic case).
  if (wake > clock_.cycle() + 1) clock_.parkHandler(handlerId_, wake);
}

std::uint64_t Tl2ReplayMaster::runToCompletion(std::uint64_t maxCycles) {
  // See ReplayMaster::runToCompletion — with an event-driven bus both
  // the bus process and this master park between phase boundaries, so
  // the whole remaining budget runs in one warping runCycles() call.
  const std::uint64_t start = clock_.cycle();
  while (!done() && clock_.cycle() - start < maxCycles) {
    clock_.runCycles(maxCycles - (clock_.cycle() - start));
  }
  return clock_.cycle() - start;
}

void Tl2ReplayMaster::saveState(ckpt::StateWriter& w) const {
  if (!inFlight_.empty()) {
    throw ckpt::CheckpointError(
        "Tl2ReplayMaster::saveState: transactions in flight (snapshot only "
        "at quiesce points)");
  }
  w.u64(static_cast<std::uint64_t>(trace_.size()));
  w.u64(static_cast<std::uint64_t>(nextIssue_));
  w.u64(static_cast<std::uint64_t>(requests_.size()));
  for (std::size_t i = 0; i < requests_.size(); ++i) {
    const Tl2Request& q = requests_[i];
    w.bytes(buffers_[i].data(), buffers_[i].size());
    w.u8(static_cast<std::uint8_t>(q.result));
    w.u8(static_cast<std::uint8_t>(q.stage));
    w.i64(q.slave);
    w.u32(q.addrCyclesLeft);
    w.u32(q.dataCyclesLeft);
    w.u32(q.addrCycles);
    w.u32(q.dataCycles);
    w.u64(q.acceptCycle);
    w.u64(q.finishCycle);
    w.u64(q.addrDoneCycle);
    w.u64(q.dataDoneCycle);
  }
  w.b(doneNotified_);
  w.b(stallOpen_);
  w.u64(stallSyncedThrough_);
  w.u64(stats_.completed);
  w.u64(stats_.errors);
  w.u64(stats_.issueStallCycles);
  w.u64(stats_.finishCycle);
}

void Tl2ReplayMaster::loadState(ckpt::StateReader& r) {
  if (!inFlight_.empty()) {
    throw ckpt::CheckpointError(
        "Tl2ReplayMaster::loadState: restore target has transactions in "
        "flight");
  }
  if (r.u64() != trace_.size()) {
    throw ckpt::CheckpointError(
        "Tl2ReplayMaster::loadState: trace length differs from the saved "
        "replay");
  }
  nextIssue_ = static_cast<std::size_t>(r.u64());
  // See ReplayMaster::loadState: a refused issue may have materialised
  // one request ahead of the issue cursor.
  const std::size_t count = static_cast<std::size_t>(r.u64());
  if (count > trace_.size() || count < nextIssue_ ||
      count > nextIssue_ + 1) {
    throw ckpt::CheckpointError(
        "Tl2ReplayMaster::loadState: corrupt request materialisation count");
  }
  requests_.clear();
  for (std::size_t i = 0; i < count; ++i) {
    const TraceEntry& e = trace_[i];
    Tl2Request& q = requests_.emplace_back();
    q.kind = e.kind;
    q.address = e.address;
    q.bytes = e.byteCount();
    q.data = buffers_[i].data();
    r.bytes(buffers_[i].data(), buffers_[i].size());
    q.result = static_cast<BusStatus>(r.u8());
    q.stage = static_cast<bus::Tl2Stage>(r.u8());
    q.slave = static_cast<int>(r.i64());
    q.addrCyclesLeft = r.u32();
    q.dataCyclesLeft = r.u32();
    q.addrCycles = r.u32();
    q.dataCycles = r.u32();
    q.acceptCycle = r.u64();
    q.finishCycle = r.u64();
    q.addrDoneCycle = r.u64();
    q.dataDoneCycle = r.u64();
  }
  doneNotified_ = r.b();
  stallOpen_ = r.b();
  stallSyncedThrough_ = r.u64();
  stats_.completed = r.u64();
  stats_.errors = r.u64();
  stats_.issueStallCycles = r.u64();
  stats_.finishCycle = r.u64();
}

} // namespace sct::trace
