#include "sim/clock.h"

#include <algorithm>
#include <stdexcept>

namespace sct::sim {

Clock::Clock(Kernel& kernel, std::string name, Time period)
    : kernel_(kernel), name_(std::move(name)), period_(period) {
  if (period_ == 0 || period_ % 2 != 0) {
    throw std::invalid_argument("Clock: period must be non-zero and even");
  }
  periodicId_ = kernel_.addPeriodic(*this);
}

Clock::~Clock() { kernel_.removePeriodic(periodicId_); }

Clock::HandlerId Clock::onEdge(Edge edge, Callback cb, int priority) {
  if (!cb) throw std::invalid_argument("Clock::onEdge: empty callback");
  return insertHandler(edge,
                       Handler{/*id=*/0, priority, /*wake=*/0,
                               /*raw=*/nullptr, /*obj=*/nullptr,
                               std::move(cb)});
}

Clock::HandlerId Clock::onEdgeRaw(Edge edge, RawFn fn, void* obj,
                                  int priority) {
  if (fn == nullptr) {
    throw std::invalid_argument("Clock::onEdgeRaw: null callback");
  }
  return insertHandler(
      edge, Handler{/*id=*/0, priority, /*wake=*/0, fn, obj, Callback{}});
}

Clock::HandlerId Clock::insertHandler(Edge edge, Handler&& h) {
  const HandlerId id = nextId_++;
  h.id = id;
  auto& vec = (edge == Edge::Rising) ? rising_ : falling_;
  // Keep handlers sorted by priority; equal priorities keep
  // registration order (stable insert at upper bound).
  auto pos = std::upper_bound(
      vec.begin(), vec.end(), h.priority,
      [](int p, const Handler& hh) { return p < hh.priority; });
  vec.insert(pos, std::move(h));
  minWakeDirty_ = true;
  parkIndexDirty_ = true;
  if (!scheduled_ && !halted_) {
    armNextEdge(kernel_.now() + period_, /*rising=*/true);
  }
  return id;
}

void Clock::removeHandler(HandlerId id) {
  auto pos = std::lower_bound(pendingRemoval_.begin(), pendingRemoval_.end(),
                              id);
  if (pos == pendingRemoval_.end() || *pos != id) {
    pendingRemoval_.insert(pos, id);
  }
}

void Clock::rebuildParkIndex() const {
  parkIndex_.clear();
  for (std::size_t i = 0; i < rising_.size(); ++i) {
    parkIndex_.push_back({rising_[i].id, false, static_cast<std::uint32_t>(i)});
  }
  for (std::size_t i = 0; i < falling_.size(); ++i) {
    parkIndex_.push_back({falling_[i].id, true, static_cast<std::uint32_t>(i)});
  }
  std::sort(parkIndex_.begin(), parkIndex_.end(),
            [](const ParkSlot& a, const ParkSlot& b) { return a.id < b.id; });
  parkIndexDirty_ = false;
}

void Clock::parkHandler(HandlerId id, std::uint64_t wakeCycle) {
  if (parkIndexDirty_) rebuildParkIndex();
  auto it = std::lower_bound(
      parkIndex_.begin(), parkIndex_.end(), id,
      [](const ParkSlot& s, HandlerId v) { return s.id < v; });
  if (it == parkIndex_.end() || it->id != id) return;
  Handler& h = it->falling ? falling_[it->idx] : rising_[it->idx];
  if (h.wake == wakeCycle) return;
  h.wake = wakeCycle;
  minWakeDirty_ = true;
  if (obsParks_ != nullptr) notePark(id, wakeCycle);
}

void Clock::notePark(HandlerId id, std::uint64_t wakeCycle) {
  const bool parking = wakeCycle > cycle_;
  if (parking) obsParks_->add();
  if (obsRec_ != nullptr) {
    obsRec_->instant("clock", parking ? "park" : "wake", cycle_,
                     obs::Track::Clock, obs::TraceArg{"handler", id},
                     obs::TraceArg{"wake_cycle", wakeCycle});
  }
}

bool Clock::flaggedForRemoval(HandlerId id) const {
  return std::binary_search(pendingRemoval_.begin(), pendingRemoval_.end(),
                            id);
}

bool Clock::anyHandlers() const {
  return !rising_.empty() || !falling_.empty();
}

void Clock::armNextEdge(Time when, bool rising) {
  scheduled_ = true;
  nextEdgeRising_ = rising;
  kernel_.armPeriodic(periodicId_, when);
}

void Clock::fire() {
  scheduled_ = false;
  if (nextEdgeRising_) {
    fireRising();
  } else {
    fireFalling();
  }
}

void Clock::fireRising() {
  if (!pendingRemoval_.empty()) {
    auto gone = [this](const Handler& h) { return flaggedForRemoval(h.id); };
    rising_.erase(std::remove_if(rising_.begin(), rising_.end(), gone),
                  rising_.end());
    falling_.erase(std::remove_if(falling_.begin(), falling_.end(), gone),
                   falling_.end());
    pendingRemoval_.clear();
    minWakeDirty_ = true;
    parkIndexDirty_ = true;
  }
  if (halted_ || !anyHandlers()) return;
  ++cycle_;
  inHighPhase_ = true;
  dispatch(rising_);
  armNextEdge(kernel_.now() + period_ / 2, /*rising=*/false);
}

void Clock::fireFalling() {
  inFallingDispatch_ = true;
  dispatch(falling_);
  inFallingDispatch_ = false;
  inHighPhase_ = false;
  if (!halted_) armNextEdge(kernel_.now() + period_ / 2, /*rising=*/true);
}

void Clock::dispatch(std::vector<Handler>& handlers) {
  // Iterate by index: handlers may register further handlers (growing
  // the vector) during dispatch; newly added handlers first run on the
  // next edge because insertion keeps them past the current index only
  // if their priority sorts later — to keep semantics simple we snapshot
  // the size and skip handlers flagged for removal. A handler call may
  // flag removals, so the per-handler check re-arms as soon as
  // pendingRemoval_ becomes non-empty. The wake gate is read at call
  // time: an earlier handler waking a later one takes effect on the
  // same edge, matching the order an unparked run would produce.
  const std::size_t n = handlers.size();
  for (std::size_t i = 0; i < n && i < handlers.size(); ++i) {
    if (handlers[i].wake > cycle_) continue;
    if (!pendingRemoval_.empty() && flaggedForRemoval(handlers[i].id)) {
      continue;
    }
    if (handlers[i].raw != nullptr) {
      handlers[i].raw(handlers[i].obj);
    } else {
      handlers[i].cb();
    }
  }
}

std::uint64_t Clock::minWakeCycle() const {
  if (!minWakeDirty_) return minWakeCache_;
  std::uint64_t m = kNeverWake;
  for (const Handler& h : rising_) m = std::min(m, h.wake);
  for (const Handler& h : falling_) m = std::min(m, h.wake);
  minWakeCache_ = m;
  minWakeDirty_ = false;
  return m;
}

void Clock::maybeWarp(std::uint64_t target) {
  // Flagged-but-unerased handlers still count as present (erasure
  // happens on the next dispatched rising edge, and may stop the
  // clock); never warp over that edge.
  if (!pendingRemoval_.empty()) return;
  const std::uint64_t stop = std::min(minWakeCycle(), target);
  if (stop <= cycle_ + 1) return;  // Next rising edge must dispatch anyway.
  // Land so that the next fired rising edge is cycle `stop`: every
  // skipped cycle would have dispatched nothing, and the stop cycle
  // (parked-handler wake or end of run) still produces real edges with
  // the exact timestamps a fully clocked run would give them.
  const std::uint64_t skip = stop - cycle_ - 1;
  if (obsWarps_ != nullptr) noteWarp(cycle_, skip);
  cycle_ += skip;
  kernel_.postponeArmed(periodicId_, skip * period_);
}

void Clock::runCycles(std::uint64_t n) {
  breakRequested_ = false;
  const std::uint64_t target = cycle_ + n;
  while ((cycle_ < target || inHighPhase_) && !halted_ && anyHandlers()) {
    // Self-drive: when this clock's own activation is the only thing
    // the kernel could dispatch, claim it and run whole cycles inline —
    // same time advance, same bookkeeping, minus the per-edge kernel
    // round trips. Anything else pending (queued events, other clocks)
    // falls back to ordinary single-step dispatch. Before claiming a
    // rising edge, warp over cycles in which every handler is parked.
    if (scheduled_ && kernel_.soleArmedActivation(periodicId_)) {
      if (nextEdgeRising_ && !inHighPhase_) {
        maybeWarp(target);
        kernel_.claimSoleActivation(periodicId_);
        scheduled_ = false;
        runInline(target);
      } else {
        kernel_.claimSoleActivation(periodicId_);
        fire();
      }
    } else if (kernel_.step(1) == 0) {
      break;
    }
    if (breakRequested_ && !inHighPhase_) break;
  }
}

void Clock::runInline(std::uint64_t target) {
  // Precondition: the rising activation was just claimed (kernel time
  // sits on the rising edge of cycle_ + 1, nothing pending in the
  // kernel). Each iteration produces one full cycle. All bail-outs
  // re-create exactly the state the per-edge path would be in at the
  // same point, so the two paths interleave freely.
  Time rise = kernel_.now();
  std::uint64_t edges = 0;
  for (;;) {
    // Rising edge (mirrors fireRising).
    if (!pendingRemoval_.empty()) {
      auto gone = [this](const Handler& h) { return flaggedForRemoval(h.id); };
      rising_.erase(std::remove_if(rising_.begin(), rising_.end(), gone),
                    rising_.end());
      falling_.erase(std::remove_if(falling_.begin(), falling_.end(), gone),
                     falling_.end());
      pendingRemoval_.clear();
      minWakeDirty_ = true;
      parkIndexDirty_ = true;
      if (!anyHandlers()) {
        kernel_.noteInlineDispatches(edges);
        return;  // Clock stops: no arm, like fireRising.
      }
    }
    ++cycle_;
    inHighPhase_ = true;
    dispatch(rising_);
    ++edges;
    if (halted_ || !kernel_.idleForInline()) {
      kernel_.noteInlineDispatches(edges);
      armNextEdge(rise + period_ / 2, /*rising=*/false);
      return;
    }
    // Falling edge (mirrors fireFalling).
    kernel_.advanceInline(rise + period_ / 2);
    inFallingDispatch_ = true;
    dispatch(falling_);
    inFallingDispatch_ = false;
    inHighPhase_ = false;
    ++edges;
    if (halted_) {
      kernel_.noteInlineDispatches(edges);
      return;  // Halted: no re-arm, like fireFalling.
    }
    if (!kernel_.idleForInline() || breakRequested_ || cycle_ >= target) {
      kernel_.noteInlineDispatches(edges);
      armNextEdge(rise + period_, /*rising=*/true);
      return;
    }
    // Next cycle; warp over fully parked cycles (mirrors maybeWarp,
    // with no armed activation to postpone — just jump the timestamp).
    rise += period_;
    if (pendingRemoval_.empty()) {
      const std::uint64_t stop = std::min(minWakeCycle(), target);
      if (stop > cycle_ + 1) {
        const std::uint64_t skip = stop - cycle_ - 1;
        if (obsWarps_ != nullptr) noteWarp(cycle_, skip);
        cycle_ += skip;
        rise += skip * period_;
      }
    }
    kernel_.advanceInline(rise);
  }
}

void Clock::attachObs(obs::StatsRegistry& reg, obs::TraceRecorder* rec) {
  obsWarps_ = &reg.counter(name_ + ".warps");
  obsWarpLen_ =
      &reg.histogram(name_ + ".warp_cycles", {1, 2, 4, 8, 16, 64, 256});
  obsParks_ = &reg.counter(name_ + ".parks");
  obsRec_ = rec;
}

void Clock::noteWarp(std::uint64_t fromCycle, std::uint64_t skip) {
  obsWarps_->add();
  obsWarpLen_->record(skip);
  if (obsRec_ != nullptr) {
    obsRec_->instant("clock", "warp", fromCycle, obs::Track::Clock,
                     obs::TraceArg{"cycles", skip});
  }
}

void Clock::resume() {
  halted_ = false;
  if (!scheduled_ && anyHandlers()) {
    armNextEdge(kernel_.now() + period_, /*rising=*/true);
  }
}

void Clock::saveState(ckpt::StateWriter& w) const {
  if (inHighPhase_ || inFallingDispatch_ || !pendingRemoval_.empty()) {
    throw ckpt::CheckpointError(
        "Clock::saveState: '" + name_ +
        "' is mid-cycle or has pending handler removals — checkpoints "
        "are only legal between cycles");
  }
  w.u64(cycle_);
  w.b(halted_);
  w.b(scheduled_);
  w.b(nextEdgeRising_);
  if (scheduled_) {
    const Kernel::ActivationState a = kernel_.activationState(periodicId_);
    if (!a.armed) {
      throw ckpt::CheckpointError("Clock::saveState: '" + name_ +
                                  "' is scheduled but not armed");
    }
    w.u64(static_cast<std::uint64_t>(a.when));
    w.i64(a.priority);
    w.u64(a.seq);
  }
  w.u64(static_cast<std::uint64_t>(nextId_));
  const auto writeHandlers = [&w](const std::vector<Handler>& v) {
    w.u32(static_cast<std::uint32_t>(v.size()));
    for (const Handler& h : v) {
      w.u64(static_cast<std::uint64_t>(h.id));
      w.u64(h.wake);
    }
  };
  writeHandlers(rising_);
  writeHandlers(falling_);
}

void Clock::loadState(ckpt::StateReader& r) {
  if (inHighPhase_ || inFallingDispatch_ || !pendingRemoval_.empty()) {
    throw ckpt::CheckpointError("Clock::loadState: '" + name_ +
                                "' is not at a cycle boundary");
  }
  cycle_ = r.u64();
  halted_ = r.b();
  scheduled_ = r.b();
  nextEdgeRising_ = r.b();
  if (scheduled_) {
    const Time when = static_cast<Time>(r.u64());
    const int priority = static_cast<int>(r.i64());
    const std::uint64_t seq = r.u64();
    kernel_.restoreActivation(periodicId_, when, priority, seq);
  }
  const auto nextId = static_cast<HandlerId>(r.u64());
  if (nextId != nextId_) {
    throw ckpt::CheckpointError(
        "Clock::loadState: '" + name_ +
        "' handler registration differs from the saved system");
  }
  const auto readHandlers = [this, &r](std::vector<Handler>& v) {
    const std::uint32_t n = r.u32();
    if (n != v.size()) {
      throw ckpt::CheckpointError(
          "Clock::loadState: '" + name_ +
          "' handler count differs from the saved system");
    }
    for (Handler& h : v) {
      const auto id = static_cast<HandlerId>(r.u64());
      if (id != h.id) {
        throw ckpt::CheckpointError(
            "Clock::loadState: '" + name_ +
            "' handler order differs from the saved system");
      }
      h.wake = r.u64();
    }
  };
  readHandlers(rising_);
  readHandlers(falling_);
  minWakeDirty_ = true;
  parkIndexDirty_ = true;
  breakRequested_ = false;
}

} // namespace sct::sim
