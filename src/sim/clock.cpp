#include "sim/clock.h"

#include <algorithm>
#include <stdexcept>

namespace sct::sim {

Clock::Clock(Kernel& kernel, std::string name, Time period)
    : kernel_(kernel), name_(std::move(name)), period_(period) {
  if (period_ == 0 || period_ % 2 != 0) {
    throw std::invalid_argument("Clock: period must be non-zero and even");
  }
  if (kernel_.clocked_) {
    throw std::logic_error("Clock: '" + name_ +
                           "' — the kernel already has a clock");
  }
  kernel_.clocked_ = true;
}

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
  if (&vec == dispatching_) {
    deferred_.push_back(std::move(h));
  } else {
    insertSorted(vec, std::move(h));
  }
  return id;
}

void Clock::insertSorted(std::vector<Handler>& vec, Handler&& h) {
  // Keep handlers sorted by priority; equal priorities keep
  // registration order (stable insert at upper bound).
  auto pos = std::upper_bound(
      vec.begin(), vec.end(), h.priority,
      [](int p, const Handler& hh) { return p < hh.priority; });
  vec.insert(pos, std::move(h));
  minWakeDirty_ = true;
  parkIndexDirty_ = true;
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

Clock::Handler* Clock::findHandler(HandlerId id) {
  if (parkIndexDirty_) rebuildParkIndex();
  auto it = std::lower_bound(
      parkIndex_.begin(), parkIndex_.end(), id,
      [](const ParkSlot& s, HandlerId v) { return s.id < v; });
  if (it != parkIndex_.end() && it->id == id) {
    return it->falling ? &falling_[it->idx] : &rising_[it->idx];
  }
  for (Handler& h : deferred_) {
    if (h.id == id) return &h;
  }
  return nullptr;
}

void Clock::parkHandler(HandlerId id, std::uint64_t wakeCycle) {
  Handler* h = findHandler(id);
  if (h == nullptr || h->wake == wakeCycle) return;
  // Keep the minWakeCycle() memo where the change cannot invalidate it:
  // a wake at or below the memo becomes the memo, and a handler above
  // it stays above it. Only raising the handler at the memo rescans —
  // so a handler that parks and wakes while others run every cycle
  // costs one short rescan per park.
  if (wakeCycle <= minWakeCache_) {
    minWakeCache_ = wakeCycle;
  } else if (h->wake <= minWakeCache_) {
    minWakeDirty_ = true;
  }
  h->wake = wakeCycle;
  if (obsParks_ != nullptr) notePark(id, wakeCycle);
}

std::uint64_t Clock::wakeCycle(HandlerId id) const {
  const Handler* h = const_cast<Clock*>(this)->findHandler(id);
  return h == nullptr ? kNeverWake : h->wake;
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

void Clock::eraseRemoved() {
  auto gone = [this](const Handler& h) { return flaggedForRemoval(h.id); };
  rising_.erase(std::remove_if(rising_.begin(), rising_.end(), gone),
                rising_.end());
  falling_.erase(std::remove_if(falling_.begin(), falling_.end(), gone),
                 falling_.end());
  pendingRemoval_.clear();
  minWakeDirty_ = true;
  parkIndexDirty_ = true;
}

void Clock::dispatch(std::vector<Handler>& handlers) {
  // The walk never sees the vector change: a handler registered on this
  // edge waits in deferred_ (see insertHandler) and is inserted once the
  // walk returns, so it first runs on the next such edge. A handler call
  // may flag removals, so the per-handler check re-arms as soon as
  // pendingRemoval_ becomes non-empty. The wake gate is read at call
  // time: an earlier handler waking a later one takes effect on the
  // same edge, matching the order an unparked run would produce.
  dispatching_ = &handlers;
  for (Handler& h : handlers) {
    if (h.wake > cycle_) continue;
    if (!pendingRemoval_.empty() && flaggedForRemoval(h.id)) continue;
    if (h.raw != nullptr) {
      h.raw(h.obj);
    } else {
      h.cb();
    }
  }
  dispatching_ = nullptr;
  if (!deferred_.empty()) {
    for (Handler& h : deferred_) insertSorted(handlers, std::move(h));
    deferred_.clear();
  }
}

std::uint64_t Clock::minWakeCycle() const {
  if (!minWakeDirty_) return minWakeCache_;
  // A wake at or before the next cycle rules the warp out, and keeps
  // ruling it out until some wake changes: stop scanning there.
  const std::uint64_t next = cycle_ + 1;
  std::uint64_t m = kNeverWake;
  for (const std::vector<Handler>* edge : {&rising_, &falling_}) {
    for (const Handler& h : *edge) {
      m = std::min(m, h.wake);
      if (m <= next) break;
    }
    if (m <= next) break;
  }
  minWakeCache_ = m;
  minWakeDirty_ = false;
  return m;
}

void Clock::runCycles(std::uint64_t n) {
  breakRequested_ = false;
  const std::uint64_t target = cycle_ + n;
  while (cycle_ < target && anyHandlers()) {
    if (!pendingRemoval_.empty()) {
      // Never warped over: the erasure may stop the clock.
      eraseRemoved();
      if (!anyHandlers()) return;
    } else {
      // Warp so that the next dispatched cycle is the earliest wake (or
      // the run's last cycle): every skipped cycle would have dispatched
      // nothing, and the stop cycle still produces real edges with the
      // timestamps a fully clocked run gives them.
      const std::uint64_t stop = std::min(minWakeCycle(), target);
      if (stop > cycle_ + 1) {
        const std::uint64_t skip = stop - cycle_ - 1;
        if (obsWarps_ != nullptr) noteWarp(cycle_, skip);
        cycle_ += skip;
      }
    }
    ++cycle_;
    const Time rise = cycle_ * period_;
    kernel_.now_ = rise;
    inHighPhase_ = true;
    dispatch(rising_);
    kernel_.now_ = rise + period_ / 2;
    inFallingDispatch_ = true;
    dispatch(falling_);
    inFallingDispatch_ = false;
    inHighPhase_ = false;
    kernel_.dispatched_ += 2;
    if (breakRequested_) return;
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

void Clock::saveState(ckpt::StateWriter& w) const {
  if (inHighPhase_ || !pendingRemoval_.empty()) {
    throw ckpt::CheckpointError(
        "Clock::saveState: '" + name_ +
        "' is mid-cycle or has pending handler removals — checkpoints "
        "are only legal between cycles");
  }
  w.u64(cycle_);
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
  if (inHighPhase_ || !pendingRemoval_.empty()) {
    throw ckpt::CheckpointError("Clock::loadState: '" + name_ +
                                "' is not at a cycle boundary");
  }
  cycle_ = r.u64();
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
  // Between cycles the time is the last cycle's falling edge.
  kernel_.now_ = cycle_ == 0 ? 0 : cycle_ * period_ + period_ / 2;
  minWakeDirty_ = true;
  parkIndexDirty_ = true;
  breakRequested_ = false;
}

} // namespace sct::sim
