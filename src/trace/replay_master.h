// Trace-replay bus master.
//
// ReplayMaster drives a recorded BusTrace into a bus through its
// non-blocking master interface: transactions are issued in trace
// order on rising clock edges (respecting each entry's earliest issue
// cycle and a configurable in-flight window) and collected once the
// bus publishes them Finished — the same discipline the paper used to
// feed RTL-traced sequences into every transaction-level model. One
// class template serves every layer, with direct calls on the concrete
// bus. The bus type fixes at compile time
//  * the payload: bus::Tl2Request on bus::Tl2Bus (pointer passing, one
//    transaction per burst), bus::Tl1Request on every other bus;
//  * the schedule while transactions are in flight. A bus with
//    nextFinishCycle() predicts completions, and the master parks until
//    the next one is ready for pickup (Tl2Bus, the bridge,
//    BridgedTl2Bus, hier::HybridBus in a TL2 region). A bus with
//    finishEpoch() (Tl1Bus) is epoch-gated: the in-flight scan and the
//    retry of a refused issue run only on cycles whose completion epoch
//    moved. Any other bus (ref::GlBus, the hybrid in a TL1 region) is
//    polled every cycle.
// One idle rule holds on every bus: with nothing in flight and no issue
// refused, the master parks until the next entry's issue cycle, and a
// done master parks for good (restart() wakes it).
#ifndef SCT_TRACE_REPLAY_MASTER_H
#define SCT_TRACE_REPLAY_MASTER_H

#include <algorithm>
#include <array>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <vector>

#include "bus/ec_request.h"
#include "bus/ec_types.h"
#include "ckpt/state_io.h"
#include "obs/stats.h"
#include "sim/clock.h"
#include "sim/module.h"
#include "trace/bus_trace.h"

namespace sct::bus {
class Tl2Bus;
}

namespace sct::trace {

struct ReplayStats {
  std::uint64_t completed = 0;
  std::uint64_t errors = 0;
  std::uint64_t issueStallCycles = 0;  ///< Cycles the accept was refused.
  std::uint64_t finishCycle = 0;       ///< Cycle the last result arrived.
};

/// Publish one master's replay statistics into `reg` under "<prefix>.".
/// The master keeps these counts anyway; observability is a copy-out at
/// snapshot time, never a hot-path hook.
inline void publishReplayObs(obs::StatsRegistry& reg,
                             const std::string& prefix,
                             const ReplayStats& s) {
  reg.counter(prefix + ".completed").add(s.completed);
  reg.counter(prefix + ".errors").add(s.errors);
  reg.counter(prefix + ".issue_stall_cycles").add(s.issueStallCycles);
  reg.gauge(prefix + ".finish_cycle").set(static_cast<double>(s.finishCycle));
}

/// Pointer-passed storage of one layer-2 payload (a whole burst).
using PayloadBuffer = std::array<std::uint8_t, 16>;

// The layer-specific part of a replay: build a request from its trace
// entry (`buffer` holds a layer-2 payload's bytes; layer 1 carries its
// data in the request), and save and load the fields the bus owns.
void makeRequest(const TraceEntry& e, bus::Tl1Request& r, PayloadBuffer*);
void makeRequest(const TraceEntry& e, bus::Tl2Request& r,
                 PayloadBuffer* buffer);
void savePayload(ckpt::StateWriter& w, const bus::Tl1Request& q);
void savePayload(ckpt::StateWriter& w, const bus::Tl2Request& q);
void loadPayload(ckpt::StateReader& r, bus::Tl1Request& q);
void loadPayload(ckpt::StateReader& r, bus::Tl2Request& q);

template <typename Bus>
class ReplayMaster final : public sim::Module {
 public:
  static constexpr bool kLayer2 = std::is_same_v<Bus, bus::Tl2Bus>;
  using Request =
      std::conditional_t<kLayer2, bus::Tl2Request, bus::Tl1Request>;

  /// `trace` is referenced, not copied, and must outlive the master —
  /// the rvalue overloads are deleted so a temporary cannot bind here.
  ReplayMaster(sim::Clock& clock, std::string name, Bus& bus,
               const BusTrace& trace, unsigned maxInFlight = 8)
      : sim::Module(std::move(name)),
        clock_(clock),
        bus_(bus),
        maxInFlight_(maxInFlight) {
    inFlight_.reserve(maxInFlight_);
    handlerId_ = clock_.onRisingRaw(
        [](void* self) { static_cast<ReplayMaster*>(self)->onRisingEdge(); },
        this);
    restart(trace);
  }
  /// The layer-1 spelling, one argument per EC interface (instruction,
  /// data). Both must be the same bus object: throws
  /// std::invalid_argument otherwise.
  ReplayMaster(sim::Clock& clock, std::string name, Bus& instrIf,
               Bus& dataIf, const BusTrace& trace, unsigned maxInFlight = 8)
      : ReplayMaster(clock, std::move(name), sameBus(instrIf, dataIf), trace,
                     maxInFlight) {}
  ReplayMaster(sim::Clock&, std::string, Bus&, BusTrace&&,
               unsigned = 8) = delete;
  ReplayMaster(sim::Clock&, std::string, Bus&, Bus&, BusTrace&&,
               unsigned = 8) = delete;
  ~ReplayMaster() override { clock_.removeHandler(handlerId_); }

  bool done() const { return stats_.completed == trace_.size(); }
  const ReplayStats& stats() const {
    // While parked on a refusal, credit the stall cycles the per-cycle
    // polling discipline would have counted so far.
    syncStalls(clock_.cycle());
    return stats_;
  }

  /// Request payloads in trace order (read results, per-request
  /// cycles). Materialised as entries are issued — the vector holds
  /// every trace entry once the replay has completed.
  const std::vector<Request>& requests() const { return requests_; }

  /// Read-result bytes of entry `i` (valid after completion).
  const PayloadBuffer& buffer(std::size_t i) const
    requires kLayer2
  {
    return buffers_[i];
  }

  /// Run the clock until the whole trace has completed (or maxCycles
  /// elapsed). Returns elapsed cycles from the call. One big runCycles()
  /// call per attempt: the handler requests a clock break on the cycle
  /// the trace completes, so this sees the same elapsed cycle count as
  /// stepping one cycle at a time, without defeating the clock's
  /// dead-cycle warp.
  std::uint64_t runToCompletion(std::uint64_t maxCycles = 10'000'000) {
    const std::uint64_t start = clock_.cycle();
    while (!done() && clock_.cycle() - start < maxCycles) {
      clock_.runCycles(maxCycles - (clock_.cycle() - start));
    }
    return clock_.cycle() - start;
  }

  /// Start over on `trace` (referenced, as in the constructor): replay
  /// progress, request payloads and stats reset to a just-constructed
  /// master's, and the handler is woken if a finished replay parked it.
  /// The clock handler stays registered — the clock's handler table is
  /// part of a snapshot's layout, so a rig that restores a snapshot and
  /// then restarts its master still matches it. Only legal with nothing
  /// in flight.
  void restart(const BusTrace& trace) {
    if (!inFlight_.empty()) {
      throw std::logic_error("ReplayMaster::restart: transactions in flight");
    }
    trace_ = trace.entries();
    requests_.clear();
    requests_.reserve(trace_.size());  // In-flight pointers stay stable.
    if constexpr (kLayer2) buffers_.assign(trace_.size(), {});
    nextIssue_ = 0;
    lastEpoch_ = 0;
    doneNotified_ = false;
    stallOpen_ = false;
    stallSyncedThrough_ = 0;
    stats_ = {};
    clock_.parkHandler(handlerId_, 0);
  }
  void restart(BusTrace&&) = delete;

  void publishObs(obs::StatsRegistry& reg) const {
    publishReplayObs(reg, name(), stats());
  }

  /// -- Checkpoint (see ckpt/checkpoint.h): only legal with nothing in
  /// flight (quiesced bus). Replay progress, the materialised request
  /// payloads (read results included) and the lazy stall bookkeeping
  /// travel; the restore target must be built over the same trace.
  /// Every saved payload is therefore Idle: loadState refuses any other
  /// stage byte, and a result byte that names no BusStatus.
  static constexpr std::uint32_t kCkptVersion = 1;
  void saveState(ckpt::StateWriter& w) const;
  void loadState(ckpt::StateReader& r);

 private:
  static constexpr bool kPredictive =
      requires(Bus& b) { b.nextFinishCycle(); };
  static constexpr bool kEpochGated = requires(Bus& b) { b.finishEpoch(); };

  static Bus& sameBus(Bus& instrIf, Bus& dataIf) {
    if (&instrIf != &dataIf) {
      throw std::invalid_argument(
          "ReplayMaster: the instruction and data interfaces must be one "
          "bus");
    }
    return instrIf;
  }

  bus::BusStatus submit(Request& req) {
    switch (req.kind) {
      case bus::Kind::InstrFetch:
        if constexpr (kLayer2) {
          return bus_.read(req);  // The paper's instruction bit.
        } else {
          return bus_.fetch(req);
        }
      case bus::Kind::Read: return bus_.read(req);
      case bus::Kind::Write: return bus_.write(req);
    }
    return bus::BusStatus::Error;
  }

  /// Materialise entry `i`'s request on first touch.
  Request& request(std::size_t i) {
    if (requests_.size() == i) {
      PayloadBuffer* buffer = nullptr;
      if constexpr (kLayer2) buffer = &buffers_[i];
      makeRequest(trace_[i], requests_.emplace_back(), buffer);
    }
    return requests_[i];
  }

  void onRisingEdge();
  /// Park the handler, with transactions in flight or a refused issue,
  /// until the next cycle anything can change (the earliest completion
  /// + 1, or the next issue cycle); a no-op while the bus answers
  /// kFinishUnknown. `refused` flags that this cycle's issue was
  /// refused by the bus.
  void parkUntilNextWork(bool refused);
  /// Credit the stall cycles a parked handler skipped, up to and
  /// including cycle `through` (the per-cycle master counts one stall
  /// per rising edge while the refusal persists).
  void syncStalls(std::uint64_t through) const {
    if (stallOpen_ && through > stallSyncedThrough_) {
      stats_.issueStallCycles += through - stallSyncedThrough_;
      stallSyncedThrough_ = through;
    }
  }

  sim::Clock& clock_;
  sim::Clock::HandlerId handlerId_ = 0;
  Bus& bus_;
  unsigned maxInFlight_;
  /// Entry payloads, referenced in place (the trace outlives the
  /// master; see the constructor contract). Requests are built from it
  /// one by one as they are issued; requests_ is reserved to full size
  /// so in-flight pointers stay stable.
  std::span<const TraceEntry> trace_;
  std::vector<Request> requests_;
  std::vector<PayloadBuffer> buffers_;  ///< One per entry, layer 2 only.
  std::vector<Request*> inFlight_;
  std::size_t nextIssue_ = 0;
  /// Last observed finishEpoch. Deliberately not checkpointed: a stale
  /// value costs at most one redundant in-flight scan (restores always
  /// land with nothing in flight), never a missed completion.
  std::uint64_t lastEpoch_ = 0;
  bool doneNotified_ = false;
  bool stallOpen_ = false;  ///< A refused issue is waiting; the handler
                            ///  is parked or epoch-gated meanwhile.
  mutable std::uint64_t stallSyncedThrough_ = 0;
  mutable ReplayStats stats_;
};

/// The layer-2 master.
using Tl2ReplayMaster = ReplayMaster<bus::Tl2Bus>;

template <typename Bus>
void ReplayMaster<Bus>::onRisingEdge() {
  const std::uint64_t cycle = clock_.cycle();
  // A predicting bus may defer its completion bookkeeping (the
  // event-driven Tl2Bus, the bridge over it): asking for the next
  // finish publishes every stage transition due by now, so the scan
  // below reads fresh stages.
  if constexpr (kPredictive) {
    if (!inFlight_.empty()) bus_.nextFinishCycle();
  }
  // Completion-epoch gate: while the bus's finishEpoch is unchanged, no
  // in-flight transaction can have reached Finished and no outstanding
  // slot can have freed — the scan and a pending refused issue are both
  // guaranteed no-ops.
  bool mayComplete = true;
  if constexpr (kEpochGated) {
    const std::uint64_t ep = bus_.finishEpoch();
    mayComplete = ep != lastEpoch_;
    lastEpoch_ = ep;
  }
  if (stallOpen_) {
    // The refusal can only clear once a completion frees its class
    // slot; nothing finished, so the retry would be refused again. The
    // skipped stall cycles are credited lazily (syncStalls).
    if (!mayComplete && !inFlight_.empty()) return;
    // One stall per skipped rising edge; the retry below re-counts this
    // cycle if refused again.
    syncStalls(cycle - 1);
    stallOpen_ = false;
  }
  // Collect finished transactions. Every bus publishes its stage
  // transitions (the stage contract of bus::EcInstrIf::fetch): a
  // payload whose stage is not Finished is still owned by the bus, and
  // the pickup poll of a Finished one is exactly `result = req.result;
  // stage = Idle`, so the master collects it from the payload itself.
  if (mayComplete) {
    for (auto it = inFlight_.begin(); it != inFlight_.end();) {
      Request& q = **it;
      if (q.stage != decltype(q.stage)::Finished) {
        ++it;
        continue;
      }
      q.stage = decltype(q.stage)::Idle;
      ++stats_.completed;
      if (q.result == bus::BusStatus::Error) ++stats_.errors;
      stats_.finishCycle = cycle;
      it = inFlight_.erase(it);
    }
  }
  // Issue further transactions in trace order.
  bool refused = false;
  while (nextIssue_ < trace_.size() &&
         trace_[nextIssue_].issueCycle <= cycle &&
         inFlight_.size() < maxInFlight_) {
    Request& req = request(nextIssue_);
    const bus::BusStatus s = submit(req);
    if (s == bus::BusStatus::Request) {
      inFlight_.push_back(&req);
      ++nextIssue_;
    } else if (s == bus::BusStatus::Error) {
      // Rejected at validation; counts as an immediately failed entry.
      ++stats_.completed;
      ++stats_.errors;
      stats_.finishCycle = cycle;
      ++nextIssue_;
    } else {
      // Accept refused (outstanding limit): retry next cycle — or, on
      // an epoch-gated or predicting bus, once a completion frees a
      // slot (the stall accounting stays cycle-exact via syncStalls).
      ++stats_.issueStallCycles;
      stallSyncedThrough_ = cycle;
      refused = true;
      if constexpr (kEpochGated) stallOpen_ = true;
      break;
    }
  }
  if (done()) {
    if (!doneNotified_) {
      doneNotified_ = true;
      clock_.requestBreak();
    }
    clock_.parkHandler(handlerId_, sim::Clock::kNeverWake);
    return;
  }
  if (inFlight_.empty() && !refused) {
    // Idle: nothing to collect, and the loop above stopped at an entry
    // not yet due, so nothing changes for this master before it is.
    const std::uint64_t due = trace_[nextIssue_].issueCycle;
    if (due > cycle + 1) clock_.parkHandler(handlerId_, due);
    return;
  }
  if constexpr (kPredictive) parkUntilNextWork(refused);
}

template <typename Bus>
void ReplayMaster<Bus>::parkUntilNextWork(bool refused) {
  const std::uint64_t nf = bus_.nextFinishCycle();
  if (nf == bus::kFinishUnknown) return;  // Poll every cycle.
  // Wake-on-completion: nothing observable changes for this master
  // before the earliest completion is ready for pickup (finish + 1) or
  // the next trace entry becomes due.
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
  // The handler just ran, so its stored wake is <= the current cycle;
  // when the target is simply "next cycle" leaving it untouched means
  // the same thing and saves the clock call (the dense-traffic case).
  if (wake > clock_.cycle() + 1) clock_.parkHandler(handlerId_, wake);
}

template <typename Bus>
void ReplayMaster<Bus>::saveState(ckpt::StateWriter& w) const {
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
  for (const Request& q : requests_) savePayload(w, q);
  w.b(doneNotified_);
  w.b(stallOpen_);
  w.u64(stallSyncedThrough_);
  w.u64(stats_.completed);
  w.u64(stats_.errors);
  w.u64(stats_.issueStallCycles);
  w.u64(stats_.finishCycle);
}

template <typename Bus>
void ReplayMaster<Bus>::loadState(ckpt::StateReader& r) {
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
    Request& q = request(i);
    loadPayload(r, q);
    const auto refuse = [i](const char* field, auto byte, const char* why) {
      throw ckpt::CheckpointError(
          "ReplayMaster::loadState: request " + std::to_string(i) + " " +
          field + " byte " + std::to_string(static_cast<unsigned>(byte)) +
          why);
    };
    if (q.stage != decltype(q.stage)::Idle) {
      refuse("stage", q.stage, " is not idle");
    }
    if (q.result > bus::BusStatus::Error) {
      refuse("result", q.result, " names no bus status");
    }
  }
  doneNotified_ = r.b();
  stallOpen_ = r.b();
  stallSyncedThrough_ = r.u64();
  stats_.completed = r.u64();
  if (stats_.completed != nextIssue_) {
    // Nothing is in flight at a quiesce point: every issued entry has
    // completed, and the idle rule reads the entry at the cursor.
    throw ckpt::CheckpointError(
        "ReplayMaster::loadState: completed count " +
        std::to_string(stats_.completed) + " differs from the issue cursor " +
        std::to_string(nextIssue_));
  }
  stats_.errors = r.u64();
  stats_.issueStallCycles = r.u64();
  stats_.finishCycle = r.u64();
}

} // namespace sct::trace

#endif // SCT_TRACE_REPLAY_MASTER_H
