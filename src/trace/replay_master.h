// Trace-replay bus masters.
//
// ReplayMaster drives a recorded BusTrace into a layer-0 or layer-1 bus
// through the non-blocking EC master interfaces: transactions are
// issued in trace order on rising clock edges (respecting each entry's
// earliest issue cycle and a configurable in-flight window) and polled
// until Ok/Error — the same discipline the paper used to feed RTL-traced
// sequences into the transaction-level models. Tl2ReplayMaster is the
// layer-2 counterpart using pointer-passing block transactions.
#ifndef SCT_TRACE_REPLAY_MASTER_H
#define SCT_TRACE_REPLAY_MASTER_H

#include <array>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "bus/ec_interfaces.h"
#include "bus/ec_request.h"
#include "ckpt/state_io.h"
#include "obs/stats.h"
#include "sim/clock.h"
#include "sim/module.h"
#include "trace/bus_trace.h"

namespace sct::bus {
class Tl1Bus;
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

class ReplayMaster final : public sim::Module {
 public:
  /// `instrIf` and `dataIf` usually refer to the same bus object.
  /// `trace` is referenced, not copied, and must outlive the master —
  /// the rvalue overload is deleted so a temporary cannot bind here.
  ReplayMaster(sim::Clock& clock, std::string name, bus::EcInstrIf& instrIf,
               bus::EcDataIf& dataIf, const BusTrace& trace,
               unsigned maxInFlight = 8);
  ReplayMaster(sim::Clock&, std::string, bus::EcInstrIf&, bus::EcDataIf&,
               BusTrace&&, unsigned = 8) = delete;
  ~ReplayMaster() override;

  bool done() const { return stats_.completed == trace_.size(); }
  const ReplayStats& stats() const;

  /// Request payloads in trace order (read results, per-request
  /// cycles). Materialised as entries are issued — the vector holds
  /// every trace entry once the replay has completed.
  const std::vector<bus::Tl1Request>& requests() const { return requests_; }

  /// Run the clock until the whole trace has completed (or maxCycles
  /// elapsed). Returns elapsed cycles from the call.
  std::uint64_t runToCompletion(std::uint64_t maxCycles = 10'000'000);

  /// Start over on `trace` (referenced, as in the constructor): replay
  /// progress, request payloads and stats reset to a just-constructed
  /// master's, while the clock handler stays registered — the clock's
  /// handler table is part of a snapshot's layout, so a rig that
  /// restores a snapshot (which also rewinds the handler's park state)
  /// and then restarts its master still matches it. Only legal with
  /// nothing in flight.
  void restart(const BusTrace& trace);
  void restart(BusTrace&&) = delete;

  void publishObs(obs::StatsRegistry& reg) const {
    publishReplayObs(reg, name(), stats());
  }

  /// -- Checkpoint (see ckpt/checkpoint.h): only legal with nothing in
  /// flight (quiesced bus). Replay progress, the materialised request
  /// payloads (read results included) and the lazy stall bookkeeping
  /// travel; the restore target must be built over the same trace.
  static constexpr std::uint32_t kCkptVersion = 1;
  void saveState(ckpt::StateWriter& w) const;
  void loadState(ckpt::StateReader& r);

 private:
  void onRisingEdge();
  /// Park the handler until the next cycle anything can change, exactly
  /// like Tl2ReplayMaster::parkUntilNextWork — a no-op whenever either
  /// interface answers kFinishUnknown (a cycle-true Tl1Bus always does,
  /// so layer-1 replays keep the historical poll-every-cycle schedule
  /// bit-for-bit; a bridged event-driven layer-2 bus predicts finishes
  /// and the master sleeps through the dead cycles).
  void parkUntilNextWork(bool refused);
  /// Credit the stall cycles a parked handler skipped (see
  /// Tl2ReplayMaster::syncStalls).
  void syncStalls(std::uint64_t through) const;

  sim::Clock& clock_;
  sim::Clock::HandlerId handlerId_;
  bus::EcInstrIf& instrIf_;
  bus::EcDataIf& dataIf_;
  /// Set when both interfaces are the same concrete Tl1Bus (detected at
  /// construction): the per-cycle epoch probe and the issue calls then
  /// go through the final class directly — no virtual dispatch, no
  /// multiple-inheritance thunks. Behavior is identical to the generic
  /// path; this is purely a dispatch shortcut.
  bus::Tl1Bus* tl1_ = nullptr;
  unsigned maxInFlight_;
  bool predictive_;  ///< Either interface may predict completions; when
                     ///  false the park/pump bookkeeping is skipped —
                     ///  the schedule is poll-every-cycle regardless.
  bool epochGated_;  ///< Both interfaces keep an epoch: the in-flight
                     ///  scan and refused-issue retry only run on
                     ///  cycles whose finishEpoch sum moved.
  /// Entry payloads, referenced in place (the trace outlives the
  /// master; see the constructor contract). Requests are built from it
  /// one by one as they are issued; requests_ is reserved to full size
  /// so in-flight pointers stay stable.
  std::span<const TraceEntry> trace_;
  std::vector<bus::Tl1Request> requests_;
  std::vector<bus::Tl1Request*> inFlight_;
  std::size_t nextIssue_ = 0;
  /// Last observed finishEpoch sum. Deliberately not checkpointed: a
  /// stale value costs at most one redundant in-flight scan (restores
  /// always land with nothing in flight), never a missed completion.
  std::uint64_t lastEpoch_ = 0;
  bool doneNotified_ = false;
  bool stallOpen_ = false;  ///< A refused issue is waiting; the handler
                            ///  is parked or epoch-gated meanwhile.
  mutable std::uint64_t stallSyncedThrough_ = 0;
  mutable ReplayStats stats_;
};

class Tl2ReplayMaster final : public sim::Module {
 public:
  /// See ReplayMaster: the trace is referenced, not copied, and must
  /// outlive the master.
  Tl2ReplayMaster(sim::Clock& clock, std::string name, bus::Tl2MasterIf& busIf,
                  const BusTrace& trace, unsigned maxInFlight = 8);
  Tl2ReplayMaster(sim::Clock&, std::string, bus::Tl2MasterIf&, BusTrace&&,
                  unsigned = 8) = delete;
  ~Tl2ReplayMaster() override;

  bool done() const { return stats_.completed == trace_.size(); }
  const ReplayStats& stats() const;
  /// Request payloads in trace order; materialised as entries are
  /// issued (complete once the replay has finished).
  const std::vector<bus::Tl2Request>& requests() const { return requests_; }

  /// Read-result bytes of entry `i` (valid after completion).
  const std::array<std::uint8_t, 16>& buffer(std::size_t i) const {
    return buffers_[i];
  }

  std::uint64_t runToCompletion(std::uint64_t maxCycles = 10'000'000);

  void publishObs(obs::StatsRegistry& reg) const {
    publishReplayObs(reg, name(), stats());
  }

  /// -- Checkpoint: see ReplayMaster. The result buffers travel too.
  static constexpr std::uint32_t kCkptVersion = 1;
  void saveState(ckpt::StateWriter& w) const;
  void loadState(ckpt::StateReader& r);

 private:
  void onRisingEdge();
  /// Park the handler until the next cycle anything can change (bus
  /// completion + 1, or the next issue cycle); no-op when the bus
  /// cannot predict completions. `refused` flags that this cycle's
  /// issue was refused by the bus (outstanding limit).
  void parkUntilNextWork(bool refused);
  /// Credit the stall cycles a parked handler skipped, up to and
  /// including cycle `through` (the per-cycle master counts one stall
  /// per rising edge while the refusal persists).
  void syncStalls(std::uint64_t through) const;

  sim::Clock& clock_;
  sim::Clock::HandlerId handlerId_;
  bus::Tl2MasterIf& busIf_;
  unsigned maxInFlight_;
  /// See ReplayMaster: referenced entries, lazily materialised
  /// requests (reserved to full size, so pointers stay stable).
  std::span<const TraceEntry> trace_;
  std::vector<bus::Tl2Request> requests_;
  std::vector<std::array<std::uint8_t, 16>> buffers_;
  std::vector<bus::Tl2Request*> inFlight_;
  std::size_t nextIssue_ = 0;
  bool doneNotified_ = false;
  bool stallOpen_ = false;  ///< A refused issue is waiting, handler parked.
  mutable std::uint64_t stallSyncedThrough_ = 0;
  mutable ReplayStats stats_;
};

} // namespace sct::trace

#endif // SCT_TRACE_REPLAY_MASTER_H
