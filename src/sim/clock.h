// Two-phase system clock, and the simulation's scheduler.
//
// The paper's SystemC models hang their processes off the two edges of
// the system clock: bus masters and slaves evaluate on the *rising*
// edge, the bus process of the TL1/TL2 models is sensitive to the
// *falling* edge (Figures 2 and 4). The Clock reproduces that contract
// and is the only scheduler: runCycles() dispatches, per cycle c, all
// rising-edge handlers at time c·period and then all falling-edge
// handlers half a period later, each group ordered by an explicit
// priority and otherwise by registration order. It writes the time and
// the dispatch count into its Kernel, which holds nothing else.
//
// Event-driven models additionally *park* their handlers
// (parkHandler()): a parked handler stays registered but is skipped
// until its wake cycle. When every handler is parked beyond the next
// cycle, runCycles() warps over the dead cycles in O(1) — cycle
// numbering and edge timestamps of every cycle that actually dispatches
// a handler are unchanged, so parked/warped runs are observably
// identical to fully clocked ones.
#ifndef SCT_SIM_CLOCK_H
#define SCT_SIM_CLOCK_H

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "obs/obs.h"
#include "obs/stats.h"
#include "obs/trace_json.h"
#include "sim/kernel.h"
#include "sim/time.h"

namespace sct::sim {

/// Edge selector for handler registration.
enum class Edge : std::uint8_t { Rising, Falling };

/// A clock generator bound to a kernel, one clock per kernel. Edges
/// are produced only inside runCycles(), and only while at least one
/// handler is registered.
class Clock final {
 public:
  using Callback = std::function<void()>;
  /// Raw-callback form for per-cycle hot handlers: one indirect call,
  /// no std::function invoker layer. Same registration semantics as
  /// Callback otherwise.
  using RawFn = void (*)(void*);
  using HandlerId = std::size_t;

  /// `period` must be an even, non-zero number of picoseconds so both
  /// edges land on integral timestamps. Throws std::logic_error when
  /// `kernel` already has a clock.
  Clock(Kernel& kernel, std::string name, Time period);
  Clock(const Clock&) = delete;
  Clock& operator=(const Clock&) = delete;

  const std::string& name() const { return name_; }
  Time period() const { return period_; }

  /// Completed cycles, i.e. how many rising edges have fired.
  std::uint64_t cycle() const { return cycle_; }

  /// Register an edge handler. Handlers run every cycle until removed.
  /// Lower `priority` runs first within the edge. A handler registered
  /// from inside a handler of the same edge first runs on that edge of
  /// the next cycle; one registered for the other edge of the current
  /// cycle (a falling handler from a rising one) runs on it.
  HandlerId onEdge(Edge edge, Callback cb, int priority = 0);
  HandlerId onRising(Callback cb, int priority = 0) {
    return onEdge(Edge::Rising, std::move(cb), priority);
  }
  HandlerId onFalling(Callback cb, int priority = 0) {
    return onEdge(Edge::Falling, std::move(cb), priority);
  }

  /// Register a raw edge handler (`fn(obj)` per edge). Identical
  /// ordering/park/removal semantics to the std::function form; the
  /// models driven every cycle (bus process, replay masters) register
  /// this way so dispatch costs a single indirect call.
  HandlerId onEdgeRaw(Edge edge, RawFn fn, void* obj, int priority = 0);
  HandlerId onRisingRaw(RawFn fn, void* obj, int priority = 0) {
    return onEdgeRaw(Edge::Rising, fn, obj, priority);
  }
  HandlerId onFallingRaw(RawFn fn, void* obj, int priority = 0) {
    return onEdgeRaw(Edge::Falling, fn, obj, priority);
  }

  /// Remove a handler. Safe to call from inside a handler; the removal
  /// takes effect from the next edge.
  void removeHandler(HandlerId id);

  /// Wake cycle for parkHandler() meaning "never" (until re-parked).
  static constexpr std::uint64_t kNeverWake =
      ~static_cast<std::uint64_t>(0);

  /// Park `id` until `wakeCycle`: the handler stays registered (the
  /// clock keeps running) but is skipped on every edge of cycles before
  /// `wakeCycle`. Parking at a cycle <= the current one (re)activates
  /// the handler immediately — parkHandler doubles as the wake call —
  /// and takes effect for edges not yet dispatched this cycle. Safe to
  /// call from inside any handler.
  void parkHandler(HandlerId id, std::uint64_t wakeCycle);

  /// The wake cycle last set for `id` by parkHandler() or a restore: 0
  /// for a handler never parked, kNeverWake for one parked for good.
  /// Lets a component whose park state the clock's checkpoint section
  /// carries read it back after a restore.
  std::uint64_t wakeCycle(HandlerId id) const;

  /// Run exactly `n` clock cycles (both edges). Cycles in which every
  /// handler is parked are warped over; a warp never skips a cycle that
  /// would dispatch a handler or erase a removed one, and the final
  /// cycle of the run always dispatches, so time lands where a fully
  /// clocked run would. Returns early after completing the cycle in
  /// which requestBreak() was called, or once no handler remains.
  void runCycles(std::uint64_t n);

  /// Ask the active runCycles() to return once the current cycle
  /// completes (falling edge done). No-op outside runCycles(); the flag
  /// is cleared when runCycles() is entered.
  void requestBreak() { breakRequested_ = true; }

  /// True while the edges of cycle() are being dispatched, i.e. from
  /// its rising dispatch to the end of its falling dispatch.
  bool midCycle() const { return inHighPhase_; }

  /// The last cycle whose falling edge has been reached: cycle() between
  /// cycles and during its falling dispatch, cycle() - 1 during its
  /// rising one. A parked falling-edge process derives the cycles it
  /// skipped from this.
  std::uint64_t lastFallingEdge() const {
    return inHighPhase_ && !inFallingDispatch_ ? cycle_ - 1 : cycle_;
  }

  /// True while the falling-edge handlers of the current cycle are
  /// being dispatched.
  bool inFallingDispatch() const { return inFallingDispatch_; }

  /// Resolve observability handles ("<name>.warps", "<name>.warp_cycles",
  /// "<name>.parks") in `reg` and optionally mirror warp/park events
  /// into `rec`. Until called, every hook is one null-check.
  void attachObs(obs::StatsRegistry& reg, obs::TraceRecorder* rec = nullptr);

  /// -- Checkpoint (see ckpt/checkpoint.h) ------------------------------
  /// Saves the cycle counter and every handler's park wake cycle, keyed
  /// by HandlerId. Restoring requires an identically constructed clock
  /// (same handlers registered in the same order) and sets the kernel's
  /// time to the saved cycle's falling edge. Only legal between cycles
  /// (not mid-dispatch).
  static constexpr std::uint32_t kCkptVersion = 2;
  void saveState(ckpt::StateWriter& w) const;
  void loadState(ckpt::StateReader& r);

 private:
  struct Handler {
    HandlerId id;
    int priority;
    std::uint64_t wake = 0;  ///< First cycle the handler runs again.
    /// Exactly one of (raw, obj) / cb is active: raw != nullptr wins.
    RawFn raw = nullptr;
    void* obj = nullptr;
    Callback cb;
  };

  /// Shared tail of onEdge/onEdgeRaw: assign the id, insert sorted by
  /// priority — or defer the insert while that edge is being
  /// dispatched.
  HandlerId insertHandler(Edge edge, Handler&& h);
  void insertSorted(std::vector<Handler>& vec, Handler&& h);
  /// The registered or deferred handler with `id`, or null.
  Handler* findHandler(HandlerId id);

  void dispatch(std::vector<Handler>& handlers);
  bool anyHandlers() const;
  bool flaggedForRemoval(HandlerId id) const;
  /// Drop the handlers flagged by removeHandler().
  void eraseRemoved();
  /// Earliest wake cycle over all handlers, or, when some handler
  /// wakes at or before the cycle after the scan, that handler's wake:
  /// either way no warp goes past it. Cached: the run loop probes this
  /// every cycle, and a simulation whose handlers never park must not
  /// pay a handler scan per cycle for a warp that can never trigger.
  std::uint64_t minWakeCycle() const;
  /// Record one dead-cycle warp of `skip` cycles starting after
  /// `fromCycle` (only called with obs attached).
  SCT_OBS_COLD void noteWarp(std::uint64_t fromCycle, std::uint64_t skip);
  /// Record a park/wake transition for `id` (only called with obs
  /// attached).
  SCT_OBS_COLD void notePark(HandlerId id, std::uint64_t wakeCycle);

  Kernel& kernel_;
  std::string name_;
  Time period_;
  std::uint64_t cycle_ = 0;
  HandlerId nextId_ = 1;
  std::vector<Handler> rising_;
  std::vector<Handler> falling_;
  std::vector<HandlerId> pendingRemoval_;  ///< Kept sorted.
  /// The handler vector dispatch() is walking (null between edges). A
  /// handler registered for it waits in deferred_ until the walk
  /// returns: inserting in place would shift the vector under the
  /// loop, or reallocate it under the executing handler.
  const std::vector<Handler>* dispatching_ = nullptr;
  std::vector<Handler> deferred_;
  /// minWakeCycle() memo: never below the earliest wake, and equal to
  /// it whenever it lies past the next cycle. Invalidated when the
  /// handler set changes (registration, erasure, restore) and when
  /// parkHandler raises the handler that may hold it.
  mutable std::uint64_t minWakeCache_ = 0;
  mutable bool minWakeDirty_ = true;
  /// Compact id -> handler-slot index so parkHandler — called once per
  /// phase boundary by event-driven modules — is a binary search over
  /// a dozen bytes per entry instead of a scan over the fat Handler
  /// structs. Rebuilt lazily after any registration or erasure.
  struct ParkSlot {
    HandlerId id;
    bool falling;
    std::uint32_t idx;
  };
  mutable std::vector<ParkSlot> parkIndex_;
  mutable bool parkIndexDirty_ = true;
  void rebuildParkIndex() const;
  bool inHighPhase_ = false;  ///< Between a rising edge and its falling edge.
  bool inFallingDispatch_ = false;
  bool breakRequested_ = false;
  // Observability handles, resolved once by attachObs (null = detached).
  obs::Counter* obsWarps_ = nullptr;
  obs::Histogram* obsWarpLen_ = nullptr;
  obs::Counter* obsParks_ = nullptr;
  obs::TraceRecorder* obsRec_ = nullptr;
};

} // namespace sct::sim

#endif // SCT_SIM_CLOCK_H
