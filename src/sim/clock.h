// Two-phase system clock.
//
// The paper's SystemC models hang their processes off the two edges of
// the system clock: bus masters and slaves evaluate on the *rising*
// edge, the bus process of the TL1/TL2 models is sensitive to the
// *falling* edge (Figures 2 and 4). The Clock reproduces that contract:
// per cycle it first dispatches all rising-edge handlers, then all
// falling-edge handlers, each group ordered by an explicit priority and
// otherwise by registration order.
//
// The clock is a kernel PeriodicProcess: each edge is one armed
// activation dispatched from the kernel's inline fast path, so a
// running clock costs no heap allocation and no priority-queue traffic.
// Aperiodic events scheduled through Kernel::schedule interleave with
// the edges in exactly the order the pure event-queue design produced
// (the activation's tie-break sequence number is allocated when the
// previous edge re-arms, just as the old self-scheduling callback was).
//
// Event-driven models additionally *park* their handlers
// (parkHandler()): a parked handler stays registered but is skipped
// until its wake cycle. When every handler is parked beyond the next
// cycle and the clock's own activation is the kernel's sole dispatch
// candidate, runCycles() warps over the dead cycles in O(1) — cycle
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

/// A clock generator bound to a kernel. The clock arms one periodic
/// activation per edge; it only keeps the activation chain alive while
/// at least one handler is registered and the cycle limit is not
/// reached, so Kernel::run() terminates once every model has finished.
class Clock final : private PeriodicProcess {
 public:
  using Callback = std::function<void()>;
  /// Raw-callback form for per-cycle hot handlers: one indirect call,
  /// no std::function invoker layer. Same registration semantics as
  /// Callback otherwise.
  using RawFn = void (*)(void*);
  using HandlerId = std::size_t;

  /// `period` must be an even, non-zero number of picoseconds so both
  /// edges land on integral timestamps.
  Clock(Kernel& kernel, std::string name, Time period);
  ~Clock() override;

  const std::string& name() const { return name_; }
  Time period() const { return period_; }
  Kernel& kernel() { return kernel_; }

  /// Completed cycles, i.e. how many rising edges have fired.
  std::uint64_t cycle() const { return cycle_; }

  /// Register an edge handler. Handlers run every cycle until removed.
  /// Lower `priority` runs first within the edge.
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

  /// Run the bound kernel for exactly `n` clock cycles (both edges).
  /// Cycles in which every handler is parked are warped over whenever
  /// the clock is the kernel's only pending work; a warp never skips a
  /// cycle that would dispatch a handler, and the final cycle of the
  /// run always dispatches so kernel time lands where a fully clocked
  /// run would. Returns early after completing the cycle in which
  /// requestBreak() was called.
  void runCycles(std::uint64_t n);

  /// Ask the innermost active runCycles() to return once the current
  /// cycle completes (falling edge done). No-op outside runCycles();
  /// the flag is cleared when runCycles() is entered.
  void requestBreak() { breakRequested_ = true; }

  /// Stop generating edges after the current cycle completes.
  void halt() { halted_ = true; }
  bool halted() const { return halted_; }

  /// Restart edge generation after halt(); the first rising edge fires
  /// one full period after the current kernel time.
  void resume();

  /// True between a rising edge and the end of its falling dispatch,
  /// i.e. while cycle() refers to a cycle whose edges are still being
  /// produced.
  bool midCycle() const { return inHighPhase_; }

  /// True while the falling-edge handlers of the current cycle are
  /// being dispatched.
  bool inFallingDispatch() const { return inFallingDispatch_; }

  /// Resolve observability handles ("<name>.warps", "<name>.warp_cycles",
  /// "<name>.parks") in `reg` and optionally mirror warp/park events
  /// into `rec`. Until called, every hook is one null-check.
  void attachObs(obs::StatsRegistry& reg, obs::TraceRecorder* rec = nullptr);

  /// -- Checkpoint (see ckpt/checkpoint.h) ------------------------------
  /// Saves the cycle counter, run-control flags, the armed edge
  /// activation (exact kernel triple) and every handler's park wake
  /// cycle, keyed by HandlerId. Restoring requires an identically
  /// constructed clock (same handlers registered in the same order) and
  /// must happen *after* the owning Kernel's section so the activation
  /// can be re-armed against the restored scheduler. Only legal between
  /// cycles (not mid-dispatch).
  static constexpr std::uint32_t kCkptVersion = 1;
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

  // PeriodicProcess: one activation per edge.
  void fire() override;

  /// Shared tail of onEdge/onEdgeRaw: assign the id, insert sorted by
  /// priority, kick the edge chain if needed.
  HandlerId insertHandler(Edge edge, Handler&& h);

  void armNextEdge(Time when, bool rising);
  void fireRising();
  void fireFalling();
  void dispatch(std::vector<Handler>& handlers);
  bool anyHandlers() const;
  bool flaggedForRemoval(HandlerId id) const;
  /// Earliest wake cycle over all handlers (0 when any is unparked).
  /// Cached: the inline run loop probes this every cycle, and a
  /// simulation whose handlers never park must not pay a handler scan
  /// per cycle for a warp that can never trigger.
  std::uint64_t minWakeCycle() const;
  /// Jump cycle_/the armed activation forward so the next dispatched
  /// rising edge belongs to cycle min(minWakeCycle(), target).
  void maybeWarp(std::uint64_t target);
  /// Fused run loop: with the clock's activation already claimed and
  /// the kernel otherwise idle, produce whole cycles inline — rising
  /// dispatch, falling dispatch, dead-cycle warp — without arming an
  /// activation per edge. Bails back to the generic per-edge path (by
  /// arming the next edge exactly where fireRising/fireFalling would)
  /// the moment a handler schedules kernel work, halts the clock, or
  /// the cycle budget is consumed.
  void runInline(std::uint64_t target);
  /// Record one dead-cycle warp of `skip` cycles starting after
  /// `fromCycle` (only called with obs attached).
  SCT_OBS_COLD void noteWarp(std::uint64_t fromCycle, std::uint64_t skip);
  /// Record a park/wake transition for `id` (only called with obs
  /// attached).
  SCT_OBS_COLD void notePark(HandlerId id, std::uint64_t wakeCycle);

  Kernel& kernel_;
  std::string name_;
  Time period_;
  Kernel::PeriodicId periodicId_;
  std::uint64_t cycle_ = 0;
  HandlerId nextId_ = 1;
  std::vector<Handler> rising_;
  std::vector<Handler> falling_;
  std::vector<HandlerId> pendingRemoval_;  ///< Kept sorted.
  /// minWakeCycle() memo, invalidated whenever a wake field or the
  /// handler set changes (parkHandler, registration, erasure).
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
  bool scheduled_ = false;
  bool nextEdgeRising_ = true;
  bool halted_ = false;
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
