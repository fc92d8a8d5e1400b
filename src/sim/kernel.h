// Simulation time and dispatch count of one clocked simulation.
//
// This stands in for the SystemC 2.0 kernel used by the paper. Every
// process the paper's models define hangs off the two edges of one
// system clock (masters and slaves on the rising edge, the bus process
// on the falling edge), so the scheduler is sim::Clock itself: it
// dispatches its own edges and writes the time and the dispatch count
// here. The Kernel only holds them, for the components that read time
// without holding the clock, and for the checkpoint.
#ifndef SCT_SIM_KERNEL_H
#define SCT_SIM_KERNEL_H

#include <cstdint>
#include <string>

#include "ckpt/state_io.h"
#include "obs/stats.h"
#include "sim/time.h"

namespace sct::sim {

/// Time holder for one simulation; exactly one Clock drives it. Not
/// thread-safe; one kernel per simulation.
class Kernel {
 public:
  Kernel() = default;
  Kernel(const Kernel&) = delete;
  Kernel& operator=(const Kernel&) = delete;

  /// Time of the edge being dispatched, or of the last one dispatched.
  Time now() const { return now_; }

  /// Clock edges dispatched so far, two per dispatched cycle.
  std::uint64_t dispatchedEvents() const { return dispatched_; }

  /// Publish the kernel's counters into `reg` under `prefix`. The
  /// clock keeps these counts anyway, so observability costs nothing
  /// on the dispatch path — this just copies them out at snapshot time.
  void publishObs(obs::StatsRegistry& reg,
                  const std::string& prefix = "kernel") const {
    reg.counter(prefix + ".dispatched_events").add(dispatched_);
    reg.gauge(prefix + ".now_ps").set(static_cast<double>(now_));
  }

  /// -- Checkpoint (see ckpt/checkpoint.h) ------------------------------
  /// The kernel section carries the dispatch count. Time follows from
  /// the clock's cycle, so the clock's section restores it.
  static constexpr std::uint32_t kCkptVersion = 2;
  void saveState(ckpt::StateWriter& w) const { w.u64(dispatched_); }
  void loadState(ckpt::StateReader& r) { dispatched_ = r.u64(); }

 private:
  friend class Clock;

  Time now_ = 0;
  std::uint64_t dispatched_ = 0;
  bool clocked_ = false;  ///< A Clock is bound; a second one throws.
};

} // namespace sct::sim

#endif // SCT_SIM_KERNEL_H
