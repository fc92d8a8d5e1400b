// Fidelity controller: drives HybridBus layer switches from ROI
// triggers and explicit scopes, and stitches the power estimate across
// the switch boundaries.
//
// The controller owns a rising-edge clock handler that runs *after*
// the masters (late priority): it consults the attached RoiTriggers
// (ORed with the enterRoi()/exitRoi() scope depth), requests a switch
// when the desired fidelity changes, and completes it at the first
// quiesce point. Wake contract: the handler ticks every cycle while a
// drain is in progress and is otherwise parked to the earliest of the
// triggers' decision horizons; a scope change decides at once, and a
// submission wakes the handler only when a trigger reports that it may
// have changed its answer (RoiTrigger::onSubmit). So a TL2 region
// keeps the clock's dead-cycle warp and costs the controller nothing
// per transaction. HybridBus reports each accepted submission straight
// to the controller bound to it (the constructor binds, the destructor
// unbinds).
//
// Power stitching: attachPower() marks both models' cumulative energy
// (integer aJ) at every region boundary, so each Region carries the
// energy its active layer accrued — TL1 regions identical to a pure-TL1
// run over the same transactions (the suspended TL1 model sees no
// callbacks in between; see hybrid_bus.h). attachProfile() extends a
// PowerProfile across the run: cycle-resolved samples inside ROIs
// (via an internal Tl1ProfileRecorder, registered after any power
// model already attached to the TL1 bus), one aggregate sample per
// TL2 region stamped with the region's closing boundary.
//
// One boundary caveat, shared with every cycle-true power model: a
// handshake strobe deasserts on the cycle *after* its last active
// cycle. Exiting an ROI immediately after the last transaction books
// that trailing deassertion edge to the following TL2 region; run a
// couple of idle TL1 cycles before exitRoi() when the region energy
// must include it (the equivalence suite does).
#ifndef SCT_HIER_FIDELITY_CONTROLLER_H
#define SCT_HIER_FIDELITY_CONTROLLER_H

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "hier/hybrid_bus.h"
#include "hier/roi_trigger.h"
#include "obs/stats.h"
#include "obs/trace_json.h"
#include "power/profile.h"
#include "power/tl1_power_model.h"
#include "power/tl2_power_model.h"
#include "sim/clock.h"

namespace sct::hier {

class FidelityController {
 public:
  /// A maximal run of cycles at one fidelity, [fromCycle, toCycle).
  struct Region {
    Fidelity fidelity;
    std::uint64_t fromCycle = 0;
    std::uint64_t toCycle = 0;
    double energy_fJ = 0.0;  ///< Active layer's model energy in the region.
  };

  /// The bus must outlive the controller. `name` prefixes the
  /// observability keys (<name>.switches, <name>.roi_cycles,
  /// <name>.drain_wait_cycles).
  FidelityController(sim::Clock& clock, HybridBus& bus,
                     std::string name = "hier");
  ~FidelityController();

  FidelityController(const FidelityController&) = delete;
  FidelityController& operator=(const FidelityController&) = delete;

  /// Attach a trigger (not owned; must outlive the controller).
  void addTrigger(RoiTrigger& trigger);

  /// Wire the per-layer power models (already attached to bus.tl1() /
  /// bus.tl2() by the caller) so regions carry energy and energy-driven
  /// triggers get fed. Call before running.
  void attachPower(power::Tl1PowerModel& tl1Model,
                   power::Tl2PowerModel& tl2Model);

  /// Stitch `profile` across the whole run (see file comment). Requires
  /// attachPower() first (throws std::logic_error otherwise, binding
  /// nothing); call after every other Tl1 observer is registered so the
  /// recorder sees each cycle's final energy.
  void attachProfile(power::PowerProfile& profile);

  /// Resolve stats handles in `reg` and optionally emit a trace instant
  /// per completed switch.
  void attachObs(obs::StatsRegistry& reg, obs::TraceRecorder* rec = nullptr);

  /// Explicit ROI scope: while the depth is positive the controller
  /// holds TL1. Callable between runCycles() calls or from a handler;
  /// the switch completes immediately when the bus is quiesced.
  /// exitRoi() at depth 0 throws std::logic_error and changes nothing.
  void enterRoi();
  void exitRoi();
  std::uint64_t scopeDepth() const { return scopeDepth_; }

  /// Close the open region at the current cycle (call after the run,
  /// before reading regions()).
  void finalize();

  const std::vector<Region>& regions() const { return regions_; }
  std::uint64_t switches() const { return switches_; }
  std::uint64_t roiCycles() const { return roiCycles_; }
  std::uint64_t drainWaitCycles() const { return drainWaitCycles_; }

  HybridBus& bus() { return bus_; }
  const std::string& name() const { return name_; }

 private:
  friend class HybridBus;  // Reports accepted submissions (noteSubmit).

  void tick();
  void evaluate(std::uint64_t cycle);
  void reactNow();
  void onSwitchCompleted(std::uint64_t cycle);
  void closeRegion(std::uint64_t boundary);
  void feedEnergy(std::uint64_t cycle);
  void parkToHorizon(std::uint64_t cycle);
  void noteSubmit(const bus::Tl1Request& req);
  std::uint64_t modelTotal_aJ(Fidelity f) const;

  sim::Clock& clock_;
  HybridBus& bus_;
  std::string name_;
  sim::Clock::HandlerId handlerId_;

  std::vector<RoiTrigger*> triggers_;
  std::uint64_t scopeDepth_ = 0;
  std::uint64_t switchRequestCycle_ = 0;

  std::uint64_t switches_ = 0;
  std::uint64_t roiCycles_ = 0;
  std::uint64_t drainWaitCycles_ = 0;

  std::vector<Region> regions_;
  Fidelity openFidelity_;
  std::uint64_t regionStart_ = 0;
  std::uint64_t regionStartEnergy_aJ_ = 0;

  power::Tl1PowerModel* pm1_ = nullptr;
  power::Tl2PowerModel* pm2_ = nullptr;
  power::PowerProfile* profile_ = nullptr;
  std::unique_ptr<power::Tl1ProfileRecorder> recorder_;
  std::uint64_t energyFed_aJ_ = 0;

  // Observability handles (null = detached; obsSwitches_ doubles as the
  // attached flag).
  obs::Counter* obsSwitches_ = nullptr;
  obs::Counter* obsRoiCycles_ = nullptr;
  obs::Counter* obsDrainWait_ = nullptr;
  obs::TraceRecorder* obsRec_ = nullptr;
};

/// RAII ROI scope guard.
class RoiScope {
 public:
  explicit RoiScope(FidelityController& controller) : controller_(&controller) {
    controller_->enterRoi();
  }
  ~RoiScope() {
    if (controller_ != nullptr) controller_->exitRoi();
  }
  RoiScope(RoiScope&& other) noexcept : controller_(other.controller_) {
    other.controller_ = nullptr;
  }
  RoiScope(const RoiScope&) = delete;
  RoiScope& operator=(const RoiScope&) = delete;
  RoiScope& operator=(RoiScope&&) = delete;

 private:
  FidelityController* controller_;
};

} // namespace sct::hier

#endif // SCT_HIER_FIDELITY_CONTROLLER_H
