// Region-of-interest triggers for the adaptive-fidelity controller.
//
// A trigger answers one question every decision cycle: does the run
// currently need cycle-true fidelity? The FidelityController ORs all
// attached triggers (plus the explicit enterRoi()/exitRoi() scope
// depth) and drives HybridBus switches from the result. A trigger's
// answer may change only at the horizon it publishes
// (nextDecisionCycle) or on a submission it reports as a change
// (onSubmit returns true); in between the controller's clock handler
// stays parked, so TL2 regions keep their dead-cycle warp and pay
// nothing per transaction.
//
// Shipped triggers:
//  * AddressWatchTrigger — accesses into watched windows (e.g. the
//    crypto coprocessor's SFR block) arm an ROI for `holdCycles`.
//    The tripping access itself still rides the layer that accepted
//    it; the switch happens at the next quiesce point.
//  * CycleWindowTrigger — a precomputed [begin, end) schedule, for
//    replaying known ROIs (APDU command windows, profiling scripts).
//  * EnergyBudgetTrigger — rolling-window mean current against a
//    SupplySpec budget; sustained draw near the budget drops the run
//    into cycle-true mode so the peak is profiled exactly.
#ifndef SCT_HIER_ROI_TRIGGER_H
#define SCT_HIER_ROI_TRIGGER_H

#include <cstdint>
#include <vector>

#include "bus/ec_request.h"
#include "bus/ec_types.h"
#include "power/budget.h"
#include "sim/clock.h"
#include "sim/time.h"

namespace sct::hier {

class RoiTrigger {
 public:
  virtual ~RoiTrigger() = default;

  /// Does this trigger want cycle-true fidelity at `cycle`? Called once
  /// per controller decision; may advance internal state (window
  /// cursors, rolling accumulators).
  virtual bool wantsRoi(std::uint64_t cycle) = 0;

  /// Earliest future cycle this trigger's answer could change on its
  /// own (sim::Clock::kNeverWake when only submissions can change it).
  /// The controller sleeps until then unless a submission reports a
  /// change, so an energy-driven answer must publish its window ends.
  virtual std::uint64_t nextDecisionCycle(std::uint64_t /*cycle*/) const {
    return sim::Clock::kNeverWake;
  }

  /// An accepted submission on the hybrid bus. Returns whether it may
  /// have changed this trigger's answer: true makes the controller
  /// decide again this very cycle, false lets it sleep on.
  virtual bool onSubmit(const bus::Tl1Request& /*req*/,
                        std::uint64_t /*cycle*/) {
    return false;
  }

  /// Energy accrued by the bus power models since the last feed (aJ),
  /// fed on every controller tick. The deltas telescope: a window's
  /// total at its closing tick is the same however many ticks fell
  /// inside it.
  virtual void onEnergy(std::uint64_t /*aJ*/, std::uint64_t /*cycle*/) {}
};

/// ROI on accesses into address windows; re-arms on every hit (the
/// only submissions it reports as a change).
class AddressWatchTrigger final : public RoiTrigger {
 public:
  struct Window {
    bus::Address base = 0;
    bus::Address size = 0;
    bool contains(bus::Address a) const { return a - base < size; }
  };

  AddressWatchTrigger(std::vector<Window> windows,
                      std::uint64_t holdCycles = 64)
      : windows_(std::move(windows)), holdCycles_(holdCycles) {}

  bool wantsRoi(std::uint64_t cycle) override { return cycle < armedUntil_; }
  std::uint64_t nextDecisionCycle(std::uint64_t cycle) const override {
    return cycle < armedUntil_ ? armedUntil_ : sim::Clock::kNeverWake;
  }
  bool onSubmit(const bus::Tl1Request& req, std::uint64_t cycle) override;

  bool armed(std::uint64_t cycle) const { return cycle < armedUntil_; }
  std::uint64_t hits() const { return hits_; }

  /// Forget every hit: disarmed, hit count zero. A watcher reused after
  /// a restore rewound the clock must not read as armed from a hit the
  /// rewound run never made.
  void reset() {
    armedUntil_ = 0;
    hits_ = 0;
  }

 private:
  std::vector<Window> windows_;
  std::uint64_t holdCycles_;
  std::uint64_t armedUntil_ = 0;
  std::uint64_t hits_ = 0;
};

/// ROI inside precomputed cycle windows [begin, end).
class CycleWindowTrigger final : public RoiTrigger {
 public:
  struct Window {
    std::uint64_t begin = 0;
    std::uint64_t end = 0;
  };

  /// Windows are sorted by begin; overlapping windows behave as their
  /// union.
  explicit CycleWindowTrigger(std::vector<Window> windows);

  bool wantsRoi(std::uint64_t cycle) override;
  std::uint64_t nextDecisionCycle(std::uint64_t cycle) const override;

 private:
  std::vector<Window> windows_;
  std::size_t cursor_ = 0;
};

/// ROI when the rolling mean supply current approaches the budget.
class EnergyBudgetTrigger final : public RoiTrigger {
 public:
  /// `chipScale` converts bus-interface energy to the whole-chip
  /// estimate (see power::BudgetChecker); `triggerFraction` of the
  /// spec's current budget is the arming threshold.
  EnergyBudgetTrigger(power::SupplySpec spec, sim::Time clockPeriodPs,
                      double chipScale = 120.0,
                      std::uint64_t windowCycles = 64,
                      double triggerFraction = 0.8,
                      std::uint64_t holdCycles = 256);

  bool wantsRoi(std::uint64_t cycle) override;
  std::uint64_t nextDecisionCycle(std::uint64_t cycle) const override;
  void onEnergy(std::uint64_t aJ, std::uint64_t cycle) override;

  std::uint64_t windowsTripped() const { return windowsTripped_; }

 private:
  power::SupplySpec spec_;
  sim::Time clockPeriodPs_;
  double chipScale_;
  std::uint64_t windowCycles_;
  double triggerFraction_;
  std::uint64_t holdCycles_;

  std::uint64_t windowStart_ = 0;
  std::uint64_t window_aJ_ = 0;
  std::uint64_t armedUntil_ = 0;
  std::uint64_t windowsTripped_ = 0;
};

} // namespace sct::hier

#endif // SCT_HIER_ROI_TRIGGER_H
