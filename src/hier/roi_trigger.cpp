#include "hier/roi_trigger.h"

#include <algorithm>

#include "bus/ec_signals.h"

namespace sct::hier {

bool AddressWatchTrigger::onSubmit(const bus::Tl1Request& req,
                                   std::uint64_t cycle) {
  const bus::Address lo = req.address;
  const bus::Address hi = lo + static_cast<bus::Address>(req.byteCount());
  for (const Window& w : windows_) {
    if (lo < w.base + w.size && w.base < hi) {
      ++hits_;
      const std::uint64_t until = cycle + holdCycles_;
      if (until > armedUntil_) armedUntil_ = until;
      return true;
    }
  }
  return false;
}

CycleWindowTrigger::CycleWindowTrigger(std::vector<Window> windows)
    : windows_(std::move(windows)) {
  std::sort(windows_.begin(), windows_.end(),
            [](const Window& a, const Window& b) { return a.begin < b.begin; });
}

bool CycleWindowTrigger::wantsRoi(std::uint64_t cycle) {
  while (cursor_ < windows_.size() && windows_[cursor_].end <= cycle) {
    ++cursor_;
  }
  return cursor_ < windows_.size() && windows_[cursor_].begin <= cycle;
}

std::uint64_t CycleWindowTrigger::nextDecisionCycle(std::uint64_t cycle) const {
  if (cursor_ >= windows_.size()) return sim::Clock::kNeverWake;
  const Window& w = windows_[cursor_];
  // Inside the window the answer flips at its end; before it, at its
  // begin. Overlapping successors are re-examined on that wake-up.
  const std::uint64_t next = w.begin <= cycle ? w.end : w.begin;
  return next <= cycle ? cycle + 1 : next;
}

EnergyBudgetTrigger::EnergyBudgetTrigger(power::SupplySpec spec,
                                         sim::Time clockPeriodPs,
                                         double chipScale,
                                         std::uint64_t windowCycles,
                                         double triggerFraction,
                                         std::uint64_t holdCycles)
    : spec_(std::move(spec)),
      clockPeriodPs_(clockPeriodPs),
      chipScale_(chipScale),
      windowCycles_(windowCycles == 0 ? 1 : windowCycles),
      triggerFraction_(triggerFraction),
      holdCycles_(holdCycles) {}

bool EnergyBudgetTrigger::wantsRoi(std::uint64_t cycle) {
  if (cycle >= windowStart_ + windowCycles_) {
    const std::uint64_t elapsed = cycle - windowStart_;
    // 1 fJ / 1 ps = 1 µW; scale bus-interface energy up to the chip.
    const double power_uW =
        bus::toFemtojoules(window_aJ_) * chipScale_ /
        (static_cast<double>(elapsed) * static_cast<double>(clockPeriodPs_));
    const double current_mA = power_uW / (spec_.vdd * 1000.0);
    if (current_mA >= triggerFraction_ * spec_.maxCurrent_mA) {
      ++windowsTripped_;
      const std::uint64_t until = cycle + holdCycles_;
      if (until > armedUntil_) armedUntil_ = until;
    }
    windowStart_ = cycle;
    window_aJ_ = 0;
  }
  return cycle < armedUntil_;
}

std::uint64_t EnergyBudgetTrigger::nextDecisionCycle(
    std::uint64_t cycle) const {
  std::uint64_t next = windowStart_ + windowCycles_;
  if (cycle < armedUntil_ && armedUntil_ < next) next = armedUntil_;
  return next <= cycle ? cycle + 1 : next;
}

void EnergyBudgetTrigger::onEnergy(std::uint64_t aJ, std::uint64_t /*cycle*/) {
  window_aJ_ += aJ;
}

} // namespace sct::hier
