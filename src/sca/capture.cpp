#include "sca/capture.h"

#include <cmath>

#include "sim/rng.h"

namespace sct::sca {

RoiProfiler::RoiProfiler(const power::Tl1PowerModel& pm,
                         const soc::CryptoCoprocessor& crypto,
                         std::vector<hier::AddressWatchTrigger::Window> windows,
                         const CaptureConfig& cfg)
    : pm_(pm), crypto_(crypto),
      trigger_(std::move(windows), cfg.holdCycles), cfg_(cfg) {
  samples_.reserve(cfg_.samplesPerTrace);
}

void RoiProfiler::beginTrace(std::uint64_t noiseSeed) {
  noiseSeed_ = noiseSeed;
  started_ = false;
  samples_.clear();
  trigger_.reset();
}

void RoiProfiler::addressPhase(const bus::AddressPhaseInfo& info) {
  if (info.accepted && info.request != nullptr) {
    trigger_.onSubmit(*info.request, cycle_);
  }
}

void RoiProfiler::busCycleEnd(std::uint64_t cycle) {
  if (!started_) {
    // The tripping access arms the trigger on this very cycle (our
    // addressPhase ran before this callback), so the first ROI-touching
    // bus cycle is also the first sample.
    if (!trigger_.armed(cycle)) return;
    started_ = true;
  }
  if (samples_.size() >= cfg_.samplesPerTrace) return;
  const std::uint64_t idx = samples_.size();
  const double sample_fJ = bus::toFemtojoules(pm_.energyLastCycle_aJ()) +
                           crypto_.internalEnergyLastCycle_fJ() +
                           noise_fJ(idx);
  samples_.push_back(static_cast<std::int64_t>(
      std::llround(sample_fJ * static_cast<double>(cfg_.quantDenom))));
}

double RoiProfiler::noise_fJ(std::uint64_t sampleIndex) const {
  if (cfg_.noiseSigma_fJ == 0.0) return 0.0;
  // Irwin–Hall: the sum of four U(0,1) draws has mean 2 and variance
  // 1/3; (sum − 2)·√3 is then a cheap unit-variance Gaussian-ish
  // deviate, drawn statelessly so traces never share noise state.
  double sum = 0.0;
  for (std::uint64_t k = 0; k < 4; ++k) {
    sum += sim::unitDouble(sim::hash64(noiseSeed_, sampleIndex, k));
  }
  return cfg_.noiseSigma_fJ * (sum - 2.0) * 1.7320508075688772;
}

} // namespace sct::sca
