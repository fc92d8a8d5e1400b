// ROI-gated power capture for trace corpus generation.
//
// A corpus trace is NOT the whole run's power profile — it is a short,
// perfectly aligned window over the crypto operation. RoiProfiler
// attaches to the layer-1 bus as an observer (registered AFTER the
// power model, the Tl1ProfileRecorder discipline) and reuses
// hier::AddressWatchTrigger to find the window: every accepted address
// phase is fed to the trigger, and the first cycle the trigger arms —
// the firmware's first touch of the watched SFR window — starts a
// fixed-length capture of samplesPerTrace consecutive bus cycles.
// Because every fork replays the identical instruction sequence from
// the identical snapshot, that first touch lands on the same relative
// cycle in every trace: traces are aligned by construction, no
// resynchronization pass needed.
//
// Each captured sample is
//     bus energy (power model, this cycle)
//   + crypto internal datapath leak (CryptoCoprocessor leak model)
//   + deterministic measurement noise,
// quantized to fixed point (× quantDenom, llround). The noise is an
// Irwin–Hall (sum of four uniforms) approximation of Gaussian noise
// drawn statelessly from (noiseSeed, sample index) via sim::hash64 —
// a pure function, so a trace's bytes depend only on (snapshot,
// plaintext, noise seed) and never on scheduling.
#ifndef SCT_SCA_CAPTURE_H
#define SCT_SCA_CAPTURE_H

#include <cstdint>
#include <vector>

#include "bus/ec_interfaces.h"
#include "hier/roi_trigger.h"
#include "power/tl1_power_model.h"
#include "soc/peripherals.h"

namespace sct::sca {

struct CaptureConfig {
  /// Capture length from the first ROI hit (bus cycles = samples).
  std::uint32_t samplesPerTrace = 48;
  /// Trigger hold window (re-armed on every ROI access).
  std::uint64_t holdCycles = 64;
  /// Gaussian-ish measurement noise sigma, fJ (0 = noiseless).
  double noiseSigma_fJ = 0.0;
  /// Fixed-point denominator for quantization (sample = fJ × this).
  std::uint32_t quantDenom = 64;
};

class RoiProfiler final : public bus::Tl1Observer {
 public:
  /// Watches `windows` (typically the crypto SFR block). `pm` must be
  /// registered on the same bus BEFORE this observer so its energy for
  /// the cycle is final at our busCycleEnd.
  RoiProfiler(const power::Tl1PowerModel& pm,
              const soc::CryptoCoprocessor& crypto,
              std::vector<hier::AddressWatchTrigger::Window> windows,
              const CaptureConfig& cfg);

  /// Reset for the next trace: clears samples and the ROI trigger's
  /// hits, and arms the capture with this trace's noise seed. Every
  /// trace on a reused profiler starts exactly as on a fresh one.
  void beginTrace(std::uint64_t noiseSeed);

  bool started() const { return started_; }
  bool done() const {
    return started_ && samples_.size() == cfg_.samplesPerTrace;
  }
  const std::vector<std::int64_t>& samples() const { return samples_; }
  std::uint64_t roiHits() const { return trigger_.hits(); }

  // bus::Tl1Observer
  void busCycleBegin(std::uint64_t cycle) override { cycle_ = cycle; }
  void addressPhase(const bus::AddressPhaseInfo& info) override;
  void busCycleEnd(std::uint64_t cycle) override;

 private:
  double noise_fJ(std::uint64_t sampleIndex) const;

  const power::Tl1PowerModel& pm_;
  const soc::CryptoCoprocessor& crypto_;
  hier::AddressWatchTrigger trigger_;
  CaptureConfig cfg_;

  std::uint64_t cycle_ = 0;
  std::uint64_t noiseSeed_ = 0;
  bool started_ = false;
  std::vector<std::int64_t> samples_;
};

} // namespace sct::sca

#endif // SCT_SCA_CAPTURE_H
