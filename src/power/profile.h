// Power profiles over time.
//
// One of the paper's motivations is power analysis (SPA/DPA): the
// cycle-accurate energy interface of the layer-1 model exists so that
// "estimation of power consumption over time" can reduce "the
// probability of a successful power analysis attack". PowerProfile
// stores an energy time series (one sample per cycle or per window) and
// provides the statistics the examples and benches report: total and
// mean power, peak windows, variance, and windowed reductions.
#ifndef SCT_POWER_PROFILE_H
#define SCT_POWER_PROFILE_H

#include <cstdint>
#include <vector>

#include "bus/ec_interfaces.h"
#include "ckpt/state_io.h"
#include "power/tl1_power_model.h"
#include "sim/time.h"

namespace sct::power {

class PowerProfile {
 public:
  struct Sample {
    std::uint64_t cycle;
    double energy_fJ;
  };

  /// `clockPeriodPs` converts energy per cycle into power.
  /// `windowCycles` > 1 turns on windowed downsampling: consecutive
  /// cycles are folded into one stored sample per window (cycle =
  /// window start, energy = window sum), bounding memory for long runs
  /// at the cost of intra-window time resolution. The default keeps
  /// the historical one-sample-per-cycle behaviour.
  explicit PowerProfile(sim::Time clockPeriodPs,
                        std::uint64_t windowCycles = 1)
      : clockPeriodPs_(clockPeriodPs),
        windowCycles_(windowCycles == 0 ? 1 : windowCycles) {}

  /// Preallocate sample storage (per stored sample, i.e. per window).
  void reserve(std::size_t samples) { samples_.reserve(samples); }

  void addSample(std::uint64_t cycle, double energy_fJ) {
    total_fJ_ += energy_fJ;
    ++sampledCycles_;
    if (windowCycles_ == 1) {
      samples_.push_back(Sample{cycle, energy_fJ});
      return;
    }
    const std::uint64_t windowStart = cycle - (cycle % windowCycles_);
    if (samples_.empty() || samples_.back().cycle != windowStart) {
      samples_.push_back(Sample{windowStart, energy_fJ});
    } else {
      samples_.back().energy_fJ += energy_fJ;
    }
  }

  const std::vector<Sample>& samples() const { return samples_; }
  sim::Time clockPeriodPs() const { return clockPeriodPs_; }
  /// Cycles folded into one stored sample (1 = cycle-accurate).
  std::uint64_t windowCycles() const { return windowCycles_; }
  /// Cycles recorded via addSample (>= size() when downsampling).
  std::uint64_t sampledCycles() const { return sampledCycles_; }
  std::size_t size() const { return samples_.size(); }
  bool empty() const { return samples_.empty(); }
  double total_fJ() const { return total_fJ_; }

  /// Mean power in microwatts over the sampled cycles.
  /// 1 fJ / 1 ps = 1 µW.
  double meanPower_uW() const;

  /// Peak single-sample power in microwatts.
  double peakPower_uW() const;

  /// Sum energy over consecutive windows of `windowCycles` samples.
  std::vector<double> windowedEnergy_fJ(std::size_t windowCycles) const;

  /// Population variance of the per-sample energy (fJ²) — a flat
  /// profile (low variance) leaks less to SPA.
  double energyVariance_fJ2() const;

  void clear() {
    samples_.clear();
    total_fJ_ = 0.0;
    sampledCycles_ = 0;
  }

  /// -- Checkpoint (see ckpt/checkpoint.h): the recorded time series
  /// travels with the snapshot so a restored run's profile is the
  /// uninterrupted run's profile, sample for sample.
  static constexpr std::uint32_t kCkptVersion = 1;

  void saveState(ckpt::StateWriter& w) const {
    w.u64(static_cast<std::uint64_t>(windowCycles_));
    w.u64(sampledCycles_);
    w.f64(total_fJ_);
    w.u64(static_cast<std::uint64_t>(samples_.size()));
    for (const Sample& s : samples_) {
      w.u64(s.cycle);
      w.f64(s.energy_fJ);
    }
  }

  void loadState(ckpt::StateReader& r) {
    if (r.u64() != windowCycles_) {
      throw ckpt::CheckpointError(
          "PowerProfile::loadState: window size differs from the saved "
          "profile");
    }
    sampledCycles_ = r.u64();
    total_fJ_ = r.f64();
    samples_.resize(static_cast<std::size_t>(r.u64()));
    for (Sample& s : samples_) {
      s.cycle = r.u64();
      s.energy_fJ = r.f64();
    }
  }

 private:
  sim::Time clockPeriodPs_;
  std::uint64_t windowCycles_;
  std::uint64_t sampledCycles_ = 0;
  std::vector<Sample> samples_;
  double total_fJ_ = 0.0;
};

/// Records one profile sample per bus cycle from a layer-1 power model.
/// Register it with the bus *after* the power model so it observes the
/// cycle's final energy value.
class Tl1ProfileRecorder final : public bus::Tl1Observer {
 public:
  Tl1ProfileRecorder(const Tl1PowerModel& model, PowerProfile& profile)
      : model_(model), profile_(profile) {}

  void busCycleEnd(std::uint64_t cycle) override {
    profile_.addSample(cycle, bus::toFemtojoules(model_.energyLastCycle_aJ()));
  }

 private:
  const Tl1PowerModel& model_;
  PowerProfile& profile_;
};

} // namespace sct::power

#endif // SCT_POWER_PROFILE_H
