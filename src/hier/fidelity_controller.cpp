#include "hier/fidelity_controller.h"

#include <cassert>

namespace sct::hier {

namespace {
/// Masters register rising handlers at the default priority 0; the
/// controller must see the cycle's submissions before deciding.
constexpr int kControllerPriority = 100;
} // namespace

FidelityController::FidelityController(sim::Clock& clock, HybridBus& bus,
                                       std::string name)
    : clock_(clock),
      bus_(bus),
      name_(std::move(name)),
      openFidelity_(bus.active()),
      regionStart_(clock.cycle()) {
  handlerId_ = clock_.onRising([this] { tick(); }, kControllerPriority);
  bus_.setSubmitHook(
      [this](const bus::Tl1Request& req) { noteSubmit(req); });
}

FidelityController::~FidelityController() {
  bus_.setSubmitHook({});
  if (recorder_) bus_.tl1().removeObserver(*recorder_);
  clock_.removeHandler(handlerId_);
}

void FidelityController::addTrigger(RoiTrigger& trigger) {
  triggers_.push_back(&trigger);
  // The new trigger's answer and horizon count from the next edge.
  clock_.parkHandler(handlerId_, 0);
}

void FidelityController::attachPower(power::Tl1PowerModel& tl1Model,
                                     power::Tl2PowerModel& tl2Model) {
  pm1_ = &tl1Model;
  pm2_ = &tl2Model;
  regionStartEnergy_fJ_ = modelTotal(openFidelity_);
  energyFed_fJ_ = pm1_->totalEnergy_fJ() + pm2_->totalEnergy_fJ();
}

void FidelityController::attachProfile(power::PowerProfile& profile) {
  assert(pm1_ != nullptr && "attachPower() must come first");
  profile_ = &profile;
  recorder_ =
      std::make_unique<power::Tl1ProfileRecorder>(*pm1_, profile);
  bus_.tl1().addObserver(*recorder_);
}

void FidelityController::attachObs(obs::StatsRegistry& reg,
                                   obs::TraceRecorder* rec) {
  obsRoiCycles_ = &reg.counter(name_ + ".roi_cycles");
  obsDrainWait_ = &reg.counter(name_ + ".drain_wait_cycles");
  obsRec_ = rec;
  obsSwitches_ = &reg.counter(name_ + ".switches");
}

void FidelityController::enterRoi() {
  ++scopeDepth_;
  reactNow();
}

void FidelityController::exitRoi() {
  assert(scopeDepth_ > 0 && "exitRoi() without matching enterRoi()");
  --scopeDepth_;
  reactNow();
}

void FidelityController::finalize() { closeRegion(clock_.cycle()); }

void FidelityController::tick() {
  const std::uint64_t cycle = clock_.cycle();
  feedEnergy(cycle);
  evaluate(cycle);
  if (bus_.switchPending()) {
    // Retry the quiesce check every cycle until the drain completes:
    // returning without re-parking keeps the handler hot.
    if (!bus_.tryCompleteSwitch()) return;
    onSwitchCompleted(cycle);
  }
  parkToHorizon(cycle);
}

void FidelityController::reactNow() {
  const std::uint64_t cycle = clock_.cycle();
  feedEnergy(cycle);
  evaluate(cycle);
  if (bus_.switchPending() && bus_.tryCompleteSwitch()) {
    onSwitchCompleted(cycle);
  }
  if (bus_.switchPending()) {
    clock_.parkHandler(handlerId_, 0);  // Tick every cycle while draining.
  } else {
    parkToHorizon(cycle);
  }
}

void FidelityController::evaluate(std::uint64_t cycle) {
  bool roi = scopeDepth_ > 0;
  for (RoiTrigger* t : triggers_) {
    // Consult every trigger — no short-circuit; wantsRoi advances
    // window cursors and rolling accumulators.
    if (t->wantsRoi(cycle)) roi = true;
  }
  const Fidelity desired = roi ? Fidelity::Tl1 : Fidelity::Tl2;
  if (desired != bus_.active()) {
    if (!bus_.switchPending() || bus_.pendingTarget() != desired) {
      bus_.requestSwitch(desired);
      switchRequestCycle_ = cycle;
    }
  } else if (bus_.switchPending()) {
    bus_.requestSwitch(desired);  // Cancels the now-moot request.
  }
}

void FidelityController::onSwitchCompleted(std::uint64_t cycle) {
  ++switches_;
  const std::uint64_t waited = cycle - switchRequestCycle_;
  drainWaitCycles_ += waited;
  closeRegion(cycle);
  if (obsSwitches_ != nullptr) {
    obsSwitches_->add();
    obsDrainWait_->add(waited);
    if (obsRec_ != nullptr) {
      const char* name = bus_.active() == Fidelity::Tl1 ? "switch_to_tl1"
                                                        : "switch_to_tl2";
      obsRec_->instant("hier", name, cycle, obs::Track::Bus,
                       obs::TraceArg{"switches", switches_},
                       obs::TraceArg{"waited", waited});
    }
  }
}

void FidelityController::closeRegion(std::uint64_t boundary) {
  Region r;
  r.fidelity = openFidelity_;
  r.fromCycle = regionStart_;
  r.toCycle = boundary;
  r.energy_fJ = modelTotal(openFidelity_) - regionStartEnergy_fJ_;
  if (r.toCycle > r.fromCycle || r.energy_fJ != 0.0) {
    regions_.push_back(r);
    if (r.fidelity == Fidelity::Tl1) {
      const std::uint64_t len = r.toCycle - r.fromCycle;
      roiCycles_ += len;
      if (obsRoiCycles_ != nullptr) obsRoiCycles_->add(len);
    } else if (profile_ != nullptr) {
      // Stitch: one aggregate sample per TL2 region, stamped with its
      // closing boundary. Cycle-resolved ROI samples carry the cycle
      // number seen at their rising edge — (fromCycle, toCycle] of the
      // enclosing region — so the boundary stamp keeps the series
      // strictly monotone and collision-free on both sides.
      profile_->addSample(r.toCycle, r.energy_fJ);
    }
  }
  openFidelity_ = bus_.active();
  regionStart_ = boundary;
  regionStartEnergy_fJ_ = modelTotal(openFidelity_);
}

void FidelityController::feedEnergy(std::uint64_t cycle) {
  if (triggers_.empty() || (pm1_ == nullptr && pm2_ == nullptr)) return;
  const double total = (pm1_ != nullptr ? pm1_->totalEnergy_fJ() : 0.0) +
                       (pm2_ != nullptr ? pm2_->totalEnergy_fJ() : 0.0);
  const double delta = total - energyFed_fJ_;
  if (delta != 0.0) {
    for (RoiTrigger* t : triggers_) t->onEnergy(delta, cycle);
    energyFed_fJ_ = total;
  }
}

void FidelityController::parkToHorizon(std::uint64_t cycle) {
  std::uint64_t horizon = sim::Clock::kNeverWake;
  for (RoiTrigger* t : triggers_) {
    const std::uint64_t next = t->nextDecisionCycle(cycle);
    if (next < horizon) horizon = next;
  }
  // <= cycle + 1 needs no park: the handler ran this cycle, so it runs
  // on the next one anyway. Submissions and scope changes wake a parked
  // handler through noteSubmit()/reactNow().
  if (horizon > cycle + 1) clock_.parkHandler(handlerId_, horizon);
}

void FidelityController::noteSubmit(const bus::Tl1Request& req) {
  const std::uint64_t cycle = clock_.cycle();
  for (RoiTrigger* t : triggers_) t->onSubmit(req, cycle);
  // A submission can change a trigger's answer this very cycle; the
  // controller runs after the masters within the edge, so waking it is
  // enough to evaluate the hit immediately.
  clock_.parkHandler(handlerId_, 0);
}

double FidelityController::modelTotal(Fidelity f) const {
  if (f == Fidelity::Tl1) return pm1_ != nullptr ? pm1_->totalEnergy_fJ() : 0.0;
  return pm2_ != nullptr ? pm2_->totalEnergy_fJ() : 0.0;
}

} // namespace sct::hier
