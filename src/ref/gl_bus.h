// Layer-0 reference bus: a signal-accurate model of the EC interface.
//
// This is the repository's stand-in for the paper's gate-level
// simulation. It implements the same EC protocol as the layer-1 model —
// but as an independently coded wire-level machine: every falling clock
// edge it produces the concrete value of all 122 EC interface wires
// (bus/ec_signals.h), feeds the transition-resolved energy model with
// the old and new frames plus combinational hazard activity, and hands
// each frame to registered listeners (VCD dump, characterizer).
//
// Master protocol and timing semantics are the EC rules of the paper:
// non-blocking request/wait/ok/error interfaces, up to four outstanding
// transactions per class, slave wait states for address/read/write
// phases, read and write data phases in parallel, same-cycle address →
// data hand-over. Cycle equality with the layer-1 model on arbitrary
// workloads is enforced by property tests — that equality is the
// paper's Table 1 "layer one = 0 % timing error" result.
#ifndef SCT_REF_GL_BUS_H
#define SCT_REF_GL_BUS_H

#include <cstdint>
#include <deque>
#include <string>
#include <vector>

#include "bus/decoder.h"
#include "bus/ec_interfaces.h"
#include "bus/ec_request.h"
#include "bus/ec_signals.h"
#include "bus/tl1_bus.h"
#include "ref/energy.h"
#include "sim/clock.h"
#include "sim/module.h"

namespace sct::ref {

/// Receives every completed signal frame of the reference simulation.
class FrameListener {
 public:
  virtual ~FrameListener() = default;
  virtual void onFrame(std::uint64_t cycle, const bus::SignalFrame& prev,
                       const bus::SignalFrame& next,
                       const GlitchCounts& glitches,
                       const CycleEnergy& energy) = 0;
};

/// Hazard-model parameters: transition-equivalents injected per changed
/// address bit when the address bus is re-driven (decoder and mux
/// hazards). Deterministic; documented in DESIGN.md.
struct HazardParams {
  double selectPerAddrBit = 0.30;
  double addrMuxPerAddrBit = 0.15;
};

class GlBus final : public sim::Module,
                    public bus::EcInstrIf,
                    public bus::EcDataIf {
 public:
  GlBus(sim::Clock& clock, std::string name,
        const TransitionEnergyModel& energyModel,
        const HazardParams& hazards = HazardParams{});
  ~GlBus() override;

  int attach(bus::EcSlave& slave) { return decoder_.attach(slave); }

  // Master interfaces (identical contract to the layer-1 bus).
  bus::BusStatus fetch(bus::Tl1Request& req) override;
  bus::BusStatus read(bus::Tl1Request& req) override;
  bus::BusStatus write(bus::Tl1Request& req) override;

  bool idle() const;

  void addFrameListener(FrameListener& l) { listeners_.push_back(&l); }
  void removeFrameListener(FrameListener& l);

  const EnergyAccumulator& energy() const { return energy_; }
  const bus::SignalFrame& frame() const { return frame_; }
  const bus::Tl1BusStats& stats() const { return stats_; }
  std::uint64_t cycle() const { return clock_.cycle(); }

 private:
  struct Slot {
    bus::Tl1Request* txn = nullptr;
    unsigned count = 0;  ///< Remaining wait cycles.
    unsigned beat = 0;
  };

  bus::BusStatus submitOrPoll(bus::Tl1Request& req, bus::Kind expectedKind);
  unsigned& outstanding(bus::Kind k);
  void process();
  void stepAddressUnit(bus::SignalFrame& next, GlitchCounts& glitches);
  void stepReadUnit(bus::SignalFrame& next);
  void stepWriteUnit(bus::SignalFrame& next);
  void retire(bus::Tl1Request& req, bus::BusStatus result);
  void driveAddress(bus::SignalFrame& next, GlitchCounts& glitches,
                    const bus::Tl1Request& req);

  sim::Clock& clock_;
  sim::Clock::HandlerId processId_;
  const TransitionEnergyModel& energyModel_;
  HazardParams hazards_;
  bus::AddressDecoder decoder_;
  std::vector<FrameListener*> listeners_;

  std::deque<bus::Tl1Request*> accepted_;
  std::deque<bus::Tl1Request*> readPending_;
  std::deque<bus::Tl1Request*> writePending_;
  Slot addrUnit_;
  Slot readUnit_;
  Slot writeUnit_;
  unsigned outstandingInstr_ = 0;
  unsigned outstandingRead_ = 0;
  unsigned outstandingWrite_ = 0;

  bus::SignalFrame frame_;  ///< Wire state after the last completed cycle.
  EnergyAccumulator energy_;
  bus::Tl1BusStats stats_;
};

} // namespace sct::ref

#endif // SCT_REF_GL_BUS_H
