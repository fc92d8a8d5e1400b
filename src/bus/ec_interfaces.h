// Abstract interfaces between masters, the bus models and slaves.
//
// The layer-1 bus exposes a dedicated instruction interface and a data
// interface to its single master (the paper's Figure 2); all methods
// are non-blocking and return a BusStatus. Slaves expose a beat-level
// data interface (invoked by the bus until it answers Ok or Error), a
// block interface used by the layer-2 model's pointer-passing transfers,
// and the slave control interface (address range, wait states, access
// rights) the bus samples each cycle as getSlaveState().
#ifndef SCT_BUS_EC_INTERFACES_H
#define SCT_BUS_EC_INTERFACES_H

#include <cstddef>
#include <cstdint>
#include <string_view>

#include "bus/ec_request.h"
#include "bus/ec_types.h"

namespace sct::bus {

/// Instruction-fetch interface of the layer-1 bus (master side).
class EcInstrIf {
 public:
  virtual ~EcInstrIf() = default;
  /// Submit or poll an instruction fetch. Call every cycle with the same
  /// payload until Ok or Error is returned.
  ///
  /// Stage contract (EcDataIf and the layer-2 Tl2Bus share it): every
  /// bus advances req.stage to Finished on its own, from its bus
  /// process or when brought current, and treats polls of any other
  /// non-Idle stage as side-effect-free Waits. Masters may therefore
  /// skip the poll until the public stage field reads Finished. The
  /// pickup poll of a Finished payload is exactly
  /// `result = req.result; req.stage = Idle; return result`, so a
  /// master may collect a published result directly from the payload
  /// without the poll call. The completion hints a master may schedule
  /// by are plain members of the concrete buses: nextFinishCycle() on
  /// the buses that predict completions (Tl2Bus, Tl2MasterBridge,
  /// BridgedTl2Bus, hier::HybridBus) and Tl1Bus::finishEpoch().
  virtual BusStatus fetch(Tl1Request& req) = 0;
};

/// Data read/write interface of the layer-1 bus (master side).
class EcDataIf {
 public:
  virtual ~EcDataIf() = default;
  virtual BusStatus read(Tl1Request& req) = 0;
  virtual BusStatus write(Tl1Request& req) = 0;
};

/// Slave-side interface shared by both bus layers.
class EcSlave {
 public:
  virtual ~EcSlave() = default;

  virtual std::string_view name() const = 0;

  /// Slave control interface: address range, wait states, access rights.
  /// The returned reference must stay valid (and refer to the same
  /// object) for the slave's lifetime: the bus controllers cache it at
  /// attach time and re-read it every cycle to snapshot the slave
  /// state without a virtual call. Mutating the referenced struct
  /// between cycles is allowed and is picked up by the next snapshot.
  virtual const SlaveControl& control() const = 0;

  /// Layer-1 beat transfer. May return Wait to stretch the data phase
  /// dynamically (beyond the static wait states in control()); must
  /// eventually return Ok or Error.
  virtual BusStatus readBeat(Address addr, AccessSize size, Word& out) = 0;
  virtual BusStatus writeBeat(Address addr, AccessSize size,
                              std::uint8_t byteEnables, Word in) = 0;

  /// Layer-2 block transfer (pointer passing). Returns false on error.
  virtual bool readBlock(Address addr, std::uint8_t* dst, std::size_t n) = 0;
  virtual bool writeBlock(Address addr, const std::uint8_t* src,
                          std::size_t n) = 0;
};

/// Information about an active address phase, published once per cycle
/// while the phase is active (wait cycles included).
struct AddressPhaseInfo {
  Address address = 0;
  Kind kind = Kind::Read;
  AccessSize size = AccessSize::Word;
  std::uint8_t beats = 1;
  std::uint8_t byteEnables = 0;
  int slave = -1;       ///< Decoded slave index, -1 on decode miss.
  bool accepted = false;  ///< True on the cycle the phase completes.
  bool error = false;     ///< Decode miss or access-right violation.
  const Tl1Request* request = nullptr;  ///< Transaction payload (for
                                        ///  recorders; may be null).
};

/// Information about a completed data beat. `data` is the word as
/// driven on the wires — when a low-power codec is installed on the
/// bus this is the *encoded* word, with `invert` carrying the codec's
/// EB_Inv sideband level for the channel; without a codec `data` is
/// the payload and `invert` stays false.
struct DataBeatInfo {
  Address address = 0;
  Kind kind = Kind::Read;
  Word data = 0;
  std::uint8_t byteEnables = 0;
  std::uint8_t beatIndex = 0;
  bool last = false;
  bool error = false;
  int slave = -1;
  bool invert = false;  ///< EB_Inv level driven for this channel.
};

/// Observer hook of the layer-1 bus: the transaction tracer, the power
/// profile recorders and the test oracles attach here. Callbacks fire
/// from within the bus process (falling clock edge), in phase order.
/// The layer-1 energy model is no observer: Tl1Bus drives its
/// bus::Tl1FrameEnergy engine directly, with each phase event before
/// the observers, so a busCycleEnd callback reads the cycle's frame and
/// energy.
class Tl1Observer {
 public:
  virtual ~Tl1Observer() = default;
  virtual void busCycleBegin(std::uint64_t /*cycle*/) {}
  /// Fired every cycle the address phase drives the address bus.
  virtual void addressPhase(const AddressPhaseInfo& /*info*/) {}
  virtual void readBeat(const DataBeatInfo& /*info*/) {}
  virtual void writeBeat(const DataBeatInfo& /*info*/) {}
  virtual void busCycleEnd(std::uint64_t /*cycle*/) {}
};

/// Summary of a finished layer-2 phase. The layer-2 power model consumes
/// these; per the paper the entire address phase of a burst is estimated
/// at once, and likewise the read or write phase.
struct Tl2PhaseInfo {
  Kind kind = Kind::Read;
  Address address = 0;
  const std::uint8_t* data = nullptr;  ///< nullptr for the address phase.
  std::size_t bytes = 0;
  unsigned beats = 1;
  unsigned cycles = 1;  ///< Estimated length of the phase.
  std::uint64_t cycle = 0;  ///< Bus cycle the phase completed on.
  int slave = -1;
  bool error = false;
};

class Tl2Bus;

/// Observer hook of the layer-2 bus. Every phase is delivered in the
/// per-cycle order (ascending cycle; on a shared edge read data, write
/// data, then address) and stamped with the cycle it completed on
/// (Tl2PhaseInfo::cycle), but late: the event-driven bus never wakes
/// for an observer. It delivers the passed phases in bulk whenever it
/// is brought current — a master's submit or poll, nextFinishCycle(),
/// idle(), stats(), an attach or detach, or the observer's own
/// Tl2Bus::syncObservers() before a read. A callback, and whatever it
/// does, therefore runs late, so it must take the phase's cycle from
/// the info, never from the bus clock.
class Tl2Observer {
 public:
  virtual ~Tl2Observer() = default;
  virtual void addressPhaseDone(const Tl2PhaseInfo& /*info*/) {}
  virtual void dataPhaseDone(const Tl2PhaseInfo& /*info*/) {}

 protected:
  /// The bus this observer is attached to, so its reads can bring that
  /// bus current first: bound by Tl2Bus::addObserver, reset by
  /// removeObserver, null while detached. Neither destructor unbinds,
  /// so a bound observer must not be read after its bus is destroyed.
  const Tl2Bus* attachedBus() const { return attachedBus_; }

 private:
  friend class Tl2Bus;
  const Tl2Bus* attachedBus_ = nullptr;
};

} // namespace sct::bus

#endif // SCT_BUS_EC_INTERFACES_H
