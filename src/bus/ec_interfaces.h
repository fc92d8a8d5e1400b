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
  /// Stage contract (EcDataIf and Tl2MasterIf share it): every
  /// implementation advances req.stage to Finished on its own, from its
  /// bus process or from nextFinishCycle(), and treats polls of any
  /// other non-Idle stage as side-effect-free Waits. Masters may
  /// therefore skip the poll until the public stage field reads
  /// Finished. The pickup poll of a Finished payload is exactly
  /// `result = req.result; req.stage = Idle; return result`, so a
  /// master may collect a published result directly from the payload
  /// without the poll call.
  virtual BusStatus fetch(Tl1Request& req) = 0;
  /// Static property: true if nextFinishCycle() can ever answer with a
  /// prediction (anything but kFinishUnknown) during this object's
  /// lifetime. When false, masters may skip the completion-prediction
  /// and park bookkeeping entirely and poll every cycle — the behaviour
  /// a kFinishUnknown answer mandates anyway.
  virtual bool predictsFinish() const { return false; }
  /// Wake-on-completion hint, mirroring Tl2MasterIf::nextFinishCycle():
  /// the earliest bus cycle at which any accepted transaction reaches
  /// stage Finished, kFinishNone when nothing is in flight, or
  /// kFinishUnknown when completions cannot be predicted — masters must
  /// then poll every cycle. Non-const on purpose: implementations
  /// backed by a lazy event-driven bus (Tl2MasterBridge) bring their
  /// published stages current from here.
  virtual std::uint64_t nextFinishCycle() { return kFinishUnknown; }
  /// Completion-epoch counter: increments every time any transaction
  /// submitted through this interface reaches stage Finished (and also
  /// whenever outstanding-slot occupancy can otherwise change, e.g. on
  /// abort). While the value is unchanged, a stage-gated master may
  /// skip both its in-flight Finished scan and the retry of an issue
  /// the bus previously refused for a full-slots condition — neither
  /// can make progress until a completion occurs. kEpochUnknown means
  /// the interface keeps no epoch; masters must poll every cycle.
  virtual std::uint64_t finishEpoch() const { return kEpochUnknown; }
};

/// Data read/write interface of the layer-1 bus (master side).
class EcDataIf {
 public:
  virtual ~EcDataIf() = default;
  virtual BusStatus read(Tl1Request& req) = 0;
  virtual BusStatus write(Tl1Request& req) = 0;
  /// See EcInstrIf::nextFinishCycle().
  virtual std::uint64_t nextFinishCycle() { return kFinishUnknown; }
  /// See EcInstrIf::predictsFinish().
  virtual bool predictsFinish() const { return false; }
  /// See EcInstrIf::finishEpoch().
  virtual std::uint64_t finishEpoch() const { return kEpochUnknown; }
};

/// Layer-2 master interface: one function for read access and one for
/// write access; parameters are the data pointer, the number of bytes,
/// the address, and an instruction bit (carried in req.kind).
class Tl2MasterIf {
 public:
  virtual ~Tl2MasterIf() = default;
  /// Submit or poll a transaction. A burst is a single transaction.
  /// The stage contract of EcInstrIf::fetch holds for Tl2Request::stage.
  virtual BusStatus read(Tl2Request& req) = 0;
  virtual BusStatus write(Tl2Request& req) = 0;
  /// Wake-on-completion hint: the earliest bus cycle at which any
  /// accepted transaction will reach stage Finished, kFinishNone when
  /// nothing is in flight, or kFinishUnknown when the implementation
  /// cannot predict completions — masters must then poll every cycle.
  /// An event-driven bus answers from its phase schedule, letting
  /// masters park their clock handlers until the finish cycle + 1.
  virtual std::uint64_t nextFinishCycle() const { return kFinishUnknown; }
  /// See EcInstrIf::finishEpoch().
  virtual std::uint64_t finishEpoch() const { return kEpochUnknown; }
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

class Tl1FrameEnergy;

/// Observer hook of the layer-1 bus. The layer-1 power model and the
/// transaction tracer attach here; callbacks fire from within the bus
/// process (falling clock edge), in phase order.
class Tl1Observer {
 public:
  virtual ~Tl1Observer() = default;
  virtual void busCycleBegin(std::uint64_t /*cycle*/) {}
  /// Fired every cycle the address phase drives the address bus.
  virtual void addressPhase(const AddressPhaseInfo& /*info*/) {}
  virtual void readBeat(const DataBeatInfo& /*info*/) {}
  virtual void writeBeat(const DataBeatInfo& /*info*/) {}
  virtual void busCycleEnd(std::uint64_t /*cycle*/) {}

  /// Fused drive path: an observer that is a thin shell around a
  /// bus::Tl1FrameEnergy engine can return it here. A bus that
  /// understands fusing (Tl1Bus) then drives the engine directly —
  /// non-virtually, with the engine's inline bodies visible at the
  /// call sites — instead of routing events through the virtual
  /// callbacks above, and MUST NOT also deliver those callbacks (the
  /// events would be double-counted). Publishers that do not know
  /// about fusing simply use the observer interface; both paths run
  /// the same engine code in the same order, so the results are
  /// bit-identical. Returning nullptr (the default) opts out.
  virtual Tl1FrameEnergy* fusedFrameEnergy() { return nullptr; }
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
  int slave = -1;
  bool error = false;
};

/// Observer hook of the layer-2 bus.
class Tl2Observer {
 public:
  virtual ~Tl2Observer() = default;
  virtual void addressPhaseDone(const Tl2PhaseInfo& /*info*/) {}
  virtual void dataPhaseDone(const Tl2PhaseInfo& /*info*/) {}
};

} // namespace sct::bus

#endif // SCT_BUS_EC_INTERFACES_H
