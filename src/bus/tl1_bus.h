// EC bus model at transaction level layer 1 (transfer layer).
//
// Cycle-true model of the EC interface plus bus controller, following
// the paper's Figure 3: the single bus process is sensitive to the
// falling edge of the system clock (masters and slaves trigger on the
// rising edge) and executes four phases per cycle —
//   getSlaveState();  addressPhase();  readPhase();  writePhase();
// Four queues connect the interfaces and the phases: a request queue
// filled by the master interfaces, a read queue and a write queue
// filled by the address phase, and the finished state picked up by the
// next master interface call addressing the request. Because the
// address and data phases execute sequentially within one activation, a
// zero-wait request can pass from the request queue to the finish state
// in a single cycle, exactly as the paper describes.
//
// The master interfaces are non-blocking and return
// {Request, Wait, Ok, Error}; by polling, a master can keep several
// transactions in flight (up to four outstanding burst instruction
// reads, four burst data reads and four burst writes — the 4KSc limit).
//
// The layer-1 energy model is the paper's dedicated module whose signal
// values the phases set and whose energy calculation the bus process
// calls after the write phase: one attached bus::Tl1FrameEnergy engine
// (power::Tl1PowerModel), driven by direct calls. Each phase publishes
// its event to that engine first and then to the Tl1Observer list.
//
// Idle park. The bus process parks its clock handler at the end of a
// cycle in which the bus is idle(), has no Tl1Observer, and its engine
// is quiet (Tl1FrameEnergy::quiet(): no strobe driven or left high,
// nothing priced). A ticked cycle in that state changes nothing but the
// cycle count, so the clock warps over the parked process when nothing
// else runs. The first submit into the parked bus wakes it, and
// stats().cycles adds the skipped cycles from the distance to the last
// counted edge. Any Tl1Observer keeps the process ticking every cycle:
// observers see every busCycleBegin/busCycleEnd.
#ifndef SCT_BUS_TL1_BUS_H
#define SCT_BUS_TL1_BUS_H

#include <array>
#include <cassert>
#include <cstdint>
#include <string>
#include <vector>

#include "bus/decoder.h"
#include "bus/ec_interfaces.h"
#include "bus/ec_request.h"
#include "bus/ec_types.h"
#include "obs/stats.h"
#include "obs/trace_json.h"
#include "sim/clock.h"
#include "sim/module.h"

namespace sct::bus {

class BusCodec;
class MemorySlave;
class Tl1FrameEnergy;

/// Aggregate counters kept by the layer-1 bus.
struct Tl1BusStats {
  std::uint64_t cycles = 0;        ///< Bus-process activations.
  std::uint64_t busyCycles = 0;    ///< Cycles with any phase active.
  std::uint64_t addrCycles = 0;    ///< Cycles the address phase was active.
  std::uint64_t readBeats = 0;
  std::uint64_t writeBeats = 0;
  std::uint64_t instrTransactions = 0;
  std::uint64_t readTransactions = 0;
  std::uint64_t writeTransactions = 0;
  std::uint64_t readBusErrors = 0;   ///< Errors signalled on the read bus.
  std::uint64_t writeBusErrors = 0;  ///< Errors signalled on the write bus.
  std::uint64_t bytesRead = 0;
  std::uint64_t bytesWritten = 0;

  std::uint64_t transactions() const {
    return instrTransactions + readTransactions + writeTransactions;
  }
};

class Tl1Bus final : public sim::Module, public EcInstrIf, public EcDataIf {
 public:
  /// Creates the bus and hooks its process onto the falling clock edge.
  Tl1Bus(sim::Clock& clock, std::string name);
  ~Tl1Bus() override;

  /// Register a slave with the bus controller's address decoder.
  /// Returns the slave index (select line).
  int attach(EcSlave& slave);

  /// Register an observer. Observers run in registration order.
  void addObserver(Tl1Observer& obs);
  void removeObserver(Tl1Observer& obs);
  /// Attach the layer-1 energy engine (power::Tl1PowerModel). The bus
  /// drives it directly from its phases, before every observer whatever
  /// the registration order. One per bus: a second throws
  /// std::logic_error.
  void addObserver(Tl1FrameEnergy& engine);

  /// Install a low-power bus codec (see bus/bus_codec.h) or remove it
  /// (nullptr). The codec transforms the words driven on the wires —
  /// the power model prices the encoded values plus the EB_Inv
  /// sideband — while the functional side keeps seeing decoded
  /// payloads. Only legal while idle(): swapping codecs mid-transfer
  /// would split a burst across encodings, so a busy bus throws
  /// std::logic_error. The codec is exploration configuration, not bus
  /// state: it is NOT part of the bus's checkpoint section (register
  /// stateful codecs separately).
  void setCodec(BusCodec* codec);
  BusCodec* codec() const { return codec_; }

  // EcInstrIf / EcDataIf (master side, call on rising edges).
  BusStatus fetch(Tl1Request& req) override;
  BusStatus read(Tl1Request& req) override;
  BusStatus write(Tl1Request& req) override;
  /// Completion epoch: bumped by finish(), i.e. exactly when a Finished
  /// payload becomes collectable and when an outstanding class slot
  /// frees — the only two events a stage-gated master waits on. While
  /// it is unchanged, such a master may skip both its in-flight
  /// Finished scan and the retry of an issue refused for full slots.
  std::uint64_t finishEpoch() const { return finishEpoch_; }

  /// True when no transaction is queued or in flight.
  bool idle() const;

  /// Accepted-but-unfinished transactions across all three classes.
  /// Zero exactly when idle() — finish() decrements the class count as
  /// it posts the result, so a Finished payload awaiting master pickup
  /// is no longer outstanding (the pickup needs no bus process cycle).
  /// Assert-guarded against the queue state, so quiesce checks can rely
  /// on either view.
  std::uint64_t outstandingTotal() const;

  /// The idle park with counting stopped: the process stays parked
  /// until resumeProcess(), runs no observer callbacks and counts no
  /// cycles. Throws std::logic_error unless idle(). A suspended bus
  /// accepts no work: a submit to it throws std::logic_error. Finished
  /// payloads can still be picked up — submitOrPoll() runs in the
  /// caller's context.
  void suspendProcess();
  /// Resume counting and wake the bus process; it runs again from the
  /// next falling edge not yet dispatched, and parks once idle.
  void resumeProcess();
  bool suspended() const { return suspended_; }

  /// Counters, with the cycles a parked process skipped added in.
  const Tl1BusStats& stats() const {
    syncParkedCycles();
    return stats_;
  }
  const AddressDecoder& decoder() const { return decoder_; }
  std::uint64_t cycle() const { return clock_.cycle(); }

  /// Resolve observability handles under "<name>." in `reg`
  /// (txn_latency_cycles, txn_wait_cycles, burst_beats, queue_depth,
  /// bus_errors) and optionally emit transaction spans to `rec`.
  void attachObs(obs::StatsRegistry& reg, obs::TraceRecorder* rec = nullptr);

  /// -- Checkpoint (see ckpt/checkpoint.h) ------------------------------
  /// Only legal while idle(): at a quiesce point every queue is empty
  /// and no request pointer is held, so the section is just the stats
  /// block plus the cycle/suspend bookkeeping, the counts a ticking
  /// process would hold. The process handler's park state is owned (and
  /// restored) by the Clock section, so the clock must be restored
  /// first; a bus with observers keeps ticking whatever it restores.
  static constexpr std::uint32_t kCkptVersion = 1;
  void saveState(ckpt::StateWriter& w) const;
  void loadState(ckpt::StateReader& r);

 private:
  /// Fixed-capacity FIFO of request pointers. Total queue occupancy is
  /// bounded by the per-class outstanding limits (at most
  /// 3 * kMaxOutstandingPerClass accepted-but-unfinished requests exist
  /// at any time), so a 16-slot ring never overflows — asserted. The
  /// unsigned head/tail cursors may wrap; the masked difference stays
  /// correct because the capacity divides the cursor modulus.
  class RequestRing {
   public:
    bool empty() const { return head_ == tail_; }
    std::size_t size() const {
      return static_cast<std::size_t>(tail_ - head_);
    }
    void push_back(Tl1Request* r) {
      assert(size() < kCap && "request ring overflow");
      slots_[tail_++ & kMask] = r;
    }
    Tl1Request* front() const { return slots_[head_ & kMask]; }
    void pop_front() { ++head_; }

   private:
    static constexpr std::uint32_t kCap = 16;
    static constexpr std::uint32_t kMask = kCap - 1;
    std::array<Tl1Request*, kCap> slots_{};
    std::uint32_t head_ = 0;
    std::uint32_t tail_ = 0;
  };

  BusStatus submitOrPoll(Tl1Request& req, Kind expectedKind);
  bool validate(const Tl1Request& req) const;
  unsigned& outstanding(Kind k);
  unsigned outstanding(Kind k) const;

  void busProcess();
  /// Wake a parked process (the first submit into a parked bus):
  /// throws std::logic_error on a suspended bus, whose process stays
  /// parked until resumeProcess().
  void wakeProcess();
  /// Count the cycles an idle-parked process skipped, through the last
  /// falling edge a ticking one would have run on.
  void syncParkedCycles() const;
  void addressPhase();
  void readPhase();
  void writePhase();
  void dataPhase(Tl1Request*& current, RequestRing& queue);
  void finish(Tl1Request& req, BusStatus result);
  void noteFinishObs(const Tl1Request& req, BusStatus result);
  void publishAddressPhase(const AddressPhaseInfo& info);
  void publishBeat(const DataBeatInfo& info, bool isWrite);

  sim::Clock& clock_;
  sim::Clock::HandlerId processId_;
  AddressDecoder decoder_;
  /// Installed low-power codec (null = plain binary wires). Checked on
  /// the data-phase hot path only after a beat actually completes, so
  /// the null case costs one predictable branch per beat.
  BusCodec* codec_ = nullptr;
  /// The attached energy engine (null = none): driven before the
  /// observer list, and never a member of it.
  Tl1FrameEnergy* fe_ = nullptr;
  /// True iff anyone consumes phase events (fe_ or observers_): lets
  /// the phases skip building the per-event info structs entirely.
  bool publish_ = false;
  std::vector<Tl1Observer*> observers_;
  std::vector<const SlaveControl*> slaveControls_;  ///< Cached at attach().
  /// Beat-call devirtualization: slot i holds the slave as a
  /// MemorySlave* iff its dynamic type is exactly MemorySlave (checked
  /// at attach), so the data phase can call the beat functions
  /// directly — same functions, no vtable hop, inlinable under LTO.
  /// Subclasses and foreign EcSlave implementations leave a null slot
  /// and take the virtual path.
  std::vector<MemorySlave*> directSlaves_;

  RequestRing requestQueue_;
  RequestRing readQueue_;   ///< Instr fetches + data reads.
  RequestRing writeQueue_;
  Tl1Request* addrCurrent_ = nullptr;
  Tl1Request* readCurrent_ = nullptr;
  Tl1Request* writeCurrent_ = nullptr;

  unsigned outstandingInstr_ = 0;
  unsigned outstandingRead_ = 0;
  unsigned outstandingWrite_ = 0;
  std::uint64_t finishEpoch_ = 0;  ///< Bumped by finish(); not persisted
                                   ///  (masters resync on restore).

  /// The cycle the process last ran on; while it is idle-parked, the
  /// last edge counted into stats_.cycles.
  mutable std::uint64_t cycleNow_ = 0;
  /// The process handler is parked: idle (parked_ alone) or suspended
  /// (both). Mirrors the clock's wake word, which the clk checkpoint
  /// section carries.
  bool parked_ = false;
  bool suspended_ = false;
  bool anyActivityThisCycle_ = false;
  mutable Tl1BusStats stats_;

  // Observability handles, resolved once by attachObs (null = detached;
  // obsLatency_ doubles as the attached flag).
  obs::Histogram* obsLatency_ = nullptr;
  obs::Histogram* obsWaits_ = nullptr;
  obs::Histogram* obsBurst_ = nullptr;
  obs::Histogram* obsDepth_ = nullptr;
  obs::Counter* obsErrors_ = nullptr;
  obs::TraceRecorder* obsRec_ = nullptr;
};

} // namespace sct::bus

#endif // SCT_BUS_TL1_BUS_H
