// EC bus model at transaction level layer 2 (transaction layer).
//
// Timed but not cycle-accurate (paper, Section 3.2): data is transferred
// by pointer passing and a whole burst is a single transaction. The
// actual wait states of the decoded slave are sampled when the request
// is created during the first interface call; from them the model
// derives an address-phase length and a data-phase length in cycles.
// The bus process (falling clock edge) decrements the address wait-state
// counter until the address phase can be finished, then the data
// wait-state counter; at the end of the data phase the slave's block
// data interface is invoked once.
//
// Like layer 1, the model keeps one address unit and parallel read and
// write data units (the EC interface has separate read and write data
// buses). Two abstractions make the timing an estimate rather than
// cycle truth:
//  1. Pipeline fill: when a data unit is idle, a transaction leaving
//     the address phase reaches it one estimated cycle later than in
//     the cycle-true model (which hands over within the same bus
//     process activation). Under backlog nothing is lost, so dense
//     traffic sees only a small systematic over-estimation — the
//     paper's Table 1 "+0.5 %" shape.
//  2. Wait states are sampled once at creation: a slave stretching a
//     beat dynamically at run time (EEPROM programming, busy
//     coprocessor) is invisible, which under-estimates such workloads.
//
// Because all timing is sampled at creation, nothing about a phase
// depends on the cycles in between — so by default the bus is
// *event-driven*: at accept it resolves the whole phase schedule with
// event arithmetic (address-done cycle, data-done cycle, serialised
// per unit exactly as the counters would serialise them). Its clock
// handler never wakes: passed boundaries are retired in bulk, in
// per-cycle order, from the interface entry points and from the
// observers' reads, and each phase reaches the observers stamped with
// its own cycle (see Tl2Observer). Combined with the clock's dead-cycle
// warp, idle and wait-state cycles cost nothing. The original
// per-cycle countdown survives behind a testing hook
// (setPerCycleProcess) as the reference implementation; both paths
// produce bit-identical stats, request fields and callback sequences,
// cycle stamps included.
#ifndef SCT_BUS_TL2_BUS_H
#define SCT_BUS_TL2_BUS_H

#include <cstdint>
#include <string>
#include <vector>

#include "bus/decoder.h"
#include "bus/ec_interfaces.h"
#include "bus/ec_request.h"
#include "bus/ec_types.h"
#include "bus/small_ring.h"
#include "obs/obs.h"
#include "obs/stats.h"
#include "obs/trace_json.h"
#include "sim/clock.h"
#include "sim/module.h"

namespace sct::bus {

struct Tl2BusStats {
  std::uint64_t cycles = 0;
  std::uint64_t busyCycles = 0;
  std::uint64_t instrTransactions = 0;
  std::uint64_t readTransactions = 0;
  std::uint64_t writeTransactions = 0;
  std::uint64_t errors = 0;
  std::uint64_t bytesRead = 0;
  std::uint64_t bytesWritten = 0;

  std::uint64_t transactions() const {
    return instrTransactions + readTransactions + writeTransactions;
  }
};

class Tl2Bus final : public sim::Module, public Tl2MasterIf {
 public:
  Tl2Bus(sim::Clock& clock, std::string name);
  ~Tl2Bus() override;

  int attach(EcSlave& slave) { return decoder_.attach(slave); }

  /// Observers may attach and detach from within their own callbacks;
  /// a removal during a notification takes effect immediately (the
  /// observer is not called again, not even for the current phase), an
  /// addition from the next phase on.
  ///
  /// Outside a notification, both first retire every passed boundary
  /// for the observers already attached: phases that completed before
  /// an attach are never reported (as in the per-cycle model), and a
  /// departing observer is fed every phase that completed before it
  /// left. An attached observer is bound to this bus (see
  /// Tl2Observer::attachedBus) until removed.
  void addObserver(Tl2Observer& obs);
  void removeObserver(Tl2Observer& obs);

  /// Bring the observers current: deliver every boundary that has
  /// passed. Their reads call this first. A no-op
  ///  * in per-cycle mode: boundaries are processed on their own edge;
  ///  * inside a notification: the retirement running it has already
  ///    marked the edge current (retireDue), so a read from a callback
  ///    cannot retire the rest of the edge ahead of its turn;
  ///  * while nothing is pending (no busy interval open), so a model
  ///    read every cycle — hier::FidelityController does in TL1
  ///    regions — costs a flag test.
  void syncObservers() const {
    if (busyOpen_ && !perCycle_) retireDue();
  }

  // Tl2MasterIf. Instruction fetches use read() with kind ==
  // Kind::InstrFetch (the "instruction bit" parameter of the paper).
  BusStatus read(Tl2Request& req) override;
  BusStatus write(Tl2Request& req) override;
  std::uint64_t nextFinishCycle() const override;

  bool idle() const;

  const Tl2BusStats& stats() const;
  const AddressDecoder& decoder() const { return decoder_; }

  /// Testing hook (PR 1 kernel fast-path pattern): route the bus back
  /// through the original per-cycle countdown process instead of the
  /// event-driven schedule. Reference behaviour by construction; the
  /// equivalence suite pins the event path against it. Only legal while
  /// the bus is idle. In per-cycle mode nextFinishCycle() answers
  /// kFinishUnknown, so masters fall back to polling every cycle and
  /// the hook covers the whole TL2 stack. The falling-edge handler is
  /// registered in both modes (the Clock checkpoint keys on handler
  /// ids), but only this hook unparks it.
  void setPerCycleProcess(bool v);

  /// Resolve observability handles under "<name>." in `reg`
  /// (txn_latency_cycles, queue_depth, bus_errors) and optionally emit
  /// transaction/phase spans to `rec`. Spans carry the schedule's cycle
  /// numbers (acceptCycle, addrDoneCycle, dataDoneCycle), so they are
  /// exact even when boundaries are retired lazily after a clock warp.
  void attachObs(obs::StatsRegistry& reg, obs::TraceRecorder* rec = nullptr);

  /// -- Checkpoint (see ckpt/checkpoint.h) ------------------------------
  /// Only legal while idle(): the queues, unit slots and the miss ring
  /// are empty then, the busy interval is closed and every unit is free
  /// by the next edge, so the section carries the process mode, the
  /// stats block and the two lazy cycle counters; loadState gives the
  /// unit free-cycles, the busy interval and the retirement cache a
  /// fresh bus's values. The process handler's park state is restored
  /// by the Clock section; the restore target must already be in the
  /// same process mode (setPerCycleProcess) as the saved bus. Version
  /// 2: the unit free-cycles, the park mirror, the retirement cache and
  /// the busy-interval start are no longer saved.
  static constexpr std::uint32_t kCkptVersion = 2;
  void saveState(ckpt::StateWriter& w) const;
  void loadState(ckpt::StateReader& r);

 private:
  BusStatus submitOrPoll(Tl2Request& req);
  bool validate(const Tl2Request& req) const;
  unsigned& outstanding(Kind k);

  /// Bound for every internal queue: three classes at
  /// kMaxOutstandingPerClass outstanding each, rounded up to a power of
  /// two for the ring arithmetic.
  using RequestRing = SmallRing<Tl2Request*, 16>;

  // --- per-cycle reference path -------------------------------------------
  void busProcess();
  void addressPhase();
  void dataPhase(Tl2Request*& current, RequestRing& queue);

  // --- event-driven path ---------------------------------------------------
  void scheduleRequest(Tl2Request& req);
  void completeAddressPhase(Tl2Request& req);
  void completeDataPhase(RequestRing& queue);
  std::uint64_t nextEventCycle() const;
  std::uint64_t lastVirtualEdge() const;
  void syncLazyStats() const;
  /// All phase timing is resolved at accept, so the bus process never
  /// needs to wake. Boundaries that have already passed (cycle <=
  /// lastVirtualEdge()) are retired in bulk from the interface entry
  /// points instead — every cycle, stage transition, statistic and
  /// callback comes out of the recorded schedule, bit-identical to
  /// processing each boundary on its own edge. O(1) when current. Marks
  /// the edge current before retiring, so a re-entrant call from a
  /// callback retires nothing.
  void retireDue() const;
  /// Process every pending phase boundary with cycle <= `through` in
  /// per-cycle order — ascending cycle; on a shared edge the read unit,
  /// the write unit, then the address unit — notifying the attached
  /// observers. Block transfers therefore touch slave memory in the
  /// per-cycle interleaving. Out of line, so the O(1) currency check in
  /// retireDue stays small enough to inline into every entry point.
  [[gnu::noinline]] void retireThrough(std::uint64_t through);

  // --- shared --------------------------------------------------------------
  void finish(Tl2Request& req, BusStatus result, std::uint64_t cycle);
  SCT_OBS_COLD void noteFinishObs(const Tl2Request& req, BusStatus result);
  SCT_OBS_COLD void noteAddrPhaseObs(const Tl2Request& req);
  SCT_OBS_COLD void noteDataPhaseObs(const Tl2Request& req);
  /// Fan a completed phase out to the observers, stamped with its
  /// completion cycle. Out of line, so the observer-free retirement
  /// walk stays small enough to inline its phase bodies.
  [[gnu::noinline]] void notifyAddressPhase(const Tl2Request& req,
                                            std::uint64_t cycle);
  [[gnu::noinline]] void notifyDataPhase(const Tl2Request& req, bool ok,
                                         std::uint64_t cycle);
  std::uint64_t currentEdge() const;

  sim::Clock& clock_;
  sim::Clock::HandlerId processId_;
  AddressDecoder decoder_;
  std::vector<Tl2Observer*> observers_;
  int notifyDepth_ = 0;
  bool observersDirty_ = false;

  // Per-cycle mode: requestQueue_ feeds the address unit, the data
  // queues are filled as address phases complete, and the *Current_
  // slots hold the request each unit is counting down.
  // Event mode: a request sits in requestQueue_ until its address-done
  // cycle and (decode hits only, from accept on) in its class data
  // queue until its data-done cycle; fronts carry the next boundary of
  // each unit, ascending by construction. The *Current_ slots stay
  // null.
  RequestRing requestQueue_;
  RequestRing readQueue_;   ///< Fetches and data reads.
  RequestRing writeQueue_;
  Tl2Request* addrCurrent_ = nullptr;
  Tl2Request* readCurrent_ = nullptr;
  Tl2Request* writeCurrent_ = nullptr;

  unsigned outstandingInstr_ = 0;
  unsigned outstandingRead_ = 0;
  unsigned outstandingWrite_ = 0;

  bool perCycle_ = false;

  // Event-mode unit bookkeeping: first cycle each unit is free again,
  // and the decode-miss finish cycles still pending (ascending).
  std::uint64_t addrFree_ = 0;
  std::uint64_t readFree_ = 0;
  std::uint64_t writeFree_ = 0;
  mutable std::uint64_t lastRetireEdge_ = 0;  ///< retireDue() currency guard.
  SmallRing<std::uint64_t, 16> missFinishCycles_;

  // Event-mode lazy cycle counters: cycles/busyCycles are derived on
  // stats() from the clock position and the busy intervals instead of
  // being ticked every falling edge. A busy interval is open exactly
  // while some request is queued, i.e. while a boundary is pending.
  std::uint64_t firstEdge_ = 1;
  std::uint64_t busyFrom_ = 0;
  std::uint64_t closedBusyCycles_ = 0;
  bool busyOpen_ = false;

  mutable Tl2BusStats stats_;

  // Observability handles, resolved once by attachObs (null = detached;
  // obsLatency_ doubles as the attached flag).
  obs::Histogram* obsLatency_ = nullptr;
  obs::Histogram* obsDepth_ = nullptr;
  obs::Counter* obsErrors_ = nullptr;
  obs::TraceRecorder* obsRec_ = nullptr;
};

} // namespace sct::bus

#endif // SCT_BUS_TL2_BUS_H
