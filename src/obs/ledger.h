// Energy-attribution ledger.
//
// The power models report energy as flat totals (the paper's Table 2
// interface-level numbers). The ledger splits every contribution four
// ways while it is being accumulated — by signal bundle, by transaction
// class (instruction read / data read / write), by decoded slave, and
// by master — which is the per-component breakdown the AMBA TLM
// validation work (Kim et al.) and the power-emulation instrumentation
// of Coburn et al. report, and the actionable form for power-aware
// firmware decisions ("which interface, talking to which slave, costs
// what").
//
// Reconciliation contract (enforced by tests/obs/ledger_reconcile_test):
// total_fJ() is BIT-IDENTICAL to the attached model's totalEnergy_fJ().
// That works because the ledger replays the model's floating-point
// accumulation exactly:
//  * Tl2PowerModel adds one energy term per addTransitions() call and
//    forwards the identical term to add(), which applies `total_ += e`
//    in the same sequence;
//  * Tl1PowerModel accumulates a per-cycle sum in bundle-index order
//    and adds it to its total once per busCycleEnd; the model forwards
//    each term to addDeferred() (same order, same partial-sum shape)
//    and calls commitCycle() where the model adds — identical operation
//    sequence, identical rounding, identical bits.
// The dimensional splits are ordinary per-dimension accumulators; their
// cross-sums agree with the total only up to floating-point
// reassociation, which is exactly why the dedicated total exists.
#ifndef SCT_OBS_LEDGER_H
#define SCT_OBS_LEDGER_H

#include <array>
#include <cstdint>

#include "bus/ec_signals.h"
#include "bus/ec_types.h"
#include "ckpt/state_io.h"
#include "obs/obs.h"

namespace sct::obs {

/// Transaction classes the ledger attributes to (the paper's workload
/// decomposition: instruction reads, data reads, writes).
enum class TxClass : std::uint8_t { InstrRead, DataRead, Write, kCount };

inline constexpr std::size_t kTxClassCount =
    static_cast<std::size_t>(TxClass::kCount);

constexpr TxClass txClassOf(bus::Kind k) {
  switch (k) {
    case bus::Kind::InstrFetch: return TxClass::InstrRead;
    case bus::Kind::Read: return TxClass::DataRead;
    case bus::Kind::Write: return TxClass::Write;
  }
  return TxClass::DataRead;
}

constexpr const char* txClassName(TxClass c) {
  switch (c) {
    case TxClass::InstrRead: return "instr-read";
    case TxClass::DataRead: return "data-read";
    case TxClass::Write: return "write";
    case TxClass::kCount: break;
  }
  return "?";
}

/// Slave dimension: decoded index -1 (miss) .. 7 (decoder limit),
/// stored shifted by one. Master dimension: platform masters (CPU,
/// DMA, bridge, ...).
inline constexpr std::size_t kLedgerSlaveSlots = 9;
inline constexpr std::size_t kLedgerMasterSlots = 4;

/// Value-type copy of every ledger accumulator — the streamable form
/// of the attribution data. A long-running server cannot wait for
/// end-of-run totals: it snapshots the ledger at each session boundary
/// and streams `delta(end, start)` per session while the simulation
/// keeps accumulating. Views also merge (fleet aggregation across
/// workers), mirroring obs::merge for registry snapshots.
///
/// Determinism note: delta() subtracts doubles, which is only
/// bit-stable when the start state is bit-stable. The serve pool
/// guarantees that by restoring the ledger (with the rest of the
/// platform) from the boot snapshot before every session, so equal
/// sessions produce bit-identical deltas on any worker — the
/// threads=1 vs threads=N suite pins this down.
struct LedgerView {
  std::array<double, bus::kSignalCount> byBundle{};
  std::array<double, kTxClassCount> byClass{};
  std::array<double, kLedgerSlaveSlots> bySlave{};
  std::array<double, kLedgerMasterSlots> byMaster{};
  double total = 0.0;

  bool operator==(const LedgerView&) const = default;
};

/// Component-wise `end - start`: the attribution accumulated between
/// two snapshots of the SAME ledger.
inline LedgerView delta(const LedgerView& end, const LedgerView& start) {
  LedgerView d;
  for (std::size_t i = 0; i < d.byBundle.size(); ++i) {
    d.byBundle[i] = end.byBundle[i] - start.byBundle[i];
  }
  for (std::size_t i = 0; i < d.byClass.size(); ++i) {
    d.byClass[i] = end.byClass[i] - start.byClass[i];
  }
  for (std::size_t i = 0; i < d.bySlave.size(); ++i) {
    d.bySlave[i] = end.bySlave[i] - start.bySlave[i];
  }
  for (std::size_t i = 0; i < d.byMaster.size(); ++i) {
    d.byMaster[i] = end.byMaster[i] - start.byMaster[i];
  }
  d.total = end.total - start.total;
  return d;
}

/// Component-wise accumulate: fold `add` into `into` (aggregating
/// per-session deltas into a fleet total).
inline void merge(LedgerView& into, const LedgerView& add) {
  for (std::size_t i = 0; i < into.byBundle.size(); ++i) {
    into.byBundle[i] += add.byBundle[i];
  }
  for (std::size_t i = 0; i < into.byClass.size(); ++i) {
    into.byClass[i] += add.byClass[i];
  }
  for (std::size_t i = 0; i < into.bySlave.size(); ++i) {
    into.bySlave[i] += add.bySlave[i];
  }
  for (std::size_t i = 0; i < into.byMaster.size(); ++i) {
    into.byMaster[i] += add.byMaster[i];
  }
  into.total += add.total;
}

class EnergyLedger {
 public:
  static constexpr std::size_t kSlaveSlots = kLedgerSlaveSlots;
  static constexpr std::size_t kMasterSlots = kLedgerMasterSlots;

  /// Record one energy contribution immediately (interval-style models:
  /// one term per estimation call). Out of line: the caller is the
  /// models' per-signal hot path, which should carry only the
  /// ledger-attached pointer test.
  SCT_OBS_COLD void add(bus::SignalId bundle, TxClass cls, int slave,
                        int master, double fJ) {
    account(bundle, cls, slave, master, fJ);
    acc_.total += fJ;
  }

  /// Record one contribution of the cycle in progress (cycle-accurate
  /// models): the splits update now, the total on commitCycle() — the
  /// same two-step accumulation Tl1PowerModel::busCycleEnd performs.
  SCT_OBS_COLD void addDeferred(bus::SignalId bundle, TxClass cls, int slave,
                                int master, double fJ) {
    account(bundle, cls, slave, master, fJ);
    cycle_fJ_ += fJ;
  }

  /// Fold the deferred cycle sum into the total (once per bus cycle).
  void commitCycle() {
    acc_.total += cycle_fJ_;
    cycle_fJ_ = 0.0;
  }

  /// Bit-identical to the attached model's totalEnergy_fJ().
  double total_fJ() const { return acc_.total; }

  double byBundle_fJ(bus::SignalId id) const {
    return acc_.byBundle[static_cast<std::size_t>(id)];
  }
  double byClass_fJ(TxClass c) const {
    return acc_.byClass[static_cast<std::size_t>(c)];
  }
  /// `slave` in [-1, kSlaveSlots - 2]; -1 aggregates decode misses.
  double bySlave_fJ(int slave) const { return acc_.bySlave[slaveSlot(slave)]; }
  double byMaster_fJ(int master) const {
    return acc_.byMaster[masterSlot(master)];
  }

  void reset() { *this = EnergyLedger{}; }

  /// Copy every accumulator into the streamable value type. Taken at a
  /// session boundary (cycle_fJ_ folded already — the serve pool only
  /// snapshots at quiesce, where commitCycle has run), paired with
  /// delta() for per-session attribution.
  LedgerView view() const { return acc_; }

  /// -- Checkpoint (see ckpt/checkpoint.h): every split accumulator and
  /// both totals, bit-exact, behind a leading "accumulators present"
  /// byte that is always true. Version 2: EB_Inv joined the signal
  /// inventory, growing the per-bundle accumulator array by one slot.
  static constexpr std::uint32_t kCkptVersion = 2;

  void saveState(ckpt::StateWriter& w) const {
    w.b(true);  // Accumulators present.
    for (const double v : acc_.byBundle) w.f64(v);
    for (const double v : acc_.byClass) w.f64(v);
    for (const double v : acc_.bySlave) w.f64(v);
    for (const double v : acc_.byMaster) w.f64(v);
    w.f64(acc_.total);
    w.f64(cycle_fJ_);
  }

  void loadState(ckpt::StateReader& r) {
    if (!r.b()) {
      throw ckpt::CheckpointError(
          "EnergyLedger::loadState: section carries no accumulators");
    }
    for (double& v : acc_.byBundle) v = r.f64();
    for (double& v : acc_.byClass) v = r.f64();
    for (double& v : acc_.bySlave) v = r.f64();
    for (double& v : acc_.byMaster) v = r.f64();
    acc_.total = r.f64();
    cycle_fJ_ = r.f64();
  }

 private:
  static std::size_t slaveSlot(int slave) {
    const std::size_t s = static_cast<std::size_t>(slave + 1);
    return s < kSlaveSlots ? s : kSlaveSlots - 1;
  }
  static std::size_t masterSlot(int master) {
    const std::size_t m = master < 0 ? 0 : static_cast<std::size_t>(master);
    return m < kMasterSlots ? m : kMasterSlots - 1;
  }

  void account(bus::SignalId bundle, TxClass cls, int slave, int master,
               double fJ) {
    acc_.byBundle[static_cast<std::size_t>(bundle)] += fJ;
    acc_.byClass[static_cast<std::size_t>(cls)] += fJ;
    acc_.bySlave[slaveSlot(slave)] += fJ;
    acc_.byMaster[masterSlot(master)] += fJ;
  }

  LedgerView acc_;         ///< Every split accumulator and the total.
  double cycle_fJ_ = 0.0;  ///< Deferred sum of the cycle in progress.
};

} // namespace sct::obs

#endif // SCT_OBS_LEDGER_H
