// Energy-attribution ledger.
//
// The power models report energy as flat totals (the paper's Table 2
// interface-level numbers). The ledger splits every contribution three
// ways while it is being accumulated — by signal bundle, by transaction
// class (instruction read / data read / write) and by decoded slave —
// which is the per-component breakdown the AMBA TLM validation work
// (Kim et al.) and the power-emulation instrumentation of Coburn et al.
// report, and the actionable form for power-aware firmware decisions
// ("which interface, talking to which slave, costs what").
//
// Reconciliation contract (enforced by tests/obs/ledger_reconcile_test):
// every contribution is a whole number of attojoules and lands once on
// each axis, so each axis sums EXACTLY to total_aJ(), and total_aJ()
// equals the energy the attached model accrued since attaching — integer
// addition does not care in which order the models add.
#ifndef SCT_OBS_LEDGER_H
#define SCT_OBS_LEDGER_H

#include <array>
#include <cstdint>
#include <functional>

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
/// stored shifted by one.
inline constexpr std::size_t kLedgerSlaveSlots = 9;

/// Value-type copy of every ledger accumulator (aJ) — the streamable
/// form of the attribution data. A long-running server cannot wait for
/// end-of-run totals: it snapshots the ledger at each session boundary
/// and streams `delta(end, start)` per session while the simulation
/// keeps accumulating. Views also merge (fleet aggregation across
/// workers), mirroring obs::merge for registry snapshots. Integer
/// accumulators make both exact, whatever the start state.
struct LedgerView {
  std::array<std::uint64_t, bus::kSignalCount> byBundle{};
  std::array<std::uint64_t, kTxClassCount> byClass{};
  std::array<std::uint64_t, kLedgerSlaveSlots> bySlave{};

  /// Every contribution lands on each axis once, so any axis sums to
  /// the total; the class axis is the shortest.
  std::uint64_t total_aJ() const {
    std::uint64_t t = 0;
    for (const std::uint64_t v : byClass) t += v;
    return t;
  }

  bool operator==(const LedgerView&) const = default;
};

namespace detail {
template <typename Op>
LedgerView zipViews(LedgerView a, const LedgerView& b, Op op) {
  const auto axis = [&op](auto& into, const auto& from) {
    for (std::size_t i = 0; i < into.size(); ++i) {
      into[i] = op(into[i], from[i]);
    }
  };
  axis(a.byBundle, b.byBundle);
  axis(a.byClass, b.byClass);
  axis(a.bySlave, b.bySlave);
  return a;
}
} // namespace detail

/// Component-wise `end - start`: the attribution accumulated between
/// two snapshots of the SAME ledger.
inline LedgerView delta(const LedgerView& end, const LedgerView& start) {
  return detail::zipViews(end, start, std::minus<>{});
}

/// Component-wise accumulate: fold `add` into `into` (aggregating
/// per-session deltas into a fleet total).
inline void merge(LedgerView& into, const LedgerView& add) {
  into = detail::zipViews(into, add, std::plus<>{});
}

class EnergyLedger {
 public:
  static constexpr std::size_t kSlaveSlots = kLedgerSlaveSlots;

  /// Record one contribution (aJ). Out of line: the caller is the
  /// models' per-signal hot path, which should carry only the
  /// ledger-attached pointer test.
  SCT_OBS_COLD void add(bus::SignalId bundle, TxClass cls, int slave,
                        std::uint64_t aJ) {
    acc_.byBundle[static_cast<std::size_t>(bundle)] += aJ;
    acc_.byClass[static_cast<std::size_t>(cls)] += aJ;
    acc_.bySlave[slaveSlot(slave)] += aJ;
  }

  std::uint64_t total_aJ() const { return acc_.total_aJ(); }
  std::uint64_t byBundle_aJ(bus::SignalId id) const {
    return acc_.byBundle[static_cast<std::size_t>(id)];
  }
  std::uint64_t byClass_aJ(TxClass c) const {
    return acc_.byClass[static_cast<std::size_t>(c)];
  }
  /// `slave` in [-1, kSlaveSlots - 2]; -1 aggregates decode misses.
  std::uint64_t bySlave_aJ(int slave) const {
    return acc_.bySlave[slaveSlot(slave)];
  }

  void reset() { *this = EnergyLedger{}; }

  /// Copy every accumulator into the streamable value type, paired with
  /// delta() for per-session attribution.
  LedgerView view() const { return acc_; }

  /// -- Checkpoint (see ckpt/checkpoint.h): every split accumulator,
  /// behind a leading "accumulators present" byte that is always true.
  /// Version 2: EB_Inv joined the signal inventory, growing the
  /// per-bundle accumulator array by one slot. Version 3: u64 aJ
  /// accumulators; the master axis, the total and the deferred cycle
  /// sum are gone.
  static constexpr std::uint32_t kCkptVersion = 3;

  void saveState(ckpt::StateWriter& w) const {
    w.b(true);  // Accumulators present.
    for (const std::uint64_t v : acc_.byBundle) w.u64(v);
    for (const std::uint64_t v : acc_.byClass) w.u64(v);
    for (const std::uint64_t v : acc_.bySlave) w.u64(v);
  }

  void loadState(ckpt::StateReader& r) {
    if (!r.b()) {
      throw ckpt::CheckpointError(
          "EnergyLedger::loadState: section carries no accumulators");
    }
    for (std::uint64_t& v : acc_.byBundle) v = r.u64();
    for (std::uint64_t& v : acc_.byClass) v = r.u64();
    for (std::uint64_t& v : acc_.bySlave) v = r.u64();
  }

 private:
  static std::size_t slaveSlot(int slave) {
    const std::size_t s = static_cast<std::size_t>(slave + 1);
    return s < kSlaveSlots ? s : kSlaveSlots - 1;
  }

  LedgerView acc_;  ///< Every split accumulator.
};

} // namespace sct::obs

#endif // SCT_OBS_LEDGER_H
