#include "power/tl2_power_model.h"

#include <bit>
#include <cstring>

namespace sct::power {

using bus::SignalId;

namespace {

std::uint8_t byteEnablesOf(const bus::Tl2PhaseInfo& info) {
  if (info.bytes >= 4) return 0xF;
  const auto size =
      info.bytes == 1 ? bus::AccessSize::Byte : bus::AccessSize::Half;
  return bus::byteEnables(size, info.address);
}

std::uint64_t popcount64(std::uint64_t v) {
  return static_cast<std::uint64_t>(std::popcount(v));
}

/// Set bits over the transferred bytes: the sum of the per-beat
/// popcounts of the zero-extended beat words.
std::uint64_t payloadBits(const bus::Tl2PhaseInfo& info) {
  std::uint64_t bits = 0;
  std::size_t off = 0;
  for (; off + 8 <= info.bytes; off += 8) {
    std::uint64_t w = 0;
    std::memcpy(&w, info.data + off, 8);
    bits += popcount64(w);
  }
  if (off + 4 <= info.bytes) {
    std::uint32_t w = 0;
    std::memcpy(&w, info.data + off, 4);
    bits += popcount64(w);
    off += 4;
  }
  for (; off < info.bytes; ++off) {
    bits += popcount64(info.data[off]);
  }
  return bits;
}

} // namespace

template <bool kAttributed>
void Tl2PowerModel::addTransitions(SignalId id, std::uint64_t n,
                                   obs::TxClass cls, int slave) {
  // Adding zero changes no sum; only the attributed path skips it, to
  // spare the out-of-line ledger call.
  if constexpr (kAttributed) {
    if (n == 0) return;
  }
  estTransitions_[static_cast<std::size_t>(id)] += n;
  const std::uint64_t e = table_.coeff_aJ(id) * n;
  total_aJ_ += e;
  if constexpr (kAttributed) ledger_->add(id, cls, slave, e);
}

// The observer callbacks test the ledger pointer once per phase and run
// a charge body instantiated with or without attribution, so the
// detached body's per-term updates carry no call that could clobber
// the accumulators.
void Tl2PowerModel::addressPhaseDone(const bus::Tl2PhaseInfo& info) {
  if (ledger_ == nullptr) return chargeAddressPhase<false>(info);
  chargeAddressPhase<true>(info);
}

void Tl2PowerModel::dataPhaseDone(const bus::Tl2PhaseInfo& info) {
  if (ledger_ == nullptr) return chargeDataPhase<false>(info);
  chargeDataPhase<true>(info);
}

template <bool kAttributed>
void Tl2PowerModel::chargeAddressPhase(const bus::Tl2PhaseInfo& info) {
  const obs::TxClass cls = obs::txClassOf(info.kind);
  const auto add = [&](SignalId id, std::uint64_t n) {
    addTransitions<kAttributed>(id, n, cls, info.slave);
  };
  // "Each transaction phase on its own": the model has no knowledge of
  // the wire state left behind by the previous transaction, so every
  // driven bus is charged against an idle (zero) state. Repeated or
  // sequential addresses — which toggle almost nothing at layer 0/1 —
  // are therefore over-counted; this is the paper's "does not consider
  // interactions between following transactions".
  add(SignalId::EB_A,
      popcount64(info.address & bus::signalMask(SignalId::EB_A)));
  add(SignalId::EB_Instr, info.kind == bus::Kind::InstrFetch ? 1 : 0);
  add(SignalId::EB_Write, info.kind == bus::Kind::Write ? 1 : 0);
  add(SignalId::EB_Burst, info.beats > 1 ? 1 : 0);
  add(SignalId::EB_BE, popcount64(byteEnablesOf(info)));

  // Handshake strobes: one full pulse per phase — the model cannot see
  // that back-to-back phases hold these lines ("does not allow an
  // accurate count of transitions for control signals").
  const std::uint64_t accepted = info.error ? 0 : 2;
  add(SignalId::EB_AValid, 2);
  add(SignalId::EB_ARdy, accepted);

  // Select lines: one pulse per transaction; whether consecutive
  // transactions hit the same line is invisible at this layer.
  add(SignalId::EB_Sel, accepted);

  if (info.error) {
    add(info.kind == bus::Kind::Write ? SignalId::EB_WBErr
                                      : SignalId::EB_RBErr,
        2);
    add(SignalId::EB_Last, 2);
  }
}

template <bool kAttributed>
void Tl2PowerModel::chargeDataPhase(const bus::Tl2PhaseInfo& info) {
  const obs::TxClass cls = obs::txClassOf(info.kind);
  const auto add = [&](SignalId id, std::uint64_t n) {
    addTransitions<kAttributed>(id, n, cls, info.slave);
  };
  const SignalId dataBus =
      info.kind == bus::Kind::Write ? SignalId::EB_WData : SignalId::EB_RData;
  const SignalId strobe =
      info.kind == bus::Kind::Write ? SignalId::EB_WDRdy : SignalId::EB_RdVal;

  if (info.error) {
    add(info.kind == bus::Kind::Write ? SignalId::EB_WBErr
                                      : SignalId::EB_RBErr,
        2);
    add(SignalId::EB_Last, 2);
    return;
  }

  // Data bus: every beat is charged against an idle (zero) bus — "each
  // phase on its own", with no memory of the previous beat or the
  // previous transaction. Real instruction streams and array data are
  // strongly word-to-word correlated (small Hamming steps at layer
  // 0/1), so this is the data-bus share of the systematic layer-2
  // over-estimation.
  add(dataBus, payloadBits(info));

  // One strobe pulse per beat (layer 0/1 hold the line through a
  // streaming burst — systematic over-count), one EB_Last pulse per
  // transaction.
  add(strobe, std::uint64_t{2} * info.beats);
  add(SignalId::EB_Last, 2);
}

double Tl2PowerModel::energySinceLastCall_fJ() {
  sync();
  const std::uint64_t delta = total_aJ_ - intervalMarker_aJ_;
  intervalMarker_aJ_ = total_aJ_;
  return bus::toFemtojoules(delta);
}

} // namespace sct::power
