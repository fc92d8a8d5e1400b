#include "power/tl2_power_model.h"

#include <algorithm>
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

/// Beat `i` of the transfer, zero-extended for sub-word transfers.
std::uint32_t beatWord(const bus::Tl2PhaseInfo& info, unsigned beat) {
  if (info.data == nullptr) return 0;
  const std::size_t off = std::size_t{4} * beat;
  const std::size_t n = std::min<std::size_t>(4, info.bytes - off);
  std::uint32_t w = 0;
  std::memcpy(&w, info.data + off, n);
  return w;
}

std::uint64_t popcount64(std::uint64_t v) {
  return static_cast<std::uint64_t>(std::popcount(v));
}

} // namespace

template <bool kAttributed>
void Tl2PowerModel::addTransitions(SignalId id, std::uint64_t n) {
  if (n == 0) return;
  estTransitions_[static_cast<std::size_t>(id)] += n;
  const std::uint64_t e = table_.coeff_aJ(id) * n;
  total_aJ_ += e;
  if constexpr (kAttributed) ledger_->add(id, ctxClass_, ctxSlave_, e);
}

// The observer callbacks test the ledger pointer once per phase and run
// a charge body instantiated with or without attribution, so the
// detached body's per-term updates carry no call that could clobber
// the accumulators.
void Tl2PowerModel::addressPhaseDone(const bus::Tl2PhaseInfo& info) {
  if (ledger_ == nullptr) return chargeAddressPhase<false>(info);
  ctxClass_ = obs::txClassOf(info.kind);
  ctxSlave_ = info.slave;
  chargeAddressPhase<true>(info);
}

void Tl2PowerModel::dataPhaseDone(const bus::Tl2PhaseInfo& info) {
  if (ledger_ == nullptr) return chargeDataPhase<false>(info);
  ctxClass_ = obs::txClassOf(info.kind);
  ctxSlave_ = info.slave;
  chargeDataPhase<true>(info);
}

template <bool kAttributed>
void Tl2PowerModel::chargeAddressPhase(const bus::Tl2PhaseInfo& info) {
  const auto add = [this](SignalId id, std::uint64_t n) {
    addTransitions<kAttributed>(id, n);
  };
  // "Each transaction phase on its own": the model has no knowledge of
  // the wire state left behind by the previous transaction, so every
  // driven bus is charged against an idle (zero) state. Repeated or
  // sequential addresses — which toggle almost nothing at layer 0/1 —
  // are therefore over-counted; this is the paper's "does not consider
  // interactions between following transactions".
  add(SignalId::EB_A,
      popcount64(info.address & bus::signalMask(SignalId::EB_A)));
  if (info.kind == bus::Kind::InstrFetch) {
    add(SignalId::EB_Instr, 1);
  }
  if (info.kind == bus::Kind::Write) {
    add(SignalId::EB_Write, 1);
  }
  if (info.beats > 1) add(SignalId::EB_Burst, 1);
  add(SignalId::EB_BE, popcount64(byteEnablesOf(info)));

  // Handshake strobes: one full pulse per phase — the model cannot see
  // that back-to-back phases hold these lines ("does not allow an
  // accurate count of transitions for control signals").
  add(SignalId::EB_AValid, 2);
  add(SignalId::EB_ARdy, info.error ? 0 : 2);

  // Select lines: one pulse per transaction; whether consecutive
  // transactions hit the same line is invisible at this layer.
  add(SignalId::EB_Sel, info.error ? 0 : 2);

  if (info.error) {
    add(info.kind == bus::Kind::Write ? SignalId::EB_WBErr
                                      : SignalId::EB_RBErr,
        2);
    add(SignalId::EB_Last, 2);
  }
}

template <bool kAttributed>
void Tl2PowerModel::chargeDataPhase(const bus::Tl2PhaseInfo& info) {
  const auto add = [this](SignalId id, std::uint64_t n) {
    addTransitions<kAttributed>(id, n);
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
  std::uint64_t dataTransitions = 0;
  for (unsigned b = 0; b < info.beats; ++b) {
    dataTransitions += popcount64(beatWord(info, b));
  }
  add(dataBus, dataTransitions);

  // One strobe pulse per beat (layer 0/1 hold the line through a
  // streaming burst — systematic over-count), one EB_Last pulse per
  // transaction.
  add(strobe, std::uint64_t{2} * info.beats);
  add(SignalId::EB_Last, 2);
}

double Tl2PowerModel::energySinceLastCall_fJ() {
  const std::uint64_t delta = total_aJ_ - intervalMarker_aJ_;
  intervalMarker_aJ_ = total_aJ_;
  return bus::toFemtojoules(delta);
}

} // namespace sct::power
