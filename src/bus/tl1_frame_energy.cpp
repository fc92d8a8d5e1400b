#include "bus/tl1_frame_energy.h"

#if defined(__AVX512F__) && defined(__AVX512VPOPCNTDQ__)
#include <immintrin.h>
#define SCT_TL1FE_AVX512 1
#endif

namespace sct::bus {

void Tl1FrameEnergy::noteAddressOwners(const AddressPhaseInfo& info) {
  const obs::TxClass cls = obs::txClassOf(info.kind);
  for (SignalId id : {SignalId::EB_A, SignalId::EB_Instr, SignalId::EB_Write,
                      SignalId::EB_Burst, SignalId::EB_BE, SignalId::EB_AValid,
                      SignalId::EB_Sel, SignalId::EB_ARdy}) {
    setOwner(id, cls, info.slave);
  }
}

void Tl1FrameEnergy::noteBeatOwners(const DataBeatInfo& info, bool isWrite) {
  const obs::TxClass cls = obs::txClassOf(info.kind);
  if (isWrite) {
    for (SignalId id : {SignalId::EB_WData, SignalId::EB_WDRdy,
                        SignalId::EB_WBErr, SignalId::EB_Last,
                        SignalId::EB_Inv}) {
      setOwner(id, cls, info.slave);
    }
  } else {
    for (SignalId id : {SignalId::EB_RData, SignalId::EB_RdVal,
                        SignalId::EB_RBErr, SignalId::EB_Last,
                        SignalId::EB_Inv}) {
      setOwner(id, cls, info.slave);
    }
  }
}

std::uint64_t Tl1FrameEnergy::packedCycleEnergy() {
  ++packedLaneCycles_;
  // Pass 1 — packed lanes: shadow and current frame are contiguous
  // 64-bit lane arrays; XOR them in bulk and record which lanes
  // changed plus a per-lane transition (popcount) tally. Lanes outside
  // the dirty mask hold shadow == frame and XOR to zero on their own,
  // so the mask is not needed for correctness — only nonzero lanes
  // survive into the pricing walk.
  const std::uint64_t* cur = frame_.raw();
  std::array<std::uint64_t, kSignalCount> cnt;
  std::uint32_t nz = 0;
#if SCT_TL1FE_AVX512
  // Two full 512-bit strips cover the 16-lane frame exactly. VPOPCNTQ
  // counts every lane at once; the changed-lane bitmap falls out of the
  // test-against-zero mask, and the shadow update is a wholesale frame
  // copy (unchanged lanes are overwritten with the value they already
  // hold).
  {
    static_assert(kSignalCount == 16, "strips assume a 16-lane frame");
    const __m512i s0 = _mm512_loadu_si512(shadow_.data());
    const __m512i c0 = _mm512_loadu_si512(cur);
    const __m512i s1 = _mm512_loadu_si512(shadow_.data() + 8);
    const __m512i c1 = _mm512_loadu_si512(cur + 8);
    const __m512i d0 = _mm512_xor_si512(s0, c0);
    const __m512i d1 = _mm512_xor_si512(s1, c1);
    nz = static_cast<std::uint32_t>(_mm512_test_epi64_mask(d0, d0)) |
         (static_cast<std::uint32_t>(_mm512_test_epi64_mask(d1, d1)) << 8);
    _mm512_storeu_si512(cnt.data(), _mm512_popcnt_epi64(d0));
    _mm512_storeu_si512(cnt.data() + 8, _mm512_popcnt_epi64(d1));
    _mm512_storeu_si512(shadow_.data(), c0);
    _mm512_storeu_si512(shadow_.data() + 8, c1);
  }
#else
  constexpr std::size_t kUnroll = 4;
  constexpr std::size_t kRound = (kSignalCount / kUnroll) * kUnroll;
  std::size_t i = 0;
  for (; i < kRound; i += kUnroll) {
    const std::uint64_t d0 = shadow_[i + 0] ^ cur[i + 0];
    const std::uint64_t d1 = shadow_[i + 1] ^ cur[i + 1];
    const std::uint64_t d2 = shadow_[i + 2] ^ cur[i + 2];
    const std::uint64_t d3 = shadow_[i + 3] ^ cur[i + 3];
    cnt[i + 0] = static_cast<std::uint64_t>(std::popcount(d0));
    cnt[i + 1] = static_cast<std::uint64_t>(std::popcount(d1));
    cnt[i + 2] = static_cast<std::uint64_t>(std::popcount(d2));
    cnt[i + 3] = static_cast<std::uint64_t>(std::popcount(d3));
    nz |= (d0 != 0 ? std::uint32_t{1} << (i + 0) : 0u) |
          (d1 != 0 ? std::uint32_t{1} << (i + 1) : 0u) |
          (d2 != 0 ? std::uint32_t{1} << (i + 2) : 0u) |
          (d3 != 0 ? std::uint32_t{1} << (i + 3) : 0u);
  }
  for (; i < kSignalCount; ++i) {
    const std::uint64_t d = shadow_[i] ^ cur[i];
    cnt[i] = static_cast<std::uint64_t>(std::popcount(d));
    if (d != 0) nz |= std::uint32_t{1} << i;
  }
  for (std::uint32_t m = nz; m != 0; m &= m - 1) {
    const unsigned k = static_cast<unsigned>(std::countr_zero(m));
    shadow_[k] = cur[k];
  }
#endif
  // Pass 2 — price the changed lanes, the same terms the scalar
  // dirty-walk adds (it skips diff == 0 bundles too).
  std::uint64_t e = 0;
  while (nz != 0) {
    const unsigned k = static_cast<unsigned>(std::countr_zero(nz));
    nz &= nz - 1;
    e += price(k, static_cast<unsigned>(cnt[k]));
  }
  return e;
}

} // namespace sct::bus
