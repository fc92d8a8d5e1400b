#include "soc/peripherals.h"

#include <bit>

#include "sim/rng.h"

namespace sct::soc {

using bus::Word;

// ---------------------------------------------------------------------------
// InterruptController
// ---------------------------------------------------------------------------

InterruptController::InterruptController(std::string name,
                                         const bus::SlaveControl& control)
    : bus::RegisterSlave(std::move(name), control) {
  defineRegister(
      0x0, "STATUS", [this] { return pending_ & enable_; },
      [this](Word v) { pending_ &= ~v; });  // Write-1-to-clear.
  defineRegister(
      0x4, "ENABLE", [this] { return enable_; },
      [this](Word v) { enable_ = v; });
}

// ---------------------------------------------------------------------------
// Timer
// ---------------------------------------------------------------------------

Timer::Timer(sim::Clock& clock, std::string name,
             const bus::SlaveControl& control, InterruptController* irq,
             unsigned irqLine)
    : bus::RegisterSlave(std::move(name), control),
      clock_(clock),
      irq_(irq),
      irqLine_(irqLine) {
  defineRegister(0x0, "COUNT", [this] { return count_; }, nullptr);
  defineRegister(
      0x4, "COMPARE", [this] { return compare_; },
      [this](Word v) { compare_ = v & 0xFFFF; });
  defineRegister(
      0x8, "CTRL", [this] { return ctrl_; },
      [this](Word v) { ctrl_ = v; });
  defineRegister(
      0xC, "STATUS", [this] { return status_; },
      [this](Word) { status_ = 0; });
  handlerId_ = clock_.onRising([this] { tick(); });
}

Timer::~Timer() { clock_.removeHandler(handlerId_); }

void Timer::tick() {
  if ((ctrl_ & 1u) == 0) return;
  const unsigned prescaler = (ctrl_ >> 8) & 0xFF;
  if (prescale_ < prescaler) {
    ++prescale_;
    return;
  }
  prescale_ = 0;
  count_ = (count_ + 1) & 0xFFFF;
  ++ticks_;
  if (count_ == compare_) {
    status_ |= 1u;
    if (irq_ != nullptr) irq_->raise(irqLine_);
  }
}

// ---------------------------------------------------------------------------
// Uart
// ---------------------------------------------------------------------------

Uart::Uart(sim::Clock& clock, std::string name,
           const bus::SlaveControl& control, unsigned cyclesPerByte)
    : bus::RegisterSlave(std::move(name), control),
      clock_(clock),
      cyclesPerByte_(cyclesPerByte) {
  defineRegister(
      0x0, "DATA",
      [this]() -> Word {
        if (rx_.empty()) return 0;
        const Word v = rx_.front();
        rx_.pop_front();
        return v;
      },
      [this](Word v) {
        tx_.push_back(static_cast<char>(v & 0xFF));
        busyCycles_ = cyclesPerByte_;
      });
  defineRegister(
      0x4, "STATUS",
      [this]() -> Word {
        Word s = 0;
        if (busyCycles_ == 0) s |= 1u;   // TX ready.
        if (!rx_.empty()) s |= 2u;       // RX available.
        return s;
      },
      nullptr);
  handlerId_ = clock_.onRising([this] { tick(); });
}

Uart::~Uart() { clock_.removeHandler(handlerId_); }

void Uart::tick() {
  if (busyCycles_ > 0) --busyCycles_;
}

// ---------------------------------------------------------------------------
// Trng
// ---------------------------------------------------------------------------

Trng::Trng(std::string name, const bus::SlaveControl& control,
           std::uint64_t seed)
    : bus::RegisterSlave(std::move(name), control), rng_(seed) {
  defineRegister(
      0x0, "DATA",
      [this]() -> Word {
        ++drawn_;
        return rng_.next32();
      },
      nullptr);
  defineRegister(0x4, "STATUS", [] { return Word{1}; }, nullptr);
}

// ---------------------------------------------------------------------------
// CryptoCoprocessor
// ---------------------------------------------------------------------------

namespace {

/// AES S-box — used as a well-understood nonlinear substitution for the
/// toy Feistel round function.
constexpr std::uint8_t kSbox[256] = {
    0x63, 0x7c, 0x77, 0x7b, 0xf2, 0x6b, 0x6f, 0xc5, 0x30, 0x01, 0x67, 0x2b,
    0xfe, 0xd7, 0xab, 0x76, 0xca, 0x82, 0xc9, 0x7d, 0xfa, 0x59, 0x47, 0xf0,
    0xad, 0xd4, 0xa2, 0xaf, 0x9c, 0xa4, 0x72, 0xc0, 0xb7, 0xfd, 0x93, 0x26,
    0x36, 0x3f, 0xf7, 0xcc, 0x34, 0xa5, 0xe5, 0xf1, 0x71, 0xd8, 0x31, 0x15,
    0x04, 0xc7, 0x23, 0xc3, 0x18, 0x96, 0x05, 0x9a, 0x07, 0x12, 0x80, 0xe2,
    0xeb, 0x27, 0xb2, 0x75, 0x09, 0x83, 0x2c, 0x1a, 0x1b, 0x6e, 0x5a, 0xa0,
    0x52, 0x3b, 0xd6, 0xb3, 0x29, 0xe3, 0x2f, 0x84, 0x53, 0xd1, 0x00, 0xed,
    0x20, 0xfc, 0xb1, 0x5b, 0x6a, 0xcb, 0xbe, 0x39, 0x4a, 0x4c, 0x58, 0xcf,
    0xd0, 0xef, 0xaa, 0xfb, 0x43, 0x4d, 0x33, 0x85, 0x45, 0xf9, 0x02, 0x7f,
    0x50, 0x3c, 0x9f, 0xa8, 0x51, 0xa3, 0x40, 0x8f, 0x92, 0x9d, 0x38, 0xf5,
    0xbc, 0xb6, 0xda, 0x21, 0x10, 0xff, 0xf3, 0xd2, 0xcd, 0x0c, 0x13, 0xec,
    0x5f, 0x97, 0x44, 0x17, 0xc4, 0xa7, 0x7e, 0x3d, 0x64, 0x5d, 0x19, 0x73,
    0x60, 0x81, 0x4f, 0xdc, 0x22, 0x2a, 0x90, 0x88, 0x46, 0xee, 0xb8, 0x14,
    0xde, 0x5e, 0x0b, 0xdb, 0xe0, 0x32, 0x3a, 0x0a, 0x49, 0x06, 0x24, 0x5c,
    0xc2, 0xd3, 0xac, 0x62, 0x91, 0x95, 0xe4, 0x79, 0xe7, 0xc8, 0x37, 0x6d,
    0x8d, 0xd5, 0x4e, 0xa9, 0x6c, 0x56, 0xf4, 0xea, 0x65, 0x7a, 0xae, 0x08,
    0xba, 0x78, 0x25, 0x2e, 0x1c, 0xa6, 0xb4, 0xc6, 0xe8, 0xdd, 0x74, 0x1f,
    0x4b, 0xbd, 0x8b, 0x8a, 0x70, 0x3e, 0xb5, 0x66, 0x48, 0x03, 0xf6, 0x0e,
    0x61, 0x35, 0x57, 0xb9, 0x86, 0xc1, 0x1d, 0x9e, 0xe1, 0xf8, 0x98, 0x11,
    0x69, 0xd9, 0x8e, 0x94, 0x9b, 0x1e, 0x87, 0xe9, 0xce, 0x55, 0x28, 0xdf,
    0x8c, 0xa1, 0x89, 0x0d, 0xbf, 0xe6, 0x42, 0x68, 0x41, 0x99, 0x2d, 0x0f,
    0xb0, 0x54, 0xbb, 0x16};

constexpr unsigned kRounds = soc::CryptoCoprocessor::kRounds;

std::uint32_t substitute(std::uint32_t v) {
  std::uint32_t out = 0;
  for (unsigned i = 0; i < 4; ++i) {
    out |= static_cast<std::uint32_t>(kSbox[(v >> (8 * i)) & 0xFF])
           << (8 * i);
  }
  return out;
}

std::uint32_t roundKey(const std::uint32_t key[4], unsigned round) {
  return std::rotl(key[round & 3] ^ (0x9E3779B9u * (round + 1)),
                   static_cast<int>(round % 31));
}

std::uint32_t feistelF(std::uint32_t half, std::uint32_t rk) {
  return std::rotl(substitute(half ^ rk), 5) ^ (half >> 3);
}

} // namespace

void CryptoCoprocessor::encryptBlock(const std::uint32_t key[4],
                                     std::uint32_t& d0, std::uint32_t& d1) {
  std::uint32_t l = d0;
  std::uint32_t r = d1;
  for (unsigned round = 0; round < kRounds; ++round) {
    const std::uint32_t t = r;
    r = l ^ feistelF(r, roundKey(key, round));
    l = t;
  }
  d0 = r;  // Final swap.
  d1 = l;
}

void CryptoCoprocessor::decryptBlock(const std::uint32_t key[4],
                                     std::uint32_t& d0, std::uint32_t& d1) {
  std::uint32_t r = d0;
  std::uint32_t l = d1;
  for (unsigned round = kRounds; round-- > 0;) {
    const std::uint32_t t = l;
    l = r ^ feistelF(l, roundKey(key, round));
    r = t;
  }
  d0 = l;
  d1 = r;
}

std::uint8_t CryptoCoprocessor::sbox(std::uint8_t v) { return kSbox[v]; }

void CryptoCoprocessor::rebuildLeakSchedule() {
  leakValid_ = leak_.hdCoeff_fJ != 0.0 && busyCycles_ > 0 &&
               (pendingMode_ == 1 || pendingMode_ == 2);
  if (!leakValid_) return;

  // Walk the same round trajectory the completion tick will execute
  // and record the Hamming distance between consecutive (l, r) state
  // register pairs. With masking, each round state is XORed with fresh
  // masks drawn statelessly from (maskSeed, operation#, round) — the
  // toggles a masked datapath would really show — which decorrelates
  // the schedule from the data without touching ciphertext or timing.
  const auto mask32 = [&](unsigned idx) -> std::uint32_t {
    if (!leak_.maskRounds) return 0;
    return static_cast<std::uint32_t>(
        sim::hash64(leak_.maskSeed, operations_, idx));
  };
  // Decryption is the same (l, r) -> (r, l ^ F(r, rk)) recurrence with
  // the round-key order reversed (decryptBlock's variable naming swaps
  // the labels, which cancels out of the symmetric Hamming distance).
  std::uint32_t l = data_[0];
  std::uint32_t r = data_[1];
  std::uint32_t mLsb = l ^ mask32(0);
  std::uint32_t mRsb = r ^ mask32(1);
  for (unsigned round = 0; round < kRounds; ++round) {
    const unsigned k = pendingMode_ == 1 ? round : kRounds - 1 - round;
    const std::uint32_t t = r;
    r = l ^ feistelF(r, roundKey(key_, k));
    l = t;
    const std::uint32_t nextL = l ^ mask32(2 * round + 2);
    const std::uint32_t nextR = r ^ mask32(2 * round + 3);
    leakSchedule_[round] =
        static_cast<std::uint32_t>(std::popcount(mLsb ^ nextL)) +
        static_cast<std::uint32_t>(std::popcount(mRsb ^ nextR));
    mLsb = nextL;
    mRsb = nextR;
  }
}

CryptoCoprocessor::CryptoCoprocessor(sim::Clock& clock, std::string name,
                                     const bus::SlaveControl& control,
                                     unsigned cyclesPerRound,
                                     InterruptController* irq,
                                     unsigned irqLine)
    : bus::RegisterSlave(std::move(name), control),
      clock_(clock),
      irq_(irq),
      irqLine_(irqLine),
      cyclesPerRound_(cyclesPerRound) {
  for (unsigned i = 0; i < 4; ++i) {
    defineRegister(
        0x00 + 4 * i, "KEY" + std::to_string(i), nullptr,
        [this, i](Word v) { key_[i] = v; });
  }
  for (unsigned i = 0; i < 2; ++i) {
    defineRegister(
        0x10 + 4 * i, "DATA" + std::to_string(i),
        [this, i]() -> Word { return data_[i]; },
        [this, i](Word v) { data_[i] = v; });
  }
  defineRegister(0x18, "CTRL", nullptr, [this](Word v) { start(v); });
  defineRegister(
      0x1C, "STATUS", [this]() -> Word { return busy() ? 1u : 0u; },
      nullptr);
  handlerId_ = clock_.onRising([this] { tick(); });
}

CryptoCoprocessor::~CryptoCoprocessor() { clock_.removeHandler(handlerId_); }

bus::BusStatus CryptoCoprocessor::readBeat(bus::Address addr,
                                           bus::AccessSize size,
                                           Word& out) {
  const bus::Address off = (addr - control().base) & ~bus::Address{3};
  if (busy() && (off == 0x10 || off == 0x14)) return bus::BusStatus::Wait;
  return RegisterSlave::readBeat(addr, size, out);
}

void CryptoCoprocessor::start(Word mode) {
  if (mode != 1 && mode != 2) return;
  pendingMode_ = mode;
  busyCycles_ = kRounds * cyclesPerRound_;
  rebuildLeakSchedule();
}

void CryptoCoprocessor::tick() {
  lastLeak_fJ_ = 0.0;
  if (busyCycles_ == 0) return;
  --busyCycles_;
  if (leakValid_) {
    // One round completes every cyclesPerRound_ ticks; emit its state
    // register toggles as internal energy on that tick.
    const unsigned elapsed = kRounds * cyclesPerRound_ - busyCycles_;
    if (elapsed % cyclesPerRound_ == 0) {
      lastLeak_fJ_ = leak_.hdCoeff_fJ *
                     static_cast<double>(
                         leakSchedule_[elapsed / cyclesPerRound_ - 1]);
    }
  }
  if (busyCycles_ == 0) {
    if (pendingMode_ == 1) {
      encryptBlock(key_, data_[0], data_[1]);
    } else {
      decryptBlock(key_, data_[0], data_[1]);
    }
    pendingMode_ = 0;
    leakValid_ = false;
    ++operations_;
    if (irq_ != nullptr) irq_->raise(irqLine_);
  }
}

} // namespace sct::soc
