// Core data types of the EC interface.
//
// The EC interface (MIPS Technologies' external core interface used by
// the 4KSc smart-card core) supports 36-bit addresses and 32-bit data,
// unidirectional signals with separate read and write data buses (each
// with its own bus-error indication), pipelined address and data phases,
// and bursts. The core limits outstanding transactions to four burst
// instruction reads, four burst data reads and four burst writes.
#ifndef SCT_BUS_EC_TYPES_H
#define SCT_BUS_EC_TYPES_H

#include <array>
#include <cstdint>
#include <string_view>

namespace sct::bus {

/// 36-bit physical address, kept in the low bits of a 64-bit integer.
using Address = std::uint64_t;
inline constexpr Address kAddressMask = (Address{1} << 36) - 1;

/// One data-bus word.
using Word = std::uint32_t;

/// Access widths supported by the EC merge patterns.
enum class AccessSize : std::uint8_t { Byte = 1, Half = 2, Word = 4 };

/// Transaction class. Instruction fetches arrive on the dedicated
/// instruction interface; data reads and writes on the data interface.
enum class Kind : std::uint8_t { InstrFetch, Read, Write };

/// Result of a non-blocking bus interface call.
///  - Request: the request has been accepted by the bus this cycle.
///  - Wait:    the request is in progress (or could not be accepted yet).
///  - Ok:      the request finished successfully; results are valid.
///  - Error:   the request finished with a bus error.
enum class BusStatus : std::uint8_t { Request, Wait, Ok, Error };

/// Maximum burst length in beats (4KSc cache line = four words).
inline constexpr unsigned kMaxBurstBeats = 4;

/// Maximum outstanding transactions per class (EC interface limit).
inline constexpr unsigned kMaxOutstandingPerClass = 4;

/// Sentinels for the buses' nextFinishCycle() (Tl2Bus, Tl2MasterBridge,
/// BridgedTl2Bus, hier::HybridBus). Cycle 0 can never host a completion
/// (the first dispatched bus edge belongs to cycle 1), so it doubles as
/// "cannot predict".
inline constexpr std::uint64_t kFinishUnknown = 0;
inline constexpr std::uint64_t kFinishNone =
    ~static_cast<std::uint64_t>(0);

constexpr bool isRead(Kind k) { return k != Kind::Write; }

constexpr std::string_view toString(Kind k) {
  switch (k) {
    case Kind::InstrFetch: return "instr";
    case Kind::Read: return "read";
    case Kind::Write: return "write";
  }
  return "?";
}

constexpr std::string_view toString(BusStatus s) {
  switch (s) {
    case BusStatus::Request: return "request";
    case BusStatus::Wait: return "wait";
    case BusStatus::Ok: return "ok";
    case BusStatus::Error: return "error";
  }
  return "?";
}

constexpr std::string_view toString(AccessSize s) {
  switch (s) {
    case AccessSize::Byte: return "byte";
    case AccessSize::Half: return "half";
    case AccessSize::Word: return "word";
  }
  return "?";
}

/// Byte-enable mask (bit i = byte lane i active) for an access of the
/// given size at the given address, following the EC merge patterns:
/// byte accesses drive one lane, half-word accesses two aligned lanes,
/// word accesses all four. The address supplies the lane offset.
constexpr std::uint8_t byteEnables(AccessSize size, Address addr) {
  const unsigned lane = static_cast<unsigned>(addr & 0x3u);
  switch (size) {
    case AccessSize::Byte: return static_cast<std::uint8_t>(1u << lane);
    case AccessSize::Half: return static_cast<std::uint8_t>(0x3u << (lane & ~1u));
    case AccessSize::Word: return 0xFu;
  }
  return 0;
}

/// True when `addr` is correctly aligned for `size`.
constexpr bool isAligned(AccessSize size, Address addr) {
  switch (size) {
    case AccessSize::Byte: return true;
    case AccessSize::Half: return (addr & 0x1u) == 0;
    case AccessSize::Word: return (addr & 0x3u) == 0;
  }
  return false;
}

/// Static per-slave properties exposed through the slave control
/// interface (queried by the bus process as `getSlaveState()`):
/// address range, wait states for the address / read / write phases,
/// and access-right bits.
struct SlaveControl {
  Address base = 0;        ///< First byte of the decoded window.
  Address size = 0;        ///< Window length in bytes (non-zero).
  unsigned addrWait = 0;   ///< Extra cycles in the address phase.
  unsigned readWait = 0;   ///< Extra cycles before the first read beat.
  unsigned writeWait = 0;  ///< Extra cycles before the first write beat.
  unsigned burstBeatWait = 0;  ///< Extra cycles between burst beats.
  bool canRead = true;     ///< Data reads allowed.
  bool canWrite = true;    ///< Data writes allowed.
  bool canExec = true;     ///< Instruction fetches allowed.

  constexpr bool contains(Address a) const {
    return a >= base && a - base < size;
  }
  constexpr Address end() const { return base + size; }
  constexpr bool allows(Kind k) const {
    switch (k) {
      case Kind::InstrFetch: return canExec;
      case Kind::Read: return canRead;
      case Kind::Write: return canWrite;
    }
    return false;
  }
};

} // namespace sct::bus

#endif // SCT_BUS_EC_TYPES_H
