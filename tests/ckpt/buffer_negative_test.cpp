// Negative paths of the in-memory Snapshot buffer API: every way a
// byte stream can be malformed must land in a CheckpointError with a
// message naming the problem — never silent corruption, never UB. The
// eh intermittent runner restores from these buffers thousands of
// times per sweep, so "garbage in, exception out" is a load-bearing
// contract, exercised here byte-surgically (bad magic, bad format
// version, truncation at every prefix, oversized/undersized section
// length fields, trailing garbage, duplicate section tags,
// registry-level version skew through the buffer path, pm section
// fields that would index past the ledger or that hold values no engine
// writes between cycles, layer-1 model, TL2 model and TL2 bus sections
// of their previous layouts, hybrid-bus fidelity bytes that name no
// layer, replay-master payload stage and result bytes that name nothing
// a saved payload can hold, and core sections whose enum bytes name
// nothing or whose register indices fall outside the register file).
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "../testbench.h"
#include "bus/ec_signals.h"
#include "bus/tl1_bus.h"
#include "bus/tl2_bus.h"
#include "ckpt/checkpoint.h"
#include "hier/hybrid_bus.h"
#include "obs/ledger.h"
#include "power/tl1_power_model.h"
#include "power/tl2_power_model.h"
#include "sim/clock.h"
#include "sim/kernel.h"
#include "soc/assembler.h"
#include "soc/isa.h"
#include "soc/smartcard.h"

namespace sct {
namespace {

/// A trivial checkpointable with a controllable payload.
struct Blob {
  static constexpr std::uint32_t kCkptVersion = 3;
  std::uint32_t a = 0x11112222;
  std::uint64_t b = 0x3333444455556666ULL;

  void saveState(ckpt::StateWriter& w) const {
    w.u32(a);
    w.u64(b);
  }
  void loadState(ckpt::StateReader& r) {
    a = r.u32();
    b = r.u64();
  }
};

std::vector<std::uint8_t> blobBuffer(Blob& blob) {
  ckpt::CheckpointRegistry reg;
  reg.add("blob", blob);
  return reg.saveAll().serialize();
}

/// EXPECT_THROW plus a substring check on the message.
template <typename Fn>
void expectRefusal(Fn&& fn, const std::string& needle) {
  try {
    fn();
    FAIL() << "expected CheckpointError containing '" << needle << "'";
  } catch (const ckpt::CheckpointError& e) {
    EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
        << "actual message: " << e.what();
  }
}

TEST(SnapshotBufferNegative, BadMagicIsRejected) {
  Blob blob;
  std::vector<std::uint8_t> buf = blobBuffer(blob);
  buf[0] ^= 0xFF;
  expectRefusal([&] { ckpt::Snapshot::deserialize(buf); }, "bad magic");
}

TEST(SnapshotBufferNegative, UnsupportedFormatVersionIsRejected) {
  Blob blob;
  std::vector<std::uint8_t> buf = blobBuffer(blob);
  // The u32 after the 8-byte magic is the format version (LE).
  buf[8] = 0x7F;
  expectRefusal([&] { ckpt::Snapshot::deserialize(buf); },
                "unsupported checkpoint format version 127");
}

TEST(SnapshotBufferNegative, EveryTruncationPointIsRejected) {
  Blob blob;
  const std::vector<std::uint8_t> buf = blobBuffer(blob);
  // Chopping the stream anywhere short of complete must throw — the
  // parser may not read past the end or accept a partial section.
  for (std::size_t n = 0; n < buf.size(); ++n) {
    SCOPED_TRACE(n);
    const std::vector<std::uint8_t> cut(buf.begin(), buf.begin() + n);
    EXPECT_THROW(ckpt::Snapshot::deserialize(cut),
                 ckpt::CheckpointError);
  }
  // The full buffer parses (the loop above really covered everything).
  EXPECT_NO_THROW(ckpt::Snapshot::deserialize(buf));
}

TEST(SnapshotBufferNegative, CorruptedSectionLengthIsRejected) {
  Blob blob;
  std::vector<std::uint8_t> buf = blobBuffer(blob);
  // Locate the payload-length u32: magic(8) + format(4) + count(4) +
  // tag(str = u32 len + 4 chars "blob") + version(4).
  const std::size_t lenPos = 8 + 4 + 4 + (4 + 4) + 4;
  ASSERT_LT(lenPos + 4, buf.size());

  // Oversized: claims more payload bytes than the buffer holds.
  std::vector<std::uint8_t> oversized = buf;
  oversized[lenPos] = 0xFF;
  oversized[lenPos + 1] = 0xFF;
  expectRefusal([&] { ckpt::Snapshot::deserialize(oversized); },
                "truncated");

  // Near 4 GiB: refused before the payload buffer is sized (the
  // section name in the message shows the early length check).
  std::vector<std::uint8_t> huge = buf;
  huge[lenPos] = 0xF0;
  huge[lenPos + 1] = huge[lenPos + 2] = huge[lenPos + 3] = 0xFF;
  expectRefusal([&] { ckpt::Snapshot::deserialize(huge); },
                "section 'blob' truncated: claims 4294967280 payload bytes");

  // Undersized: the unclaimed payload tail becomes trailing garbage.
  std::vector<std::uint8_t> undersized = buf;
  undersized[lenPos] -= 1;
  expectRefusal([&] { ckpt::Snapshot::deserialize(undersized); },
                "trailing bytes");
}

TEST(SnapshotBufferNegative, DuplicateSectionTagIsRejected) {
  // Two "blob" sections: find() would silently take the first.
  Blob blob;
  const std::vector<std::uint8_t> one = blobBuffer(blob);
  std::vector<std::uint8_t> two = one;
  two[12] = 2;  // Section count (LE u32 after magic and format).
  two.insert(two.end(), one.begin() + 16, one.end());
  expectRefusal([&] { ckpt::Snapshot::deserialize(two); },
                "duplicate checkpoint section tag 'blob'");
}

TEST(SnapshotBufferNegative, LedgerSectionWithoutAccumulatorsIsRejected) {
  // The ledger's leading "accumulators present" byte is always written
  // true. A section holding only a false byte must be refused rather
  // than leave the restore target's stale accumulators in place.
  obs::EnergyLedger ledger;
  ckpt::CheckpointRegistry reg;
  reg.add("ledger", ledger);
  ckpt::Snapshot crafted;
  crafted.addSection("ledger", obs::EnergyLedger::kCkptVersion, {0});
  expectRefusal([&] { reg.loadAll(crafted); },
                "EnergyLedger::loadState: section carries no accumulators");
}

/// A real Tl1PowerModel section with one field overwritten, loaded back.
/// Byte offsets follow its section layout: the frame lanes, the
/// transition counts, three energy accumulators (last cycle, total,
/// interval marker), then each owner group's class and slave.
void loadPatchedPm(std::size_t offset, const std::vector<std::uint8_t>& bytes,
                   const std::string& needle) {
  const power::Tl1PowerModel saved{power::SignalEnergyTable{}};
  ckpt::StateWriter w;
  saved.saveState(w);
  std::vector<std::uint8_t> buf = w.take();
  ASSERT_LE(offset + bytes.size(), buf.size());
  std::memcpy(buf.data() + offset, bytes.data(), bytes.size());
  power::Tl1PowerModel restored{power::SignalEnergyTable{}};
  ckpt::StateReader r(buf);
  expectRefusal([&] { restored.loadState(r); }, needle);
}

constexpr std::size_t kPmEnergyAt = 2 * 8 * bus::kSignalCount;
constexpr std::size_t kPmOwnersAt = kPmEnergyAt + 3 * 8;

/// Byte offset of `id`'s slot in a per-bundle array of `width`-byte
/// fields starting at `base`.
constexpr std::size_t pmLane(std::size_t base, bus::SignalId id,
                             std::size_t width) {
  return base + width * static_cast<std::size_t>(id);
}

TEST(SnapshotBufferNegative, PmOwnerClassOutOfRangeIsRejected) {
  loadPatchedPm(kPmOwnersAt, {200}, "owner class out of range");
}

// The fields below are in range but hold values no engine writes
// between cycles. Each would be read back silently and then priced as
// transitions that never happened, or wrap an energy difference.

TEST(SnapshotBufferNegative, PmFrameValueWiderThanItsBundleIsRejected) {
  // EB_Instr is one wire wide.
  loadPatchedPm(pmLane(0, bus::SignalId::EB_Instr, 8), {0x02},
                "frame lane wider than its bundle");
}

TEST(SnapshotBufferNegative, PmOwnerSlaveOutOfRangeIsRejected) {
  // -1 is a decode miss; no decoder index is more negative. Indices
  // past the ledger's last slave slot are legal: a platform with more
  // than eight slaves decodes them, and the ledger folds them.
  loadPatchedPm(kPmOwnersAt + 1, {0xFE}, "owner slave out of range");
  loadPatchedPm(kPmOwnersAt + 1, {0x80}, "owner slave out of range");
}

TEST(SnapshotBufferNegative, PmLastCycleEnergyAboveTheTotalIsRejected) {
  loadPatchedPm(kPmEnergyAt, {0x01}, "last-cycle energy above the total");
}

TEST(SnapshotBufferNegative, PmIntervalMarkerAboveTheTotalIsRejected) {
  // energySinceLastCall() would wrap to nearly 2^64 aJ.
  loadPatchedPm(kPmEnergyAt + 16, {0x01}, "interval marker above the total");
}

TEST(SnapshotBufferNegative, PmVersion3SectionIsRefused) {
  // Version 3 of the layer-1 model section also carried the shadow
  // lanes, three per-cycle signal masks and an owner per lane; version
  // 4 keeps only the state the engine keeps. A genuine version-3
  // payload (that of a fresh model) must be refused by name, not read
  // as a version-4 one.
  ckpt::StateWriter w;
  for (std::size_t i = 0; i < 2 * bus::kSignalCount; ++i) w.u64(0);
  for (int i = 0; i < 3; ++i) w.u32(0);  // Dirty, strobe-set, pending-low.
  for (std::size_t i = 0; i < bus::kSignalCount; ++i) w.u64(0);
  for (int i = 0; i < 3; ++i) w.u64(0);  // Last cycle, total, marker.
  for (std::size_t i = 0; i < 2 * bus::kSignalCount; ++i) w.u8(0);
  ASSERT_EQ(w.size(), 452u);
  ckpt::Snapshot older;
  older.addSection("pm", 3, w.take());
  const std::vector<std::uint8_t> buf = older.serialize();

  power::Tl1PowerModel restored{power::SignalEnergyTable{}};
  ckpt::CheckpointRegistry current;
  current.add("pm", restored);
  expectRefusal([&] { current.loadAll(ckpt::Snapshot::deserialize(buf)); },
                "'pm' version skew: snapshot has v3, this build expects v4");
}

TEST(SnapshotBufferNegative, Tl2PmVersion2SectionIsRefused) {
  // Version 2 of the TL2 model section ended with the attribution
  // context of the last phase (a class byte and a slave index); version
  // 3 dropped it. A genuine version-2 payload must be refused by name,
  // not read as a version-3 one.
  const power::Tl2PowerModel saved{power::SignalEnergyTable{}};
  ckpt::StateWriter w;
  saved.saveState(w);
  w.u8(0);
  w.i64(-1);
  ckpt::Snapshot older;
  older.addSection("pm2", 2, w.take());
  const std::vector<std::uint8_t> buf = older.serialize();

  power::Tl2PowerModel restored{power::SignalEnergyTable{}};
  ckpt::CheckpointRegistry current;
  current.add("pm2", restored);
  expectRefusal([&] { current.loadAll(ckpt::Snapshot::deserialize(buf)); },
                "'pm2' version skew: snapshot has v2, this build expects v3");
}

TEST(SnapshotBufferNegative, Tl2BusVersion1SectionIsRefused) {
  // Version 1 of the TL2 bus section also carried the three unit
  // free-cycles, the park mirror, the retirement cache, the busy
  // interval's start and its open flag; version 2 keeps only what an
  // idle bus needs. A genuine version-1 payload must be refused by
  // name, not read as a version-2 one.
  ckpt::StateWriter w;
  w.b(false);                                // Process mode.
  for (int i = 0; i < 8; ++i) w.u64(0);      // Stats block.
  for (int i = 0; i < 5; ++i) w.u64(0);      // Free cycles, mirror, cache.
  w.u64(1);                                  // First edge.
  w.u64(0);                                  // Busy-interval start.
  w.u64(0);                                  // Closed busy cycles.
  w.b(false);                                // Busy interval open.
  ckpt::Snapshot older;
  older.addSection("tl2", 1, w.take());
  const std::vector<std::uint8_t> buf = older.serialize();

  sim::Kernel kernel;
  sim::Clock clk{kernel, "clk", 10};
  bus::Tl2Bus restored{clk, "ecbus_tl2"};
  ckpt::CheckpointRegistry current;
  current.add("tl2", restored);
  expectRefusal([&] { current.loadAll(ckpt::Snapshot::deserialize(buf)); },
                "'tl2' version skew: snapshot has v1, this build expects v2");
}

/// A quiesced HybridBus section with one fidelity byte — the active
/// layer (`which` 0) or the pending switch target (1) — set to
/// `value`, loaded back.
void loadHybridWithFidelityByte(std::size_t which, std::uint8_t value,
                                const std::string& needle) {
  sim::Kernel kernel;
  sim::Clock clk{kernel, "clk", 10};
  hier::HybridBus saved{clk, "saved"};
  ckpt::StateWriter w;
  saved.saveState(w);
  std::vector<std::uint8_t> buf = w.take();
  // The section ends with the two fidelity bytes, the switch-pending
  // flag and two u64 counters.
  buf[buf.size() - 2 * 8 - 1 - 2 + which] = value;
  hier::HybridBus restored{clk, "restored"};
  ckpt::StateReader r(buf);
  expectRefusal([&] { restored.loadState(r); }, needle);
}

TEST(SnapshotBufferNegative, HybridFidelityByteNamingNoLayerIsRefused) {
  // A snapshot is outside input: a fidelity byte of 2 would leave the
  // bus on neither layer, and the fidelity controller would then
  // request a spurious switch.
  loadHybridWithFidelityByte(0, 2, "active fidelity byte 2 names no layer");
  loadHybridWithFidelityByte(1, 2,
                             "pending-target fidelity byte 2 names no layer");
  loadHybridWithFidelityByte(0, 0xFF,
                             "active fidelity byte 255 names no layer");
}

/// Save `saved`'s master section after its replay, set byte `offset`
/// to `value`, and load it into `target` (a master over the same trace).
template <typename Master>
void loadMasterWithPatchedByte(Master& saved, Master& target,
                               std::size_t offset, std::uint8_t value,
                               const std::string& needle) {
  saved.runToCompletion();
  ckpt::StateWriter w;
  saved.saveState(w);
  std::vector<std::uint8_t> buf = w.take();
  buf[offset] = value;
  ckpt::StateReader r(buf);
  expectRefusal([&] { target.loadState(r); }, needle);
}

/// One read; a saved master section holds three u64 counts, then the
/// payload: 16 data bytes, the result byte (offset 40), the stage byte
/// (41). Both layers share that prefix.
trace::BusTrace oneRead() {
  trace::BusTrace t;
  trace::TraceEntry e;
  e.address = 0x0100;
  t.append(e);
  return t;
}

TEST(SnapshotBufferNegative, Tl1MasterPayloadByteNamingNothingIsRefused) {
  // saveState refuses work in flight, so every saved payload is Idle. A
  // Requested one would stall the replay: the bus answers Wait for a
  // non-Idle payload it does not own.
  const trace::BusTrace t = oneRead();
  testbench::Tl1Bench a;
  testbench::Tl1Bench b;
  trace::ReplayMaster saved(a.clk, "m", a.bus, a.bus, t);
  trace::ReplayMaster target(b.clk, "m", b.bus, b.bus, t);
  loadMasterWithPatchedByte(saved, target, 41, 1,
                            "request 0 stage byte 1 is not idle");
  loadMasterWithPatchedByte(saved, target, 40, 4,
                            "request 0 result byte 4 names no bus status");
}

TEST(SnapshotBufferNegative, Tl1MasterCompletedCountOffItsIssueCursorIsRefused) {
  // At a quiesce point every issued entry has completed. A count short
  // of the cursor would leave the master idle past the trace's end.
  // The completed count follows the one 47-byte payload, the two flags
  // and the stall mark (offset 24 + 47 + 2 + 8).
  const trace::BusTrace t = oneRead();
  testbench::Tl1Bench a;
  testbench::Tl1Bench b;
  trace::ReplayMaster saved(a.clk, "m", a.bus, a.bus, t);
  trace::ReplayMaster target(b.clk, "m", b.bus, b.bus, t);
  loadMasterWithPatchedByte(saved, target, 81, 0,
                            "completed count 0 differs from the issue cursor 1");
}

TEST(SnapshotBufferNegative, Tl2MasterPayloadByteNamingNothingIsRefused) {
  const trace::BusTrace t = oneRead();
  testbench::Tl2Bench a;
  testbench::Tl2Bench b;
  trace::Tl2ReplayMaster saved(a.clk, "m", a.bus, t);
  trace::Tl2ReplayMaster target(b.clk, "m", b.bus, t);
  loadMasterWithPatchedByte(saved, target, 41, 3,
                            "request 0 stage byte 3 is not idle");
  loadMasterWithPatchedByte(saved, target, 40, 0xFF,
                            "request 0 result byte 255 names no bus status");
}

using Tl1Soc = soc::SmartCardSoC<bus::Tl1Bus>;

/// The `cpu` section of a card booted to halt.
const std::vector<std::uint8_t>& haltedCpuSection() {
  static const std::vector<std::uint8_t> section = [] {
    Tl1Soc card{soc::SocConfig{}};
    card.loadProgram(soc::assemble("break", soc::memmap::kRomBase));
    EXPECT_TRUE(card.run());
    return card.checkpoint().find("cpu")->payload;
  }();
  return section;
}

// Offsets in a cpu section. The state byte follows the 32 registers,
// hi, lo, pc, epc, the ISR flag and the interrupt count. The caches
// come next; after them, at fixed distances from the section's end, the
// ifetch and load requests (kind at +0, size at +9, result at +27,
// stage at +28), the load-cached flag, the load instruction and its
// address, the pending store and its address (op u16 at +0, rs at +2,
// rt at +3, rd at +4), and five u64 stall counters. Each refusal names
// its field, so a case whose offset missed its field fails.
constexpr std::size_t kCpuStateAt = 32 * 4 + 2 * 4 + 2 * 8 + 1 + 8;
constexpr std::size_t kCpuRequestBytes = 1 + 8 + 1 + 1 + 4 * 4 + 3 + 8 + 4 + 16;
constexpr std::size_t kCpuInstrBytes = 2 + 4 + 8 + 4 + 4;
constexpr std::size_t kCpuPendingStoreFromEnd = 5 * 8 + 8 + kCpuInstrBytes;
constexpr std::size_t kCpuLoadInstrFromEnd =
    kCpuPendingStoreFromEnd + 8 + kCpuInstrBytes;
constexpr std::size_t kCpuLoadRequestFromEnd =
    kCpuLoadInstrFromEnd + 1 + kCpuRequestBytes;
constexpr std::size_t kCpuIfetchRequestFromEnd =
    kCpuLoadRequestFromEnd + kCpuRequestBytes;

/// Offset of the record that starts `fromEnd` bytes before the end of
/// the halted section.
std::size_t cpuRecordAt(std::size_t fromEnd) {
  return haltedCpuSection().size() - fromEnd;
}

/// `section` loaded into a fresh card's core.
void loadCpu(const std::vector<std::uint8_t>& section,
             const std::string& needle) {
  Tl1Soc target{soc::SocConfig{}};
  ckpt::StateReader r(section);
  expectRefusal([&] { target.cpu().loadState(r); }, needle);
}

/// The halted section with `bytes` written at `offset`, loaded into a
/// fresh card's core.
void loadPatchedCpu(std::size_t offset, const std::vector<std::uint8_t>& bytes,
                    const std::string& needle) {
  std::vector<std::uint8_t> buf = haltedCpuSection();
  ASSERT_LE(offset + bytes.size(), buf.size());
  std::memcpy(buf.data() + offset, bytes.data(), bytes.size());
  loadCpu(buf, needle);
}

TEST(SnapshotBufferNegative, CpuStateByteNamingNoStateIsRefused) {
  // 3 (WaitStoreSlot) is a state; past 4 (Halted) the core would run a
  // state no handler names.
  loadPatchedCpu(kCpuStateAt, {5}, "state byte 5 names nothing");
  loadPatchedCpu(kCpuStateAt, {9}, "state byte 9 names nothing");
}

TEST(SnapshotBufferNegative, CpuRequestKindByteNamingNothingIsRefused) {
  loadPatchedCpu(cpuRecordAt(kCpuIfetchRequestFromEnd), {3},
                 "ifetch request kind byte 3 names nothing");
  loadPatchedCpu(cpuRecordAt(kCpuLoadRequestFromEnd), {0xFF},
                 "load request kind byte 255 names nothing");
}

TEST(SnapshotBufferNegative, CpuRequestSizeByteNamingNothingIsRefused) {
  // Sizes are lane counts: 1, 2 or 4.
  loadPatchedCpu(cpuRecordAt(kCpuIfetchRequestFromEnd) + 9, {3},
                 "ifetch request size byte 3 names nothing");
  loadPatchedCpu(cpuRecordAt(kCpuLoadRequestFromEnd) + 9, {0},
                 "load request size byte 0 names nothing");
}

TEST(SnapshotBufferNegative, CpuRequestResultByteNamingNothingIsRefused) {
  loadPatchedCpu(cpuRecordAt(kCpuLoadRequestFromEnd) + 27, {4},
                 "load request result byte 4 names nothing");
}

TEST(SnapshotBufferNegative, CpuRequestStageByteNamingNothingIsRefused) {
  loadPatchedCpu(cpuRecordAt(kCpuIfetchRequestFromEnd) + 28, {6},
                 "ifetch request stage byte 6 names nothing");
}

TEST(SnapshotBufferNegative, CpuDecodedOpPastInvalidIsRefused) {
  const auto past = static_cast<std::uint8_t>(
      static_cast<unsigned>(soc::Op::Invalid) + 1);
  loadPatchedCpu(cpuRecordAt(kCpuLoadInstrFromEnd), {past, 0},
                 "load instruction op " + std::to_string(past) +
                     " names nothing");
  loadPatchedCpu(cpuRecordAt(kCpuPendingStoreFromEnd), {0, 1},
                 "pending store op 256 names nothing");
}

// The core indexes its 32-entry register file with these as they come:
// a pending store with rt 200 would read past it on the next edge.

TEST(SnapshotBufferNegative, CpuRsIndexPastTheRegisterFileIsRefused) {
  loadPatchedCpu(cpuRecordAt(kCpuLoadInstrFromEnd) + 2, {32},
                 "load instruction rs 32 is no register");
}

TEST(SnapshotBufferNegative, CpuRtIndexPastTheRegisterFileIsRefused) {
  loadPatchedCpu(cpuRecordAt(kCpuPendingStoreFromEnd) + 3, {200},
                 "pending store rt 200 is no register");
}

TEST(SnapshotBufferNegative, CpuRdIndexPastTheRegisterFileIsRefused) {
  loadPatchedCpu(cpuRecordAt(kCpuLoadInstrFromEnd) + 4, {0xFF},
                 "load instruction rd 255 is no register");
}

TEST(SnapshotBufferNegative, CpuLoadAddressOutsideItsLineFillIsRefused) {
  // A core waiting on a line fill (cached flag set, four beats) from
  // line 0 whose load address is 0x4000: the loaded word would be read
  // at index 4096 of the four-word payload.
  std::vector<std::uint8_t> buf = haltedCpuSection();
  const std::size_t instr = cpuRecordAt(kCpuLoadInstrFromEnd);
  buf[kCpuStateAt] = 2;  // WaitLoad.
  buf[instr - 1] = 1;
  buf[cpuRecordAt(kCpuLoadRequestFromEnd) + 10] = 4;
  buf[instr + kCpuInstrBytes + 1] = 0x40;
  loadCpu(buf, "load address 16384 lies outside its line fill");
  // Running, the same bytes are the stale fill a cache hit leaves.
  buf[kCpuStateAt] = 0;
  Tl1Soc target{soc::SocConfig{}};
  ckpt::StateReader r(buf);
  EXPECT_NO_THROW(target.cpu().loadState(r));
}

TEST(SnapshotBufferNegative, TrailingGarbageIsRejected) {
  Blob blob;
  std::vector<std::uint8_t> buf = blobBuffer(blob);
  buf.push_back(0x00);
  expectRefusal([&] { ckpt::Snapshot::deserialize(buf); },
                "trailing bytes");
}

TEST(SnapshotBufferNegative, VersionSkewThroughTheBufferPath) {
  // A snapshot written by a "newer" component layout must be refused
  // by name when adopted through deserialize + loadAll.
  Blob writer;
  ckpt::CheckpointRegistry newer;
  newer.add("blob", writer, Blob::kCkptVersion + 1);
  const std::vector<std::uint8_t> buf = newer.saveAll().serialize();

  Blob reader;
  ckpt::CheckpointRegistry current;
  current.add("blob", reader);
  const ckpt::Snapshot snap = ckpt::Snapshot::deserialize(buf);
  expectRefusal([&] { current.loadAll(snap); }, "'blob' version skew");
}

TEST(SnapshotBufferNegative, MissingSectionAndShortPayloadAreNamed) {
  Blob blob;
  ckpt::CheckpointRegistry reg;
  reg.add("blob", blob);

  // A snapshot without the component's tag.
  ckpt::Snapshot empty;
  expectRefusal([&] { reg.loadAll(empty); },
                "no section for component 'blob'");

  // A section whose payload is one byte short: loadState runs off the
  // end and the reader reports the truncation, not garbage values.
  ckpt::Snapshot snap = reg.saveAll();
  ckpt::Snapshot shortPayload;
  std::vector<std::uint8_t> payload = snap.sections().front().payload;
  ASSERT_FALSE(payload.empty());
  payload.pop_back();
  shortPayload.addSection("blob", Blob::kCkptVersion, payload);
  expectRefusal([&] { reg.loadAll(shortPayload); }, "truncated");

  // A section with surplus payload: the component must consume its
  // bytes exactly, and the surplus is reported per component.
  ckpt::Snapshot longPayload;
  payload = snap.sections().front().payload;
  payload.push_back(0xAB);
  longPayload.addSection("blob", Blob::kCkptVersion, payload);
  expectRefusal([&] { reg.loadAll(longPayload); },
                "left 1 unread payload bytes");
}

} // namespace
} // namespace sct
