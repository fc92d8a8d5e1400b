// Negative paths of the in-memory Snapshot buffer API: every way a
// byte stream can be malformed must land in a CheckpointError with a
// message naming the problem — never silent corruption, never UB. The
// eh intermittent runner restores from these buffers thousands of
// times per sweep, so "garbage in, exception out" is a load-bearing
// contract, exercised here byte-surgically (bad magic, bad format
// version, truncation at every prefix, oversized/undersized section
// length fields, trailing garbage, duplicate section tags,
// registry-level version skew through the buffer path, pm section
// fields that would index past the signal frame or the ledger, TL2
// model and TL2 bus sections of their previous layouts, hybrid-bus
// fidelity bytes that name no layer, and replay-master payload stage
// and result bytes that name nothing a saved payload can hold).
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "../testbench.h"
#include "bus/ec_signals.h"
#include "bus/tl2_bus.h"
#include "ckpt/checkpoint.h"
#include "hier/hybrid_bus.h"
#include "obs/ledger.h"
#include "power/tl1_power_model.h"
#include "power/tl2_power_model.h"
#include "sim/clock.h"
#include "sim/kernel.h"

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
/// Byte offsets follow its section layout: the frame and shadow lanes,
/// then the dirty, strobe-set and pending-low masks, the transition
/// counts, three energy accumulators, and the owner classes.
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

constexpr std::size_t kPmMasksAt = 2 * 8 * bus::kSignalCount;
constexpr std::size_t kPmOwnerClassAt =
    kPmMasksAt + 3 * 4 + 8 * bus::kSignalCount + 3 * 8;

TEST(SnapshotBufferNegative, PmDirtyBitBeyondTheFrameIsRejected) {
  loadPatchedPm(kPmMasksAt, {0, 0, 0x10, 0}, "signal mask names no bundle");
}

TEST(SnapshotBufferNegative, PmStrobeSetBitBeyondTheFrameIsRejected) {
  loadPatchedPm(kPmMasksAt + 4, {0, 0, 0, 0x01},
                "signal mask names no bundle");
}

TEST(SnapshotBufferNegative, PmPendingLowBitBeyondTheFrameIsRejected) {
  loadPatchedPm(kPmMasksAt + 8, {0, 0, 0, 0x80},
                "signal mask names no bundle");
}

TEST(SnapshotBufferNegative, PmOwnerClassOutOfRangeIsRejected) {
  loadPatchedPm(kPmOwnerClassAt, {200}, "owner class out of range");
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
