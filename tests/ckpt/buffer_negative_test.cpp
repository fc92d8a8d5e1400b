// Negative paths of the in-memory Snapshot buffer API: every way a
// byte stream can be malformed must land in a CheckpointError with a
// message naming the problem — never silent corruption, never UB. The
// eh intermittent runner restores from these buffers thousands of
// times per sweep, so "garbage in, exception out" is a load-bearing
// contract, exercised here byte-surgically (bad magic, bad format
// version, truncation at every prefix, oversized/undersized section
// length fields, trailing garbage, duplicate section tags, and
// registry-level version skew through the buffer path).
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "ckpt/checkpoint.h"
#include "obs/ledger.h"

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
  return reg.saveAll().saveToBuffer();
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
  expectRefusal([&] { ckpt::Snapshot::loadFromBuffer(buf); }, "bad magic");
}

TEST(SnapshotBufferNegative, UnsupportedFormatVersionIsRejected) {
  Blob blob;
  std::vector<std::uint8_t> buf = blobBuffer(blob);
  // The u32 after the 8-byte magic is the format version (LE).
  buf[8] = 0x7F;
  expectRefusal([&] { ckpt::Snapshot::loadFromBuffer(buf); },
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
    EXPECT_THROW(ckpt::Snapshot::loadFromBuffer(cut),
                 ckpt::CheckpointError);
  }
  // The full buffer parses (the loop above really covered everything).
  EXPECT_NO_THROW(ckpt::Snapshot::loadFromBuffer(buf));
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
  expectRefusal([&] { ckpt::Snapshot::loadFromBuffer(oversized); },
                "truncated");

  // Near 4 GiB: refused before the payload buffer is sized (the
  // section name in the message shows the early length check).
  std::vector<std::uint8_t> huge = buf;
  huge[lenPos] = 0xF0;
  huge[lenPos + 1] = huge[lenPos + 2] = huge[lenPos + 3] = 0xFF;
  expectRefusal([&] { ckpt::Snapshot::loadFromBuffer(huge); },
                "section 'blob' truncated: claims 4294967280 payload bytes");

  // Undersized: the unclaimed payload tail becomes trailing garbage.
  std::vector<std::uint8_t> undersized = buf;
  undersized[lenPos] -= 1;
  expectRefusal([&] { ckpt::Snapshot::loadFromBuffer(undersized); },
                "trailing bytes");
}

TEST(SnapshotBufferNegative, DuplicateSectionTagIsRejected) {
  // Two "blob" sections: find() would silently take the first.
  Blob blob;
  const std::vector<std::uint8_t> one = blobBuffer(blob);
  std::vector<std::uint8_t> two = one;
  two[12] = 2;  // Section count (LE u32 after magic and format).
  two.insert(two.end(), one.begin() + 16, one.end());
  expectRefusal([&] { ckpt::Snapshot::loadFromBuffer(two); },
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

TEST(SnapshotBufferNegative, TrailingGarbageIsRejected) {
  Blob blob;
  std::vector<std::uint8_t> buf = blobBuffer(blob);
  buf.push_back(0x00);
  expectRefusal([&] { ckpt::Snapshot::loadFromBuffer(buf); },
                "trailing bytes");
}

TEST(SnapshotBufferNegative, VersionSkewThroughTheBufferPath) {
  // A snapshot written by a "newer" component layout must be refused
  // by name when adopted through loadFromBuffer + loadAll.
  Blob writer;
  ckpt::CheckpointRegistry newer;
  newer.add("blob", writer, Blob::kCkptVersion + 1);
  const std::vector<std::uint8_t> buf = newer.saveAll().saveToBuffer();

  Blob reader;
  ckpt::CheckpointRegistry current;
  current.add("blob", reader);
  const ckpt::Snapshot snap = ckpt::Snapshot::loadFromBuffer(buf);
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
