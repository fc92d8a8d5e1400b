// In-memory Snapshot round trip (serialize / deserialize).
//
// These tests pin down that the in-memory bytes are BYTE-IDENTICAL to
// the on-disk format — the same bytes saveFile writes and loadFile
// parses — using both a freshly built SoC checkpoint and the
// checked-in golden boot file.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "bus/tl1_bus.h"
#include "ckpt/checkpoint.h"
#include "soc/assembler.h"
#include "soc/smartcard.h"

namespace sct {
namespace {

using Tl1Soc = soc::SmartCardSoC<bus::Tl1Bus>;

const std::string kGoldenPath =
    std::string(SCT_TEST_DATA_DIR) + "/ckpt/golden_boot.sctck";

std::vector<std::uint8_t> readFileBytes(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return {};
  std::vector<std::uint8_t> bytes;
  std::uint8_t chunk[4096];
  std::size_t n = 0;
  while ((n = std::fread(chunk, 1, sizeof(chunk), f)) > 0) {
    bytes.insert(bytes.end(), chunk, chunk + n);
  }
  std::fclose(f);
  return bytes;
}

ckpt::Snapshot bootSnapshot() {
  constexpr const char* kProgram = R"(
      li   $s2, 0x08000000
      addiu $t0, $zero, 123
      sw   $t0, 0($s2)
      break
  )";
  Tl1Soc soc{soc::SocConfig{}};
  soc.loadProgram(soc::assemble(kProgram, soc::memmap::kRomBase));
  EXPECT_TRUE(soc.run());
  return soc.checkpoint();
}

TEST(SnapshotBuffer, RoundTripPreservesEverySection) {
  const ckpt::Snapshot snap = bootSnapshot();
  const std::vector<std::uint8_t> buf = snap.serialize();
  const ckpt::Snapshot back = ckpt::Snapshot::deserialize(buf);

  ASSERT_EQ(back.sections().size(), snap.sections().size());
  for (std::size_t i = 0; i < snap.sections().size(); ++i) {
    EXPECT_EQ(back.sections()[i].tag, snap.sections()[i].tag);
    EXPECT_EQ(back.sections()[i].version, snap.sections()[i].version);
    EXPECT_EQ(back.sections()[i].payload, snap.sections()[i].payload);
  }
  // Re-serializing the parsed snapshot reproduces the identical bytes.
  EXPECT_EQ(back.serialize(), buf);
}

TEST(SnapshotBuffer, BufferBytesMatchOnDiskFormat) {
  const ckpt::Snapshot snap = bootSnapshot();
  const std::string path = ::testing::TempDir() + "sct_buffer_roundtrip.sctck";
  snap.saveFile(path);
  const std::vector<std::uint8_t> onDisk = readFileBytes(path);
  std::remove(path.c_str());

  ASSERT_FALSE(onDisk.empty());
  EXPECT_EQ(snap.serialize(), onDisk)
      << "serialize and saveFile diverged: the in-memory path is no "
         "longer the on-disk format";
}

TEST(SnapshotBuffer, GoldenFileLoadsFromRawBytes) {
  // The checked-in golden boot checkpoint must parse identically via
  // loadFile and via deserialize of the raw file bytes.
  const std::vector<std::uint8_t> raw = readFileBytes(kGoldenPath);
  ASSERT_FALSE(raw.empty()) << "golden file missing: " << kGoldenPath;

  const ckpt::Snapshot viaFile = ckpt::Snapshot::loadFile(kGoldenPath);
  const ckpt::Snapshot viaBuffer = ckpt::Snapshot::deserialize(raw);

  ASSERT_EQ(viaBuffer.sections().size(), viaFile.sections().size());
  for (std::size_t i = 0; i < viaFile.sections().size(); ++i) {
    EXPECT_EQ(viaBuffer.sections()[i].tag, viaFile.sections()[i].tag);
    EXPECT_EQ(viaBuffer.sections()[i].payload,
              viaFile.sections()[i].payload);
  }
  EXPECT_EQ(viaBuffer.serialize(), raw)
      << "golden bytes did not survive a buffer round trip";
}

TEST(SnapshotBuffer, TruncatedBufferIsRejected) {
  const std::vector<std::uint8_t> buf = bootSnapshot().serialize();
  std::vector<std::uint8_t> cut(buf.begin(), buf.begin() + buf.size() / 2);
  EXPECT_THROW(ckpt::Snapshot::deserialize(cut), ckpt::CheckpointError);
}

} // namespace
} // namespace sct
