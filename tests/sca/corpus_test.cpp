// The trace-corpus format contract: lossless roundtrip, a golden file
// pinning the byte layout (SCT_REGEN_GOLDEN=1 regenerates), and the
// full refusal matrix — bad magic, version skew, truncation at every
// prefix, trailing bytes, corrupt sample payloads. The format is the
// interchange between the trace factory and the attack harness; a
// silent decode error would corrupt an analysis without a trace, so
// every malformed input must land in a CorpusError naming the problem.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "sca/corpus.h"
#include "sim/rng.h"

namespace sct {
namespace {

const std::string kGoldenPath =
    std::string(SCT_TEST_DATA_DIR) + "/sca/golden_tiny.sctcorp";

bool regenRequested() {
  const char* env = std::getenv("SCT_REGEN_GOLDEN");
  return env != nullptr && env[0] != '\0' && env[0] != '0';
}

std::string tempPath(const std::string& name) {
  return ::testing::TempDir() + name;
}

std::vector<std::uint8_t> readFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  return std::vector<std::uint8_t>(std::istreambuf_iterator<char>(in),
                                   std::istreambuf_iterator<char>());
}

void writeFile(const std::string& path, const std::vector<std::uint8_t>& b) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(b.data()),
            static_cast<std::streamsize>(b.size()));
  ASSERT_TRUE(out.good()) << path;
}

/// EXPECT_THROW plus a substring check on the message.
template <typename Fn>
void expectRefusal(Fn&& fn, const std::string& needle) {
  try {
    fn();
    FAIL() << "expected CorpusError containing '" << needle << "'";
  } catch (const sca::CorpusError& e) {
    EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
        << "actual message: " << e.what();
  }
}

/// Drain a corpus file completely (forces every decode path).
std::vector<sca::TraceRecord> drain(const std::string& path) {
  sca::TraceCorpusReader reader(path);
  std::vector<sca::TraceRecord> out;
  sca::TraceRecord rec;
  while (reader.next(rec)) out.push_back(rec);
  return out;
}

/// The pinned tiny corpus: three 8-sample traces with every field
/// exercised (negative deltas, zero samples, large jumps), derived
/// from fixed hashes so the bytes never depend on anything but the
/// format code itself.
void writeTinyCorpus(const std::string& path) {
  sca::CorpusHeader hdr;
  hdr.samplesPerTrace = 8;
  hdr.quantDenom = 64;
  sca::TraceCorpusWriter writer(path, hdr);
  for (std::uint64_t i = 0; i < 3; ++i) {
    sca::TraceRecord rec;
    for (int k = 0; k < 4; ++k) {
      rec.meta.key[k] =
          static_cast<std::uint32_t>(sim::hash64(1, i, static_cast<std::uint64_t>(k)));
    }
    rec.meta.plaintext[0] = static_cast<std::uint32_t>(sim::hash64(2, i, 0));
    rec.meta.plaintext[1] = static_cast<std::uint32_t>(sim::hash64(2, i, 1));
    rec.meta.ciphertext[0] = static_cast<std::uint32_t>(sim::hash64(3, i, 0));
    rec.meta.ciphertext[1] = static_cast<std::uint32_t>(sim::hash64(3, i, 1));
    rec.meta.noiseSeed = sim::hash64(4, i);
    rec.samples = {0,
                   static_cast<std::int64_t>(100 + 10 * i),
                   -64,
                   1 << 20,
                   (1 << 20) + 1,
                   0,
                   static_cast<std::int64_t>(i),
                   -1};
    writer.append(rec);
  }
  writer.close();
}

TEST(ScaCorpus, RoundtripPreservesEverything) {
  const std::string path = tempPath("sca_roundtrip.sctcorp");
  sca::CorpusHeader hdr;
  hdr.samplesPerTrace = 16;
  hdr.quantDenom = 32;

  std::vector<sca::TraceRecord> written;
  {
    sca::TraceCorpusWriter writer(path, hdr);
    sim::SplitMix64 rng(0xC0FFEE);
    for (std::uint64_t i = 0; i < 20; ++i) {
      sca::TraceRecord rec;
      for (std::uint32_t& k : rec.meta.key) {
        k = static_cast<std::uint32_t>(rng());
      }
      for (std::uint32_t& p : rec.meta.plaintext) {
        p = static_cast<std::uint32_t>(rng());
      }
      for (std::uint32_t& c : rec.meta.ciphertext) {
        c = static_cast<std::uint32_t>(rng());
      }
      rec.meta.noiseSeed = rng();
      for (unsigned s = 0; s < hdr.samplesPerTrace; ++s) {
        // Signed, wildly varying samples: the zigzag-varint path must
        // cope with sign flips and multi-byte deltas.
        rec.samples.push_back(static_cast<std::int64_t>(rng() % 100000) -
                              50000);
      }
      written.push_back(rec);
      writer.append(rec);
    }
    EXPECT_EQ(writer.tracesWritten(), 20u);
    writer.close();
    EXPECT_EQ(writer.bytesWritten(), readFile(path).size());
  }

  sca::TraceCorpusReader reader(path);
  EXPECT_EQ(reader.header().samplesPerTrace, 16u);
  EXPECT_EQ(reader.header().quantDenom, 32u);
  EXPECT_EQ(reader.header().traceCount, 20u);

  const std::vector<sca::TraceRecord> got = drain(path);
  ASSERT_EQ(got.size(), written.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    SCOPED_TRACE(i);
    for (int k = 0; k < 4; ++k) {
      EXPECT_EQ(got[i].meta.key[k], written[i].meta.key[k]);
    }
    for (int k = 0; k < 2; ++k) {
      EXPECT_EQ(got[i].meta.plaintext[k], written[i].meta.plaintext[k]);
      EXPECT_EQ(got[i].meta.ciphertext[k], written[i].meta.ciphertext[k]);
    }
    EXPECT_EQ(got[i].meta.noiseSeed, written[i].meta.noiseSeed);
    EXPECT_EQ(got[i].samples, written[i].samples);
  }
}

TEST(ScaCorpus, EncodeTraceRejectsWrongSampleCount) {
  sca::TraceRecord rec;
  rec.samples = {1, 2, 3};
  expectRefusal([&] { sca::encodeTrace(rec, 8); }, "3 samples");
}

TEST(ScaCorpus, AppendAfterCloseIsRejected) {
  const std::string path = tempPath("sca_closed.sctcorp");
  sca::CorpusHeader hdr;
  hdr.samplesPerTrace = 1;
  sca::TraceCorpusWriter writer(path, hdr);
  sca::TraceRecord rec;
  rec.samples = {7};
  writer.append(rec);
  writer.close();
  expectRefusal([&] { writer.append(rec); }, "already closed");
}

TEST(ScaCorpus, GoldenTinyCorpusIsByteStable) {
  const std::string fresh = tempPath("sca_golden_fresh.sctcorp");
  writeTinyCorpus(fresh);
  if (regenRequested()) {
    writeTinyCorpus(kGoldenPath);
    GTEST_SKIP() << "regenerated " << kGoldenPath;
  }
  const std::vector<std::uint8_t> expected = readFile(kGoldenPath);
  const std::vector<std::uint8_t> actual = readFile(fresh);
  ASSERT_FALSE(expected.empty());
  // Byte-for-byte: any layout change must be deliberate (bump
  // kCorpusFormatVersion, regenerate with SCT_REGEN_GOLDEN=1).
  EXPECT_EQ(actual, expected);
  // And the golden file itself must decode.
  EXPECT_EQ(drain(kGoldenPath).size(), 3u);
}

TEST(ScaCorpusNegative, MissingFileIsRejected) {
  expectRefusal([&] { sca::TraceCorpusReader r(tempPath("nope.sctcorp")); },
                "cannot open corpus");
}

TEST(ScaCorpusNegative, BadMagicIsRejected) {
  const std::string path = tempPath("sca_badmagic.sctcorp");
  writeTinyCorpus(path);
  std::vector<std::uint8_t> bytes = readFile(path);
  bytes[0] ^= 0xFF;
  writeFile(path, bytes);
  expectRefusal([&] { sca::TraceCorpusReader r(path); }, "bad magic");
}

TEST(ScaCorpusNegative, VersionSkewIsRejected) {
  const std::string path = tempPath("sca_badver.sctcorp");
  writeTinyCorpus(path);
  std::vector<std::uint8_t> bytes = readFile(path);
  bytes[8] = 0x7F;  // u32 version straight after the 8-byte magic (LE).
  writeFile(path, bytes);
  expectRefusal([&] { sca::TraceCorpusReader r(path); },
                "unsupported corpus format version 127");
}

TEST(ScaCorpusNegative, ZeroQuantDenomIsRejected) {
  const std::string path = tempPath("sca_badquant.sctcorp");
  writeTinyCorpus(path);
  std::vector<std::uint8_t> bytes = readFile(path);
  for (int i = 0; i < 4; ++i) bytes[16 + i] = 0;  // quantDenom field.
  writeFile(path, bytes);
  expectRefusal([&] { sca::TraceCorpusReader r(path); },
                "quantDenom is zero");
}

TEST(ScaCorpusNegative, EveryTruncationPointIsRejected) {
  const std::string path = tempPath("sca_full.sctcorp");
  writeTinyCorpus(path);
  const std::vector<std::uint8_t> bytes = readFile(path);
  const std::string cut = tempPath("sca_cut.sctcorp");
  // Chopping the stream anywhere short of complete must throw — the
  // reader may not accept a partial header, metadata block or payload.
  for (std::size_t n = 0; n < bytes.size(); ++n) {
    SCOPED_TRACE(n);
    writeFile(cut, std::vector<std::uint8_t>(bytes.begin(),
                                             bytes.begin() + n));
    EXPECT_THROW(drain(cut), sca::CorpusError);
  }
}

TEST(ScaCorpusNegative, TrailingBytesAreRejected) {
  const std::string path = tempPath("sca_trailing.sctcorp");
  writeTinyCorpus(path);
  std::vector<std::uint8_t> bytes = readFile(path);
  bytes.push_back(0xAB);
  writeFile(path, bytes);
  expectRefusal([&] { drain(path); }, "trailing bytes after trace 3");
}

TEST(ScaCorpusNegative, SurplusPayloadBytesAreRejected) {
  const std::string path = tempPath("sca_surplus.sctcorp");
  // One trace, one sample of value 0 (one payload byte)... but the
  // record claims two payload bytes, so one is left over after the
  // last sample decodes.
  sca::CorpusHeader hdr;
  hdr.samplesPerTrace = 1;
  {
    sca::TraceCorpusWriter writer(path, hdr);
    sca::TraceRecord rec;
    rec.samples = {0};
    writer.append(rec);
    writer.close();
  }
  std::vector<std::uint8_t> bytes = readFile(path);
  // Header (32) + key/pt/ct/seed meta (40) then u32 payloadBytes:
  // patch 1 -> 2 and append the surplus byte.
  ASSERT_EQ(bytes[32 + 40], 1u);
  bytes[32 + 40] = 2;
  bytes.push_back(0x00);
  writeFile(path, bytes);
  expectRefusal([&] { drain(path); }, "surplus payload bytes");
}

TEST(ScaCorpusNegative, PayloadEndingMidVarintIsRejected) {
  const std::string path = tempPath("sca_midvarint.sctcorp");
  sca::CorpusHeader hdr;
  hdr.samplesPerTrace = 1;
  {
    sca::TraceCorpusWriter writer(path, hdr);
    sca::TraceRecord rec;
    rec.samples = {0};
    writer.append(rec);
    writer.close();
  }
  std::vector<std::uint8_t> bytes = readFile(path);
  // Set the continuation bit on the only payload byte (header 32 +
  // fixed per-trace block 44): the varint now promises a byte the
  // payload does not contain.
  bytes[32 + 44] |= 0x80;
  writeFile(path, bytes);
  expectRefusal([&] { drain(path); }, "mid-varint");
}

/// A one-trace corpus file: `samples` zero-valued samples (one payload
/// byte each), so the file is exactly 32 + 44 + samples bytes long.
std::vector<std::uint8_t> oneTraceCorpus(const std::string& path,
                                         std::uint32_t samples) {
  sca::CorpusHeader hdr;
  hdr.samplesPerTrace = samples;
  {
    sca::TraceCorpusWriter writer(path, hdr);
    sca::TraceRecord rec;
    rec.samples.assign(samples, 0);
    writer.append(rec);
    writer.close();
  }
  std::vector<std::uint8_t> bytes = readFile(path);
  EXPECT_EQ(bytes.size(), 32u + 44u + samples);
  return bytes;
}

void putU32At(std::vector<std::uint8_t>& b, std::size_t at, std::uint32_t v) {
  for (std::size_t i = 0; i < 4; ++i) {
    b[at + i] = static_cast<std::uint8_t>(v >> (8 * i));
  }
}

TEST(ScaCorpusNegative, HeaderPromisingMoreThanTheFileIsRejectedAtOpen) {
  const std::string path = tempPath("sca_bighdr.sctcorp");
  std::vector<std::uint8_t> bytes = oneTraceCorpus(path, 4);
  // samplesPerTrace (offset 12) and traceCount (offset 24) both size
  // allocations downstream (sample vectors, the analyzer's per-sample
  // moments); each trace costs at least 44 + samplesPerTrace bytes.
  putU32At(bytes, 12, 0xFFFFFFFFu);
  writeFile(path, bytes);
  expectRefusal([&] { sca::TraceCorpusReader r(path); }, "bytes follow");

  bytes = oneTraceCorpus(path, 4);
  bytes[24] = 2;  // Two traces claimed, one present.
  writeFile(path, bytes);
  expectRefusal([&] { sca::TraceCorpusReader r(path); }, "bytes follow");
}

TEST(ScaCorpusNegative, PayloadLengthIsCheckedBeforeReading) {
  // u32 payloadBytes sits at 32 + 40. Claiming more than the file still
  // holds must be refused before a buffer of that size exists...
  const std::string path = tempPath("sca_bigpayload.sctcorp");
  std::vector<std::uint8_t> bytes = oneTraceCorpus(path, 4);
  putU32At(bytes, 32 + 40, 1u << 20);
  writeFile(path, bytes);
  expectRefusal([&] { drain(path); }, "only 4 remain");

  // ...and so must more than ten bytes (the longest varint) per sample,
  // even when the file does hold them.
  bytes = oneTraceCorpus(path, 4);
  putU32At(bytes, 32 + 40, 41);
  bytes.resize(bytes.size() + 37, 0x00);
  writeFile(path, bytes);
  expectRefusal([&] { drain(path); }, "more than 10 per sample");
}

} // namespace
} // namespace sct
