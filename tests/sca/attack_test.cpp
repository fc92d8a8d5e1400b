// The headline contracts of the sca subsystem, asserted end-to-end:
//  * a CPA attack on an UNPROTECTED device recovers the round-0 key
//    byte (rank 0) within the corpus, and stays recovered;
//  * the SAME attack on the SAME corpus size against the MASKED device
//    does not recover it — the countermeasure measurably works;
//  * the corpus file is byte-identical whether generated with 1 thread
//    or many (the SCT_THREADS contract), and every record in it equals
//    the one a freshly built rig captures;
//  * the analyzer ranking is bit-identical for any chunk size and any
//    thread count (exact integer accumulators);
//  * trace metadata is faithful: plaintexts follow the documented
//    derivation and ciphertexts match the software reference cipher.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "power/coeff_table.h"
#include "sca/analyzer.h"
#include "sca/corpus.h"
#include "sca/corpus_runner.h"
#include "soc/peripherals.h"

namespace sct {
namespace {

power::SignalEnergyTable fixedTable() {
  power::SignalEnergyTable t;
  for (std::size_t i = 0; i < bus::kSignalCount; ++i) {
    t.setCoeff_fJ(static_cast<bus::SignalId>(i),
                  1.5 + 0.25 * static_cast<double>(i));
  }
  return t;
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

/// The validated operating point: 0.8 fJ/bit of datapath leak under
/// 2 fJ of Gaussian-ish noise — the unprotected attack converges in a
/// few hundred traces.
sca::CorpusConfig baseConfig(std::uint64_t traces) {
  sca::CorpusConfig cfg;
  cfg.traces = traces;
  cfg.noiseSigma_fJ = 2.0;
  cfg.leak.hdCoeff_fJ = 0.8;
  return cfg;
}

sca::AttackConfig attackConfig() {
  sca::AttackConfig cfg;
  cfg.byteIndex = 0;
  cfg.threads = 2;
  cfg.rankCheckpoints = {100, 200, 300, 400};
  return cfg;
}

TEST(ScaAttack, UnprotectedDeviceLeaksItsKeyByte) {
  const std::string path = tempPath("sca_unprot.sctcorp");
  sca::CorpusRunner runner(fixedTable(), baseConfig(500));
  const sca::GenerateStats stats = runner.generate(path, 4);
  EXPECT_EQ(stats.traces, 500u);

  const sca::AttackResult r = sca::DpaAnalyzer(attackConfig()).analyze(path);
  EXPECT_EQ(r.correctGuess,
            sca::DpaAnalyzer::roundZeroKeyByte(sca::CorpusConfig{}.key, 0));
  // The attack converged: correct guess ranked first at the end...
  EXPECT_EQ(r.finalRank, 0u);
  EXPECT_EQ(r.bestGuess, r.correctGuess);
  // ...and from some checkpoint within the corpus onward.
  const std::uint64_t rec = sca::tracesToRecovery(r);
  EXPECT_NE(rec, 0u);
  EXPECT_LE(rec, 500u);
}

TEST(ScaAttack, MaskingDefeatsTheSameAttack) {
  const std::string path = tempPath("sca_masked.sctcorp");
  sca::CorpusConfig cfg = baseConfig(500);
  cfg.leak.maskRounds = true;
  sca::CorpusRunner runner(fixedTable(), cfg);
  runner.generate(path, 4);

  const sca::AttackResult r = sca::DpaAnalyzer(attackConfig()).analyze(path);
  // Identical corpus size, identical analyzer — but the masked leak
  // carries no usable correlation: the correct byte is NOT ranked
  // first and the curve never settles on it.
  EXPECT_NE(r.finalRank, 0u);
  EXPECT_EQ(sca::tracesToRecovery(r), 0u);
}

TEST(ScaAttack, DifferenceOfMeansModeAlsoRecovers) {
  const std::string path = tempPath("sca_dom.sctcorp");
  sca::CorpusRunner runner(fixedTable(), baseConfig(500));
  runner.generate(path, 4);

  sca::AttackConfig cfg = attackConfig();
  cfg.mode = sca::AttackMode::DifferenceOfMeans;
  const sca::AttackResult r = sca::DpaAnalyzer(cfg).analyze(path);
  EXPECT_EQ(r.finalRank, 0u);
}

TEST(ScaAttack, CorpusBytesAreIdenticalAcrossThreadCounts) {
  sca::CorpusConfig cfg = baseConfig(48);
  cfg.batchTraces = 16;
  sca::CorpusRunner runner(fixedTable(), cfg);

  const std::string p1 = tempPath("sca_t1.sctcorp");
  const std::string p4 = tempPath("sca_t4.sctcorp");
  runner.generate(p1, 1);  // Sequential reference.
  runner.generate(p4, 4);
  const std::vector<std::uint8_t> b1 = readFile(p1);
  ASSERT_FALSE(b1.empty());
  EXPECT_EQ(readFile(p4), b1);

  // And a separately booted runner reproduces the same bytes, too.
  sca::CorpusRunner runner2(fixedTable(), cfg);
  const std::string p2 = tempPath("sca_reboot.sctcorp");
  runner2.generate(p2, 2);
  EXPECT_EQ(readFile(p2), b1);

  // Both runs above recycle one rig per worker; every record must also
  // equal what a freshly built rig captures for its index, so no state
  // leaks from one trace into the next on a shared rig.
  std::size_t offset = 32;  // Past the corpus header.
  for (std::uint64_t i = 0; i < cfg.traces; ++i) {
    SCOPED_TRACE("trace " + std::to_string(i));
    const std::vector<std::uint8_t> rec =
        sca::encodeTrace(runner.runOne(i), cfg.samplesPerTrace);
    ASSERT_LE(offset + rec.size(), b1.size());
    EXPECT_TRUE(std::equal(rec.begin(), rec.end(),
                           b1.begin() + static_cast<std::ptrdiff_t>(offset)));
    offset += rec.size();
  }
  EXPECT_EQ(offset, b1.size());
}

TEST(ScaAttack, RankingIsIndependentOfChunkSizeAndThreads) {
  const std::string path = tempPath("sca_chunks.sctcorp");
  sca::CorpusRunner runner(fixedTable(), baseConfig(200));
  runner.generate(path, 4);

  const auto analyzeWith = [&](std::uint64_t chunk, unsigned threads) {
    sca::AttackConfig cfg;
    cfg.chunkTraces = chunk;
    cfg.threads = threads;
    cfg.rankCheckpoints = {50, 100, 150};
    return sca::DpaAnalyzer(cfg).analyze(path);
  };

  const sca::AttackResult ref = analyzeWith(256, 1);
  for (const auto& [chunk, threads] :
       std::vector<std::pair<std::uint64_t, unsigned>>{
           {17, 4}, {64, 3}, {1, 2}, {200, 8}}) {
    SCOPED_TRACE(chunk);
    const sca::AttackResult alt = analyzeWith(chunk, threads);
    // Exact double equality: the integer moments make the scores
    // bit-identical, not just close.
    for (unsigned g = 0; g < 256; ++g) EXPECT_EQ(alt.scores[g], ref.scores[g]);
    ASSERT_EQ(alt.curve.size(), ref.curve.size());
    for (std::size_t i = 0; i < ref.curve.size(); ++i) {
      EXPECT_EQ(alt.curve[i].traces, ref.curve[i].traces);
      EXPECT_EQ(alt.curve[i].rank, ref.curve[i].rank);
      EXPECT_EQ(alt.curve[i].bestGuess, ref.curve[i].bestGuess);
      EXPECT_EQ(alt.curve[i].bestScore, ref.curve[i].bestScore);
    }
  }
}

TEST(ScaAttack, TraceMetadataIsFaithful) {
  sca::CorpusConfig cfg = baseConfig(8);
  sca::CorpusRunner runner(fixedTable(), cfg);
  const sca::TraceRecord rec = runner.runOne(5);

  std::uint32_t pt[2];
  sca::CorpusRunner::plaintextFor(cfg, 5, pt);
  EXPECT_EQ(rec.meta.plaintext[0], pt[0]);
  EXPECT_EQ(rec.meta.plaintext[1], pt[1]);
  EXPECT_EQ(rec.meta.noiseSeed, sca::CorpusRunner::noiseSeedFor(cfg, 5));

  // The ciphertext the firmware read back over the bus matches the
  // software reference cipher — the whole HW path executed for real.
  std::uint32_t e0 = pt[0];
  std::uint32_t e1 = pt[1];
  soc::CryptoCoprocessor::encryptBlock(cfg.key, e0, e1);
  EXPECT_EQ(rec.meta.ciphertext[0], e0);
  EXPECT_EQ(rec.meta.ciphertext[1], e1);

  EXPECT_EQ(rec.samples.size(), cfg.samplesPerTrace);

  // Re-capturing the same index reproduces the identical trace.
  const sca::TraceRecord again = runner.runOne(5);
  EXPECT_EQ(again.samples, rec.samples);
}

TEST(ScaAttack, AnalyzerRefusesAnEmptyCorpus) {
  const std::string path = tempPath("sca_empty.sctcorp");
  sca::CorpusHeader hdr;
  hdr.samplesPerTrace = 4;
  sca::TraceCorpusWriter writer(path, hdr);
  writer.close();
  EXPECT_THROW(sca::DpaAnalyzer(attackConfig()).analyze(path),
               sca::CorpusError);
}

} // namespace
} // namespace sct
