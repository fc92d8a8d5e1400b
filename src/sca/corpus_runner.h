// The trace factory: boot once, fork thousands of measured encryptions.
//
// A side-channel corpus needs many traces of the SAME operation under
// varying plaintexts — and the platform boot prefix is identical every
// time. CorpusRunner reuses the ckpt::ForkRunner discipline: one
// parent SoC boots a tiny key-loading firmware to a `break` (halted =
// trivially quiesced) and is snapshotted WITH its power model; every
// trace then restores that snapshot into its worker's recycled rig,
// pokes its plaintext into RAM, resets the ROI profiler, resets the
// core at the firmware's `main` label and runs one encryption.
// Per-trace inputs (plaintext, noise seed, mask seed) are pure
// functions of the corpus seeds and the trace index, the restore plus
// the profiler reset leave nothing of the rig's previous trace behind,
// workers encode their traces to bytes independently, and the writer
// appends the blobs in index order — so the corpus FILE is
// byte-identical for any SCT_THREADS value.
#ifndef SCT_SCA_CORPUS_RUNNER_H
#define SCT_SCA_CORPUS_RUNNER_H

#include <cstdint>
#include <string>

#include "ckpt/fork_runner.h"
#include "obs/stats.h"
#include "power/coeff_table.h"
#include "sca/corpus.h"
#include "soc/assembler.h"
#include "soc/peripherals.h"

namespace sct::sca {

struct CorpusConfig {
  /// Cipher key, loaded by the boot firmware (the attack's target).
  std::uint32_t key[4] = {0x00112233, 0x44556677, 0x8899AABB, 0xCCDDEEFF};
  std::uint64_t traces = 512;

  /// Plaintext i = hash64(plaintextSeed, i, 0/1) — uniform, reproducible.
  std::uint64_t plaintextSeed = 0x5CA0;
  /// Per-trace measurement-noise stream seed (hash64(noiseSeed, i)).
  std::uint64_t noiseSeed = 0xACC3;
  double noiseSigma_fJ = 2.0;

  /// Datapath leak model applied to every fork's coprocessor. With
  /// leak.maskRounds set, each trace gets a fresh mask stream
  /// (hash64(leak.maskSeed, i)) — a masked device re-randomizes per
  /// operation.
  soc::CryptoCoprocessor::LeakConfig leak{0.8, false, 0xD15C};

  std::uint32_t samplesPerTrace = 96;
  std::uint32_t quantDenom = 64;
  std::uint64_t holdCycles = 64;
  /// Traces per generation batch: bounds memory at
  /// batch × (encoded trace size), independent of corpus size.
  std::uint64_t batchTraces = 64;
};

/// One instrumented platform (SoC + power model + ROI profiler); a
/// generate() worker builds one and restores it per trace.
struct TraceRig;

struct GenerateStats {
  std::uint64_t traces = 0;
  std::uint64_t bytes = 0;  ///< Corpus file size.
};

/// Publish generation statistics as obs counters (serve/eh convention).
void publishGenerateObs(const GenerateStats& s, obs::StatsRegistry& reg);

class CorpusRunner {
 public:
  /// Boots the parent (runs the key-loading prelude to its `break`)
  /// and keeps the snapshot. The coefficient table is copied: a runner
  /// outlives any temporary it was constructed from.
  CorpusRunner(const power::SignalEnergyTable& table,
               const CorpusConfig& cfg);

  /// Generate cfg.traces traces into a corpus at `path`, fanning forks
  /// over `threads` workers (1 = sequential reference; the output file
  /// is byte-identical either way).
  GenerateStats generate(const std::string& path, unsigned threads) const;

  /// Run a single fork on a freshly built rig and return its decoded
  /// record — what generate() writes for index i, without touching disk
  /// (the fresh-platform reference the recycled-rig corpus is tested
  /// against).
  TraceRecord runOne(std::uint64_t index) const;

  const CorpusConfig& config() const { return cfg_; }

  /// The deterministic per-trace input derivations, exposed so tests
  /// and the analyzer-verification path can recompute ground truth.
  static void plaintextFor(const CorpusConfig& cfg, std::uint64_t index,
                           std::uint32_t pt[2]);
  static std::uint64_t noiseSeedFor(const CorpusConfig& cfg,
                                    std::uint64_t index);
  static std::uint64_t maskSeedFor(const CorpusConfig& cfg,
                                   std::uint64_t index);

 private:
  /// Capture trace `index` on `rig`, fresh or recycled.
  TraceRecord captureTrace(TraceRig& rig, const ckpt::Snapshot& snap,
                           std::uint64_t index) const;

  power::SignalEnergyTable table_;
  CorpusConfig cfg_;
  soc::AssembledProgram program_;
  ckpt::ForkRunner fork_;
};

} // namespace sct::sca

#endif // SCT_SCA_CORPUS_RUNNER_H
