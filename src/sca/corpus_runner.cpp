#include "sca/corpus_runner.h"

#include <algorithm>
#include <vector>

#include "ckpt/checkpoint.h"
#include "power/card_rig.h"
#include "sca/capture.h"
#include "sim/parallel_runner.h"
#include "sim/rng.h"

namespace sct::sca {

namespace {

/// The measured-encryption firmware. The prelude loads the session key
/// (immediates baked into the image — on a real card it would arrive
/// over the ISO 7816 link long before the attacker's window) and halts;
/// that halt is the fork point. `main` is the per-trace entry: one
/// plaintext from RAM, one coprocessor operation, ciphertext back to
/// RAM, then a padding loop so the bus keeps clocking until the ROI
/// capture window is guaranteed full.
soc::AssembledProgram buildFirmware(const std::uint32_t key[4]) {
  std::string src = R"(
    li    $s1, 0x08000000      # RAM base
    li    $s2, 0x10000400      # crypto SFR base
)";
  for (int k = 0; k < 4; ++k) {
    src += "    li    $t0, " + std::to_string(key[k]) + "\n";
    src += "    sw    $t0, " + std::to_string(4 * k) + "($s2)\n";
  }
  src += R"(
    break

  main:
    li    $s1, 0x08000000
    li    $s2, 0x10000400
    lw    $t0, 0x20($s1)
    sw    $t0, 0x10($s2)       # DATA0 <- plaintext[0]
    lw    $t0, 0x24($s1)
    sw    $t0, 0x14($s2)       # DATA1 <- plaintext[1]
    addiu $t0, $zero, 1
    sw    $t0, 0x18($s2)       # CTRL: encrypt
  cwait:
    lw    $t0, 0x1C($s2)
    bnez  $t0, cwait
    lw    $t0, 0x10($s2)
    sw    $t0, 0x28($s1)       # ciphertext[0]
    lw    $t0, 0x14($s2)
    sw    $t0, 0x2C($s1)       # ciphertext[1]
    li    $t1, 96
  pad:
    addiu $t1, $t1, -1
    bnez  $t1, pad
    break
)";
  return soc::assemble(src, soc::memmap::kRomBase);
}

CaptureConfig capFor(const CorpusConfig& cfg) {
  CaptureConfig cap;
  cap.samplesPerTrace = cfg.samplesPerTrace;
  cap.holdCycles = cfg.holdCycles;
  cap.noiseSigma_fJ = cfg.noiseSigma_fJ;
  cap.quantDenom = cfg.quantDenom;
  return cap;
}

} // namespace

/// One instrumented platform: a power::CardRig (SoC + power model +
/// registry over the SoC's sections and "pm") plus the ROI profiler.
/// The profiler is NOT checkpointed: it is per-trace scratch state,
/// reset by beginTrace().
struct TraceRig {
  power::CardRig card;
  RoiProfiler profiler;

  TraceRig(const power::SignalEnergyTable& table,
           const soc::AssembledProgram& program, const CaptureConfig& cap)
      : card(table, program),
        profiler(card.pm, card.soc.crypto(),
                 {{soc::memmap::kCryptoBase, soc::memmap::kSfrWindow}},
                 cap) {
    // Added after the power model: the profiler reads the model's
    // per-cycle energy at busCycleEnd, which is only final if the
    // model's own busCycleEnd ran first.
    card.soc.bus().addObserver(profiler);
  }
};

void publishGenerateObs(const GenerateStats& s, obs::StatsRegistry& reg) {
  reg.counter("sca.traces").add(s.traces);
  reg.counter("sca.corpus_bytes").add(s.bytes);
}

CorpusRunner::CorpusRunner(const power::SignalEnergyTable& table,
                           const CorpusConfig& cfg)
    : table_(table),
      cfg_(cfg),
      program_(buildFirmware(cfg.key)),
      boot_([&] {
        TraceRig parent(table_, program_, capFor(cfg));
        if (!parent.card.soc.run(500'000)) {
          throw CorpusError(
              "CorpusRunner: boot firmware did not reach its fork point");
        }
        return parent.card.registry.saveAll();
      }()) {}

void CorpusRunner::plaintextFor(const CorpusConfig& cfg, std::uint64_t index,
                                std::uint32_t pt[2]) {
  pt[0] = static_cast<std::uint32_t>(sim::hash64(cfg.plaintextSeed, index, 0));
  pt[1] = static_cast<std::uint32_t>(sim::hash64(cfg.plaintextSeed, index, 1));
}

std::uint64_t CorpusRunner::noiseSeedFor(const CorpusConfig& cfg,
                                         std::uint64_t index) {
  return sim::hash64(cfg.noiseSeed, index);
}

std::uint64_t CorpusRunner::maskSeedFor(const CorpusConfig& cfg,
                                        std::uint64_t index) {
  // A masked device draws fresh randomness per operation; each trace
  // gets its own mask stream so masks never repeat across the corpus.
  return sim::hash64(cfg.leak.maskSeed, index);
}

TraceRecord CorpusRunner::captureTrace(TraceRig& rig,
                                       std::uint64_t index) const {
  // The rig may have run other traces: the recycle rewinds every
  // checkpointed section, and the per-trace state the snapshot does not
  // carry — plaintext, mask stream, profiler — is set below.
  rig.card.recycle(boot_);
  power::CardRig::Soc& soc = rig.card.soc;

  TraceRecord rec;
  for (int k = 0; k < 4; ++k) rec.meta.key[k] = cfg_.key[k];
  plaintextFor(cfg_, index, rec.meta.plaintext);
  rec.meta.noiseSeed = noiseSeedFor(cfg_, index);

  soc.ram().pokeWord(soc::memmap::kRamBase + 0x20, rec.meta.plaintext[0]);
  soc.ram().pokeWord(soc::memmap::kRamBase + 0x24, rec.meta.plaintext[1]);

  soc::CryptoCoprocessor::LeakConfig leak = cfg_.leak;
  leak.maskSeed = maskSeedFor(cfg_, index);
  soc.crypto().setLeakModel(leak);

  rig.profiler.beginTrace(rec.meta.noiseSeed);
  // reset() clears registers, pipeline and caches to their power-on
  // state — every fork enters `main` from the identical micro-state,
  // which is what makes traces align cycle-for-cycle.
  soc.cpu().reset(program_.label("main"));
  if (!soc.run(200'000)) {
    throw CorpusError("sca trace " + std::to_string(index) +
                      ": firmware did not halt");
  }
  if (!rig.profiler.done()) {
    throw CorpusError(
        "sca trace " + std::to_string(index) + ": ROI capture incomplete (" +
        std::to_string(rig.profiler.samples().size()) + " of " +
        std::to_string(cfg_.samplesPerTrace) + " samples)");
  }
  rec.meta.ciphertext[0] = soc.ram().peekWord(soc::memmap::kRamBase + 0x28);
  rec.meta.ciphertext[1] = soc.ram().peekWord(soc::memmap::kRamBase + 0x2C);
  rec.samples = rig.profiler.samples();
  return rec;
}

TraceRecord CorpusRunner::runOne(std::uint64_t index) const {
  TraceRig rig(table_, program_, capFor(cfg_));
  return captureTrace(rig, index);
}

GenerateStats CorpusRunner::generate(const std::string& path,
                                     unsigned threads) const {
  CorpusHeader hdr;
  hdr.samplesPerTrace = cfg_.samplesPerTrace;
  hdr.quantDenom = cfg_.quantDenom;
  TraceCorpusWriter writer(path, hdr);

  GenerateStats stats;
  std::vector<std::vector<std::uint8_t>> blobs;
  for (std::uint64_t base = 0; base < cfg_.traces;
       base += cfg_.batchTraces) {
    const std::uint64_t n =
        std::min<std::uint64_t>(cfg_.batchTraces, cfg_.traces - base);
    blobs.assign(static_cast<std::size_t>(n), {});
    sim::runWorkers(
        static_cast<std::size_t>(n), threads,
        [&] { return TraceRig(table_, program_, capFor(cfg_)); },
        [&](TraceRig& rig, std::size_t i) {
          blobs[i] =
              encodeTrace(captureTrace(rig, base + i), cfg_.samplesPerTrace);
        });
    // Index-ordered append: the file's bytes are independent of which
    // worker finished first.
    for (const std::vector<std::uint8_t>& b : blobs) writer.appendEncoded(b);
  }
  writer.close();
  stats.traces = writer.tracesWritten();
  stats.bytes = writer.bytesWritten();
  return stats;
}

} // namespace sct::sca
