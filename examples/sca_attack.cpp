// End-to-end differential power analysis against the smart-card crypto
// coprocessor — the paper's power-aware design loop run from the
// attacker's chair.
//
// The program boots the TL1 platform once, forks a few hundred
// measured encryptions from the boot snapshot (random plaintexts,
// shared key), streams their ROI-windowed power traces into a corpus
// file, and then runs the correlation attack: 256 guesses for one byte
// of the round-0 key word, ranked by peak Pearson correlation between
// the predicted datapath toggles and the measured samples. It does the
// whole thing twice — once against the unprotected device, once with
// the coprocessor's boolean masking countermeasure switched on — and
// prints the rank-vs-trace-count curves side by side: the unprotected
// key byte falls out after a few hundred traces; the masked one does
// not.
//
//   ./sca_attack [traces] [noise_sigma_fJ]
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "power/coeff_table.h"
#include "sca/analyzer.h"
#include "sca/corpus.h"
#include "sca/corpus_runner.h"
#include "sim/parallel_runner.h"

using namespace sct;

namespace {

power::SignalEnergyTable syntheticTable() {
  power::SignalEnergyTable t;
  for (std::size_t i = 0; i < bus::kSignalCount; ++i) {
    t.setCoeff_fJ(static_cast<bus::SignalId>(i),
                  1.5 + 0.25 * static_cast<double>(i));
  }
  return t;
}

sca::CorpusConfig baseConfig(std::uint64_t traces, double sigma) {
  sca::CorpusConfig cfg;
  cfg.traces = traces;
  cfg.noiseSigma_fJ = sigma;
  cfg.leak.hdCoeff_fJ = 0.8;
  return cfg;
}

std::vector<std::uint64_t> checkpoints(std::uint64_t traces) {
  std::vector<std::uint64_t> cps;
  for (std::uint64_t c = 50; c < traces; c += 50) cps.push_back(c);
  return cps;
}

sca::AttackResult attack(const std::string& path, unsigned threads,
                         std::uint64_t traces) {
  sca::AttackConfig cfg;
  cfg.byteIndex = 0;
  cfg.threads = threads;
  cfg.rankCheckpoints = checkpoints(traces);
  sca::DpaAnalyzer analyzer(cfg);
  return analyzer.analyze(path);
}

void printCurve(const char* title, const sca::AttackResult& r) {
  std::printf("\n%s\n", title);
  std::printf("  %8s  %6s  %10s  %12s  %12s\n", "traces", "rank",
              "best", "best |r|", "correct |r|");
  for (const sca::RankPoint& p : r.curve) {
    std::printf("  %8llu  %6u  0x%02X %s  %12.4f  %12.4f\n",
                static_cast<unsigned long long>(p.traces), p.rank,
                p.bestGuess, p.rank == 0 ? "<= key" : "      ",
                p.bestScore, p.correctScore);
  }
}

} // namespace

int main(int argc, char** argv) {
  const std::uint64_t traces =
      argc > 1 ? std::strtoull(argv[1], nullptr, 0) : 600;
  const double sigma = argc > 2 ? std::strtod(argv[2], nullptr) : 2.0;
  const unsigned threads = sim::defaultThreadCount();

  const power::SignalEnergyTable table = syntheticTable();

  std::printf("== SPA/DPA attack demo: %llu traces, noise sigma %.2f fJ, "
              "%u threads ==\n",
              static_cast<unsigned long long>(traces), sigma, threads);

  // --- Unprotected device --------------------------------------------
  sca::CorpusConfig plain = baseConfig(traces, sigma);
  sca::CorpusRunner plainRunner(table, plain);
  const std::string plainPath = "sca_unprotected.sctcorp";
  const sca::GenerateStats ps = plainRunner.generate(plainPath, threads);
  std::printf("\ngenerated %llu unprotected traces (%llu bytes, %s)\n",
              static_cast<unsigned long long>(ps.traces),
              static_cast<unsigned long long>(ps.bytes), plainPath.c_str());

  const sca::AttackResult pr = attack(plainPath, threads, traces);
  printCurve("-- unprotected --", pr);

  // --- Masked device -------------------------------------------------
  sca::CorpusConfig masked = baseConfig(traces, sigma);
  masked.leak.maskRounds = true;
  sca::CorpusRunner maskedRunner(table, masked);
  const std::string maskedPath = "sca_masked.sctcorp";
  const sca::GenerateStats ms = maskedRunner.generate(maskedPath, threads);
  std::printf("\ngenerated %llu masked traces (%llu bytes, %s)\n",
              static_cast<unsigned long long>(ms.traces),
              static_cast<unsigned long long>(ms.bytes), maskedPath.c_str());

  const sca::AttackResult mr = attack(maskedPath, threads, traces);
  printCurve("-- masked --", mr);

  // --- Verdict -------------------------------------------------------
  const std::uint64_t rec = sca::tracesToRecovery(pr);
  std::printf("\ncorrect round-0 key byte: 0x%02X\n", pr.correctGuess);
  if (rec != 0) {
    std::printf("unprotected: RECOVERED from %llu traces on\n",
                static_cast<unsigned long long>(rec));
  } else {
    std::printf("unprotected: not recovered (%llu traces insufficient)\n",
                static_cast<unsigned long long>(traces));
  }
  const std::uint64_t mrec = sca::tracesToRecovery(mr);
  if (mrec != 0) {
    std::printf("masked:      recovered from %llu traces on "
                "(masking defeated?!)\n",
                static_cast<unsigned long long>(mrec));
  } else {
    std::printf("masked:      NOT recovered at %llu traces — the "
                "countermeasure holds\n",
                static_cast<unsigned long long>(traces));
  }

  const bool demoOk = rec != 0 && mrec == 0;
  std::printf("\n%s\n", demoOk ? "attack demo: OK"
                               : "attack demo: UNEXPECTED OUTCOME");
  return demoOk ? 0 : 1;
}
