// Serve result lines pinned byte for byte. Every scenario runs at two
// fixed seeds through ServeEngine with one and with two workers, and
// each NDJSON result line must equal the committed text in
// tests/serve/golden_result_lines.txt. The other serve tests check that
// the attribution splits sum to the total; this one also catches energy
// that moves between classes, bundles or slaves while the sums hold.
// Regenerate the text (rewrites the source tree):
//   SCT_REGEN_GOLDEN=1 build/tests/test_serve
//     --gtest_filter=ServeResultLines.*
#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "bus/ec_signals.h"
#include "power/coeff_table.h"
#include "serve/daemon.h"

namespace sct {
namespace {

const char* goldenPath() {
  return SCT_TEST_DATA_DIR "/serve/golden_result_lines.txt";
}

power::SignalEnergyTable fixedTable() {
  power::SignalEnergyTable t;
  for (std::size_t i = 0; i < bus::kSignalCount; ++i) {
    t.setCoeff_fJ(static_cast<bus::SignalId>(i),
                  1.5 + 0.25 * static_cast<double>(i));
  }
  return t;
}

/// Every result line of the fixed job set, one per line in job order.
std::string serveLines(unsigned workers) {
  std::vector<serve::Job> jobs;
  for (const char* scenario : {"auth", "wrong_pin", "challenge", "mixed"}) {
    for (const std::uint64_t seed : {std::uint64_t{11}, std::uint64_t{4242}}) {
      serve::Job j;
      j.id = std::string(scenario) + "-" + std::to_string(seed);
      j.scenario = scenario;
      j.seed = seed;
      jobs.push_back(j);
    }
  }
  // Sinks run under the engine's emit lock, so the map needs no lock.
  std::map<std::string, std::string> byId;
  {
    serve::ServeEngine engine(fixedTable(), workers);
    for (const serve::Job& j : jobs) {
      engine.submitJob(j, [&byId, id = j.id](const std::string& line) {
        byId[id] = line;
      });
    }
    engine.drain();
  }
  std::string out;
  for (const serve::Job& j : jobs) out += byId.at(j.id) + "\n";
  return out;
}

TEST(ServeResultLines, MatchCommittedTextAtOneAndTwoWorkers) {
  const std::string one = serveLines(1);
  const std::string two = serveLines(2);
  EXPECT_EQ(two, one);

  if (std::getenv("SCT_REGEN_GOLDEN") != nullptr) {
    std::ofstream out(goldenPath(), std::ios::binary);
    ASSERT_TRUE(out) << "cannot write " << goldenPath();
    out << one;
    GTEST_SKIP() << "regenerated " << goldenPath();
  }

  std::ifstream in(goldenPath(), std::ios::binary);
  ASSERT_TRUE(in) << "missing golden file " << goldenPath()
                  << " — run with SCT_REGEN_GOLDEN=1 to create it";
  std::stringstream want;
  want << in.rdbuf();
  EXPECT_EQ(one, want.str());
  EXPECT_EQ(two, want.str());
}

} // namespace
} // namespace sct
