// On-disk round trips for the persistable artifacts: bus traces and
// coefficient tables (the files a platform vendor would ship).
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "../testbench.h"
#include "power/coeff_table.h"
#include "trace/bus_trace.h"
#include "trace/workloads.h"

namespace sct {
namespace {

namespace fs = std::filesystem;

struct TempDir {
  fs::path path;
  TempDir() {
    path = fs::temp_directory_path() /
           ("sct_test_" + std::to_string(::getpid()));
    fs::create_directories(path);
  }
  ~TempDir() {
    std::error_code ec;
    fs::remove_all(path, ec);
  }
};

TEST(FileIoTest, BusTraceFileRoundTrip) {
  TempDir tmp;
  const auto original = trace::randomMix(
      3, 150, testbench::bothRegions(), trace::MixRatios{}, 4);
  const fs::path file = tmp.path / "workload.bustrace";
  {
    std::ofstream os(file);
    ASSERT_TRUE(os.good());
    original.save(os);
  }
  std::ifstream is(file);
  ASSERT_TRUE(is.good());
  const auto loaded = trace::BusTrace::load(is);
  EXPECT_EQ(original, loaded);
}

TEST(FileIoTest, LoadedTraceReplaysIdentically) {
  TempDir tmp;
  const auto original = trace::randomMix(
      7, 100, testbench::bothRegions(), trace::MixRatios{}, 2);
  const fs::path file = tmp.path / "workload.bustrace";
  {
    std::ofstream os(file);
    original.save(os);
  }
  std::ifstream is(file);
  const auto loaded = trace::BusTrace::load(is);

  testbench::Tl1Bench a;
  testbench::Tl1Bench b;
  EXPECT_EQ(a.run(original), b.run(loaded));
}

TEST(FileIoTest, CoefficientTableFileRoundTrip) {
  TempDir tmp;
  power::SignalEnergyTable table;
  double v = 100.0;
  for (const auto& info : bus::kSignalTable) {
    table.setCoeff_fJ(info.id, v);
    v *= 1.5;
  }
  const fs::path file = tmp.path / "coeffs.txt";
  {
    std::ofstream os(file);
    table.save(os);
  }
  std::ifstream is(file);
  EXPECT_EQ(power::SignalEnergyTable::load(is), table);
}

TEST(FileIoTest, EmptyTraceFileLoadsEmptyTrace) {
  TempDir tmp;
  const fs::path file = tmp.path / "empty.bustrace";
  { std::ofstream os(file); }
  std::ifstream is(file);
  EXPECT_TRUE(trace::BusTrace::load(is).empty());
}

TEST(FileIoTest, BurstOfNonWordSizeIsRefused) {
  // Every layer answers Error for such a burst but layer 2, which would
  // build a valid 4*beats-byte transfer from it: refused at the file.
  for (const char* line : {"0 R 0x1000 1 2", "0 I 0x1000 2 4",
                           "0 W 0x1000 2 2 0x1 0x2"}) {
    std::istringstream is(line);
    EXPECT_THROW(trace::BusTrace::load(is), std::runtime_error) << line;
  }
  std::istringstream word("0 R 0x1000 4 2\n0 R 0x1001 1 1\n");
  EXPECT_EQ(trace::BusTrace::load(word).size(), 2u);
}

} // namespace
} // namespace sct
