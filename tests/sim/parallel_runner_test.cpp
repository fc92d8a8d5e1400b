// runWorkers / runIndexed: independent simulations fanned out over
// workers must produce results identical to a sequential sweep, keyed
// by index; each worker builds one rig, and a throwing body reaches the
// caller instead of terminating the process.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <stdexcept>
#include <thread>
#include <vector>

#include "sim/clock.h"
#include "sim/kernel.h"
#include "sim/parallel_runner.h"

namespace {

using namespace sct;

// A small self-contained simulation parameterized by index: run a clock
// for (10 + i) cycles with a counting handler and report (cycles, time).
std::pair<std::uint64_t, sim::Time> miniSim(std::size_t i) {
  sim::Kernel k;
  sim::Clock clk(k, "clk", 10);
  std::uint64_t ticks = 0;
  clk.onRising([&] { ++ticks; });
  clk.runCycles(10 + i);
  return {ticks, k.now()};
}

TEST(Workers, DefaultThreadCountIsPositive) {
  EXPECT_GE(sim::defaultThreadCount(), 1u);
}

TEST(Workers, RunIndexedMatchesSequentialSweep) {
  constexpr std::size_t kTasks = 24;

  std::vector<std::pair<std::uint64_t, sim::Time>> sequential(kTasks);
  sim::runIndexed(kTasks, 1, [&](std::size_t i) {
    sequential[i] = miniSim(i);
  });

  for (unsigned threads : {2u, 4u, 7u}) {
    std::vector<std::pair<std::uint64_t, sim::Time>> parallel(kTasks);
    sim::runIndexed(kTasks, threads, [&](std::size_t i) {
      parallel[i] = miniSim(i);
    });
    EXPECT_EQ(parallel, sequential) << threads << " threads";
  }

  // Spot-check the simulations did real work.
  EXPECT_EQ(sequential[0].first, 10u);
  EXPECT_EQ(sequential[kTasks - 1].first, 10u + kTasks - 1);
}

TEST(Workers, RunIndexedHandlesZeroTasks) {
  bool called = false;
  sim::runIndexed(0, 4, [&](std::size_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(Workers, EachWorkerBuildsOneRigAndEveryIndexRunsOnce) {
  // A rig remembers which thread built it: every index must run on the
  // thread that owns the rig it was handed.
  struct Rig {
    std::thread::id owner = std::this_thread::get_id();
  };
  constexpr std::size_t kCount = 50;
  for (unsigned threads : {1u, 3u, 8u}) {
    SCOPED_TRACE(std::to_string(threads) + " threads");
    std::atomic<unsigned> rigs{0};
    std::vector<std::atomic<int>> ran(kCount);
    std::atomic<bool> foreignRig{false};
    std::vector<std::size_t> order;
    sim::runWorkers(
        kCount, threads,
        [&] {
          rigs.fetch_add(1);
          return Rig{};
        },
        [&](Rig& rig, std::size_t i) {
          if (rig.owner != std::this_thread::get_id()) foreignRig = true;
          ran[i].fetch_add(1);
          if (threads == 1) order.push_back(i);
        });
    if (threads == 1) {
      EXPECT_EQ(rigs.load(), 1u);
      ASSERT_EQ(order.size(), kCount);
      for (std::size_t i = 0; i < kCount; ++i) EXPECT_EQ(order[i], i);
    } else {
      EXPECT_GE(rigs.load(), 1u);
      EXPECT_LE(rigs.load(), threads);
    }
    EXPECT_FALSE(foreignRig.load());
    for (std::size_t i = 0; i < kCount; ++i) {
      EXPECT_EQ(ran[i].load(), 1) << "index " << i;
    }
  }

  // Fewer indices than threads: no more rigs than indices.
  std::atomic<unsigned> rigs{0};
  sim::runWorkers(
      2, 8,
      [&] {
        rigs.fetch_add(1);
        return 0;
      },
      [](int&, std::size_t) {});
  EXPECT_LE(rigs.load(), 2u);
}

TEST(Workers, ThrowingBodyReachesTheCallerAfterEveryWorkerStops) {
  constexpr std::size_t kCount = 64;
  for (unsigned threads : {1u, 4u}) {
    SCOPED_TRACE(std::to_string(threads) + " threads");
    std::atomic<int> running{0};
    std::atomic<std::size_t> ran{0};
    EXPECT_THROW(sim::runIndexed(kCount, threads,
                                 [&](std::size_t i) {
                                   ++running;
                                   ++ran;
                                   if (i == 17) {
                                     --running;
                                     throw std::runtime_error("index 17");
                                   }
                                   --running;
                                 }),
                 std::runtime_error);
    // Every worker was joined before the rethrow: no body still runs.
    EXPECT_EQ(running.load(), 0);
    if (threads == 1) {
      EXPECT_EQ(ran.load(), 18u);  // Nothing after the throwing index.
    }
  }

  // The exception keeps its type and message.
  try {
    sim::runIndexed(kCount, 4, [](std::size_t i) {
      if (i == 40) throw std::invalid_argument("bad index 40");
    });
    FAIL() << "no exception";
  } catch (const std::invalid_argument& e) {
    EXPECT_STREQ(e.what(), "bad index 40");
  }
}

} // namespace
