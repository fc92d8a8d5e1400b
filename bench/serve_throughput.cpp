// Card-farm serving throughput: what the sct_serve daemon buys.
//
// The daemon's speed claim is restore-recycle: boot ONE card to a
// golden quiesce snapshot, then serve every session by restoring that
// snapshot into a pooled instance instead of booting a card per
// session. Three benchmark families measure it:
//
//   Serve_BootPerSession   — the naive baseline: construct a full TL1
//                            platform and run one auth session from
//                            reset (the applet boots inside the first
//                            APDU exchange). One item = one session.
//   Serve_RestoreRecycle   — the daemon's path: one persistent
//                            instance, recycle from the golden
//                            snapshot + one auth session per
//                            iteration. The recycle/boot rate ratio is
//                            the headline (scripts/bench.sh serve
//                            records it as restore_recycle_over_
//                            boot_per_session).
//   Serve_Throughput/workers:N — end-to-end engine rate in sessions
//                            per second (items_per_second) with a
//                            FIFO of N workers serving a
//                            mixed-scenario batch. Real-time based:
//                            the sessions run on pool threads, not the
//                            benchmark thread. Scaling beyond 1 worker
//                            requires free host cores — the recorded
//                            JSON carries num_cpus so single-core
//                            hosts are not misread as a scaling
//                            regression.
#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench_util.h"
#include "serve/card_instance.h"
#include "serve/daemon.h"
#include "serve/scenario.h"

namespace {

using namespace sct;

/// SCT_BENCH_TINY=1 shrinks the workload for CI smoke runs.
bool tinyMode() {
  const char* v = std::getenv("SCT_BENCH_TINY");
  return v != nullptr && v[0] != '\0' && v[0] != '0';
}

const std::vector<serve::Step>& authSteps() {
  static const std::vector<serve::Step> steps =
      serve::buildScenario("auth", 7);
  return steps;
}

const ckpt::Snapshot& goldenSnapshot() {
  static const ckpt::Snapshot golden =
      serve::CardInstance::bootGolden(bench::characterizedTable());
  return golden;
}

/// Mixed-scenario job batch (the same shape the engine determinism
/// test serves); one drain of this batch per throughput iteration.
std::vector<serve::Job> jobBatch() {
  std::vector<serve::Job> jobs;
  const char* names[] = {"auth", "wrong_pin", "challenge", "mixed"};
  const int count = tinyMode() ? 8 : 64;
  for (int i = 0; i < count; ++i) {
    serve::Job j;
    j.id = "b" + std::to_string(i);
    j.scenario = names[i % 4];
    j.seed = static_cast<std::uint64_t>(1000 + i);
    jobs.push_back(j);
  }
  return jobs;
}

void Serve_BootPerSession(benchmark::State& state) {
  const power::SignalEnergyTable& table = bench::characterizedTable();
  for (auto _ : state) {
    serve::CardInstance card(table);
    serve::SessionOutcome o = card.runSession(authSteps());
    if (!o.ok) state.SkipWithError("session failed");
    benchmark::DoNotOptimize(o.energy.total);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(Serve_BootPerSession);

void Serve_RestoreRecycle(benchmark::State& state) {
  const power::SignalEnergyTable& table = bench::characterizedTable();
  const ckpt::Snapshot& golden = goldenSnapshot();
  serve::CardInstance card(table);
  for (auto _ : state) {
    card.recycle(golden);
    serve::SessionOutcome o = card.runSession(authSteps());
    if (!o.ok) state.SkipWithError("session failed");
    benchmark::DoNotOptimize(o.energy.total);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(Serve_RestoreRecycle);

void Serve_Throughput(benchmark::State& state) {
  const unsigned workers = static_cast<unsigned>(state.range(0));
  serve::ServeEngine engine(bench::characterizedTable(), workers);
  const std::vector<serve::Job> jobs = jobBatch();
  std::uint64_t sessions = 0;
  const serve::ServeEngine::Sink sink = [](const std::string& line) {
    benchmark::DoNotOptimize(line.size());
  };
  for (auto _ : state) {
    for (const serve::Job& j : jobs) engine.submitJob(j, sink);
    engine.drain();
    sessions += jobs.size();
  }
  if (engine.errors() != 0) state.SkipWithError("engine reported errors");
  state.SetItemsProcessed(static_cast<std::int64_t>(sessions));
}
BENCHMARK(Serve_Throughput)
    ->ArgName("workers")
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

} // namespace

int main(int argc, char** argv) {
  std::printf(
      "Card-farm serving throughput: items_per_second is sessions per\n"
      "second. Compare Serve_RestoreRecycle against Serve_BootPerSession\n"
      "for the snapshot-recycle win; Serve_Throughput/workers:N for\n"
      "dispatch scaling (needs free host cores to show).\n\n");
  benchmark::AddCustomContext("sct_build_type", sct::bench::sctBuildType());
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
