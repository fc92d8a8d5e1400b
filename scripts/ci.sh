#!/bin/sh
# Full CI gate, runnable locally and on any runner with cmake + ninja:
#
#   scripts/ci.sh
#
# Pass 1 — the shipping configuration: Release (LTO) configure with
# warnings-as-errors, build everything (libraries, tests, benches), run
# the whole test suite, then each gating label explicitly — among them
# `golden`, which runs the 25 deterministic programs (the examples
# other than the sct_serve daemon, and the benches that are not
# google-benchmark harnesses), each in a fresh directory with
# SCT_THREADS=2, against their committed stdout and the SHA-256 of
# every file they write (tests/golden/). Last, smoke-run the Table 3
# bench (tiny workload, minimal timing — proves the bench binary and
# its JSON output stay alive, measures nothing).
# Pass 2 — the same suite and labels under AddressSanitizer +
# UndefinedBehaviorSanitizer (the SCT_SANITIZE option; it disables LTO
# itself). UBSan is fatal there (-fno-sanitize-recover=all) and
# includes float-cast-overflow, so any report fails the test that
# caused it.
# Pass 3 — ThreadSanitizer over the labels whose tests run workers with
# threads > 1: the fork sweeps (ckpt, sca, eh, enc), whose workers share
# one index counter and each own a recycled rig, and the serve engine
# (serve), whose workers share one job queue and each own a card.
# Pass 4 — the dev preset (Debug, warnings-as-errors), the whole suite
# and the `golden` label: the only pass built without -DNDEBUG, so the
# assert()s in src/bus and src/hier run — among them
# Tl1Bus::outstandingTotal()'s check that its counters agree with its
# queues, which power::CardRig::quiesced() relies on. It is also the
# only pass built with SCT_NATIVE=OFF (baseline x86-64 plus -mpopcnt,
# no -march=native), so the goldens check that the portable build
# prints exactly what the host-tuned ones do, and the only one built
# with -D_GLIBCXX_ASSERTIONS, so every std::array, std::vector and
# std::span index is range-checked: an out-of-bounds index that stays
# inside its object, which ASan cannot see, aborts here.
# Pass 5 — perfbench smoke: the repository benchmark (perfbench/run.py,
# which builds its own Release tree under .bench_build/) runs 10 s on
# each workload, untraced and traced. Each run
# must end in a result line with "correct": true and "failed": 0, so a
# deleted API or a broken benchmark check fails here, not first in a
# benchmark run. It measures nothing.
#
# Passes 1–4 use the presets in CMakePresets.json, so what CI checks
# is exactly what `cmake --preset release` gives a developer; pass 5
# builds perfbench from its own CMakeLists, as the benchmark does.
set -eu

repo_root=$(CDPATH= cd -- "$(dirname -- "$0")/.." && pwd)
cd "$repo_root"

jobs=$(nproc 2>/dev/null || sysctl -n hw.ncpu 2>/dev/null || echo 2)

run() {
  echo "==> $*"
  "$@"
}

for preset in release asan-ubsan; do
  run cmake --preset "$preset" -DSCT_WERROR=ON
  run cmake --build --preset "$preset" --parallel "$jobs"
  run ctest --preset "$preset" --parallel "$jobs"
  # Every deterministic program's stdout and written files against
  # their committed goldens: a run that moves any printed figure or
  # written byte fails here (SCT_REGEN_GOLDEN=1 regenerates; explain the
  # diff in the change).
  run ctest --preset "$preset" -L golden --parallel "$jobs"
  # The `equivalence` label is the gate for the event-driven TL2 bus:
  # its event-vs-per-cycle suite pins the phase schedule, the lazy
  # observer delivery with its cycle stamps and every read of the power
  # model against the per-cycle reference (the label also carries the
  # layer and power equivalence suites, the layer-1 idle park against
  # the ticking bus, and the ledger reconciliation). Run it explicitly
  # so a filter or preset change can never silently drop it from the
  # pass.
  run ctest --preset "$preset" -L equivalence --parallel "$jobs"
  # The bus unit suites, among them the misuse that must throw in every
  # build (a suspend or codec swap on a busy bus, a submit to a
  # suspended one).
  run ctest --preset "$preset" -L bus --parallel "$jobs"
  # The adaptive-fidelity equivalence suite is the gate for the hybrid
  # TL1/TL2 bus, and the layer bridge its TL2 regions ride on is gated
  # with it (the bridge unit tests and its replays over the per-cycle
  # reference TL2 bus carry the `hier` label too): run the label
  # explicitly so a filter or preset change can never silently drop it
  # from the pass.
  run ctest --preset "$preset" -L hier --parallel "$jobs"
  # Same for the checkpoint/restore gate: restore-equivalence is what
  # makes fork-based exploration trustworthy.
  run ctest --preset "$preset" -L ckpt --parallel "$jobs"
  # And for the ISS decoded-block dispatch loop: the `iss` label runs
  # the block-cache equivalence and self-modifying-code suites, under
  # sanitizers in pass 2.
  run ctest --preset "$preset" -L iss --parallel "$jobs"
  # And for the card-farm serving subsystem: the `serve` label covers
  # the NDJSON protocol, golden-snapshot recycle bit-identity, the
  # threads=1 vs threads=N determinism headline, and the SIGTERM
  # mid-batch drain against the real daemon binary — the job queue's
  # cancel and teardown must be sanitizer-clean in pass 2.
  run ctest --preset "$preset" -L serve --parallel "$jobs"
  # And for the intermittent-power subsystem: the `eh` label covers the
  # supply integrator, brownout detector, backup schemes, and the
  # threads=1 vs threads=N sweep bit-identity that makes backup-scheme
  # exploration trustworthy.
  run ctest --preset "$preset" -L eh --parallel "$jobs"
  # And for the side-channel subsystem: the `sca` label covers the
  # corpus format (golden bytes + negative paths), the coprocessor leak
  # model, and the attack headlines — unprotected key-byte recovery,
  # masked non-recovery, and the corpus/ranking bit-identity across
  # threads and chunk sizes.
  run ctest --preset "$preset" -L sca --parallel "$jobs"
  # And for the bus-encoding subsystem: the `enc` label covers the codec
  # round-trip algebra, the no-codec/identity byte-equivalence pin that
  # protects every pre-codec golden output, and the codec x workload
  # sweep's threads=1 vs threads=N bit-identity.
  run ctest --preset "$preset" -L enc --parallel "$jobs"
done

run cmake --preset tsan -DSCT_WERROR=ON
run cmake --build --preset tsan --parallel "$jobs"
for label in ckpt sca eh enc serve; do
  run ctest --preset tsan -L "$label" --parallel "$jobs"
done

run cmake --preset dev
run cmake --build --preset dev --parallel "$jobs"
run ctest --preset dev --parallel "$jobs"
run ctest --preset dev -L golden --parallel "$jobs"

echo "==> bench smoke (tiny workload)"
run env SCT_BENCH_TINY=1 ./build/bench/table3_simperf \
  --benchmark_min_time=0.01
run env SCT_BENCH_TINY=1 ./build/bench/serve_throughput \
  --benchmark_min_time=0.01
run env SCT_BENCH_TINY=1 ./build/bench/eh_sweep_bench \
  --benchmark_min_time=0.01
run env SCT_BENCH_TINY=1 ./build/bench/sca_bench \
  --benchmark_min_time=0.01
run env SCT_BENCH_TINY=1 ./build/bench/enc_sweep_bench \
  --benchmark_min_time=0.01

# The last stdout line of perfbench/run.py is the result object.
perfbench_smoke() {
  echo "==> perfbench smoke: $*"
  result=$(python3 perfbench/run.py --seed 1 --seconds 10 "$@" | tail -n 1)
  printf '%s\n' "$result" | python3 -c '
import json, sys
r = json.loads(sys.stdin.read())
sys.exit(0 if r.get("correct") is True and r.get("failed") == 0 else 1)
' || {
    echo "perfbench smoke failed ($*): $result" >&2
    exit 1
  }
}
perfbench_smoke --workload table3_dense --trace 0
perfbench_smoke --workload spa_idle --trace 0
perfbench_smoke --workload table3_dense --trace 1
# The traced spa ladder replays every TL1 rung (ledger and codec
# included) and the hybrid over the idle-heavy trace on which the idle
# bus and master park, and checks that cycles and energy repeat and
# match the bare layer.
perfbench_smoke --workload spa_idle --trace 1

echo "CI: all five passes green"
