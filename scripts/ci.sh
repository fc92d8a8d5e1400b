#!/bin/sh
# Full CI gate, runnable locally and on any runner with cmake + ninja:
#
#   scripts/ci.sh
#
# Pass 1 — the shipping configuration: Release (LTO) configure with
# warnings-as-errors, build everything (libraries, tests, benches), run
# the whole test suite, then run the 25 deterministic programs (the
# examples other than the sct_serve daemon, and the benches that are
# not google-benchmark harnesses) twice each, every run in a fresh
# temporary directory with SCT_THREADS=2: their stdout and the files
# they write must be byte-identical between the two runs, so host time
# and scheduling stay off stdout. Last, smoke-run the Table 3 bench
# (tiny workload, minimal timing — proves the bench binary and its JSON
# output stay alive, measures nothing).
# Pass 2 — the same suite under AddressSanitizer + UndefinedBehavior-
# Sanitizer (the SCT_SANITIZE option; it disables LTO itself). UBSan
# is fatal there (-fno-sanitize-recover=all) and includes
# float-cast-overflow, so any report fails the test that caused it.
# Pass 3 — ThreadSanitizer over the labels whose tests run workers with
# threads > 1: the fork sweeps (ckpt, sca, eh, enc), whose workers share
# one index counter and each own a recycled rig, and the serve engine
# (serve), whose workers share one job queue and each own a card.
# Pass 4 — the dev preset (Debug, warnings-as-errors) and the whole
# suite: the only pass built without -DNDEBUG, so the assert()s in
# src/bus and src/hier run — among them Tl1Bus::outstandingTotal()'s
# check that its counters agree with its queues, which
# power::CardRig::quiesced() relies on.
# Pass 5 — perfbench smoke: the repository benchmark (perfbench/run.py,
# which builds its own Release tree under .bench_build/) runs 10 s on
# each workload untraced, plus one traced run on table3_dense. Each run
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

deterministic_programs="
  examples/apdu_session examples/ckpt_fork_sweep examples/eh_sweep
  examples/enc_sweep examples/interrupt_uart examples/jcvm_exploration
  examples/quickstart examples/sca_attack examples/sct_report
  examples/soc_boot examples/spa_power_trace examples/trace_to_vcd
  bench/ablation_buscoding bench/ablation_cache bench/ablation_sw_vs_hw
  bench/ablation_vdd bench/ablation_waitstates bench/ext_dpa_countermeasure
  bench/ext_layer2_soc bench/ext_peripherals bench/ext_power_budget
  bench/fig6_sampling bench/sec43_exploration bench/table1_timing
  bench/table2_energy"

# Run every deterministic program of build dir $1 twice, each run in a
# fresh directory holding its stdout and the files it writes, and fail
# unless the two directories are byte-identical.
output_determinism() {
  echo "==> output determinism ($1)"
  runs=$(mktemp -d)
  for prog in $deterministic_programs; do
    name=$(basename "$prog")
    for n in 1 2; do
      mkdir "$runs/$name.$n"
      (cd "$runs/$name.$n" &&
        SCT_THREADS=2 "$repo_root/$1/$prog" > stdout 2> ../"$name.$n.err") || {
        echo "$prog failed:" >&2
        cat "$runs/$name.$n.err" >&2
        exit 1
      }
    done
    diff -r "$runs/$name.1" "$runs/$name.2" >&2 || {
      echo "$prog: output differs between two runs" >&2
      exit 1
    }
  done
  rm -rf "$runs"
}

for preset in release asan-ubsan; do
  run cmake --preset "$preset" -DSCT_WERROR=ON
  run cmake --build --preset "$preset" --parallel "$jobs"
  run ctest --preset "$preset" --parallel "$jobs"
  if [ "$preset" = release ]; then
    output_determinism build
  fi
  # The `equivalence` label is the gate for the event-driven TL2 bus:
  # its event-vs-per-cycle suite pins the phase schedule, the lazy
  # observer delivery with its cycle stamps and every read of the power
  # model against the per-cycle reference (the label also carries the
  # layer and power equivalence suites and the ledger reconciliation). Run it
  # explicitly so a filter or preset change can never silently drop it
  # from the pass.
  run ctest --preset "$preset" -L equivalence --parallel "$jobs"
  # The adaptive-fidelity equivalence suite is the gate for the hybrid
  # TL1/TL2 bus: run the `hier` label explicitly so a filter or preset
  # change can never silently drop it from the pass.
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

echo "CI: all five passes green"
