#!/bin/sh
# Run one google-benchmark harness and record the result as JSON for
# regression tracking.
#
#   scripts/bench.sh <table3|serve|eh|sca|enc> [build-dir] [output-json]
#
# Defaults: build-dir = build, output-json = BENCH_<bench>.json (repo
# root). The google-benchmark `items_per_second` counter is the bench's
# throughput unit; the script appends a `speedup` (or, for sca,
# `summary`) object with its headline ratios, plus a `host_context`
# object. The benches and their headlines:
#
#   table3  bench/table3_simperf; items are bus transactions (the
#           paper's kT/s metric). Speedups: TL2 over TL1 with and
#           without estimation (the transaction layer must be the fast
#           layer), hybrid over TL1 on the SPA mix, fork over boot
#           sweep, decoded-block ISS over decode-on-fetch.
#   serve   bench/serve_throughput; items are sessions. Speedups: the
#           golden-snapshot recycle over boot-per-session, and
#           the engine at 2 and 4 workers over 1.
#   eh      bench/eh_sweep_bench; items are scheme x field variants.
#           Speedups: one-snapshot fork sweep over boot-per-variant
#           (the boot prelude dominates each variant), and fork sweep
#           at 2 and 4 threads over 1.
#   sca     bench/sca_bench; items are traces (generated for
#           Sca_Generate, analyzed for Sca_Analyze). Summary: generate
#           and analyze rates at threads:1, generation at 4 threads
#           over 1, and traces to key recovery for the unprotected and
#           the masked device (0 = the countermeasure held at the full
#           corpus size, the expected value).
#   enc     bench/enc_sweep_bench; items are codec x workload variants.
#           Speedups as for eh.
#
# Thread- and worker-scaling ratios can only exceed ~1.0 when the host
# has free cores: read them against host_context.num_cpus (a
# single-core host honestly reports ~1.0, and that is not a
# regression).
#
# Extra benchmark flags pass through via SCT_BENCH_ARGS, e.g.
#   SCT_BENCH_ARGS=--benchmark_repetitions=5 scripts/bench.sh table3
# Absolute numbers drift with host load; for an A/B comparison run two
# binaries back to back with repetitions and compare medians.
set -eu

usage() {
  echo "usage: scripts/bench.sh <table3|serve|eh|sca|enc> [build-dir] [output-json]" >&2
  exit 2
}
[ $# -ge 1 ] || usage

name=$1
key=speedup
prefix=
case "$name" in
  table3)
    target=table3_simperf
    headline='
      tl2_over_tl1_with_estimation:
        (rate("TL2_WithEstimation") / rate("TL1_WithEstimation")),
      tl2_over_tl1_without_estimation:
        (rate("TL2_WithoutEstimation") / rate("TL1_WithoutEstimation")),
      hybrid_over_tl1_spa:
        (rate("Hybrid_SpaDpa") / rate("TL1_SpaDpa")),
      fork_over_boot_sweep:
        (rate("Fork_Sweep") / rate("Boot_Sweep")),
      decoded_block_over_seed:
        (rate("ISS_DecodedBlocks") / rate("ISS_DecodeOnFetch"))'
    ;;
  serve)
    target=serve_throughput
    headline='
      restore_recycle_over_boot_per_session:
        (rate("Serve_RestoreRecycle") / rate("Serve_BootPerSession")),
      throughput_workers_2_over_1:
        (rate("Serve_Throughput/workers:2/real_time")
         / rate("Serve_Throughput/workers:1/real_time")),
      throughput_workers_4_over_1:
        (rate("Serve_Throughput/workers:4/real_time")
         / rate("Serve_Throughput/workers:1/real_time"))'
    ;;
  eh | enc)
    target=${name}_sweep_bench
    # Benchmark name prefix ($p in the jq program): Eh_*, Enc_*.
    if [ "$name" = eh ]; then prefix=Eh; else prefix=Enc; fi
    headline='
      fork_sweep_over_boot_sweep:
        (rate($p + "_ForkSweep/threads:1/real_time")
         / rate($p + "_BootSweep")),
      fork_threads_2_over_1:
        (rate($p + "_ForkSweep/threads:2/real_time")
         / rate($p + "_ForkSweep/threads:1/real_time")),
      fork_threads_4_over_1:
        (rate($p + "_ForkSweep/threads:4/real_time")
         / rate($p + "_ForkSweep/threads:1/real_time"))'
    ;;
  sca)
    target=sca_bench
    key=summary
    headline='
      generate_traces_per_s: rate("Sca_Generate/threads:1/real_time"),
      analyze_traces_per_s: rate("Sca_Analyze/threads:1/real_time"),
      gen_threads_4_over_1:
        (rate("Sca_Generate/threads:4/real_time")
         / rate("Sca_Generate/threads:1/real_time")),
      traces_to_recovery_unprotected:
        counter("Sca_Recovery"; "traces_to_recovery_unprotected"),
      traces_to_recovery_masked:
        counter("Sca_Recovery"; "traces_to_recovery_masked"),
      corpus_traces: counter("Sca_Recovery"; "corpus_traces")'
    ;;
  *) usage ;;
esac

repo_root=$(CDPATH= cd -- "$(dirname -- "$0")/.." && pwd)
build_dir=${2:-"$repo_root/build"}
out=${3:-"$repo_root/BENCH_$name.json"}
bench="$build_dir/bench/$target"

if [ ! -x "$bench" ]; then
  echo "error: $bench not built — run: cmake -B \"$build_dir\" -S \"$repo_root\" && cmake --build \"$build_dir\" --target $target" >&2
  exit 1
fi

# shellcheck disable=SC2086  # SCT_BENCH_ARGS is intentionally split.
"$bench" --benchmark_format=json --benchmark_out="$out" \
         --benchmark_out_format=json ${SCT_BENCH_ARGS:-}

# Throughput numbers from an unoptimized binary are not regression
# data (the recorded baseline was once polluted by a debug capture).
# The guard keys on the JSON the run just produced: the bench binary
# self-reports its compile-time build type as the `sct_build_type`
# context key (see bench_util.h), so a stale CMake cache or a binary
# copied between trees cannot fool it. SCT_BENCH_ALLOW_NONRELEASE=1
# overrides for local experiments, loudly — the off-type tag stays in
# the JSON either way.
build_type=$(sed -n 's/.*"sct_build_type": *"\([a-z]*\)".*/\1/p' "$out" \
             | head -n 1)
[ -n "${build_type:-}" ] || build_type=unknown
if [ "$build_type" != "release" ]; then
  if [ "${SCT_BENCH_ALLOW_NONRELEASE:-0}" = "1" ]; then
    echo "WARNING: the bench binary reports sct_build_type='$build_type' —" \
         "numbers are not comparable to Release baselines (JSON tagged" \
         "accordingly)" >&2
  else
    rm -f "$out"
    echo "error: the bench binary reports sct_build_type='$build_type';" \
         "benchmark numbers require an optimized build (use cmake --preset" \
         "release, or set SCT_BENCH_ALLOW_NONRELEASE=1 to record anyway)" >&2
    exit 1
  fi
fi

# Identify the host the numbers came from — throughput figures are
# meaningless across machines without this, and the scaling ratios
# are meaningless without the core count.
cpu_model=$(awk -F': ' '/model name/ {print $2; exit}' /proc/cpuinfo \
            2>/dev/null || true)
[ -n "${cpu_model:-}" ] || cpu_model=$(uname -m)
num_cpus=$(nproc 2>/dev/null || sysctl -n hw.ncpu 2>/dev/null || echo 1)
cxx=$(sed -n 's/^CMAKE_CXX_COMPILER:[^=]*=//p' "$build_dir/CMakeCache.txt" \
      2>/dev/null | head -n 1)
if [ -n "${cxx:-}" ] && [ -x "$cxx" ]; then
  compiler=$("$cxx" --version 2>/dev/null | head -n 1)
else
  compiler=unknown
fi
git_sha=$(git -C "$repo_root" rev-parse --short HEAD 2>/dev/null || echo none)
run_date=$(date -u +%Y-%m-%dT%H:%M:%SZ)

# Headline values are medians over repetition entries (aggregates
# excluded).
if command -v jq >/dev/null 2>&1; then
  tmp="$out.tmp"
  jq --arg cpu "$cpu_model" --arg compiler "$compiler" \
     --arg git_sha "$git_sha" --arg date "$run_date" \
     --arg build_type "$build_type" --argjson num_cpus "$num_cpus" \
     --arg p "$prefix" '
    def rate(n):
      [.benchmarks[]
       | select(.name == n and (.run_type // "iteration") != "aggregate")
       | .items_per_second]
      | sort | .[(length / 2) | floor];
    def counter(n; c):
      [.benchmarks[]
       | select(.name == n and (.run_type // "iteration") != "aggregate")
       | .[c]]
      | .[0];
    . + {'"$key"': {'"$headline"'
    }}
    + {host_context: {
        cpu_model: $cpu, num_cpus: $num_cpus, compiler: $compiler,
        git_sha: $git_sha, date: $date, build_type: $build_type
    }}' "$out" > "$tmp" && mv "$tmp" "$out"
else
  echo "warning: jq not found — $key/host_context not appended" >&2
fi
echo "wrote $out"
