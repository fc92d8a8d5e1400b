#!/usr/bin/env python3
"""Build and run perfbench from the root of a checkout.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The perfbench binary is built from the checkout's sources into
.bench_build/perfbench (Release, LTO) on first use; later runs only
re-check the build. Build output goes to stderr. Stdout carries a host
context line, the binary's report and, as its last line, the result
JSON object {"correct", "attempted", "failed", "metrics"}. Any failure
exits non-zero without printing a result.
"""
import argparse
import fcntl
import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("table3_dense", "spa_idle")
BUILD_JOBS = "3"


def fail(message, code=1):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def build(root, build_dir):
    # Compiler and LTO temporaries stay inside the checkout too.
    tmp = build_dir / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, CMAKE_BUILD_PARALLEL_LEVEL=BUILD_JOBS, TMPDIR=str(tmp))
    with open(build_dir / "build.lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not (build_dir / "CMakeCache.txt").exists():
            cmd = ["cmake", "-S", str(root / "perfbench"), "-B", str(build_dir),
                   "-DCMAKE_BUILD_TYPE=Release"]
            if shutil.which("ninja"):
                cmd += ["-G", "Ninja"]
            if subprocess.run(cmd, stdout=sys.stderr, env=env).returncode:
                fail("configure failed")
        cmd = ["cmake", "--build", str(build_dir), "--target", "perfbench",
               "--parallel", BUILD_JOBS]
        if subprocess.run(cmd, stdout=sys.stderr, env=env).returncode:
            fail("build failed")
    return build_dir / "perfbench"


def host_context(root):
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    sha = None
    if (root / ".git").exists():
        try:
            out = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"],
                                 capture_output=True, text=True)
            if out.returncode == 0:
                sha = out.stdout.strip()
        except OSError:
            pass
    # The checkout the benchmark runs in need not be a git repository,
    # so the sources are also identified by content.
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*")):
        if path.is_file():
            digest.update(str(path.relative_to(root)).encode())
            digest.update(path.read_bytes())
    return {"nproc": os.cpu_count(), "cpu": cpu, "git_sha": sha,
            "src_sha256": digest.hexdigest()}


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    # The accuracy pass takes up to ~3 s of a run, and each of the 16
    # serve blocks needs ~50 ms to fill a timing window; in a shorter run
    # some family would take no sample.
    if args.seed < 0 or args.seconds < 10:
        fail("--seed must be >= 0 and --seconds >= 10", 2)

    root = Path(__file__).resolve().parent.parent
    if not (root / "src" / "CMakeLists.txt").is_file():
        fail(f"no simulator sources under {root}; run from a full checkout", 2)

    build_dir = root / ".bench_build" / "perfbench"
    binary = build(root, build_dir)
    scratch = build_dir / "out"
    scratch.mkdir(exist_ok=True)

    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--scratch", str(scratch)]
    try:
        run = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                             timeout=args.seconds + 120)
    except subprocess.TimeoutExpired:
        fail("perfbench timed out")
    if run.returncode != 0:
        sys.stderr.write(run.stdout)
        fail(f"perfbench exited with {run.returncode}", run.returncode)

    lines = run.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        result = None
    if not isinstance(result, dict) or set(result) != {
            "correct", "attempted", "failed", "metrics"}:
        sys.stderr.write(run.stdout)
        fail("perfbench printed no result line")

    print("host: " + json.dumps(host_context(root), sort_keys=True))
    print("\n".join(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
