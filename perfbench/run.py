#!/usr/bin/env python3
"""Builds and runs the repo benchmark.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload ba-fig1b --seed 1 --seconds 25 --trace 0

Configures and builds perfbench/ (the fba library from src/ plus the
fba_perfbench binary, CMake Release) into $CARGO_TARGET_DIR/perfbench
(default .bench_build/perfbench), then runs it. Its last stdout line is
the JSON result; build output goes to stderr. With --trace 1
the Chrome trace-event file lands in <build dir>/traces/. Exits non-zero
without a result line when the sources are missing or the build fails.
"""

import argparse
import fcntl
import hashlib
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
WORKLOADS = ("ba-fig1b", "svc-lossy", "scale-soa")
RUN_TIMEOUT_S = 170


def die(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def parse_args():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=int)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = p.parse_args()
    if args.seed < 0 or args.seconds < 1:
        die("--seed must be >= 0 and --seconds >= 1")
    return args


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, base, "perfbench")


def build(out_dir):
    if not os.path.isfile(os.path.join(ROOT, "src", "fba.h")):
        die(f"no fba sources under {ROOT}/src")
    if shutil.which("cmake") is None:
        die("cmake not found")
    os.makedirs(out_dir, exist_ok=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    with open(os.path.join(out_dir, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = [
            ["cmake", "-S", BENCH_DIR, "-B", out_dir,
             "-DCMAKE_BUILD_TYPE=Release"],
            ["cmake", "--build", out_dir, "-j", jobs],
        ]
        if os.path.isfile(os.path.join(out_dir, "CMakeCache.txt")):
            steps = steps[1:]
        for step in steps:
            if subprocess.run(step, stdout=sys.stderr).returncode != 0:
                die("build failed: " + " ".join(step))


def git_describe():
    if not os.path.exists(os.path.join(ROOT, ".git")) or not shutil.which("git"):
        return "unknown (not a git checkout)"
    r = subprocess.run(["git", "-C", ROOT, "describe", "--always", "--dirty",
                        "--tags"], capture_output=True, text=True)
    return r.stdout.strip() if r.returncode == 0 else "unknown"


def source_digest():
    """SHA-256 over the library and benchmark sources (path + content)."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def main():
    args = parse_args()
    out_dir = build_dir()
    build(out_dir)
    trace_dir = os.path.join(out_dir, "traces")
    os.makedirs(trace_dir, exist_ok=True)
    cmd = [
        os.path.join(out_dir, "fba_perfbench"),
        f"--workload={args.workload}",
        f"--seed={args.seed}",
        f"--seconds={args.seconds}",
        f"--trace={args.trace}",
        "--trace-out=" + os.path.join(
            trace_dir, f"{args.workload}-seed{args.seed}.json"),
        "--git-describe=" + git_describe(),
        "--source-digest=" + source_digest(),
    ]
    sys.stdout.flush()
    try:
        r = subprocess.run(cmd, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        die(f"run exceeded {RUN_TIMEOUT_S} s")
    sys.exit(r.returncode)


if __name__ == "__main__":
    main()
