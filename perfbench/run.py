#!/usr/bin/env python3
"""Build and run the Diffuse benchmark on one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload stencil --seed 1 --seconds 10 --trace 0

Workloads: stencil, black_scholes, cg, serving (see bench.cc). The
script configures and builds perfbench/ (which pulls in the library
from the repository's own CMakeLists.txt) under .bench_build/perfbench,
then runs the benchmark binary. It prints a host context block, every
metric by name with its unit, and as its last line one JSON object:
with --trace 0 the end-to-end metrics, with --trace 1 the per-layer
metrics of a separate traced run (whose Chrome trace-event file lands
under .bench_build/perfbench-traces/).

Exits non-zero without printing a result when the library sources are
missing or the build fails.
"""

import argparse
import os
import shutil
import subprocess
import sys

WORKLOADS = ("stencil", "black_scholes", "cg", "serving")


def git_sha(root):
    """HEAD commit read from .git/ inside the checkout, or 'none'."""
    head = os.path.join(root, ".git", "HEAD")
    try:
        with open(head) as f:
            ref = f.read().strip()
        if ref.startswith("ref: "):
            with open(os.path.join(root, ".git", ref[5:])) as f:
                return f.read().strip()
        return ref
    except OSError:
        return "none"


def build(root, build_dir):
    """Configure (once) and build the benchmark binary; returns its path."""
    source = os.path.join(root, "perfbench")
    cache = os.path.join(build_dir, "CMakeCache.txt")
    jobs = str(min(4, os.cpu_count() or 1))
    if not os.path.exists(cache):
        cmd = ["cmake", "-S", source, "-B", build_dir,
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", build_dir, "--target", "perfbench",
                    "-j", jobs], check=True, stdout=sys.stderr)
    return os.path.join(build_dir, "perfbench")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    root = os.getcwd()
    for need in ("CMakeLists.txt", "src"):
        if not os.path.exists(os.path.join(root, need)):
            print(f"perfbench: {need} not found in {root}; run from the "
                  "root of a full checkout", file=sys.stderr)
            return 2

    build_dir = os.path.join(root, ".bench_build", "perfbench")
    try:
        binary = build(root, build_dir)
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 3

    trace_dir = os.path.join(root, ".bench_build", "perfbench-traces")
    os.makedirs(trace_dir, exist_ok=True)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--trace-dir", trace_dir, "--git-sha", git_sha(root)]
    sys.stdout.flush()
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main())
