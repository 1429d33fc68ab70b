#!/usr/bin/env python3
"""Campaign benchmark: build a Release copy of libloki from src/ and run one
workload.

    python3 campaignbench/run.py --workload ch5-serial --seed 1 --seconds 10 --trace 0

Run from the repository root. The first run configures and builds into
$CARGO_TARGET_DIR (default .bench_build) with cmake; later runs only check
the build is up to date. Build output goes to stderr, so the last line of
stdout is the benchmark's JSON result. Workloads: ch5-serial, ch5-procs,
ring-threads, ch5-replay (see campaignbench/README.md).
"""
import argparse
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("ch5-serial", "ch5-procs", "ring-threads", "ch5-replay")


def build(out_dir):
    """Configure (once) and build the benchmark binary; return its path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "campaign", "campaign.hpp")):
        sys.exit("campaignbench: no library sources under %s/src; "
                 "run from a full checkout" % ROOT)
    cmake = shutil.which("cmake")
    if cmake is None:
        sys.exit("campaignbench: cmake not found")
    build_dir = os.path.join(out_dir, "cmake")
    jobs = str(max(1, (os.cpu_count() or 2) - 1))
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        cmd = [cmake, "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr)
    subprocess.run([cmake, "--build", build_dir, "--target", "campaignbench",
                    "-j", jobs], check=True, stdout=sys.stderr)
    return os.path.join(build_dir, "campaignbench")


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()

    out_dir = os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build")
    out_dir = os.path.abspath(out_dir)
    try:
        binary = build(out_dir)
    except subprocess.CalledProcessError as e:
        sys.exit("campaignbench: build failed (%s)" % e)
    sys.stdout.flush()
    t0 = time.monotonic_ns()  # setup_s counts from here: the process start
    proc = subprocess.run([binary, "--workload", args.workload,
                           "--seed", str(args.seed), "--seconds", str(args.seconds),
                           "--trace", str(args.trace), "--t0-ns", str(t0),
                           "--out", out_dir])
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
