#!/usr/bin/env python3
"""Steadiness tool for the campaign benchmark.

    python3 campaignbench/steady.py [--runs 10] [--seed 1000]

Runs every workload of BENCHMARK.json --runs times for its run_seconds
(seeds --seed, --seed+1, ...) through run.py, then prints for every
end-to-end metric the median, the quartiles (statistics.quantiles(n=4))
and the spread (q3 - q1) / median, next to the bound BENCHMARK.json gives
it. It also makes one traced run per workload and reports the tracing
overhead (traced vs untraced median exp_per_s) and the ledger remainder:
untraced cpu_ms_per_exp minus the traced ledger.sum_us, and the traced
run's own CPU per experiment minus it (the same process, seconds apart, so
machine drift cancels). The output is stamped with nproc, the CPU model
and the compiler. Run from the repository root.
"""
import argparse
import json
import os
import platform
import re
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def machine_stamp():
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    compiler = "unknown"
    out_dir = os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build")
    cache = os.path.join(out_dir, "cmake", "CMakeCache.txt")
    if os.path.isfile(cache):
        with open(cache) as f:
            text = f.read()
        cid = re.search(r"CMAKE_CXX_COMPILER_ID:\w+=(\S+)", text)
        ver = re.search(r"CMAKE_CXX_COMPILER_VERSION:\w+=(\S+)", text)
        path = re.search(r"CMAKE_CXX_COMPILER:\w+=(\S+)", text)
        if path:
            compiler = path.group(1)
            try:
                compiler = subprocess.run([compiler, "--version"], capture_output=True,
                                          text=True).stdout.splitlines()[0]
            except (OSError, IndexError):
                pass
        elif cid and ver:
            compiler = "%s %s" % (cid.group(1), ver.group(1))
    return {"nproc": os.cpu_count(), "cpu": cpu, "compiler": compiler,
            "build": "Release"}


def run_once(workload, seed, seconds, trace):
    proc = subprocess.run([sys.executable, os.path.join(HERE, "run.py"),
                           "--workload", workload, "--seed", str(seed),
                           "--seconds", str(seconds), "--trace", str(trace)],
                          capture_output=True, text=True, cwd=ROOT)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        raise SystemExit("%s seed %d: exit %d" % (workload, seed, proc.returncode))
    return json.loads(lines[-1])


def summary(values):
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else float("inf")}


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seed", type=int, default=1000)
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    seconds = bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    print("machine: %(nproc)s CPUs, %(cpu)s, %(compiler)s, %(build)s" % machine_stamp())
    for w in [w["name"] for w in bench["workloads"]]:
        results = [run_once(w, args.seed + i, seconds, 0) for i in range(args.runs)]
        print("\n%s: %d runs x %d s, all correct: %s, failed share: %s"
              % (w, args.runs, seconds, all(r["correct"] for r in results),
                 sorted({r["failed"] / r["attempted"] for r in results})))
        print("  %-16s %12s %12s %12s %8s %8s" % ("metric", "median", "q1", "q3",
                                                   "spread", "bound"))
        medians = {}
        for name in bounds:
            s = summary([r["metrics"][name]["value"] for r in results])
            medians[name] = s["median"]
            print("  %-16s %12.6g %12.6g %12.6g %8.4f %8.3f"
                  % (name, s["median"], s["q1"], s["q3"], s["spread"], bounds[name]))
        traced = {k: v["value"] for k, v in run_once(w, args.seed, seconds, 1)["metrics"].items()}
        untraced_cpu_us = medians["cpu_ms_per_exp"] * 1e3
        ledger = traced["ledger.sum_us"]
        print("  traced: exp_per_s %.6g (tracing overhead %.1f%%), "
              "ledger.sum_us %.1f vs untraced cpu %.1f us/experiment "
              "(unexplained remainder %.1f us) and vs the traced run's own "
              "cpu %.1f us (remainder %.1f us)"
              % (traced["trace.exp_per_s"],
                 100 * (1.0 - traced["trace.exp_per_s"] / medians["exp_per_s"]), ledger,
                 untraced_cpu_us, untraced_cpu_us - ledger, traced["trace.cpu_us_per_exp"],
                 traced["trace.cpu_us_per_exp"] - ledger))
        print("  traced per-layer: " + json.dumps(traced, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
