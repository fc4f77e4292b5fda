#!/usr/bin/env python3
"""Builds dqme_bench from source and runs one workload of it.

Usage (from the repository root):

    python3 dqme_bench/run.py --workload W --seed N --seconds S --trace 0|1

The first call configures and builds the benchmark package (dqme_bench/ plus
the library in src/) under .bench_build/; later calls rebuild incrementally.
The binary's report goes to standard error. Standard output ends with one JSON
line: {"correct", "attempted", "failed", "metrics"}, where "metrics" holds
exactly the BENCHMARK.json end_to_end metrics (--trace 0) or per_layer metrics
(--trace 1). The exit status is non-zero, with no JSON line, when the build or
the run fails; it is 1, after the JSON line, when an output check failed.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "dqme_bench")
BINARY = os.path.join(BUILD, "dqme_bench")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"run.py: {msg}", file=sys.stderr, flush=True)


def run_logged(cmd, timeout):
    """Runs cmd with its output on stderr; returns its exit status."""
    try:
        return subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=timeout, check=False).returncode
    except subprocess.TimeoutExpired:
        log(f"timed out: {' '.join(cmd)}")
        return 124


def build():
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if run_logged(cmd, BUILD_TIMEOUT_S) != 0:
            return False
    return run_logged(["cmake", "--build", BUILD, "-j", jobs],
                      BUILD_TIMEOUT_S) == 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        log(f"unknown workload {args.workload}")
        return 2
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    if not build():
        log("build failed")
        return 1

    cmd = [BINARY, f"--workload={args.workload}", f"--seed={args.seed}",
           f"--seconds={args.seconds}"]
    if args.trace:
        cmd.append("--traced")
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        log("benchmark run timed out")
        return 1
    lines = proc.stdout.splitlines()
    sys.stderr.write("\n".join(lines[:-1]) + "\n")
    if proc.returncode not in (0, 1) or not lines:
        log(f"benchmark exited with status {proc.returncode}")
        return proc.returncode or 1
    result = json.loads(lines[-1])
    metrics = result["metrics"]
    bad = [m["name"] for m in wanted
           if metrics.get(m["name"], {}).get("unit") != m["unit"]]
    if bad:
        log(f"metrics missing or in another unit: {', '.join(bad)}")
        return 1
    out = {
        "correct": bool(result["correct"]),
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": {m["name"]: metrics[m["name"]] for m in wanted},
    }
    print(json.dumps(out), flush=True)
    return 0 if out["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
