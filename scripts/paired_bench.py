#!/usr/bin/env python3
"""Paired A/B comparison of two prebuilt dqme_bench binaries on one workload.

Usage:
    paired_bench.py A_BINARY B_BINARY --workload W [--pairs K] [--seconds S]
                    [--seed N] [--quick] [--spec BENCHMARK.json] [--json PATH]
    paired_bench.py --selftest

Runs K pairs of the workload. Within a pair both binaries run the same seed
(the base seed plus the pair index), and the order alternates AB, BA, AB, ...
so that drift on a shared host lands on both sides alike. A run that reports
"correct": false, exits with an error or prints no JSON line stops the
comparison with exit status 2.

For every end_to_end metric of BENCHMARK.json it prints the median of A and
of B, the ratio of the medians (B/A), the spread between the quartiles of A's
runs, how many pairs B won in the metric's `better` direction (ties counted
apart), and the exact two-sided sign-test p over the pairs that were not
tied. It reports and does not gate: the exit status is 0 whenever every run
was correct. Python standard library only.
"""
import argparse
import json
import math
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def sign_test_p(wins, losses):
    """Exact two-sided sign-test p for `wins` against `losses` (ties out)."""
    n = wins + losses
    if n == 0:
        return 1.0
    k = min(wins, losses)
    tail = sum(math.comb(n, i) for i in range(k + 1)) / 2.0 ** n
    return min(1.0, 2.0 * tail)


def quartile_spread(values):
    """q3 - q1 of `values` (0 for fewer than two values)."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q3 - q1


def tally(pairs, better):
    """(wins, losses, ties) of B over A, where `better` is lower|higher."""
    wins = losses = ties = 0
    for a, b in pairs:
        if a == b:
            ties += 1
        elif (b < a) == (better == "lower"):
            wins += 1
        else:
            losses += 1
    return wins, losses, ties


def summarize(runs_a, runs_b, spec_metrics):
    """One row per metric from the per-pair values of A and B."""
    rows = []
    for m in spec_metrics:
        name = m["name"]
        a = [r[name] for r in runs_a]
        b = [r[name] for r in runs_b]
        med_a, med_b = statistics.median(a), statistics.median(b)
        wins, losses, ties = tally(list(zip(a, b)), m["better"])
        rows.append({
            "metric": name,
            "unit": m["unit"],
            "better": m["better"],
            "median_a": med_a,
            "median_b": med_b,
            "ratio_b_over_a": med_b / med_a if med_a else float("nan"),
            "iqr_a": quartile_spread(a),
            "wins_b": wins,
            "losses_b": losses,
            "ties": ties,
            "sign_p": sign_test_p(wins, losses),
        })
    return rows


def run_once(binary, workload, seed, seconds, quick):
    """Runs one rep; returns its metric values, or exits 2 on any failure."""
    cmd = [binary, "--workload=" + workload, "--seed=%d" % seed]
    if seconds is not None:
        cmd.append("--seconds=%g" % seconds)
    if quick:
        cmd.append("--quick")
    timeout = (seconds if seconds is not None else 20) + 150
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL, text=True,
                              timeout=timeout, check=False)
    except subprocess.TimeoutExpired:
        sys.exit("paired_bench: timed out: " + " ".join(cmd))
    lines = proc.stdout.splitlines()
    if proc.returncode not in (0, 1) or not lines:
        print("paired_bench: %s exited with status %d" %
              (" ".join(cmd), proc.returncode), file=sys.stderr)
        sys.exit(2)
    result = json.loads(lines[-1])
    if not result.get("correct", False):
        print("paired_bench: refusing an incorrect run: " + " ".join(cmd),
              file=sys.stderr)
        sys.exit(2)
    return {k: v["value"] for k, v in result["metrics"].items()}


def print_table(workload, pairs, rows):
    print("paired_bench: %s, %d pairs (B/A; wins = B better)" %
          (workload, pairs))
    print("%-15s %14s %14s %9s %12s %9s %10s" %
          ("metric", "median A", "median B", "B/A", "IQR A", "B wins",
           "sign p"))
    for r in rows:
        print("%-15s %14.6g %14.6g %9.4f %12.4g %5d/%-3d %10.4g" %
              (r["metric"], r["median_a"], r["median_b"], r["ratio_b_over_a"],
               r["iqr_a"], r["wins_b"], r["wins_b"] + r["losses_b"],
               r["sign_p"]))


def selftest():
    checks = [
        (round(sign_test_p(10, 0), 5), 0.00195),
        (round(sign_test_p(0, 10), 5), 0.00195),
        (sign_test_p(9, 1), 22 / 1024),
        (sign_test_p(5, 5), 1.0),
        (sign_test_p(0, 0), 1.0),
        (sign_test_p(1, 0), 1.0),
        (tally([(2, 1), (2, 3), (2, 2)], "lower"), (1, 1, 1)),
        (tally([(2, 1), (2, 3), (2, 2)], "higher"), (1, 1, 1)),
        (tally([(5, 4), (5, 3)], "lower"), (2, 0, 0)),
        (quartile_spread([1.0]), 0.0),
        (quartile_spread([1.0, 2.0, 3.0, 4.0, 5.0]), 2.0),
    ]
    spec = [{"name": "x", "unit": "s", "better": "lower"}]
    row = summarize([{"x": 2.0}, {"x": 4.0}, {"x": 6.0}],
                    [{"x": 1.0}, {"x": 2.0}, {"x": 3.0}], spec)[0]
    checks += [
        (row["median_a"], 4.0),
        (row["median_b"], 2.0),
        (row["ratio_b_over_a"], 0.5),
        ((row["wins_b"], row["losses_b"], row["ties"]), (3, 0, 0)),
        (row["sign_p"], 0.25),
    ]
    bad = [(i, got, want) for i, (got, want) in enumerate(checks)
           if got != want]
    for i, got, want in bad:
        print("selftest check %d: got %r, want %r" % (i, got, want))
    print("paired_bench selftest: %d/%d checks passed" %
          (len(checks) - len(bad), len(checks)))
    return 1 if bad else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("a", nargs="?", help="binary A (the baseline)")
    ap.add_argument("b", nargs="?", help="binary B (the change)")
    ap.add_argument("--workload")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--quick", action="store_true")
    ap.add_argument("--spec", default=os.path.join(ROOT, "BENCHMARK.json"))
    ap.add_argument("--json", help="write the runs and the summary here")
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args()
    if args.selftest:
        return selftest()
    if not (args.a and args.b and args.workload) or args.pairs < 1:
        ap.error("need A_BINARY, B_BINARY, --workload and --pairs >= 1")

    with open(args.spec, encoding="utf-8") as f:
        spec = json.load(f)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        ap.error("unknown workload " + args.workload)
    metrics = spec["end_to_end"]

    runs = {"a": [], "b": []}
    for i in range(args.pairs):
        seed = args.seed + i
        order = ("a", "b") if i % 2 == 0 else ("b", "a")
        for side in order:
            binary = args.a if side == "a" else args.b
            runs[side].append(run_once(binary, args.workload, seed,
                                       args.seconds, args.quick))
    missing = [m["name"] for m in metrics
               if any(m["name"] not in r for r in runs["a"] + runs["b"])]
    if missing:
        print("paired_bench: runs lack metrics: " + ", ".join(missing),
              file=sys.stderr)
        return 2
    rows = summarize(runs["a"], runs["b"], metrics)
    print_table(args.workload, args.pairs, rows)
    if args.json:
        with open(args.json, "w", encoding="utf-8") as f:
            json.dump({"workload": args.workload, "pairs": args.pairs,
                       "seed": args.seed, "seconds": args.seconds,
                       "quick": args.quick, "a": args.a, "b": args.b,
                       "runs": runs, "summary": rows}, f, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
