#!/usr/bin/env python3
"""End-to-end command-line test of every tool and bench.

Usage: cli_test.py BUILD_DIR SOURCE_DIR

Runs each invocation documented in .github/workflows/ci.yml,
.github/workflows/nightly.yml, README.md and .claude/skills/verify/SKILL.md
(schedule budgets, bench windows and explorer probes shrunk to seconds),
including the scripts that validate what they write, then a set of
malformed and out-of-range inputs. Every run happens in one
scratch directory, in order (later cases read files earlier ones wrote),
under a timeout. A case passes when the exit status is the expected one:
0 or 1 as the documented command returns today, 2 for bad input. A signal,
a timeout or any other status fails the test.
"""
import glob
import os
import subprocess
import sys
import tempfile

TIMEOUT_S = 120

# (expected exit status, command). The first word names a binary under
# BUILD_DIR, or is "python3"; "@SRC/" expands to SOURCE_DIR, and a word
# with a "*" expands to the matching files in the scratch directory.
DOCUMENTED = [
    # ci.yml
    (0, "tools/dqme_sim --algo cao-singhal --n 9 --measure 200000 --trace-out=trace_dqme_sim.json"),
    (0, "tools/dqme_critpath --selftest"),
    (0, "tools/dqme_critpath --table1 --json=critpath_table1.json"),
    (0, "bench/e3_sync_delay --quick --check --json=critpath_e3_sync_delay_ci.json"),
    (0, "tools/dqme_trace --crit --json=trace_crit.json"),
    (0, "tools/dqme_check --selftest --report-out=check_selftest.json --flightrec-out=flightrec_selftest_"),
    (0, "python3 @SRC/scripts/validate_trace.py flightrec_selftest_*.json"),
    (1, "tools/dqme_explore --mutate lost-transfer --trace-out trace_lost_transfer.json --flightrec-out flightrec_lost_transfer.json"),
    (0, "python3 @SRC/scripts/validate_trace.py trace_lost_transfer.json flightrec_lost_transfer.json"),
    (0, "tools/dqme_check --trace trace_dqme_sim.json --report-out=check_trace_sim.json"),
    (0, "tools/dqme_check --trace @SRC/tests/golden/trace_3site.json --report-out=check_trace_golden.json"),
    (0, "tools/dqme_check --preset smoke --report-out=check_smoke.json --flightrec-out=flightrec_smoke.json"),
    (0, "tools/dqme_explore --preset smoke --json explore_smoke.json --frontier-out explore_frontier.json --flightrec-out flightrec_explore.json"),
    (0, "tools/dqme_explore --algo cao-singhal --n 3 --cs-per-site 1 --crashes 1 --compare --json explore_compare.json"),
    (1, "tools/dqme_explore --preset n4 --workers 2 --budget 20000 --json explore_n4.json"),
    (0, "tools/dqme_explore --preset smoke --workers=2"),
    (0, "bench/micro_core --quick --json=BENCH_micro_core_ci.json --trace-out=trace_micro_core.json"),
    (0, "bench/rt_core --quick --json=BENCH_rt_core_ci.json"),
    (0, "bench/x3_lock_service --quick --check --json=BENCH_x3_lock_service_ci.json"),
    (0, "bench/e7_fault_tolerance --quick --check --json=BENCH_e7_fault_tolerance_ci.json"),
    # nightly.yml
    (0, "tools/dqme_explore --algo cao-singhal --n 5 --cs-per-site 1 --crashes 1 --workers 2 --budget 2000 --json explore_n5.json --frontier-out frontier_n5.json --flightrec-out flightrec_n5.json"),
    (0, "tools/dqme_explore --resume frontier_n5.json --workers 2 --budget 4000 --json explore_n5_leg2.json --frontier-out frontier_n5_leg2.json"),
    # README.md
    (0, "tools/dqme_sim --algo cao-singhal --n 49 --quorum grid"),
    (0, "tools/dqme_trace 4"),
    (0, "tools/dqme_sim --backend rt --algo cao-singhal --n 8 --locks 64"),
    (0, "tools/dqme_sim --algo cao-singhal --n 9 --trace-out=trace.json"),
    (0, "tools/dqme_check --selftest"),
    (0, "tools/dqme_check --preset smoke"),
    (0, "tools/dqme_check --trace trace.json"),
    (0, "tools/dqme_critpath --algo cao-singhal"),
    (0, "tools/dqme_critpath --table1"),
    (0, "tools/dqme_trace --crit --json=t.json"),
    (0, "tools/dqme_explore --n 3 --cs-per-site 1 --crashes 1"),
    (1, "tools/dqme_explore --mutate lost-transfer --repro-out repro.json"),
    (1, "tools/dqme_sim --replay-schedule repro.json"),
    (0, "bench/e3_sync_delay --quick --seeds=8 --jobs=8 --json"),
    # .claude/skills/verify/SKILL.md
    (0, "bench/e3_sync_delay --quick --seeds=8 --jobs=1 --json=a.json"),
    (0, "bench/micro_core --quick --json=f.json"),
    (0, "bench/rt_core --quick --json=r.json"),
    (0, "bench/rt_core --quick --check"),
    (0, "tools/dqme_sim --backend rt --algo cao-singhal --n 4 --quorum majority --locks 1 --entries 3000 --no-check"),
    (0, "bench/x3_lock_service --quick --check"),
    (0, "tools/dqme_sim --locks 64 --zipf 0.9 --lock-piggyback 1000"),
    (0, "tools/dqme_sim --algo cao-singhal --n 25"),
    (0, "tools/dqme_explore --algo cao-singhal --n 3 --cs-per-site 1"),
    (1, "tools/dqme_explore --mutate double-grant --repro-out r.json"),
    (1, "tools/dqme_sim --replay-schedule r.json"),
    (1, "tools/dqme_explore --mutate fifo-inversion --repro-out r.json"),
    (1, "tools/dqme_sim --replay-schedule r.json"),
    (1, "tools/dqme_explore --preset n4 --workers 2 --budget 20000"),
]

# Every bench binary, as the CI invariant-checker loop runs them.
BENCHES = ["e1_table1", "e2_message_complexity", "e3_sync_delay",
           "e4_throughput", "e5_waiting_time", "e6_quorum_size",
           "e7_fault_tolerance", "e8_case_analysis", "e9_ablation",
           "micro_core", "rt_core", "x1_replica_control", "x2_scaling",
           "x3_lock_service"]
DOCUMENTED += [(0, "bench/%s --quick --check" % b) for b in BENCHES]

TOOLS = ["dqme_sim", "dqme_check", "dqme_explore", "dqme_critpath",
         "dqme_trace"]
HELP = [(0, "tools/%s --help" % t) for t in TOOLS] + \
       [(0, "bench/%s --help" % b) for b in BENCHES]

# Malformed or out-of-range input: always exit 2, never abort or hang.
# Range checks use small values only (rt starts a thread per site and the
# simulated network allocates n^2 channel slots); a ceiling is probed with
# ceiling+1 only.
BAD = [
    "tools/dqme_sim --n -3",
    "tools/dqme_sim --n 0",
    "tools/dqme_check --n -3",
    "tools/dqme_explore --n -2",
    "tools/dqme_explore --n 1",
    "tools/dqme_sim --backend rt --n 1",
    "tools/dqme_trace 4 0",
    "tools/dqme_trace 4 abc",
    "tools/dqme_trace 4 --json out.json",
    "tools/dqme_trace 1",
    "tools/dqme_trace 4 6 1 9",
    "tools/dqme_trace --locks=2 --lock=2",
    "tools/dqme_trace --span=nonsense",
    "tools/dqme_explore --n 3 --cs-per-site 1 --crashes 1 --crash-sites 7",
    "tools/dqme_explore --crash-sites -1",
    "tools/dqme_explore --crash-sites ''",
    "tools/dqme_sim --measure abc",
    "tools/dqme_sim --measure 12x",
    "tools/dqme_sim --seed 99999999999999999999999",
    "tools/dqme_explore --workers abc",
    "tools/dqme_explore --workers 0",
    "tools/dqme_explore --workers 257",
    "tools/dqme_sim --backend rt --n 65",
    "bench/e1_table1 --jobs=257",
    "tools/dqme_explore --mutate bogus",
    "tools/dqme_explore --preset bogus",
    "tools/dqme_sim --bogus",
    "tools/dqme_sim stray",
    "tools/dqme_sim --algo bogus",
    "tools/dqme_sim --backend gpu",
    "tools/dqme_sim --backend rt --t 5",
    "tools/dqme_sim --backend rt --replay-schedule r.json",
    "tools/dqme_sim --entries 5",
    "tools/dqme_sim --ft=1",
    "tools/dqme_sim --trace-out",
    "tools/dqme_sim --trace-out=",
    "tools/dqme_sim --rate 0",
    "tools/dqme_sim --rate nan",
    "tools/dqme_sim --crash 5",
    "tools/dqme_sim --crash 100:99",
    "tools/dqme_sim --liveness-bound 5",
    "tools/dqme_sim --replay-schedule does_not_exist.json",
    "tools/dqme_check --liveness-bound=abc",
    "tools/dqme_check --preset bogus",
    "tools/dqme_check --tolerance -1",
    "tools/dqme_check --delay uniform",
    "tools/dqme_critpath --rounds 0",
    "tools/dqme_critpath --algo bogus",
    "tools/dqme_critpath --json out.json",
    "tools/dqme_critpath --table1=yes",
    "bench/e1_table1 --jobs=-1",
    "bench/e1_table1 --seeds=0",
    "bench/e1_table1 --seeds abc",
    "bench/e1_table1 --threads=4",
    "bench/e1_table1 --bogus",
    "bench/rt_core --threads=1",
]


def run(build, src, workdir, expected, command):
    words = []
    for w in command.replace("@SRC/", src + "/").split():
        if "*" in w:
            words += sorted(glob.glob(os.path.join(workdir, w))) or [w]
        else:
            words.append("" if w == "''" else w)
    if words[0] == "python3":
        argv = [sys.executable] + words[1:]
    else:
        argv = [os.path.join(build, words[0])] + words[1:]
    try:
        p = subprocess.run(argv, cwd=workdir, stdout=subprocess.DEVNULL,
                           stderr=subprocess.PIPE, timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return "timed out after %d s" % TIMEOUT_S
    if p.returncode == expected:
        return None
    tail = p.stderr.decode(errors="replace").strip().splitlines()[-3:]
    if p.returncode < 0:
        return "killed by signal %d %s" % (-p.returncode, tail)
    return "exit %d, expected %d %s" % (p.returncode, expected, tail)


def main():
    if len(sys.argv) != 3:
        print(__doc__)
        return 2
    build, src = (os.path.abspath(a) for a in sys.argv[1:])
    cases = DOCUMENTED + HELP + [(2, c) for c in BAD]
    failures = 0
    with tempfile.TemporaryDirectory(prefix="dqme_cli_") as workdir:
        for expected, command in cases:
            why = run(build, src, workdir, expected, command)
            print("%-4s %s%s" % ("ok" if why is None else "FAIL", command,
                                 "" if why is None else "  -- " + why))
            failures += why is not None
    print("%d/%d cases passed" % (len(cases) - failures, len(cases)))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
