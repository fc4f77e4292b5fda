#!/usr/bin/env python3
"""Validate dqme_explore frontier files (suspended schedule-space search).

Accepts both formats the explorer writes:
  * v1 — the sequential Explorer's single DFS stack: a header object,
    then one {"frame": i, ...} line per stack level;
  * v2 — the ParallelExplorer's multi-task partition: a header object,
    then one {"task": i, ...} line per remaining subtree.

Checks, beyond "it parses":
  * header — the marker version is known, the WorldConfig fields needed
    to rebuild the world are present (algo/n/quorum/cs_per_site), the
    carried counters are non-negative integers, and the DPOR mode (when
    present) is one of sleep|source;
  * frame/task shape — indices are consecutive from zero; every action
    string decodes ("d src dst" / "x s" / "n v r" / "c s"); the sleep and
    sealed bit-strings are 0/1-valued and exactly as long as the action
    list (set-membership bounds: one bit per enabled action, nothing
    more); the resume cursor `next` is within [0, len(actions)];
  * v1 stack discipline — every non-leaf frame has descended (next >= 1),
    otherwise the implicit replay prefix is undefined;
  * v2 partition — each task's DFS index path has exactly one component
    per prefix action (depth consistency), and no two tasks share a path
    (duplicate nodes would be explored twice on resume);
  * v2 header `tasks` count matches the number of task lines.

Exit 0 on success; exit 1 with a message on the first violation.
Usage: scripts/validate_frontier.py FILE [FILE ...]
"""
import json
import re
import sys

ACTION_RE = re.compile(r"^([dn]) (-?\d+) (-?\d+)$|^([xc]) (-?\d+)$")
# A counter missing from the header reads as 0, so files written before a
# counter existed (e.g. "restores") still validate.
COUNTERS = ("schedules", "truncated", "nodes", "replays", "restores",
            "replay_steps", "sleep_skips")


def fail(path, msg):
    print(f"{path}: FAIL: {msg}", file=sys.stderr)
    sys.exit(1)


def check_actions(path, where, text):
    """Returns the number of actions in a 'd 0 1;x 2;...' string."""
    if text == "":
        return 0
    items = text.split(";")
    for item in items:
        if not ACTION_RE.match(item):
            fail(path, f"{where}: undecodable action {item!r}")
    return len(items)


def check_bits(path, where, bits, n, what):
    if len(bits) != n:
        fail(path, f"{where}: {what} has {len(bits)} bits for {n} actions")
    if bits.strip("01") != "":
        fail(path, f"{where}: {what} is not a 0/1 string: {bits!r}")


def check_header(path, header):
    for key in ("algo", "n", "quorum", "cs_per_site"):
        if key not in header:
            fail(path, f"header missing WorldConfig field {key!r}")
    if not isinstance(header["n"], int) or header["n"] < 2:
        fail(path, f"header n {header['n']!r} is not a site count")
    for key in COUNTERS:
        v = header.get(key, 0)
        if not isinstance(v, int) or v < 0:
            fail(path, f"header counter {key}={v!r} invalid")
    dpor = header.get("dpor")
    if dpor is not None and dpor not in ("sleep", "source"):
        fail(path, f"header dpor {dpor!r} not in sleep|source")


def check_v1(path, lines):
    for i, obj in enumerate(lines):
        where = f"frame {i}"
        if obj.get("frame") != i:
            fail(path, f"{where}: index {obj.get('frame')!r}, expected {i}")
        n = check_actions(path, where, obj.get("actions", ""))
        if n == 0:
            fail(path, f"{where}: empty enabled set")
        check_bits(path, where, obj.get("sleep", ""), n, "sleep set")
        if "sealed" in obj:
            check_bits(path, where, obj["sealed"], n, "sealed set")
        nxt = obj.get("next")
        if not isinstance(nxt, int) or not 0 <= nxt <= n:
            fail(path, f"{where}: cursor next={nxt!r} outside [0, {n}]")
        if i + 1 < len(lines) and nxt == 0:
            fail(path, f"{where}: non-leaf frame never descended")
    if not lines:
        fail(path, "v1 frontier has no frames")


def check_v2(path, header, lines):
    if "tasks" in header and header["tasks"] != len(lines):
        fail(path, f"header says {header['tasks']} tasks, file has "
                   f"{len(lines)}")
    seen_paths = set()
    for i, obj in enumerate(lines):
        where = f"task {i}"
        if obj.get("task") != i:
            fail(path, f"{where}: index {obj.get('task')!r}, expected {i}")
        prefix_len = check_actions(path, where, obj.get("prefix", ""))
        dfs_path = obj.get("path", "")
        comps = dfs_path.split() if dfs_path else []
        if any(not c.isdigit() for c in comps):
            fail(path, f"{where}: malformed DFS path {dfs_path!r}")
        if len(comps) != prefix_len:
            fail(path, f"{where}: path depth {len(comps)} != prefix "
                       f"length {prefix_len}")
        if dfs_path in seen_paths:
            fail(path, f"{where}: duplicate node at path {dfs_path!r}")
        seen_paths.add(dfs_path)
        n = check_actions(path, where, obj.get("actions", ""))
        if n == 0:
            fail(path, f"{where}: empty enabled set")
        check_bits(path, where, obj.get("sleep", ""), n, "sleep set")
        check_bits(path, where, obj.get("sealed", ""), n, "sealed set")
        nxt = obj.get("next")
        if not isinstance(nxt, int) or not 0 <= nxt <= n:
            fail(path, f"{where}: cursor next={nxt!r} outside [0, {n}]")
    if not lines:
        fail(path, "v2 frontier has no tasks")


def check_file(path):
    with open(path) as f:
        raw = [line for line in f.read().splitlines() if line.strip()]
    if not raw:
        fail(path, "empty file")
    try:
        objs = [json.loads(line) for line in raw]
    except json.JSONDecodeError as e:
        fail(path, f"not line-delimited JSON: {e}")
    header, body = objs[0], objs[1:]
    version = header.get("dqme_frontier")
    if version not in (1, 2):
        fail(path, f"unknown dqme_frontier version {version!r}")
    check_header(path, header)
    if version == 1:
        check_v1(path, body)
    else:
        check_v2(path, header, body)
    kind = "stack frames" if version == 1 else "tasks"
    print(f"{path}: OK (v{version}, {len(body)} {kind}, "
          f"{header.get('schedules', 0)} schedules carried)")


def main(argv):
    if len(argv) < 2:
        print(__doc__)
        return 2
    for path in argv[1:]:
        check_file(path)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
