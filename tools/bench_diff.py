#!/usr/bin/env python3
"""Compares two BENCH_*.json files cell by cell.

    python3 tools/bench_diff.py BASE.json HEAD.json
    python3 tools/bench_diff.py --self-test

Rows are matched by key: ("cell", "threads") in a "cells" list, and
("index", "n") in a "results" list (BENCH_micro.json). Timing fields vary
from run to run: for wall_s, qps, speedup and every *_ns_per_probe the
script prints BASE -> HEAD and the relative delta. Every other field of a
row, and every other top-level field, is a result and must match exactly.
A row or a field found on one side only is a mismatch, timing or not.
The exception is the top-level "host" block (core count, threads,
compiler, build type, native arch, git sha): the script prints both sides'
blocks and never counts them as a mismatch, so files recorded on other
hosts, or before the block existed, still diff.

Exit status: 1 on any mismatch, else 0. Standard library only.
"""

import argparse
import json
import os
import sys
from pathlib import Path

ROW_KEYS = {"cells": ("cell", "threads"), "results": ("index", "n")}
TIMING_FIELDS = {"wall_s", "qps", "speedup"}
HOST = "host"


def is_timing(field):
    return field in TIMING_FIELDS or field.endswith("_ns_per_probe")


def keyed_rows(doc, mismatches):
    """{(list name, key values): row}, in file order. A row without its
    key fields, or a key seen twice, is recorded as a mismatch."""
    rows = {}
    for name, key_fields in ROW_KEYS.items():
        for row in doc.get(name, []):
            if not all(f in row for f in key_fields):
                mismatches.append(f"{name}: row without {key_fields}: {row}")
                continue
            key = (name, tuple(row[f] for f in key_fields))
            if key in rows:
                mismatches.append(f"{label(key)}: duplicate row")
            rows[key] = row
    return rows


def label(key):
    name, values = key
    return f"{name}[{', '.join(str(v) for v in values)}]"


def delta(base, head):
    if not isinstance(base, (int, float)) or not isinstance(head,
                                                            (int, float)):
        return f"{base} -> {head}"
    if base == 0:
        return f"{base} -> {head}"
    return f"{base} -> {head} ({100.0 * (head - base) / abs(base):+.1f}%)"


def diff(base, head):
    """Returns (timing report lines, mismatch lines) for two parsed
    BENCH documents."""
    mismatches, timings = [], []
    for field in sorted(set(base) | set(head)):
        if field in ROW_KEYS or field == HOST:
            continue
        if field not in base or field not in head:
            side = "BASE" if field in base else "HEAD"
            mismatches.append(f"top-level {field}: only in {side}")
        elif base[field] != head[field]:
            mismatches.append(
                f"top-level {field}: {base[field]!r} != {head[field]!r}")
    base_rows = keyed_rows(base, mismatches)
    head_rows = keyed_rows(head, mismatches)
    for key in list(base_rows) + [k for k in head_rows if k not in base_rows]:
        if key not in base_rows or key not in head_rows:
            side = "BASE" if key in base_rows else "HEAD"
            mismatches.append(f"{label(key)}: only in {side}")
            continue
        b, h = base_rows[key], head_rows[key]
        parts = []
        for field in list(b) + [f for f in h if f not in b]:
            if field not in b or field not in h:
                side = "BASE" if field in b else "HEAD"
                mismatches.append(f"{label(key)} {field}: only in {side}")
            elif is_timing(field):
                parts.append(f"{field} {delta(b[field], h[field])}")
            elif b[field] != h[field]:
                mismatches.append(
                    f"{label(key)} {field}: {b[field]!r} != {h[field]!r}")
        if parts:
            timings.append(f"{label(key)}  " + "  ".join(parts))
    return timings, mismatches


def host_lines(base, head):
    """One report line per side naming the host it was recorded on."""
    return [f"host {side}: " +
            (json.dumps(doc[HOST], sort_keys=True) if HOST in doc
             else "(none)")
            for side, doc in (("BASE", base), ("HEAD", head))]


def self_test():
    cell = {"cell": "UNIFORM/d-tree", "wall_s": 1.0, "qps": 100.0,
            "threads": 1, "p50_tuning": 12.5, "unrecoverable": 0}
    micro = {"index": "rstar", "n": 1000, "decode_ns_per_probe": 900.0,
             "arena_ns_per_probe": 300.0, "speedup": 3.0,
             "arena_bytes": 4096, "verified_queries": 4096}
    base = {"bench": "b", "seed": 42, "cells": [cell, dict(cell, threads=4)],
            "results": [micro]}
    host = {"nproc": 4, "threads": 4, "compiler": "GNU 12.2.0",
            "build_type": "Release", "native_arch": False,
            "git_sha": "0123456789ab"}

    def variant(**edits):
        doc = json.loads(json.dumps(base))
        for path, value in edits.items():
            where, _, field = path.partition("__")
            row = doc if where == "top" else doc[where][0]
            if value is None:
                del row[field]
            else:
                row[field] = value
        return doc

    # (description, head document, expected mismatch count)
    cases = [
        ("identical", variant(), 0),
        ("timing only", variant(cells__wall_s=2.0, cells__qps=50.0,
                                results__arena_ns_per_probe=200.0,
                                results__speedup=4.5), 0),
        ("result field", variant(cells__p50_tuning=12.6), 1),
        ("integer result", variant(results__arena_bytes=4100), 1),
        ("top-level field", variant(top__seed=43), 1),
        ("top-level field dropped", variant(top__bench=None), 1),
        ("timing column dropped", variant(results__decode_ns_per_probe=None,
                                          results__speedup=None), 2),
        ("result column added", variant(cells__fallback=0), 1),
        ("cell renamed", variant(cells__cell="PARK/d-tree"), 2),
        ("thread count is a key", variant(cells__threads=2), 2),
        ("host only in HEAD", variant(top__host=host), 0),
    ]
    ok = True
    for what, head, want in cases:
        timings, mismatches = diff(base, head)
        if len(mismatches) != want:
            ok = False
            print(f"self-test FAIL: {what}: {len(mismatches)} mismatch(es), "
                  f"want {want}: {mismatches}")
    timings, _ = diff(base, variant(cells__wall_s=2.0))
    if not any("wall_s 1.0 -> 2.0 (+100.0%)" in t for t in timings):
        ok = False
        print(f"self-test FAIL: timing delta not reported: {timings}")
    # Host blocks are printed, never compared: a different host, or a
    # block on one side only, is no mismatch.
    hosted = variant(top__host=host)
    moved = variant(top__host=dict(host, nproc=1, git_sha="fedcba987654"))
    for what, b, h in (("host differs", hosted, moved),
                       ("host only in BASE", hosted, base)):
        if diff(b, h)[1]:
            ok = False
            print(f"self-test FAIL: {what}: {diff(b, h)[1]}")
    lines = host_lines(hosted, base)
    if lines != ["host BASE: " + json.dumps(host, sort_keys=True),
                 "host HEAD: (none)"]:
        ok = False
        print(f"self-test FAIL: host blocks not reported: {lines}")
    dup = variant()
    dup["cells"].append(dict(cell))
    if len(diff(base, dup)[1]) != 1:
        ok = False
        print("self-test FAIL: a duplicate row key is not a mismatch")
    # Every committed BENCH file parses and diffs clean against itself.
    root = Path(__file__).resolve().parent.parent
    for path in sorted(root.glob("BENCH_*.json")):
        with open(path) as fh:
            doc = json.load(fh)
        _, mismatches = diff(doc, doc)
        if mismatches or not any(k in doc for k in ROW_KEYS):
            ok = False
            print(f"self-test FAIL: {path.name} does not diff clean "
                  f"against itself: {mismatches}")
    print("bench_diff.py self-test " + ("passed" if ok else "FAILED"))
    return 0 if ok else 1


def main():
    ap = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("base", nargs="?")
    ap.add_argument("head", nargs="?")
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()
    if args.self_test:
        return self_test()
    if args.base is None or args.head is None:
        ap.error("BASE and HEAD are required")
    with open(args.base) as fh:
        base = json.load(fh)
    with open(args.head) as fh:
        head = json.load(fh)
    timings, mismatches = diff(base, head)
    try:
        for line in host_lines(base, head) + timings:
            print(line)
        for line in mismatches:
            print(f"MISMATCH {line}")
        print(f"{len(timings)} row(s) with timings, "
              f"{len(mismatches)} mismatch(es)")
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader stopped early (`| head`). The verdict stands; point
        # stdout at /dev/null so the exit-time flush does not raise again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
