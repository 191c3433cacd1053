#!/usr/bin/env python3
"""Summarize or validate per-query broadcast trace JSONL files.

The input is the --trace-out output of any experiment bench (one JSON
object per line; schema in DESIGN.md §9). Stdlib only.

Usage:
  tools/trace_summary.py TRACE.jsonl            # per-cell report
  tools/trace_summary.py --check TRACE.jsonl    # schema check; exit 1 on
                                                # any malformed line
  tools/trace_summary.py --json=OUT.json TRACE.jsonl
                                                # report in the BENCH_*.json
                                                # cell schema

The report gives, per cell: query count, p50/p95/p99/max access latency
and tuning time (exact, computed from the raw per-query values), the
retry histogram, and index-packet reads per tree level.

Fleet traces (those stamped with a "client" id) additionally pass
per-client invariants under --check: within one (cell, client) stream
the query counter "q" is strictly increasing and arrivals are
non-decreasing — a client issues its queries sequentially, and the
fleet engine replays traces in a deterministic order that preserves
each client's issue order. Per-line, dozes plus packet reads must add
up to the access latency for every query, fleet or not.

Versioned-broadcast traces (DESIGN.md §15) stamp each line with the
completion "epoch" and its mid-query "epoch_switches" count; the two
must appear together, and every "epoch_switch" event must carry the
target epoch plus a 1-based "attempt" ordinal whose sequence matches
the line's total switch count.

Region-cache traces (DESIGN.md §16) mark queries answered from the
client's cache with a top-level "cache_hit": true and a single
"cache_hit" event carrying the cached epoch. A hit never tunes in, so
--check enforces: zero tuning, zero latency, and no probe / doze /
index / bucket / fallback_scan events on the line — the cache_hit
event must be the only one. A "cache_hit" event on a line without the
flag (or vice versa) is an error.
"""

import json
import math
import os
import sys

EVENT_KINDS = {
    "probe",
    "doze",
    "index",
    "bucket",
    "loss",
    "retune",
    "corruption_detected",
    "fallback_scan",
    "epoch_switch",
    "cache_hit",
}

REQUIRED_TOP = {
    "q": int,
    "x": (int, float),
    "y": (int, float),
    "region": int,
    "arrival": (int, float),
    "latency": (int, float),
    "tuning": int,
    "retries": int,
    "lost": int,
    "corrupted": int,
    "fallback": bool,
    "unrecoverable": bool,
    "events": list,
}


def validate_line(obj):
    """Returns an error string or None. Checks field presence/types, then
    the line's events against its counts (check_events)."""
    if not isinstance(obj, dict):
        return "line is not a JSON object"
    for key, typ in REQUIRED_TOP.items():
        if key not in obj:
            return f"missing field {key!r}"
        if not isinstance(obj[key], typ) or isinstance(obj[key], bool) != (
            typ is bool
        ):
            return f"field {key!r} has wrong type {type(obj[key]).__name__}"
    if "cell" in obj and not isinstance(obj["cell"], str):
        return "field 'cell' has wrong type"
    # Fleet-engine traces (broadcast/fleet.h) stamp the issuing client:
    # slot + generation * num_clients, a non-negative integer. Single-query
    # simulations omit the field entirely.
    if "client" in obj:
        if not isinstance(obj["client"], int) or isinstance(obj["client"], bool):
            return "field 'client' has wrong type"
        if obj["client"] < 0:
            return f"field 'client' is negative ({obj['client']})"
    # Versioned-broadcast traces (RunFleetVersioned / BroadcastTimeline)
    # stamp the epoch the query completed in and the number of mid-query
    # epoch switches; legacy traces omit both fields entirely.
    if ("epoch" in obj) != ("epoch_switches" in obj):
        return "fields 'epoch' and 'epoch_switches' must appear together"
    for key in ("epoch", "epoch_switches"):
        if key in obj:
            if not isinstance(obj[key], int) or isinstance(obj[key], bool):
                return f"field {key!r} has wrong type"
            if obj[key] < 0:
                return f"field {key!r} is negative ({obj[key]})"
    # Region-cache traces (broadcast/region_cache.h) stamp hits with a
    # boolean flag; miss lines and cache-off runs omit the field entirely.
    if "cache_hit" in obj and not isinstance(obj["cache_hit"], bool):
        return "field 'cache_hit' has wrong type"
    return check_events(obj)


def check_events(obj):
    """Returns an error string or None. Checks each event of obj["events"]
    (a list) and the invariants the simulator guarantees between the
    events and obj's counts: tuning equals the packets read across
    probe / index / bucket / fallback_scan events; retries, lost,
    corrupted and epoch_switches equal the retune, loss,
    corruption_detected and epoch_switch events; the fallback flag
    matches the fallback_scan events; a cache hit is its line's only
    event; and dozes plus reads add up to the access latency. Trace lines
    and telemetry flight records (tools/telemetry_report.py) encode their
    events alike, so both are checked here."""
    reads = 0
    retunes = 0
    losses = 0
    corruptions = 0
    fallback_scans = 0
    epoch_switches = 0
    cache_hit_events = 0
    doze = 0.0
    for i, ev in enumerate(obj["events"]):
        if not isinstance(ev, dict):
            return f"event {i} is not an object"
        kind = ev.get("t")
        if kind not in EVENT_KINDS:
            return f"event {i} has unknown kind {kind!r}"
        if not isinstance(ev.get("pos"), int):
            return f"event {i} ({kind}) missing integer 'pos'"
        if kind == "probe":
            reads += 1
        elif kind == "doze":
            if not isinstance(ev.get("dur"), (int, float)) or ev["dur"] <= 0:
                return f"event {i} (doze) needs positive 'dur'"
            doze += ev["dur"]
        elif kind == "index":
            if not isinstance(ev.get("pkt"), int) or ev["pkt"] < 0:
                return f"event {i} (index) needs non-negative 'pkt'"
            if ("node" in ev) != ("depth" in ev):
                return f"event {i} (index) has node without depth (or vice versa)"
            reads += 1
        elif kind == "bucket":
            if not isinstance(ev.get("n"), int) or ev["n"] < 1:
                return f"event {i} (bucket) needs positive 'n'"
            reads += ev["n"]
        elif kind == "loss":
            losses += 1
        elif kind == "retune":
            if not isinstance(ev.get("attempt"), int) or ev["attempt"] < 1:
                return f"event {i} (retune) needs positive 'attempt'"
            retunes += 1
        elif kind == "corruption_detected":
            corruptions += 1
        elif kind == "epoch_switch":
            if not isinstance(ev.get("epoch"), int) or ev["epoch"] < 0:
                return f"event {i} (epoch_switch) needs non-negative 'epoch'"
            if not isinstance(ev.get("attempt"), int) or ev["attempt"] < 1:
                return f"event {i} (epoch_switch) needs positive 'attempt'"
            epoch_switches += 1
            if ev["attempt"] != epoch_switches:
                return (
                    f"event {i} (epoch_switch) attempt {ev['attempt']} out "
                    f"of order (expected {epoch_switches})"
                )
        elif kind == "cache_hit":
            if not isinstance(ev.get("epoch"), int) or ev["epoch"] < 0:
                return f"event {i} (cache_hit) needs non-negative 'epoch'"
            cache_hit_events += 1
        elif kind == "fallback_scan":
            if not isinstance(ev.get("n"), int) or ev["n"] < 0:
                return f"event {i} (fallback_scan) needs non-negative 'n'"
            if not isinstance(ev.get("attempt"), int) or ev["attempt"] < 0:
                return f"event {i} (fallback_scan) needs non-negative 'attempt'"
            reads += ev["n"]
            fallback_scans += 1
    if reads != obj["tuning"]:
        return f"tuning {obj['tuning']} != {reads} packets read in events"
    if retunes != obj["retries"]:
        return f"retries {obj['retries']} != {retunes} retune events"
    if losses != obj["lost"]:
        return f"lost {obj['lost']} != {losses} loss events"
    if corruptions != obj["corrupted"]:
        return (
            f"corrupted {obj['corrupted']} != {corruptions} "
            f"corruption_detected events"
        )
    if obj["fallback"] != (fallback_scans > 0):
        return (
            f"fallback flag {obj['fallback']} inconsistent with "
            f"{fallback_scans} fallback_scan events"
        )
    if "epoch_switches" in obj:
        if epoch_switches != obj["epoch_switches"]:
            return (
                f"epoch_switches {obj['epoch_switches']} != "
                f"{epoch_switches} epoch_switch events"
            )
    elif epoch_switches > 0:
        return (
            f"{epoch_switches} epoch_switch events on a trace without the "
            f"versioned 'epoch_switches' field"
        )
    if obj.get("cache_hit", False):
        # A hit is answered from the cached region: the receiver never
        # wakes, so zero index reads, zero doze, and the single cache_hit
        # event is the whole story.
        if cache_hit_events != 1:
            return (
                f"cache_hit line has {cache_hit_events} cache_hit events "
                f"(expected exactly 1)"
            )
        if len(obj["events"]) != 1:
            return (
                f"cache_hit line has {len(obj['events'])} events "
                f"(the cache_hit event must be the only one)"
            )
        if obj["tuning"] != 0:
            return f"cache_hit line has nonzero tuning {obj['tuning']}"
        if obj["latency"] != 0:
            return f"cache_hit line has nonzero latency {obj['latency']}"
        if doze != 0.0:
            return f"cache_hit line has nonzero doze {doze}"
    elif cache_hit_events > 0:
        return (
            f"{cache_hit_events} cache_hit events on a line without the "
            f"'cache_hit' flag"
        )
    # Values survive a %.10g round-trip, so allow ~1e-3 absolute slack.
    if not math.isclose(doze + reads, obj["latency"], rel_tol=1e-7, abs_tol=1e-3):
        return (
            f"latency {obj['latency']} != doze {doze} + reads {reads} "
            f"(= {doze + reads})"
        )
    return None


def percentile(sorted_values, p):
    """Nearest-rank percentile on a pre-sorted list."""
    if not sorted_values:
        return 0.0
    rank = max(1, math.ceil(p * len(sorted_values)))
    return sorted_values[rank - 1]


class CellStats:
    def __init__(self):
        self.latency = []
        self.tuning = []
        self.retries = {}
        self.level_reads = {}
        self.unattributed = 0
        self.unrecoverable = 0
        self.fallback = 0
        self.cache_hits = 0

    def add(self, obj):
        if obj.get("cache_hit", False):
            self.cache_hits += 1
        self.latency.append(obj["latency"])
        self.tuning.append(obj["tuning"])
        self.retries[obj["retries"]] = self.retries.get(obj["retries"], 0) + 1
        if obj["unrecoverable"]:
            self.unrecoverable += 1
        if obj["fallback"]:
            self.fallback += 1
        for ev in obj["events"]:
            if ev.get("t") != "index":
                continue
            depth = ev.get("depth", -1)
            if depth >= 0:
                self.level_reads[depth] = self.level_reads.get(depth, 0) + 1
            else:
                self.unattributed += 1

    def summary(self):
        lat = sorted(self.latency)
        tun = sorted(self.tuning)
        return {
            "queries": len(lat),
            "p50_latency": percentile(lat, 0.50),
            "p95_latency": percentile(lat, 0.95),
            "p99_latency": percentile(lat, 0.99),
            "max_latency": lat[-1] if lat else 0.0,
            "p50_tuning": percentile(tun, 0.50),
            "p95_tuning": percentile(tun, 0.95),
            "p99_tuning": percentile(tun, 0.99),
            "max_tuning": tun[-1] if tun else 0.0,
            "unrecoverable": self.unrecoverable,
            "fallback": self.fallback,
            "cache_hits": self.cache_hits,
            "retry_histogram": {str(k): v for k, v in sorted(self.retries.items())},
            "level_reads": {str(k): v for k, v in sorted(self.level_reads.items())},
            "unattributed_reads": self.unattributed,
        }


def run_main(main, argv):
    """Returns main(argv)'s exit status. A reader that stops early
    (`| head`) closes stdout; the report then ends quietly with status 0
    instead of a BrokenPipeError traceback."""
    try:
        status = main(argv)
        sys.stdout.flush()
        return status
    except BrokenPipeError:
        # Point stdout at /dev/null so the interpreter's exit-time flush
        # does not raise again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0


def main(argv):
    check_only = False
    json_out = None
    paths = []
    for arg in argv[1:]:
        if arg == "--check":
            check_only = True
        elif arg.startswith("--json="):
            json_out = arg[len("--json=") :]
        elif arg.startswith("-"):
            print(f"unknown flag {arg}", file=sys.stderr)
            return 2
        else:
            paths.append(arg)
    if not paths:
        print(__doc__, file=sys.stderr)
        return 2

    cells = {}
    total = 0
    # Per-(cell, client) stream state for the fleet invariants: last seen
    # query counter and arrival time.
    client_streams = {}
    for path in paths:
        with open(path, "r", encoding="utf-8") as f:
            for lineno, line in enumerate(f, 1):
                line = line.strip()
                if not line:
                    continue
                try:
                    obj = json.loads(line)
                except json.JSONDecodeError as e:
                    print(f"{path}:{lineno}: invalid JSON: {e}", file=sys.stderr)
                    return 1
                err = validate_line(obj)
                if err is not None:
                    print(f"{path}:{lineno}: {err}", file=sys.stderr)
                    return 1
                if "client" in obj:
                    stream = (obj.get("cell", ""), obj["client"])
                    prev = client_streams.get(stream)
                    if prev is not None:
                        prev_q, prev_arrival = prev
                        if obj["q"] <= prev_q:
                            print(
                                f"{path}:{lineno}: client {obj['client']} "
                                f"query counter went {prev_q} -> {obj['q']} "
                                f"(must be strictly increasing)",
                                file=sys.stderr,
                            )
                            return 1
                        if obj["arrival"] < prev_arrival:
                            print(
                                f"{path}:{lineno}: client {obj['client']} "
                                f"arrival went {prev_arrival} -> "
                                f"{obj['arrival']} (must be non-decreasing)",
                                file=sys.stderr,
                            )
                            return 1
                    client_streams[stream] = (obj["q"], obj["arrival"])
                total += 1
                if not check_only:
                    cells.setdefault(obj.get("cell", ""), CellStats()).add(obj)

    if check_only:
        print(f"OK: {total} trace lines valid")
        return 0

    report = {cell or "(unlabeled)": stats.summary() for cell, stats in cells.items()}
    for cell, s in report.items():
        print(f"\n-- {cell} ({s['queries']} queries) --")
        print(
            "latency  p50 {p50_latency:8.1f}  p95 {p95_latency:8.1f}  "
            "p99 {p99_latency:8.1f}  max {max_latency:8.1f}".format(**s)
        )
        print(
            "tuning   p50 {p50_tuning:8.1f}  p95 {p95_tuning:8.1f}  "
            "p99 {p99_tuning:8.1f}  max {max_tuning:8.1f}".format(**s)
        )
        if any(k != "0" for k in s["retry_histogram"]):
            hist = ", ".join(f"{k}: {v}" for k, v in s["retry_histogram"].items())
            print(
                f"retries  {{{hist}}}  unrecoverable {s['unrecoverable']}"
                f"  fallback {s['fallback']}"
            )
        if s["cache_hits"]:
            rate = s["cache_hits"] / s["queries"] if s["queries"] else 0.0
            print(f"cache hits {s['cache_hits']} ({rate:.1%})")
        if s["level_reads"]:
            levels = "  ".join(f"L{k} {v}" for k, v in s["level_reads"].items())
            extra = (
                f"  ? {s['unattributed_reads']}" if s["unattributed_reads"] else ""
            )
            print(f"index reads by tree level: {levels}{extra}")

    if json_out:
        payload = {
            "bench": "trace_summary",
            "cells": [{"cell": cell, **s} for cell, s in sorted(report.items())],
        }
        with open(json_out, "w", encoding="utf-8") as f:
            json.dump(payload, f, indent=2)
            f.write("\n")
        print(f"\nsummary written to {json_out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(run_main(main, sys.argv))
