#!/usr/bin/env python3
"""Summarize or validate fleet telemetry timeline JSONL files.

The input is the --telemetry-out output of bench_fleet or
bench_trace_profile (schema in DESIGN.md §14): one or more blocks, each
a meta line ({"meta": "fleet_telemetry", ...run totals...}) followed by
one JSON line per broadcast-cycle window. Stdlib only.

Usage:
  tools/telemetry_report.py TIMELINE.jsonl          # per-block report
  tools/telemetry_report.py --check TIMELINE.jsonl  # validate; exit 1 on
                                                    # any violation
  tools/telemetry_report.py --check --flight=FLIGHT.jsonl TIMELINE.jsonl
                                                    # also validate the
                                                    # flight-recorder dump
                                                    # and cross-check its
                                                    # record count
  tools/telemetry_report.py --self-test             # the checks against
                                                    # the pinned exports
                                                    # and tampered copies

--check enforces the schema plus the invariants the telemetry layer
guarantees by construction, so any violation means the producer (or the
file) is broken, not the fleet:
  * every block starts with a meta line and carries exactly meta.windows
    window lines with strictly increasing window indices;
  * summing any window counter over the block reproduces the matching
    meta total (queries, retries, lost, corrupted, unrecoverable,
    fallback, sessions, departures) — the meta totals come from the
    engine's own FleetResult, so this cross-checks telemetry against the
    simulation it observed;
  * per window, the latency and tuning histograms hold exactly one
    sample per completed query;
  * heatmap rows have exactly meta.heatmap_bins bins per class and their
    binned packets sum to the window's index_reads / data_reads
    counters, except in a window with no reads, whose rows the exporter
    leaves empty: there both rows are [] and both counters 0;
  * the epoch_switches window counter sums to the meta total (always
    present, 0 on single-epoch runs), and versioned flight records
    carry "epoch" and "epoch_switches" together or not at all
    (DESIGN.md §15);
  * region-cache counters (cache_hits, cache_misses, cache_evictions,
    cache_invalidations; DESIGN.md §16) are optional but consistent:
    cache-off runs omit all four everywhere, cache-on runs carry all
    four in the meta totals and in every window, the window sums
    reproduce the meta totals, and hits plus misses equal the block's
    query count (every issued query consults the cache exactly once);
  * every flight record is its query's whole ladder: its events, encoded
    as the query's trace line encodes them, account for the record's own
    tuning, retries, lost, corrupted, fallback and epoch_switches, and
    its dozes plus reads equal its latency (trace_summary.check_events).
"""

import json
import math
import os
import re
import sys
import tempfile
from pathlib import Path

from trace_summary import check_events, run_main

META_INT_KEYS = ("window_packets", "cycle_packets", "heatmap_bins",
                 "windows", "flight_records")
TOTALS_KEYS = ("queries", "sessions", "departures", "retries", "lost",
               "corrupted", "unrecoverable", "fallback", "epoch_switches")
# Present in totals and windows iff the producing run had the region
# cache enabled (broadcast/region_cache.h); all-or-nothing per block.
CACHE_KEYS = ("cache_hits", "cache_misses", "cache_evictions",
              "cache_invalidations")
WINDOW_COUNTER_KEYS = ("issued", "completed", "unrecoverable", "fallback",
                       "retries", "lost", "corrupted", "arrivals",
                       "departures", "index_reads", "data_reads",
                       "doze_count", "epoch_switches")
HIST_KEYS = ("count", "sum", "min", "max", "p50", "p95", "p99")
# window counter -> meta totals key it must sum to.
SUM_CHECKS = {
    "completed": "queries",
    "retries": "retries",
    "lost": "lost",
    "corrupted": "corrupted",
    "unrecoverable": "unrecoverable",
    "fallback": "fallback",
    "arrivals": "sessions",
    "departures": "departures",
    "epoch_switches": "epoch_switches",
}


def is_int(v):
    return isinstance(v, int) and not isinstance(v, bool)


def is_num(v):
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def validate_meta(obj):
    """Returns an error string or None."""
    if obj.get("meta") != "fleet_telemetry":
        return f"unexpected meta id {obj.get('meta')!r}"
    if "cell" in obj and not isinstance(obj["cell"], str):
        return "field 'cell' has wrong type"
    for key in META_INT_KEYS:
        if not is_int(obj.get(key)) or obj[key] < 0:
            return f"meta field {key!r} must be a non-negative integer"
    for key in ("window_packets", "cycle_packets", "heatmap_bins"):
        if obj[key] == 0:
            return f"meta field {key!r} must be positive"
    totals = obj.get("totals")
    if not isinstance(totals, dict):
        return "meta is missing the 'totals' object"
    for key in TOTALS_KEYS:
        if not is_int(totals.get(key)) or totals[key] < 0:
            return f"totals field {key!r} must be a non-negative integer"
    present = [key for key in CACHE_KEYS if key in totals]
    if present and len(present) != len(CACHE_KEYS):
        missing = sorted(set(CACHE_KEYS) - set(present))
        return f"totals has cache counters but is missing {missing}"
    for key in present:
        if not is_int(totals[key]) or totals[key] < 0:
            return f"totals field {key!r} must be a non-negative integer"
    return None


def meta_cache_enabled(meta):
    return CACHE_KEYS[0] in meta["totals"]


def validate_hist(h, name):
    if not isinstance(h, dict):
        return f"window field {name!r} is not an object"
    for key in HIST_KEYS:
        if not is_num(h.get(key)):
            return f"histogram {name!r} field {key!r} must be numeric"
    if h["count"] > 0 and h["min"] > h["max"]:
        return f"histogram {name!r} has min > max"
    return None


def validate_window(obj, bins, cache_on):
    if not is_int(obj.get("w")) or obj["w"] < 0:
        return "window field 'w' must be a non-negative integer"
    for key in WINDOW_COUNTER_KEYS:
        if not is_int(obj.get(key)) or obj[key] < 0:
            return f"window field {key!r} must be a non-negative integer"
    for key in CACHE_KEYS:
        if (key in obj) != cache_on:
            return (
                f"window field {key!r} must appear iff the block's meta "
                f"totals carry cache counters"
            )
        if cache_on and (not is_int(obj[key]) or obj[key] < 0):
            return f"window field {key!r} must be a non-negative integer"
    if not is_num(obj.get("doze_packets")) or obj["doze_packets"] < 0:
        return "window field 'doze_packets' must be non-negative"
    for key in ("inflight_min", "inflight_max"):
        if not is_num(obj.get(key)):
            return f"window field {key!r} must be numeric"
    for name in ("latency", "tuning"):
        err = validate_hist(obj.get(name), name)
        if err is not None:
            return err
        if obj[name]["count"] != obj["completed"]:
            return (
                f"histogram {name!r} holds {obj[name]['count']} samples "
                f"but the window completed {obj['completed']} queries"
            )
    rows = (("heatmap_index", "index_reads"), ("heatmap_data", "data_reads"))
    if all(obj.get(name) == [] for name, _ in rows):
        # The rows are sized at the window's first read (DESIGN.md §14).
        for _, counter in rows:
            if obj[counter] != 0:
                return (
                    f"empty heatmap rows but the window counted "
                    f"{obj[counter]} {counter}"
                )
        return None
    for name, counter in rows:
        row = obj.get(name)
        if not isinstance(row, list) or len(row) != bins:
            return (f"{name!r} must be a {bins}-bin array ([] only with "
                    f"the other row [] in a window with no reads)")
        if not all(is_int(c) and c >= 0 for c in row):
            return f"{name!r} entries must be non-negative integers"
        if sum(row) != obj[counter]:
            return (
                f"{name!r} sums to {sum(row)} but the window counted "
                f"{obj[counter]} {counter}"
            )
    return None


def check_block_totals(meta, windows, where):
    """Sums window counters against the meta totals; returns error or None."""
    for counter, total_key in SUM_CHECKS.items():
        got = sum(w[counter] for w in windows)
        want = meta["totals"][total_key]
        if got != want:
            return (
                f"{where}: sum of window {counter!r} is {got}, meta total "
                f"{total_key!r} says {want}"
            )
    issued = sum(w["issued"] for w in windows)
    if issued != meta["totals"]["queries"]:
        return (
            f"{where}: {issued} queries issued but {meta['totals']['queries']} "
            f"completed — the fleet runs every issued query to completion"
        )
    lat_count = sum(w["latency"]["count"] for w in windows)
    if lat_count != meta["totals"]["queries"]:
        return (
            f"{where}: latency histograms hold {lat_count} samples for "
            f"{meta['totals']['queries']} queries"
        )
    if meta_cache_enabled(meta):
        for key in CACHE_KEYS:
            got = sum(w[key] for w in windows)
            want = meta["totals"][key]
            if got != want:
                return (
                    f"{where}: sum of window {key!r} is {got}, meta total "
                    f"says {want}"
                )
        lookups = meta["totals"]["cache_hits"] + meta["totals"]["cache_misses"]
        if lookups != meta["totals"]["queries"]:
            return (
                f"{where}: {lookups} cache lookups for "
                f"{meta['totals']['queries']} queries — every issued query "
                f"consults the cache exactly once"
            )
    return None


def validate_flight_line(obj):
    if obj.get("flight") != "unrecoverable":
        return f"unexpected flight id {obj.get('flight')!r}"
    if not is_int(obj.get("client")):
        return "flight field 'client' must be an integer"
    for key in ("q", "tuning", "retries", "lost", "corrupted"):
        if not is_int(obj.get(key)) or obj[key] < 0:
            return f"flight field {key!r} must be a non-negative integer"
    for key in ("done", "latency"):
        if not is_num(obj.get(key)) or obj[key] < 0:
            return f"flight field {key!r} must be non-negative"
    if not isinstance(obj.get("fallback"), bool):
        return "flight field 'fallback' must be a boolean"
    if "give_up" in obj and not isinstance(obj["give_up"], str):
        return "flight field 'give_up' has wrong type"
    # Versioned-broadcast records stamp the completion epoch and the
    # mid-query switch count; legacy records omit both fields.
    if ("epoch" in obj) != ("epoch_switches" in obj):
        return "flight fields 'epoch' and 'epoch_switches' must appear together"
    for key in ("epoch", "epoch_switches"):
        if key in obj and (not is_int(obj[key]) or obj[key] < 0):
            return f"flight field {key!r} must be a non-negative integer"
    if not isinstance(obj.get("events"), list):
        return "flight field 'events' must be an array"
    return check_events(obj)


def parse_blocks(path):
    """Yields (meta, windows, first_lineno) blocks; raises SystemExit with
    a message on any structural or schema violation."""
    blocks = []
    meta = None
    windows = []
    meta_line = 0
    with open(path, "r", encoding="utf-8") as f:
        for lineno, line in enumerate(f, 1):
            line = line.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as e:
                sys.exit(f"{path}:{lineno}: invalid JSON: {e}")
            if not isinstance(obj, dict):
                sys.exit(f"{path}:{lineno}: line is not a JSON object")
            if "meta" in obj:
                if meta is not None and len(windows) != meta["windows"]:
                    sys.exit(
                        f"{path}:{meta_line}: block declares "
                        f"{meta['windows']} windows, found {len(windows)}"
                    )
                err = validate_meta(obj)
                if err is not None:
                    sys.exit(f"{path}:{lineno}: {err}")
                if meta is not None:
                    blocks.append((meta, windows, meta_line))
                meta, windows, meta_line = obj, [], lineno
                continue
            if meta is None:
                sys.exit(f"{path}:{lineno}: window line before any meta line")
            err = validate_window(obj, meta["heatmap_bins"],
                                  meta_cache_enabled(meta))
            if err is not None:
                sys.exit(f"{path}:{lineno}: {err}")
            if windows and obj["w"] <= windows[-1]["w"]:
                sys.exit(
                    f"{path}:{lineno}: window index {obj['w']} not "
                    f"strictly increasing (previous {windows[-1]['w']})"
                )
            windows.append(obj)
    if meta is None:
        sys.exit(f"{path}: no telemetry blocks found")
    if len(windows) != meta["windows"]:
        sys.exit(
            f"{path}:{meta_line}: block declares {meta['windows']} "
            f"windows, found {len(windows)}"
        )
    blocks.append((meta, windows, meta_line))
    return blocks


def report_block(meta, windows):
    cell = meta.get("cell", "(unlabeled)")
    totals = meta["totals"]
    width = meta["window_packets"]
    print(f"\n-- {cell} --")
    print(
        f"{len(windows)} windows x {width} packets, "
        f"{totals['queries']} queries, {totals['sessions']} sessions "
        f"({totals['departures']} departed), "
        f"{totals['unrecoverable']} unrecoverable, "
        f"{meta['flight_records']} flight records"
    )
    if totals["retries"] or totals["lost"] or totals["corrupted"]:
        print(
            f"faults: {totals['retries']} retries, {totals['lost']} lost, "
            f"{totals['corrupted']} corrupted, "
            f"{totals['fallback']} fallback queries"
        )
    if meta_cache_enabled(meta):
        lookups = totals["cache_hits"] + totals["cache_misses"]
        rate = totals["cache_hits"] / lookups if lookups else 0.0
        print(
            f"cache: {totals['cache_hits']} hits ({rate:.1%}), "
            f"{totals['cache_evictions']} evictions, "
            f"{totals['cache_invalidations']} invalidations"
        )
    print(f"{'w':>4} {'done':>7} {'p95 lat':>9} {'p95 tun':>8} "
          f"{'reads':>8} {'dozing':>8} {'inflight':>9}")
    for w in windows:
        reads = w["index_reads"] + w["data_reads"]
        dozing = w["doze_packets"] / width  # mean dozing clients
        print(
            f"{w['w']:>4} {w['completed']:>7} "
            f"{w['latency']['p95']:>9.1f} {w['tuning']['p95']:>8.1f} "
            f"{reads:>8} {dozing:>8.1f} "
            f"{w['inflight_min']:.0f}-{w['inflight_max']:<.0f}"
        )
    # Hottest heatmap bin across the block, per class.
    bins = meta["heatmap_bins"]
    index_bins = [0] * bins
    data_bins = [0] * bins
    for w in windows:
        for i, c in enumerate(w["heatmap_index"]):
            index_bins[i] += c
        for i, c in enumerate(w["heatmap_data"]):
            data_bins[i] += c
    for name, row in (("index", index_bins), ("data", data_bins)):
        total = sum(row)
        if total:
            hot = max(range(bins), key=lambda i: row[i])
            print(
                f"hottest {name} bin: {hot}/{bins} with "
                f"{100.0 * row[hot] / total:.1f}% of {total} reads"
            )


def pinned_timelines():
    """{test name: timeline text} for every TelemetryWindowExportTest in
    tests/telemetry_test.cc that pins the exporter's timeline byte for
    byte as one string literal."""
    src = (Path(__file__).resolve().parent.parent / "tests" /
           "telemetry_test.cc").read_text(encoding="utf-8")
    literal = re.compile(r'\s*"((?:[^"\\]|\\.)*)"')
    expect = "EXPECT_EQ(out.timeline,"
    timelines = {}
    for test in re.finditer(r"TEST\(TelemetryWindowExportTest, (\w+)\)",
                            src):
        end = src.find("\nTEST(", test.end())
        at = src.find(expect, test.end(), end if end >= 0 else len(src))
        if at < 0:
            continue
        pos = at + len(expect)
        parts = []
        while (m := literal.match(src, pos)) is not None:
            parts.append(m.group(1).encode().decode("unicode_escape"))
            pos = m.end()
        timelines[test.group(1)] = "".join(parts)
    return timelines


def check_text(text):
    """Runs --check on a timeline held in memory; returns the first
    error, or None."""
    with tempfile.NamedTemporaryFile("w", suffix=".jsonl",
                                     delete=False) as f:
        f.write(text)
    try:
        for meta, windows, meta_line in parse_blocks(f.name):
            err = check_block_totals(meta, windows, f"line {meta_line}")
            if err is not None:
                return err
        return None
    except SystemExit as e:
        return str(e)
    finally:
        os.unlink(f.name)


def self_test():
    ok = True
    timelines = pinned_timelines()
    if "WindowTouchedOnlyByADozeExportsZeroShapes" not in timelines:
        print(f"self-test FAIL: pinned timelines not found: "
              f"{sorted(timelines)}")
        return 1
    for name, text in sorted(timelines.items()):
        err = check_text(text)
        if err is not None:
            ok = False
            print(f"self-test FAIL: pinned {name} rejected: {err}")

    def tamper(name, w, **fields):
        """The pinned timeline `name` with window `w`'s fields replaced."""
        lines = []
        for line in timelines[name].splitlines():
            obj = json.loads(line)
            if obj.get("w") == w:
                obj.update(fields)
            lines.append(json.dumps(obj))
        return "\n".join(lines) + "\n"

    doze = "DozeAcrossABoundarySplitsBetweenWindows"
    quiet = "WindowTouchedOnlyByADozeExportsZeroShapes"
    # (what, tampered timeline, fragment the error must contain)
    cases = [
        ("31-bin row", tamper(doze, 0, heatmap_index=[1] + [0] * 30),
         "must be a 4-bin array"),
        ("row sum differs from its counter",
         tamper(doze, 0, heatmap_index=[0, 0, 2, 0]),
         "sums to 2 but the window counted 1 index_reads"),
        ("[] beside non-zero index_reads",
         tamper(doze, 0, heatmap_index=[], heatmap_data=[]),
         "empty heatmap rows but the window counted 1 index_reads"),
        ("one row empty, the other full",
         tamper(quiet, 1, heatmap_index=[0, 0, 0, 0]),
         "'heatmap_data' must be a 4-bin array"),
    ]
    for what, text, want in cases:
        err = check_text(text)
        if err is None or want not in err:
            ok = False
            print(f"self-test FAIL: {what}: got {err!r}, want {want!r}")
    print("telemetry_report.py self-test " + ("passed" if ok else "FAILED"))
    return 0 if ok else 1


def main(argv):
    check_only = False
    flight_path = None
    paths = []
    for arg in argv[1:]:
        if arg == "--self-test":
            return self_test()
        if arg == "--check":
            check_only = True
        elif arg.startswith("--flight="):
            flight_path = arg[len("--flight="):]
        elif arg.startswith("-"):
            print(f"unknown flag {arg}", file=sys.stderr)
            return 2
        else:
            paths.append(arg)
    if not paths:
        print(__doc__, file=sys.stderr)
        return 2

    total_blocks = 0
    total_windows = 0
    declared_flight_records = 0
    for path in paths:
        for meta, windows, meta_line in parse_blocks(path):
            err = check_block_totals(meta, windows, f"{path}:{meta_line}")
            if err is not None:
                print(err, file=sys.stderr)
                return 1
            total_blocks += 1
            total_windows += len(windows)
            declared_flight_records += meta["flight_records"]
            if not check_only:
                report_block(meta, windows)

    if flight_path is not None:
        flight_lines = 0
        with open(flight_path, "r", encoding="utf-8") as f:
            for lineno, line in enumerate(f, 1):
                line = line.strip()
                if not line:
                    continue
                try:
                    obj = json.loads(line)
                except json.JSONDecodeError as e:
                    print(f"{flight_path}:{lineno}: invalid JSON: {e}",
                          file=sys.stderr)
                    return 1
                err = validate_flight_line(obj)
                if err is not None:
                    print(f"{flight_path}:{lineno}: {err}", file=sys.stderr)
                    return 1
                flight_lines += 1
        if flight_lines != declared_flight_records:
            print(
                f"{flight_path}: {flight_lines} flight records, timeline "
                f"meta declares {declared_flight_records}",
                file=sys.stderr,
            )
            return 1

    if check_only:
        suffix = (
            f", {declared_flight_records} flight records"
            if flight_path is not None else ""
        )
        print(
            f"OK: {total_blocks} telemetry blocks, {total_windows} "
            f"windows valid{suffix}"
        )
    return 0


if __name__ == "__main__":
    sys.exit(run_main(main, sys.argv))
