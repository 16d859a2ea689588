#!/usr/bin/env python3
"""Structural validation for the observability artifacts (docs/TRACING.md).

Two modes:

  validate_trace.py trace  <trace.json>  [--min-bind 0.95]
      Checks a Chrome-trace dump produced by `--trace`: the JSON parses,
      every flow end ('f') refers to a recorded flow start ('s'), flow ends
      do not precede their starts, per-thread timestamps are monotonic,
      span durations are non-negative, and at least --min-bind of the flow
      starts are consumed by a matching end.  When the rings overflowed,
      the bind check covers the window every thread still holds: flow starts
      after the latest first-retained event of any wrapped thread.  A ring
      drops only its oldest events, so an end recorded in that window is
      still in the file.

  validate_trace.py report <report.json> [--tolerance 0.2] [--min-wall-ms 5]
      Checks a RunReport produced by `--json` under `--trace`: schema
      version 3, every row carries a critical_path section, the per-category
      sums equal the reported total, and for rows with wall_ms >=
      --min-wall-ms the critical-path total reconciles with wall_ms to
      within --tolerance (relative).

Exit status 0 on success; 1 with a diagnostic on the first hard failure.
"""

import argparse
import collections

from validators_common import fail, load_json


def validate_trace(path, min_bind):
    doc = load_json(path)
    events = doc.get("traceEvents")
    if not isinstance(events, list) or not events:
        fail(f"{path}: no traceEvents")

    starts = {}  # flow id -> earliest start ts
    ends = collections.defaultdict(list)  # flow id -> end timestamps
    last_ts = {}  # (pid, tid) -> last seen ts (dump order is per-thread chronological)
    # (pid, tid) -> [events retained, earliest record time].  A span is
    # recorded when it closes, at ts + dur; every other event at its ts.
    lanes = collections.defaultdict(lambda: [0, float("inf")])
    counts = collections.Counter()
    for ev in events:
        ph = ev.get("ph")
        ts = ev.get("ts")
        if not isinstance(ts, (int, float)) or ts < 0:
            fail(f"{path}: event with bad ts: {ev}")
        counts[ph] += 1
        lane = (ev.get("pid"), ev.get("tid"))
        if ts < last_ts.get(lane, 0.0):
            fail(f"{path}: non-monotonic ts on thread {lane}: "
                 f"{ts} after {last_ts[lane]} ({ev.get('name')})")
        last_ts[lane] = ts
        lanes[lane][0] += 1
        recorded_at = ts + ev.get("dur", 0) if ph == "X" else ts
        lanes[lane][1] = min(lanes[lane][1], recorded_at)
        if ph == "X":
            if ev.get("dur", 0) < 0:
                fail(f"{path}: negative span duration: {ev}")
        elif ph == "s":
            fid = ev.get("id")
            if fid is None:
                fail(f"{path}: flow start without id: {ev}")
            starts[fid] = min(ts, starts.get(fid, ts))
        elif ph == "f":
            fid = ev.get("id")
            if fid is None:
                fail(f"{path}: flow end without id: {ev}")
            if ev.get("bp") != "e":
                fail(f"{path}: flow end without bp=e (will not bind): {ev}")
            ends[fid].append(ts)

    other = doc.get("otherData", {})
    dropped = other.get("droppedEvents", 0)
    for fid, end_ts in ends.items():
        if fid not in starts:
            # With ring overwrite the start may legitimately be gone.
            if dropped == 0:
                fail(f"{path}: flow end without start: id={fid}")
            continue
        if min(end_ts) < starts[fid]:
            fail(f"{path}: flow {fid} ends at {min(end_ts)} before start "
                 f"{starts[fid]}")

    window = ""
    checked = starts
    if dropped > 0:
        # Threads that may have wrapped hold a full ring; a trace without
        # the capacity treats every thread as wrapped.
        capacity = other.get("ringCapacity", 0)
        wrapped = [first for n, first in lanes.values() if n >= capacity]
        since = max(wrapped, default=0.0)
        checked = {fid: ts for fid, ts in starts.items() if ts > since}
        window = f" after {since:.0f} us"
    bound = sum(1 for fid in checked if fid in ends)
    frac = bound / len(checked) if checked else 1.0
    if frac < min_bind:
        fail(f"{path}: only {bound}/{len(checked)} flow starts{window} bound "
             f"({frac:.1%} < {min_bind:.1%})")
    print(f"OK: {path}: {len(events)} events "
          f"({counts['X']} spans, {len(checked)} flow starts{window}, "
          f"{frac:.1%} bound, {dropped} dropped)")


def validate_report(path, tolerance, min_wall_ms):
    doc = load_json(path)
    if doc.get("schema_version") != 3:
        fail(f"{path}: schema_version {doc.get('schema_version')} != 3")
    rows = doc.get("rows", [])
    if not rows:
        fail(f"{path}: no rows")
    reconciled = 0
    for row in rows:
        name = row.get("name", "?")
        cp = row.get("critical_path")
        if cp is None:
            fail(f"{path}: row '{name}' has no critical_path section")
        cat_sum = sum(cp.get("categories", {}).values())
        total = cp.get("total_ms", 0.0)
        if abs(cat_sum - total) > max(1e-6, 1e-3 * total):
            fail(f"{path}: row '{name}': category sum {cat_sum:.3f}ms != "
                 f"critical-path total {total:.3f}ms")
        wall = row.get("wall_ms", 0.0)
        if wall < min_wall_ms:
            continue  # too short to reconcile meaningfully
        # The analysis window starts at the harness mark (just before the
        # timed section) and ends at add_row (just after), so the critical
        # path may legitimately exceed wall_ms by the metrics-collection
        # epilogue — but never by much, and it must not fall far short.
        if abs(total - wall) > tolerance * wall:
            fail(f"{path}: row '{name}': critical path {total:.2f}ms vs "
                 f"wall {wall:.2f}ms (>{tolerance:.0%} apart)")
        reconciled += 1
    print(f"OK: {path}: {len(rows)} rows, {reconciled} reconciled "
          f"against wall_ms")


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    sub = ap.add_subparsers(dest="mode", required=True)
    t = sub.add_parser("trace", help="validate a Chrome-trace dump")
    t.add_argument("path")
    t.add_argument("--min-bind", type=float, default=0.95,
                   help="minimum fraction of flow starts that must be bound "
                        "(use 0 for lossy-fabric runs)")
    r = sub.add_parser("report", help="validate a RunReport with critical paths")
    r.add_argument("path")
    r.add_argument("--tolerance", type=float, default=0.2,
                   help="relative tolerance for critical-path vs wall_ms")
    r.add_argument("--min-wall-ms", type=float, default=5.0,
                   help="skip wall-clock reconciliation for shorter rows")
    args = ap.parse_args()
    if args.mode == "trace":
        validate_trace(args.path, args.min_bind)
    else:
        validate_report(args.path, args.tolerance, args.min_wall_ms)


if __name__ == "__main__":
    main()
