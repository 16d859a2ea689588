#!/usr/bin/env python3
"""Structural validation for bench_soak JSONL streams (docs/METRICS.md,
docs/CHECKING.md §10).

  validate_soak.py <soak.jsonl> [--expect-clean] [--min-samples N]

Checks the stream line by line: every line parses as one JSON object with a
known type; the first line is the meta record; sample timestamps are
monotone non-decreasing with dt_ms matching the timestamp gaps; sample
counters/gauges are objects of non-negative numbers; every iteration line
carries a per-model verdict; exactly one final line closes the stream, its
verdict present and its iteration count matching the iteration lines.  If a
violation line exists, its embedded counterexample DOT must itself pass the
structural DOT check with trace correlation ids on every cycle node.
Profile records (one per iteration under --profile) must carry well-formed
cumulative sketch tallies, monotone non-decreasing across the stream.

With --expect-clean (the CI soak), the final line must report zero
violations, zero structural failures, zero skipped operations, and a true
verdict for every model — the faults live below the reliability layer, so
the memory-model guarantees must hold.

Exit status 0 on success; 1 with a diagnostic on the first hard failure.
"""

import argparse

from validators_common import fail, load_jsonl, validate_dot_text

KNOWN_TYPES = {"meta", "sample", "iteration", "violation", "view_change",
               "profile", "final"}

# Required counts in a profile record (one per iteration under --profile).
# Tracked/overflow tallies describe the soak-cumulative merged report, so
# they must be monotone non-decreasing across the stream.
PROFILE_COUNT_KEYS = (
    "vars_tracked", "vars_overflow",
    "locks_tracked", "locks_overflow",
    "barriers_tracked", "barriers_overflow",
)

# Cumulative counters of the ownership directory (docs/DIRECTORY.md,
# docs/METRICS.md).  Histogram flats ride under directory.fill_wait_ns.*.
DIRECTORY_KEYS = {
    "directory.fills",
    "directory.fill_records",
    "directory.evictions",
    "directory.evicted_frames",
    "directory.frontier_pings",
    "directory.sharer_adds",
    "directory.sharer_dels",
    "directory.writer_registrations",
    "directory.sharers_purged",
}


def check_directory_counters(counters, prev, where):
    """Directory keys must be known and, being cumulative, monotone."""
    for k, v in counters.items():
        if not k.startswith("directory."):
            continue
        if k not in DIRECTORY_KEYS and not k.startswith("directory.fill_wait_ns"):
            fail(f"{where}: unknown directory counter {k!r}")
        if k in prev and v < prev[k]:
            fail(f"{where}: cumulative counter {k} went backwards: "
                 f"{v} after {prev[k]}")
        prev[k] = v


def nonneg_number_map(obj, where, key):
    m = obj.get(key)
    if not isinstance(m, dict):
        fail(f"{where}: '{key}' is not an object")
    for k, v in m.items():
        if not isinstance(v, (int, float)) or isinstance(v, bool) or v < 0:
            fail(f"{where}: {key}['{k}'] is not a non-negative number: {v!r}")
    return m


def check_verdict(obj, where):
    v = obj.get("verdict")
    if not isinstance(v, dict):
        fail(f"{where}: missing verdict object")
    for model in ("mixed", "causal", "pram"):
        if not isinstance(v.get(model), bool):
            fail(f"{where}: verdict.{model} missing or not a bool")
    return v


def validate(path, expect_clean, min_samples):
    records = load_jsonl(path)

    if records[0].get("type") != "meta":
        fail(f"{path}:1: first line must be the meta record, got "
             f"{records[0].get('type')!r}")
    meta = records[0]
    for key in ("bench", "seed"):
        if key not in meta:
            fail(f"{path}:1: meta record missing '{key}'")

    samples = 0
    iterations = []
    violations = []
    view_changes = []
    profiles = []
    finals = []
    last_t = None
    dir_prev = {}
    profile_prev = {}
    for lineno, rec in enumerate(records[1:], start=2):
        where = f"{path}:{lineno}"
        rtype = rec.get("type")
        if rtype not in KNOWN_TYPES:
            fail(f"{where}: unknown record type {rtype!r}")
        if rtype == "meta":
            fail(f"{where}: duplicate meta record")
        elif rtype == "sample":
            t = rec.get("t_ms")
            dt = rec.get("dt_ms")
            if not isinstance(t, (int, float)) or t < 0:
                fail(f"{where}: sample without valid t_ms")
            if not isinstance(dt, (int, float)) or dt < 0:
                fail(f"{where}: sample without valid dt_ms")
            if last_t is not None and t < last_t:
                fail(f"{where}: sample timestamps not monotone: "
                     f"{t} after {last_t}")
            if last_t is not None and dt > 0 and abs((t - last_t) - dt) > 1000:
                fail(f"{where}: dt_ms {dt} inconsistent with timestamp gap "
                     f"{t - last_t}")
            last_t = t
            counters = nonneg_number_map(rec, where, "counters")
            check_directory_counters(counters, dir_prev, where)
            nonneg_number_map(rec, where, "gauges")
            if "rates" in rec:
                rates = nonneg_number_map(rec, where, "rates")
                if set(rates) != set(counters):
                    fail(f"{where}: rates keys do not match counters keys")
            samples += 1
        elif rtype == "iteration":
            check_verdict(rec, where)
            for key in ("n", "app", "ops", "live_nodes"):
                if key not in rec:
                    fail(f"{where}: iteration record missing '{key}'")
            iterations.append(rec)
        elif rtype == "view_change":
            for key in ("iteration", "app", "epoch", "faults", "total"):
                if key not in rec:
                    fail(f"{where}: view_change record missing '{key}'")
            if not isinstance(rec["epoch"], int) or rec["epoch"] < 1:
                fail(f"{where}: view_change epoch must be a positive integer, "
                     f"got {rec['epoch']!r}")
            if not isinstance(rec["total"], int) or rec["total"] < 1:
                fail(f"{where}: view_change total must be a positive integer")
            if view_changes and rec["total"] < view_changes[-1]["total"]:
                fail(f"{where}: view_change cumulative total not monotone: "
                     f"{rec['total']} after {view_changes[-1]['total']}")
            view_changes.append(rec)
        elif rtype == "profile":
            for key in ("iteration", "app") + PROFILE_COUNT_KEYS:
                if key not in rec:
                    fail(f"{where}: profile record missing '{key}'")
            for key in PROFILE_COUNT_KEYS:
                v = rec[key]
                if not isinstance(v, int) or isinstance(v, bool) or v < 0:
                    fail(f"{where}: profile.{key} is not a non-negative "
                         f"integer: {v!r}")
                # The record describes the cumulative merged report, so
                # every tally is monotone non-decreasing.
                if key in profile_prev and v < profile_prev[key]:
                    fail(f"{where}: cumulative profile tally {key} went "
                         f"backwards: {v} after {profile_prev[key]}")
                profile_prev[key] = v
            profiles.append(rec)
        elif rtype == "violation":
            dot = rec.get("dot", "")
            if dot:
                summary = validate_dot_text(dot, where, allow_empty=False,
                                            require_trace_ids=True)
                print(f"{where}: violation counterexample OK ({summary})")
            violations.append(rec)
        elif rtype == "final":
            finals.append((lineno, rec))

    if len(finals) != 1:
        fail(f"{path}: expected exactly one final record, found {len(finals)}")
    final_line, final = finals[0]
    where = f"{path}:{final_line}"
    if records[-1].get("type") != "final":
        fail(f"{path}: final record is not the last line")
    check_verdict(final, where)
    for key in ("iterations", "violations", "stalls", "skipped", "samples"):
        if key not in final:
            fail(f"{where}: final record missing '{key}'")
    if final["iterations"] != len(iterations):
        fail(f"{where}: final.iterations {final['iterations']} != "
             f"{len(iterations)} iteration lines")
    if samples < min_samples:
        fail(f"{path}: only {samples} samples (< {min_samples})")
    if not iterations:
        fail(f"{path}: no iteration records")
    if view_changes and "view_changes" in final:
        if final["view_changes"] != view_changes[-1]["total"]:
            fail(f"{where}: final.view_changes {final['view_changes']} != "
                 f"last view_change cumulative total {view_changes[-1]['total']}")

    if expect_clean:
        if final["violations"] != 0:
            fail(f"{where}: clean run reported {final['violations']} violations")
        if final["stalls"] != 0:
            fail(f"{where}: clean run reported {final['stalls']} stalls")
        if final.get("structural_failure"):
            fail(f"{where}: clean run reported a structural checker failure")
        if final["skipped"] != 0:
            fail(f"{where}: clean run left {final['skipped']} operations "
                 f"unfed (monitor gating wedged)")
        for model in ("mixed", "causal", "pram"):
            if not final["verdict"][model]:
                fail(f"{where}: clean run with verdict.{model} = false")
        if violations:
            fail(f"{path}: clean run contains a violation record")

    if profiles and len(profiles) != len(iterations):
        fail(f"{path}: {len(profiles)} profile records for "
             f"{len(iterations)} iterations (expected one per iteration)")

    print(f"OK: {path}: {samples} samples, {len(iterations)} iterations, "
          f"{len(view_changes)} view changes, "
          f"{len(profiles)} profile records, "
          f"{len(violations)} violation records, "
          f"final verdict mixed={final['verdict']['mixed']} "
          f"causal={final['verdict']['causal']} pram={final['verdict']['pram']}")


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("jsonl", help="JSONL stream from bench_soak --jsonl")
    ap.add_argument("--expect-clean", action="store_true",
                    help="require zero violations and all-true verdicts")
    ap.add_argument("--min-samples", type=int, default=1,
                    help="minimum number of time-series samples")
    args = ap.parse_args()
    validate(args.jsonl, args.expect_clean, args.min_samples)


if __name__ == "__main__":
    main()
