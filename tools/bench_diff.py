#!/usr/bin/env python3
"""Cross-run bench regression differ (docs/PROFILING.md "Regression diffing").

  bench_diff.py <baseline.json> <fresh.json> [--tolerances FILE]
                [--gates-only | --diff-only]

Compares a freshly produced bench RunReport against the committed baseline
artifact for the same bench, under the per-bench policy in
tools/bench_tolerances.json:

  diff   Every row of the baseline must exist in the fresh run with the
         same params.  Every numeric stats/metrics key present in either
         is matched by its section-qualified name ('metrics.net.acks')
         against the policy's ordered 'keys' rules (the bench's own rules
         first).  The first match gives the key a class (exact,
         bounded-noise, timing), a 'better' direction (lower, higher, or
         equal) and a layer.  A key fails only when it moves in a worse
         direction by more than the absolute floor and by more than the
         relative tolerance (a rule may set its own of either); the
         failing line names the key's class and layer.  Moves the other way beyond tolerance are printed as
         improvements.  Keys whose rule says 'compare': false (durations,
         rates, percentiles, scheduler counts) are not diffed.

  gates  Absolute acceptance rules evaluated on the fresh run only — the
         batching / history-checking / directory claims formerly
         hand-rolled as inline CI asserts.  Keys are addressed as
         'metrics:<key>', 'stats:<key>', 'params:<key>', or 'wall_ms'.

The baseline and fresh reports must be the same bench and the same schema
version; the fresh run may additionally carry `profile` sections (those
and the profile.* metrics are ignored by the diff — profiling the fresh
run is how the CI attribution gates get their data).

Exit status 0 on success; 1 with a diagnostic for every key that moved
the worse way, or for the first structural failure.
"""

import argparse
import fnmatch
import os
import sys

from validators_common import fail, load_json


CLASSES = ("exact", "bounded-noise", "timing")
DIRECTIONS = ("lower", "higher", "equal")


def numeric(v):
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def check_rules(rules, where):
    for rule in rules:
        if "match" not in rule:
            fail(f"{where}: key rule without 'match': {rule}")
        if rule.get("class") not in CLASSES:
            fail(f"{where}: rule {rule['match']!r} has class "
                 f"{rule.get('class')!r}, expected one of {', '.join(CLASSES)}")
        if rule.get("better") not in DIRECTIONS:
            fail(f"{where}: rule {rule['match']!r} has better "
                 f"{rule.get('better')!r}, expected one of {', '.join(DIRECTIONS)}")
        for key in ("relative", "absolute_floor"):
            if key in rule and not numeric(rule[key]):
                fail(f"{where}: rule {rule['match']!r} has non-numeric {key}")


def rule_for(name, rules):
    """First rule whose glob matches the section-qualified key."""
    for rule in rules:
        if fnmatch.fnmatchcase(name, rule["match"]):
            return rule
    fail(f"no key rule matches {name!r} — the policy needs a catch-all")


def layer_of(name, rule, layers):
    """The rule's layer, else the longest matching prefix in 'layers'."""
    if "layer" in rule:
        return rule["layer"]
    best = max((p for p in layers if name.startswith(p)), key=len, default=None)
    return layers[best] if best is not None else "unknown"


def resolve(row, spec, where):
    """Address a value inside a row: 'metrics:k' / 'stats:k' / 'params:k' /
    'wall_ms'.  params values are strings in the report; coerce to float."""
    if spec == "wall_ms":
        v = row.get("wall_ms")
    else:
        section, _, key = spec.partition(":")
        if section not in ("metrics", "stats", "params") or not key:
            fail(f"{where}: bad key spec {spec!r} in tolerances file")
        v = row.get(section, {}).get(key)
    if v is None:
        fail(f"{where}: key {spec!r} not present")
    try:
        return float(v)
    except (TypeError, ValueError):
        fail(f"{where}: key {spec!r} is not numeric: {v!r}")


def row_key(row):
    """Rows repeat a name across sizes (bench_history's sweep), so the
    diff identity is name + params."""
    params = ",".join(f"{k}={v}" for k, v in sorted(row.get("params", {}).items()))
    return f"{row.get('name')}[{params}]"


def rows_by_key(doc, path):
    rows = {}
    for row in doc.get("rows", []):
        if not row.get("name"):
            fail(f"{path}: row without a name")
        key = row_key(row)
        if key in rows:
            fail(f"{path}: duplicate row identity {key}")
        rows[key] = row
    if not rows:
        fail(f"{path}: no rows")
    return rows


def gate_row(rows, name, where):
    """Gates address rows by bare name; the named row must be unique."""
    matches = [r for r in rows.values() if r.get("name") == name]
    if not matches:
        fail(f"{where}: no row named {name!r}")
    if len(matches) > 1:
        fail(f"{where}: row name {name!r} is ambiguous "
             f"({len(matches)} rows) — gates need a unique row")
    return matches[0]


def diff_rows(base_row, fresh_row, policy, rules, where, failures):
    """Compare one row pair, appending a line to `failures` for every key
    that moved the worse way; returns the number of keys compared.  Params
    are part of the row identity, so both rows are the same shape."""
    rel_default = policy["relative"]
    floor_default = policy["absolute_floor"]
    layers = policy.get("layers", {})
    compared = 0
    for section in ("stats", "metrics"):
        base = base_row.get(section, {})
        fresh = fresh_row.get(section, {})
        for key in sorted(set(base) | set(fresh)):
            name = f"{section}.{key}"
            rule = rule_for(name, rules)
            if not rule.get("compare", True):
                continue
            tag = f"[{rule['class']}, layer {layer_of(name, rule, layers)}]"
            if key not in base or key not in fresh:
                side = "fresh run" if key not in fresh else "baseline"
                failures.append(f"{where}: {name} {tag} missing from the "
                                f"{side} (present in the other) — give it a "
                                f"'compare': false rule if it is legitimately "
                                f"conditional")
                continue
            bv, fv = base[key], fresh[key]
            if not numeric(bv) or not numeric(fv):
                if bv != fv:
                    failures.append(f"{where}: non-numeric {name} {tag} "
                                    f"differs: {bv!r} vs {fv!r}")
                continue
            compared += 1
            rel = rule.get("relative", rel_default)
            floor = rule.get("absolute_floor", floor_default)
            delta = abs(fv - bv)
            scale = max(abs(bv), abs(fv))
            if delta <= floor or delta <= rel * scale:
                continue
            moved = "rose" if fv > bv else "dropped"
            better = rule["better"]
            line = (f"{name} {moved} {tag}: baseline {bv} vs fresh {fv} "
                    f"({delta / scale:.1%} apart, tolerance {rel:.0%}, "
                    f"better {better})")
            if better == "equal" or (better == "lower") == (fv > bv):
                failures.append(f"{where}: {line}")
            else:
                print(f"  improved: {where}: {line}")
    return compared


def run_gates(gates, rows, path):
    for gate in gates:
        desc = gate.get("desc", "?")
        where = f"{path}: gate '{desc}'"
        rule = gate.get("rule")
        if rule == "value":
            v = resolve(gate_row(rows, gate["row"], where), gate["key"], where)
        elif rule == "ratio":
            num_row = gate_row(rows, gate["num_row"], where)
            den_row = gate_row(rows, gate["den_row"], where)
            num = resolve(num_row, gate["num_key"], where)
            den = resolve(den_row, gate["den_key"], where)
            if den == 0:
                fail(f"{where}: ratio denominator {gate['den_key']} is zero")
            v = num / den
        else:
            fail(f"{where}: unknown rule {rule!r}")
        if "eq" in gate and v != gate["eq"]:
            fail(f"{where}: value {v} != required {gate['eq']}")
        if "min" in gate and v < gate["min"]:
            fail(f"{where}: value {v} < floor {gate['min']}")
        if "min_exclusive" in gate and v <= gate["min_exclusive"]:
            fail(f"{where}: value {v} <= exclusive floor "
                 f"{gate['min_exclusive']}")
        if "max" in gate and v > gate["max"]:
            fail(f"{where}: value {v} > ceiling {gate['max']}")
        print(f"  gate OK: {desc} ({v:.4g})")


def main():
    default_tol = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                               "bench_tolerances.json")
    ap = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("baseline", help="committed BENCH_<bench>.json")
    ap.add_argument("fresh", help="freshly produced RunReport for the same bench")
    ap.add_argument("--tolerances", default=default_tol,
                    help="policy file (default: tools/bench_tolerances.json)")
    mode = ap.add_mutually_exclusive_group()
    mode.add_argument("--gates-only", action="store_true",
                      help="run only the absolute acceptance gates")
    mode.add_argument("--diff-only", action="store_true",
                      help="run only the baseline comparison")
    args = ap.parse_args()

    spec = load_json(args.tolerances)
    base_doc = load_json(args.baseline)
    fresh_doc = load_json(args.fresh)

    bench = fresh_doc.get("bench")
    if not bench:
        fail(f"{args.fresh}: no bench name")
    if base_doc.get("bench") != bench:
        fail(f"{args.baseline}: bench {base_doc.get('bench')!r} != "
             f"{bench!r} — comparing different benches")
    if base_doc.get("schema_version") != fresh_doc.get("schema_version"):
        fail(f"schema mismatch: baseline v{base_doc.get('schema_version')} "
             f"vs fresh v{fresh_doc.get('schema_version')} — regenerate "
             f"the committed artifact")

    bench_spec = spec.get("benches", {}).get(bench, {})
    policy = spec.get("diff", {})
    for key in ("relative", "absolute_floor", "keys"):
        if key not in policy:
            fail(f"{args.tolerances}: diff policy missing '{key}'")
    rules = bench_spec.get("keys", []) + policy["keys"]
    check_rules(rules, args.tolerances)

    base_rows = rows_by_key(base_doc, args.baseline)
    fresh_rows = rows_by_key(fresh_doc, args.fresh)

    failures = []
    if not args.gates_only:
        missing = sorted(set(base_rows) - set(fresh_rows))
        if missing:
            fail(f"{args.fresh}: baseline rows missing from the fresh run "
                 f"(name+params identity): {', '.join(missing)}")
        extra = sorted(set(fresh_rows) - set(base_rows))
        if extra:
            fail(f"{args.fresh}: rows not in the baseline: "
                 f"{', '.join(extra)} — regenerate the committed artifact")
        compared = 0
        for key in sorted(base_rows):
            where = f"{bench}: row '{key}'"
            compared += diff_rows(base_rows[key], fresh_rows[key],
                                  policy, rules, where, failures)
        for line in failures:
            print(f"FAIL: {line}", file=sys.stderr)
        if not failures:
            print(f"diff OK: {bench}: {len(base_rows)} rows, "
                  f"{compared} keys within tolerance or better")

    if not args.diff_only:
        gates = bench_spec.get("gates", [])
        if gates:
            run_gates(gates, fresh_rows, args.fresh)
            print(f"gates OK: {bench}: {len(gates)} rules hold")
        else:
            print(f"gates OK: {bench}: no gates defined")
    if failures:
        sys.exit(1)


if __name__ == "__main__":
    main()
