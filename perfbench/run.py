#!/usr/bin/env python3
"""Build and run the repo benchmark (see perfbench/NOTES.md).

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --smoke

The source tree's root is the parent of this directory.  The first run
builds the benchmark from source (Release) into .bench_build/perfbench there.  The
last line on stdout is the run's JSON result; a fuller result file with the
host fingerprint goes to .bench_build/perfbench/results/.  The exit code is
nonzero when the build fails, any job's output is wrong, or the result file
cannot be written.

--smoke runs every workload of BENCHMARK.json briefly, untraced and traced,
and checks that each run is correct and prints exactly the metrics (names
and units) BENCHMARK.json declares.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
BINARY = BUILD / "perfbench"
RESULTS = BUILD / "results"
RUN_TIMEOUT_S = 175


def log(msg):
    print(f"run.py: {msg}", file=sys.stderr, flush=True)


def build():
    steps = []
    if not (BUILD / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "-j",
                  str(min(os.cpu_count() or 1, 4))])
    for cmd in steps:
        try:
            done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        except OSError as e:
            log(f"cannot run {cmd[0]}: {e}")
            return False
        if done.returncode != 0:
            log("build failed")
            return False
    return True


def tree_digest():
    """Content hash of the sources, for trees that are not git checkouts."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for p in sorted((ROOT / top).rglob("*")):
            if p.is_file():
                h.update(str(p.relative_to(ROOT)).encode())
                h.update(p.read_bytes())
    return h.hexdigest()[:12]


def commit():
    if (ROOT / ".git").exists():
        git = ["git", "-C", str(ROOT)]
        try:
            head = subprocess.run(git + ["rev-parse", "--short=12", "HEAD"],
                                  capture_output=True, text=True, timeout=30)
            dirty = subprocess.run(git + ["status", "--porcelain", "--untracked-files=no"],
                                   capture_output=True, text=True, timeout=30)
            if head.returncode == 0:
                return head.stdout.strip() + ("-dirty" if dirty.stdout.strip() else "")
        except (OSError, subprocess.SubprocessError):
            pass
    return "tree-" + tree_digest()


def bench_cmd(workload, seed, seconds, trace, smoke=False):
    RESULTS.mkdir(parents=True, exist_ok=True)
    out = RESULTS / f"{workload}-seed{seed}-trace{trace}.json"
    cmd = [str(BINARY), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--out", str(out), "--commit", commit()]
    return cmd + ["--smoke"] if smoke else cmd


def smoke():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    failures = 0
    for wl in spec["workloads"]:
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            expected = {m["name"]: m["unit"] for m in spec[section]}
            problems = []
            try:
                done = subprocess.run(bench_cmd(wl["name"], 1, 1, trace, smoke=True),
                                      capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                problems.append("timed out")
                done = None
            if done is not None:
                if done.returncode != 0:
                    problems.append(f"exit code {done.returncode}: {done.stderr.strip()[-300:]}")
                lines = done.stdout.strip().splitlines()
                try:
                    result = json.loads(lines[-1])
                except (IndexError, ValueError):
                    result = None
                    problems.append("the last stdout line is not JSON")
                if result is not None:
                    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
                        problems.append(f"result keys {sorted(result)}")
                    if result.get("correct") is not True or result.get("failed") != 0:
                        problems.append("a job failed its output check")
                    got = {k: v.get("unit") for k, v in result.get("metrics", {}).items()}
                    missing = sorted(set(expected) - set(got))
                    extra = sorted(set(got) - set(expected))
                    wrong_unit = sorted(k for k in expected
                                        if k in got and got[k] != expected[k])
                    for label, names in (("missing", missing), ("unexpected", extra),
                                         ("wrong unit", wrong_unit)):
                        if names:
                            problems.append(f"{label}: {', '.join(names)}")
            failures += bool(problems)
            status = "FAIL" if problems else "ok"
            print(f"{status:4} {wl['name']:18} trace={trace} {'; '.join(problems)}", flush=True)
    print(f"smoke: {failures} failure(s)")
    return 1 if failures else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--trace", type=int, choices=(0, 1))
    ap.add_argument("--smoke", action="store_true",
                    help="run every workload briefly and check the metric names")
    args = ap.parse_args()
    if not args.smoke and None in (args.workload, args.seed, args.seconds, args.trace):
        ap.error("--workload, --seed, --seconds and --trace are required")
    if not build():
        return 1
    if args.smoke:
        return smoke()
    try:
        done = subprocess.run(bench_cmd(args.workload, args.seed, args.seconds, args.trace),
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"the run took longer than {RUN_TIMEOUT_S} s")
        return 1
    return done.returncode


if __name__ == "__main__":
    sys.exit(main())
