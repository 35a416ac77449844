#!/usr/bin/env python3
"""Compares two checkouts on one benchmark workload in alternating pairs.

    python3 scripts/perf_pairs.py PARENT_ROOT CHANGE_ROOT \\
        --workload file_mix --seed 1 --pairs 10

The parent's BENCHMARK.json fixes the run length ("run_seconds"), the
end-to-end metrics and their bounds, so a change that edits its own
BENCHMARK.json is still judged by the parent's. Each side runs with its own
perfbench/run.py, which builds that checkout's benchmark before it runs. A
zero-length warm-up run per side builds it and checks it once; then each
pair runs both sides back to back, alternating which side goes first. Every
run must exit 0 and report "correct": true, or the script stops with exit
code 1.

For every end-to-end metric it prints each side's median and quartiles, the
change/parent ratio of the medians, and the pairs the change won, tied and
lost, judged by the metric's "better". The claim column says "yes" only when
at least ten pairs ran, the change won at least nine tenths of them and its
median beats the parent's by more than the parent's interquartile range. The
bound column says "ok" when every change run beats every parent run, or when
the change's median is no worse than the parent's by more than the metric's
"bound" and neither side's interquartile range is wider than that bound;
"unresolved" when the median is within the bound but a side's spread is
wider; and "WORSE" when the median is outside the bound.

Before the pairs it prints the address and size of every Executor symbol in
each side's built benchmark (nm -S), so each measurement records where the
interpreter's hot loop landed: code layout alone moves host speed.

The script reads BENCHMARK.json and runs perfbench/run.py; it writes nothing
into either checkout except what run.py itself builds.
"""
import argparse
import json
import math
import os
import statistics
import subprocess
import sys

MIN_CLAIM_PAIRS = 10


def run_once(root, args, seconds):
    cmd = [sys.executable, os.path.join("perfbench", "run.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=root, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        result = None
    if proc.returncode != 0 or result is None or not result.get("correct"):
        sys.exit("perf_pairs: %s: run failed (exit %d, correct=%s)" %
                 (root, proc.returncode,
                  None if result is None else result.get("correct")))
    return {k: v["value"] for k, v in result["metrics"].items()}


def executor_layout(root):
    """(address, size, name) of each Executor symbol in root's benchmark."""
    # Where perfbench/run.py builds the benchmark.
    binary = os.path.join(root, ".bench_build", "perfbench", "perfbench")
    try:
        proc = subprocess.run(["nm", "-S", "-C", binary], stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL, text=True)
    except OSError:
        return []
    rows = []
    for line in proc.stdout.splitlines():
        parts = line.split(None, 3)
        if len(parts) < 4 or "Executor::" not in parts[3]:
            continue
        try:
            row = (int(parts[0], 16), int(parts[1], 16), parts[3])
        except ValueError:
            continue  # undefined, or no size: nothing to place
        if row not in rows:
            rows.append(row)  # nm lists a constructor or destructor per alias
    return rows


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4, method="inclusive")
    return q[0], q[2]


def better(metric, a, b):
    """+1 if a beats b under the metric's direction, -1 if worse, 0 if tied."""
    if a == b:
        return 0
    return 1 if (a > b) == (metric["better"] == "higher") else -1


def bound_verdict(metric, p, c, pq, cq):
    if all(better(metric, cv, pv) == 1 for cv in c for pv in p):
        return "ok"
    pm, cm = statistics.median(p), statistics.median(c)
    allowed = metric["bound"] * abs(pm)
    worse_by = (pm - cm) if metric["better"] == "higher" else (cm - pm)
    if worse_by > allowed:
        return "WORSE by > %g" % metric["bound"]
    if max(pq[1] - pq[0], cq[1] - cq[0]) > allowed:
        return "unresolved"
    return "ok"


def fmt(v):
    return "%.0f" % v if abs(v) >= 1e4 else "%.4g" % v


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent", help="root of the parent checkout")
    ap.add_argument("change", help="root of the changed checkout")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--pairs", type=int, default=10)
    args = ap.parse_args()

    with open(os.path.join(args.parent, "BENCHMARK.json")) as f:
        bench = json.load(f)
    seconds, metrics = bench["run_seconds"], bench["end_to_end"]
    sides = {"parent": args.parent, "change": args.change}

    for name, root in sides.items():
        print("perf_pairs: building and checking %s (%s)" % (name, root),
              file=sys.stderr)
        run_once(root, args, 0)

    for name, root in sides.items():
        layout = executor_layout(root)
        if not layout:
            print("%s layout: no Executor symbols (nm unavailable?)" % name)
        for addr, size, sym in layout:
            print("%s layout: 0x%x %d B %s" % (name, addr, size, sym))

    runs = {"parent": [], "change": []}
    for i in range(args.pairs):
        order = ["parent", "change"] if i % 2 == 0 else ["change", "parent"]
        for name in order:
            runs[name].append(run_once(sides[name], args, seconds))
        print("perf_pairs: pair %d/%d done (%s first)" %
              (i + 1, args.pairs, order[0]), file=sys.stderr)

    need = math.ceil(0.9 * args.pairs)
    print("%s seed %d: %d alternating pairs of %g s; claim needs >= %d pairs "
          "and >= %d wins" % (args.workload, args.seed, args.pairs, seconds,
                              MIN_CLAIM_PAIRS, need))
    print("%-18s %-6s %-32s %-32s %-7s %-8s %-5s %s" %
          ("metric", "unit", "parent median [q1, q3]",
           "change median [q1, q3]", "ratio", "W/T/L", "claim", "bound"))
    for m in metrics:
        name = m["name"]
        if any(name not in r for side in runs.values() for r in side):
            continue
        p = [r[name] for r in runs["parent"]]
        c = [r[name] for r in runs["change"]]
        pm, cm = statistics.median(p), statistics.median(c)
        pq, cq = quartiles(p), quartiles(c)
        verdicts = [better(m, cv, pv) for cv, pv in zip(c, p)]
        wins, losses = verdicts.count(1), verdicts.count(-1)
        ties = len(verdicts) - wins - losses
        gap = (cm - pm) if m["better"] == "higher" else (pm - cm)
        claim = (args.pairs >= MIN_CLAIM_PAIRS and wins >= need and
                 gap > pq[1] - pq[0])
        ratio = cm / pm if pm else float("nan")
        print("%-18s %-6s %-32s %-32s %-7s %-8s %-5s %s" %
              (name, m["unit"],
               "%s [%s, %s]" % (fmt(pm), fmt(pq[0]), fmt(pq[1])),
               "%s [%s, %s]" % (fmt(cm), fmt(cq[0]), fmt(cq[1])),
               "%.3f" % ratio, "%d/%d/%d" % (wins, ties, losses),
               "yes" if claim else "no", bound_verdict(m, p, c, pq, cq)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
