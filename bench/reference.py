"""Regenerate the reference figures of bench/README.md.

  python3 bench/reference.py [--workload NAME ...]
  python3 bench/reference.py --trace [--workload NAME ...]

Without --trace: runs bench/run.py once per seed for two sets of ten seeds
for each workload and prints, per end-to-end metric, the first set's
median, quartiles and spread (distance between the quartiles over the
median), the second set's median and spread, and how far the second median
lies from the first, next to the raw times the normalised ones come from.
With --trace: one traced run per workload, printed as the table of
per-layer metrics.  Every run uses the run length of BENCHMARK.json, and
its output is kept under bench/out/reference/.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out", "reference")
WORKLOADS = ("kernel_words", "exact_eval", "invariants", "lm_pipeline")
RUNS = 10


def run(workload, seed, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--trace", str(int(trace))]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True)
    lines = proc.stdout.strip().splitlines()
    path = os.path.join(OUT, "%s-%d-trace%d.txt" % (workload, seed, int(trace)))
    with open(path, "w") as fh:
        fh.write(proc.stdout)
    return json.loads(lines[-2]), json.loads(lines[-1])


def quartiles(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values):
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / q2


def columns(details, results):
    """Every figure of a set of runs, keyed by name: (unit, values)."""
    cols = {k: (results[0]["metrics"][k]["unit"], [r["metrics"][k]["value"] for r in results])
            for k in results[0]["metrics"]}
    for k in ("run_raw_s", "item_p50_raw_ms", "setup_raw_s"):
        cols[k] = (cols[k.replace("_raw", "")][0], [d[k] for d in details])
    cols["ref_loop_ms"] = ("ms", [d["ref_median_ms"] for d in details])
    return cols


def reference(workloads):
    """Two sets of RUNS runs per workload, seeds 1..RUNS and RUNS+1..2*RUNS,
    the second set started after the first has run on every workload."""
    sets = []
    for first in (1, RUNS + 1):
        runs = {}
        for w in workloads:
            runs[w] = [run(w, seed, False) for seed in range(first, first + RUNS)]
            print("set %d, %s done" % (len(sets) + 1, w), file=sys.stderr)
        sets.append(runs)
    print("| workload | metric | unit | median | Q1 | Q3 | spread | median, set 2 "
          "| spread, set 2 | set 2 / set 1 - 1 |")
    print("|---|---|---|---|---|---|---|---|---|---|")
    for w in workloads:
        a, b = (columns(*zip(*runs[w])) for runs in sets)
        for k in ("run_s", "run_raw_s", "item_p50_ms", "item_p50_raw_ms", "setup_s",
                  "setup_raw_s", "peak_rss_mib", "ref_loop_ms"):
            unit, va = a[k]
            vb = b[k][1]
            q1, q2, q3 = quartiles(va)
            mb = statistics.median(vb)
            print("| %s | %s | %s | %.4g | %.4g | %.4g | %.3f | %.4g | %.3f | %+.3f |" % (
                w, k, unit, q2, q1, q3, spread(va), mb, spread(vb), mb / q2 - 1))
    for w in workloads:
        results = [r for runs in sets for _, r in runs[w]]
        details = [d for runs in sets for d, _ in runs[w]]
        print("%s: correct: %s, failed/attempted: %s, rounds: %s" % (
            w, all(r["correct"] for r in results),
            ", ".join("%d/%d" % fa for fa in sorted({(r["failed"], r["attempted"]) for r in results})),
            sorted({d["rounds"] for d in details})))


def traced(workloads):
    tables = {}
    for w in workloads:
        d, r = run(w, 1, True)
        tables[w] = r["metrics"]
        print("%s: spans %d (dropped %d), overhead %.1f%%" % (
            w, d["spans"], d["spans_dropped"], r["metrics"]["trace.overhead_pct"]["value"]),
            file=sys.stderr)
    print("| metric | unit | " + " | ".join(workloads) + " |")
    print("|---|---|" + "---|" * len(workloads))
    for k, v in tables[workloads[0]].items():
        print("| %s | %s | %s |" % (k, v["unit"], " | ".join(
            "%.4g" % tables[w][k]["value"] for w in workloads)))


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", nargs="*", default=list(WORKLOADS))
    ap.add_argument("--trace", action="store_true")
    args = ap.parse_args()
    os.makedirs(OUT, exist_ok=True)
    if args.trace:
        traced(args.workload)
    else:
        reference(args.workload)


if __name__ == "__main__":
    main()
