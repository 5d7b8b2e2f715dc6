"""The braidrep benchmark: four workloads, each in its own fresh process.

  python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
  python3 bench/run.py                      # every workload, one after another

S is the timed work per workload; it defaults to `run_seconds` of
BENCHMARK.json, the run length every reference figure was taken at.

NAME is kernel_words, exact_eval, invariants, lm_pipeline or all.  The last
line of standard output is one JSON object with the keys correct,
attempted, failed and metrics: the end-to-end metrics with --trace 0, the
per-layer metrics of a traced run with --trace 1.  The line before it holds
the raw figures the metrics come from.  See bench/README.md.
"""
from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
WORKLOADS = ("kernel_words", "exact_eval", "invariants", "lm_pipeline")

# Every child runs single-threaded with a fixed string hash.
PINNED_ENV = {
    "PYTHONHASHSEED": "0",
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
}
# Set-up is measured in this many fresh processes (the measuring one
# included) and reported as their median.
SETUP_SAMPLES = 9
CHILD_TIMEOUT_S = 150
UNITS = {"setup_s": "s", "run_s": "s", "item_p50_ms": "ms", "peak_rss_mib": "MiB"}


class BenchError(Exception):
    pass


def child(workload, seed, seconds, trace, phase):
    env = dict(os.environ)
    env.update(PINNED_ENV)
    t0 = time.monotonic()
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
           "--phase", phase, "--t0", repr(t0), "--out", OUT]
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
    try:
        stdout, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchError("%s %s timed out" % (workload, phase))
    finally:
        # also on SIGTERM or ^C: leave no worker behind
        if proc.poll() is None:
            proc.kill()
            proc.communicate()
    lines = stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError("%s %s exited with %d" % (workload, phase, proc.returncode))
    return json.loads(lines[-1])


def run_workload(workload, seed, seconds, trace):
    setups = []
    if not trace:
        for _ in range(SETUP_SAMPLES - 1):
            setups.append(child(workload, seed, seconds, 0, "setup"))
    res = child(workload, seed, seconds, trace, "run")
    detail = res["detail"]
    detail.update(workload=workload, seed=seed, seconds=seconds, trace=trace,
                  pinned_env=PINNED_ENV, python=sys.version.split()[0], errors=res["errors"])
    if trace:
        metrics = {k: {"value": v, "unit": res["units"][k]} for k, v in res["metrics"].items()}
    else:
        setups.append({"setup_s": res["metrics"]["setup_s"], "setup_raw_s": res["setup_raw_s"]})
        detail["setup_samples_s"] = [r["setup_s"] for r in setups]
        detail["setup_raw_samples_s"] = [r["setup_raw_s"] for r in setups]
        detail["setup_raw_s"] = statistics.median(detail["setup_raw_samples_s"])
        res["metrics"]["setup_s"] = statistics.median(detail["setup_samples_s"])
        metrics = {k: {"value": v, "unit": UNITS[k]} for k, v in res["metrics"].items()}
    return detail, {"correct": res["correct"], "attempted": res["attempted"],
                    "failed": res["failed"], "metrics": metrics}


def _terminate(signum, frame):
    raise SystemExit(128 + signum)


def main(argv=None):
    signal.signal(signal.SIGTERM, _terminate)
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", default="all", choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "braidrep", "__init__.py")):
        print("error: no braidrep sources under %s" % os.path.join(ROOT, "src"), file=sys.stderr)
        return 2
    if args.seconds is None:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
            args.seconds = json.load(fh)["run_seconds"]
    os.makedirs(OUT, exist_ok=True)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for name in names:
            detail, result = run_workload(name, args.seed, args.seconds, args.trace)
            print(json.dumps(detail))
            results[name] = result
    except BenchError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1
    if args.workload != "all":
        print(json.dumps(results[args.workload]))
        return 0
    for name, result in results.items():
        print(json.dumps(dict(workload=name, **result)))
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {"%s.%s" % (name, k): v for name, r in results.items()
                    for k, v in r["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
