"""One workload in one process: set-up, timed rounds, checks, one JSON line.

run.py starts this file in a fresh interpreter with the thread and hash
settings pinned; it prints a single JSON object on its last line.

  --phase setup  builds the inputs and reports the set-up time only
  --phase run    also runs whole rounds of the workload's items for
                 --seconds of timed work, checking every result
"""
from __future__ import annotations

import argparse
import bisect
import json
import os
import resource
import signal
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# Normalised times are raw times * REF_NOMINAL_S / (reference_loop time
# measured around them): seconds of a machine on which the loop takes 10 ms.
REF_NOMINAL_S = 0.0100
REF_EVERY_S = 0.25


def reference_loop():
    """Fixed pure-Python work sharing no code with braidrep: the square of a
    sparse bivariate polynomial held as a dict of exponent tuples."""
    a = {}
    for i in range(26):
        for j in range(6):
            a[(i - 13, j)] = (7 * i + 3 * j) % 11 - 5 or 1
    out = {}
    for ea, ca in a.items():
        for eb, cb in a.items():
            e = (ea[0] + eb[0], ea[1] + eb[1])
            out[e] = out.get(e, 0) + ca * cb
    return len(out)


class RefSampler:
    """Times reference_loop every REF_EVERY_S, also in the middle of an item.

    The host's speed changes by up to a factor of two for stretches of
    seconds, and the reference loop follows those changes; so each item is
    normalised by the samples taken around it, not by one figure per run.
    A SIGALRM handler takes the samples; `stolen` is the time spent in it,
    which the runner subtracts from the item it interrupted.
    """

    def __init__(self):
        self.times = []
        self.samples = []
        self.stolen = 0.0
        # called with the seconds each sample took from the interrupted code
        self.on_sample = None

    def take(self):
        t = time.perf_counter()
        reference_loop()
        t1 = time.perf_counter()
        self.times.append((t + t1) / 2)
        self.samples.append(t1 - t)
        stolen = time.perf_counter() - t
        self.stolen += stolen
        return stolen

    def _handler(self, signum, frame):
        stolen = self.take()
        if self.on_sample is not None:
            self.on_sample(stolen)

    def start(self):
        signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, REF_EVERY_S, REF_EVERY_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def speed(self, t0, t1):
        """Reference loops per second around [t0, t1].

        An item that spans several samples gets their mean speed, which
        follows a change of pace in its middle; a short one gets the median
        of the samples from one interval before it to one after, which
        ignores a single odd sample.
        """
        lo = bisect.bisect_left(self.times, t0)
        hi = bisect.bisect_right(self.times, t1)
        if hi - lo >= 3:
            return statistics.fmean(1.0 / s for s in self.samples[lo:hi])
        lo = bisect.bisect_left(self.times, t0 - REF_EVERY_S)
        hi = bisect.bisect_right(self.times, t1 + REF_EVERY_S)
        return 1.0 / statistics.median(self.samples[lo:hi] or self.samples)


class Runner:
    def __init__(self, items, checks, sampler):
        self.items = items
        self.checks = checks
        self.sampler = sampler
        self.digests = {}
        self.attempted = 0
        self.failed = 0
        self.errors = []
        # per item, per round: (start, end, raw seconds)
        self.timings = [[] for _ in items]
        self.round_s = []

    def _stolen(self):
        return self.sampler.stolen if self.sampler else 0.0

    def round(self):
        timed = 0.0
        for k, item in enumerate(self.items):
            stolen = self._stolen()
            t0 = time.perf_counter()
            try:
                result = item.run()
            except Exception as exc:  # a crash of the program is a failed operation
                result = exc
            t1 = time.perf_counter()
            raw = t1 - t0 - (self._stolen() - stolen)
            timed += raw
            self.timings[k].append((t0, t1, raw))
            self.attempted += item.ops
            self._check(k, item, result)
        self.round_s.append(timed)
        return timed

    def _check(self, k, item, result):
        try:
            if isinstance(result, Exception):
                raise self.checks.CheckFailed("raised %r" % (result,))
            if k in self.digests:
                self.checks.require(item.digest(result) == self.digests[k],
                                    "result differs from the first round")
            else:
                self.digests[k] = item.check(result)
        except Exception as exc:  # a check that cannot even read the result fails it too
            self.failed += item.ops
            if not item.expect_fail:
                self.errors.append("%s: %s: %s" % (item.name, type(exc).__name__, exc))

    def _normalised(self, timing):
        t0, t1, raw = timing
        return raw * REF_NOMINAL_S * self.sampler.speed(t0, t1)

    def per_item(self, normalise):
        """Each item's median over the rounds, normalised or raw."""
        out = []
        for rounds in self.timings:
            if normalise:
                vals = [self._normalised(t) for t in rounds]
            else:
                vals = [raw for _, _, raw in rounds]
            out.append(statistics.median(vals))
        return out

    def per_round(self):
        """Each round's normalised time."""
        return [sum(self._normalised(rounds[r]) for rounds in self.timings)
                for r in range(len(self.round_s))]


def main(argv=None):
    # Set-up is normalised too: by the loop timed during it and right after.
    setup_ref = RefSampler()
    setup_ref.start()
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--phase", choices=("setup", "run"), default="run")
    ap.add_argument("--t0", type=float, required=True, help="time.monotonic() at process start")
    ap.add_argument("--out", required=True, help="directory for work files and traces")
    args = ap.parse_args(argv)

    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    import braidrep
    if not os.path.abspath(braidrep.__file__).startswith(src + os.sep):
        raise SystemExit("braidrep was imported from %s, not from %s" % (braidrep.__file__, src))
    import checks
    import workloads

    cls = workloads.WORKLOADS[args.workload]
    if cls is workloads.Invariants:
        wl = cls(args.seed, os.path.join(args.out, "words-%d" % os.getpid()))
    else:
        wl = cls(args.seed)
    try:
        items = wl.items()
        setup_ref.stop()
        setup = {"setup_raw_s": time.monotonic() - args.t0 - setup_ref.stolen}
        for _ in range(3):
            setup_ref.take()
        setup["setup_s"] = (setup["setup_raw_s"] * REF_NOMINAL_S
                            / statistics.median(setup_ref.samples))
        if args.phase == "setup":
            print(json.dumps(setup))
            return 0
        if args.trace:
            result = traced(args, items, checks)
        else:
            result = measure(args, items, checks, getattr(wl, "ROUND_IS_ITEM", False))
            result["metrics"]["setup_s"] = setup["setup_s"]
            result["setup_raw_s"] = setup["setup_raw_s"]
    finally:
        if hasattr(wl, "close"):
            wl.close()
    print(json.dumps(result))
    return 0


def _rounds(runner, seconds):
    """Whole rounds, as long as another round's timed part still fits into
    `seconds` of timed work."""
    spent = 0.0
    while True:
        timed = runner.round()
        spent += timed
        if spent + timed > seconds:
            return


def _result(runner, items):
    return {
        "correct": not runner.errors,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "errors": runner.errors[:5],
        "detail": {"rounds": len(runner.round_s), "items_per_round": len(items),
                   "round_raw_s": runner.round_s},
    }


def measure(args, items, checks, round_is_item):
    sampler = RefSampler()
    runner = Runner(items, checks, sampler)
    sampler.start()
    try:
        _rounds(runner, args.seconds)
    finally:
        sampler.stop()
    peak_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    out = _result(runner, items)
    figures = {}
    for suffix, normalise in (("", True), ("_raw", False)):
        per_item = runner.per_item(normalise)
        run_s = sum(per_item)
        figures["run%s_s" % suffix] = run_s
        figures["item_p50%s_ms" % suffix] = 1000.0 * (
            run_s if round_is_item else statistics.median(per_item))
    out["detail"].update(run_raw_s=figures["run_raw_s"],
                         item_p50_raw_ms=figures["item_p50_raw_ms"],
                         ref_median_ms=1000.0 * statistics.median(sampler.samples),
                         ref_samples=len(sampler.samples))
    out["metrics"] = {"run_s": figures["run_s"], "item_p50_ms": figures["item_p50_ms"],
                      "peak_rss_mib": peak_mib}
    return out


def traced(args, items, checks):
    """One untraced round, then traced rounds; per-layer metrics per round.

    The overhead compares normalised round times, as the host's speed may
    change between the untraced round and the traced ones.
    """
    import spans
    sampler = RefSampler()
    runner = Runner(items, checks, sampler)
    tracer = spans.Tracer()
    sampler.start()
    try:
        runner.round()
        tracer.install()
        sampler.on_sample = tracer.exclude
        before = tracer.snapshot()
        _rounds(runner, args.seconds)
    finally:
        sampler.stop()
        tracer.uninstall()
    after = tracer.snapshot()
    out = _result(runner, items)
    traced_s = runner.round_s[1:]
    metrics = spans.layer_metrics(tracer, before, after, len(traced_s), sum(traced_s))
    untraced, *traced_norm = runner.per_round()
    metrics["trace.overhead_pct"] = (100.0 * (statistics.median(traced_norm) / untraced - 1.0), "%")
    out["metrics"] = {k: v for k, (v, _unit) in metrics.items()}
    out["units"] = {k: unit for k, (_v, unit) in metrics.items()}
    path = os.path.join(args.out, "trace-%s-%d.spans" % (args.workload, args.seed))
    tracer.dump(path, {"workload": args.workload, "seed": args.seed,
                       "rounds": len(traced_s), "untraced_round_raw_s": runner.round_s[0]})
    out["detail"].update(trace_file=os.path.relpath(path, ROOT), spans=len(tracer.span_start),
                         spans_dropped=tracer.dropped)
    return out


if __name__ == "__main__":
    sys.exit(main())
