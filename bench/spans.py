"""Spans around the public functions of braidrep, installed from outside.

`Tracer.install()` replaces every public function and public method of the
modules in LAYERS (and the arithmetic operators named in OPERATORS) with a
wrapper that records a span: name, start, end and parent.  Self time is a
span's duration minus that of its child spans; counts are taken at the same
boundaries by the hooks in COUNTERS.  Spans are kept in memory, up to
MAX_SPANS, and written out by `dump`; self times and counts cover every
call, also past that cap.

Functions are replaced in the braidrep modules, so a caller sees the
spans only if it looks a function up through its module when calling it.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from array import array

LAYERS = ("ring", "matrices", "words", "reps", "stringlinks", "longmoody", "cli")
OPERATORS = {"LaurentPoly": ("__mul__", "__rmul__", "__pow__"),
             "RingMatrix": ("__mul__", "__pow__")}
MAX_SPANS = 1_000_000


def _nterms(p):
    return len(p.terms) if hasattr(p, "terms") else 1


def _poly_mul(counts, args, result):
    counts["ring.term_products"] += _nterms(args[0]) * _nterms(args[1])


def _matrix_mul(counts, args, result):
    a, b = args
    counts["matrices.term_products"] += sum(
        sum(_nterms(a.entries[i * a.cols + j]) for i in range(a.rows))
        * sum(_nterms(b.entries[j * b.cols + k]) for k in range(b.cols))
        for j in range(a.cols))
    terms = 0
    bits = 0
    for e in result.entries:
        t = getattr(e, "terms", None)
        if t:
            terms += len(t)
            bits = max(bits, max(abs(c) for c in t.values()).bit_length())
    counts["matrices.result_terms_max"] = max(counts["matrices.result_terms_max"], terms)
    counts["matrices.coeff_bits_max"] = max(counts["matrices.coeff_bits_max"], bits)


def _evaluate(counts, args, result):
    counts["reps.letters"] += len(args[1].letters)


def _relations(counts, args, result):
    counts["stringlinks.crossings"] += len(args[0].crossings)


def _probe(counts, args, result):
    counts["longmoody.probe_trials"] += result["trials_used"]
    counts["longmoody.probe_span_dim"] += result["dimension"]


COUNTERS = {
    "ring.LaurentPoly.__mul__": _poly_mul,
    "ring.LaurentPoly.__rmul__": _poly_mul,
    "matrices.RingMatrix.__mul__": _matrix_mul,
    "reps.GenRep.evaluate": _evaluate,
    "stringlinks.relations_of": _relations,
    "longmoody.irreducibility_probe": _probe,
}
MAXIMA = ("matrices.result_terms_max", "matrices.coeff_bits_max")


class Tracer:
    def __init__(self):
        self.names = []
        self.calls = []
        self.self_s = []
        self.counts = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.dropped = 0
        # frames: [span index or -1, child seconds]
        self.stack = [[-1, 0.0]]
        self._undo = []

    # --- installation ---------------------------------------------------

    def _wrap(self, fn, name):
        nid = len(self.names)
        self.names.append(name)
        self.calls.append(0)
        self.self_s.append(0.0)
        hook = COUNTERS.get(name)
        perf = time.perf_counter
        stack = self.stack
        calls, self_s = self.calls, self.self_s
        s_name, s_parent, s_start, s_end = (self.span_name, self.span_parent,
                                            self.span_start, self.span_end)
        counts = self.counts
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1]
            if len(s_start) < MAX_SPANS:
                idx = len(s_start)
                s_name.append(nid)
                s_parent.append(parent[0])
                s_start.append(0.0)
                s_end.append(0.0)
            else:
                idx = -1
                tracer.dropped += 1
            frame = [idx, 0.0]
            stack.append(frame)
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf()
                stack.pop()
                dur = t1 - t0
                self_s[nid] += dur - frame[1]
                calls[nid] += 1
                if idx >= 0:
                    s_start[idx] = t0
                    s_end[idx] = t1
            if hook is not None and result is not NotImplemented:
                hook(counts, args, result)
                # the hook's own time is not the parent's work
                parent[1] += perf() - t0
            else:
                parent[1] += dur
            return result

        return wrapper

    def install(self):
        for m in COUNTS:
            self.counts[m] = 0
        mods = {layer: importlib.import_module("braidrep." + layer) for layer in LAYERS}
        namespaces = [sys.modules["braidrep"]] + list(mods.values())
        for layer, mod in mods.items():
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrapped = self._wrap(obj, "%s.%s" % (layer, attr))
                    for ns in namespaces:
                        if vars(ns).get(attr) is obj:
                            self._set(ns, attr, wrapped)
                elif inspect.isclass(obj):
                    self._wrap_class(layer, obj)

    def _wrap_class(self, layer, cls):
        for attr, raw in list(vars(cls).items()):
            if attr.startswith("_") and attr not in OPERATORS.get(cls.__name__, ()):
                continue
            name = "%s.%s.%s" % (layer, cls.__name__, attr)
            if isinstance(raw, (classmethod, staticmethod)):
                self._set(cls, attr, type(raw)(self._wrap(raw.__func__, name)))
            elif inspect.isfunction(raw):
                self._set(cls, attr, self._wrap(raw, name))

    def exclude(self, seconds):
        """Take `seconds` spent outside the program (a signal handler's
        reference sample) out of the self time of the innermost open span,
        as if it were a child span.  A handler that runs in the few
        instructions between a wrapper's stack push and its clock read (or
        between its clock read and its stack pop) moves its time from that
        span's self time to its parent's instead."""
        self.stack[-1][1] += seconds

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self):
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    # --- results --------------------------------------------------------

    def snapshot(self):
        """Calls, self seconds and counters so far, for differencing rounds."""
        return (list(self.calls), list(self.self_s), dict(self.counts))

    def dump(self, path, extra):
        """Write the span table: a JSON header line, then the four columns."""
        header = {"names": self.names, "spans": len(self.span_start), "dropped": self.dropped,
                  "columns": ["name:int32", "parent:int32", "start:float64", "end:float64"],
                  "calls": self.calls, "self_s": self.self_s, "counts": self.counts}
        header.update(extra)
        with open(path, "wb") as fh:
            fh.write((json.dumps(header) + "\n").encode())
            for col in (self.span_name, self.span_parent, self.span_start, self.span_end):
                col.tofile(fh)


# Per-layer metrics, per traced round: the self seconds (SELF) or calls
# (CALLS) summed over the named spans, and the hooks' counters (COUNTS).
SELF = {
    "ring.poly_mul_s": ("ring.LaurentPoly.__mul__", "ring.LaurentPoly.__rmul__", "ring.LaurentPoly.__pow__"),
    "ring.render_s": ("ring.poly_render",),
    "ring.specialize_s": ("ring.specialize",),
    "matrices.mul_s": ("matrices.RingMatrix.__mul__",),
    "matrices.inverse_s": ("matrices.RingMatrix.inverse", "matrices.RingMatrix.monomial_inverse",
                           "matrices.RingMatrix.adjugate_inverse", "matrices.RingMatrix.determinant"),
    "matrices.render_s": ("matrices.RingMatrix.render",),
    "reps.evaluate_s": ("reps.GenRep.evaluate",),
    "words.artin_action_s": ("words.artin_action",),
    "words.fox_derivative_s": ("words.fox_derivative",),
    "words.chi_s": ("words.chi",),
    "words.parse_s": ("words.BraidWord.parse",),
    "stringlinks.diagram_s": ("stringlinks.diagram_from_word", "stringlinks.Diagram.parse"),
    "stringlinks.relations_s": ("stringlinks.relations_of",),
    "stringlinks.eliminate_s": ("stringlinks.eliminate",),
    "stringlinks.writhe_s": ("stringlinks.self_writhe_correct", "stringlinks.Diagram.self_writhe"),
    "stringlinks.kernel_predicate_s": ("stringlinks.kernel_predicate",
                                       "stringlinks.linking_profile_diagram"),
    "longmoody.build_s": ("longmoody.lm_apply", "longmoody.lm_q", "longmoody.lm_semidirect"),
    "longmoody.decompose_s": ("longmoody.decompose_check",),
    "longmoody.probe_s": ("longmoody.irreducibility_probe",),
    "longmoody.verdict_s": ("longmoody.kernel_experiment",),
    "cli.load_s": ("cli.load_word", "cli.load_diagram"),
    "cli.emit_s": ("cli.emit_matrix", "cli.emit_obj"),
}
CALLS = {
    "ring.poly_mul_calls": ("ring.LaurentPoly.__mul__", "ring.LaurentPoly.__rmul__"),
    "matrices.mul_calls": ("matrices.RingMatrix.__mul__",),
    "reps.evaluate_calls": ("reps.GenRep.evaluate",),
}
COUNTS = ("ring.term_products", "matrices.term_products", "matrices.result_terms_max",
          "matrices.coeff_bits_max", "reps.letters", "stringlinks.crossings",
          "longmoody.probe_trials", "longmoody.probe_span_dim")


def layer_metrics(tracer, before, after, rounds, traced_s):
    """Per-round per-layer metrics between two snapshots."""
    calls0, self0, counts0 = before
    calls1, self1, counts1 = after
    idx = {name: i for i, name in enumerate(tracer.names)}

    def total(values1, values0, names):
        return sum(values1[idx[n]] - values0[idx[n]] for n in names if n in idx)

    out = {}
    for metric, names in SELF.items():
        out[metric] = (total(self1, self0, names) / rounds, "s")
    for metric, names in CALLS.items():
        out[metric] = (total(calls1, calls0, names) / rounds, "count")
    for metric in COUNTS:
        if metric in MAXIMA:
            out[metric] = (counts1.get(metric, 0), "count")
        else:
            out[metric] = ((counts1.get(metric, 0) - counts0.get(metric, 0)) / rounds, "count")
    for layer in LAYERS:
        names = [n for n in tracer.names if n.split(".", 1)[0] == layer]
        out["%s.share_pct" % layer] = (100.0 * total(self1, self0, names) / traced_s, "%")
    return out
