"""Show that the benchmark's checks can fail: each checker is given a
correct result, which it must accept, and a corrupted copy, which it must
reject.

  python3 bench/selftest.py

Exit status 0 when every checker behaves so, 1 otherwise.
"""
from __future__ import annotations

import contextlib
import io
import json
import os
import random
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

from braidrep import cli, longmoody  # noqa: E402
from braidrep.reps import make_burau, make_tym  # noqa: E402
from braidrep.ring import RingContext  # noqa: E402
from braidrep.words import BraidWord  # noqa: E402

import checks  # noqa: E402
import workloads  # noqa: E402


def rejects(fn):
    try:
        fn()
    except checks.CheckFailed:
        return True
    return False


def corrupt_entry(text, change):
    """Apply `change` to the first nonzero entry of a rendered matrix."""
    rows, cols, entries = checks.parse_matrix(text)
    k = next(i for i, t in enumerate(entries) if t)
    entries[k] = change(dict(entries[k]))
    lines = ["%d %d" % (rows, cols)]
    for i in range(rows):
        lines.append(";".join(checks.render_poly(t) for t in entries[i * cols:(i + 1) * cols]))
    return "\n".join(lines)


def one_coefficient(terms):
    key = next(iter(terms))
    terms[key] += 1
    return terms


def one_exponent(terms):
    ((key, c),) = terms.items()
    (v, e), rest = key[0], key[1:]
    return {((v, e + 1),) + rest: c}


def case_exact(rng):
    rep = make_burau(5, RingContext(("t",)).var("t"))
    word = BraidWord(5, [("s", rng.randrange(1, 5), rng.choice((1, -1))) for _ in range(30)])
    point = checks.random_point(rng, rep.ring.variables)
    gens = workloads.gens_mod_p(rep, point)
    text = rep.evaluate(word).render()
    checks.check_exact(text, gens, word.letters, point)
    bad = corrupt_entry(text, one_coefficient)
    return "exact result, one coefficient changed", rejects(
        lambda: checks.check_exact(bad, gens, word.letters, point))


def case_verdict(rng):
    kw = workloads.KernelWords(rng.randrange(1 << 30))
    truth = {name: {"n": w.n, "burau_identity": True, "lm_identity": True, "t1lm_identity": False}
             for name, w in kw.words.items()}
    kw.check(truth)
    flipped = json.loads(json.dumps(truth))
    flipped["tau"]["t1lm_identity"] = True
    # the modular witness alone must also reject the flipped verdict
    w = kw.words["tau"].shift(1)
    rep = longmoody.lm_q(make_tym(w.n + 1, RingContext(("t", "q"))))
    point = checks.random_point(rng, rep.ring.variables)
    product = checks.mod_product(workloads.gens_mod_p(rep, point), w.letters, rep.dim)
    return "kernel verdict flipped", (rejects(lambda: kw.check(flipped))
                                      and rejects(lambda: checks.check_verdict(True, [product])))


def case_invariant(rng):
    n = 5
    letters = [("s", rng.randrange(1, n), rng.choice((1, -1))) for _ in range(200)]
    letters += [("t", rng.randrange(1, n)) for _ in range(20)]
    with tempfile.TemporaryDirectory(dir=os.path.join(HERE, "out")) as tmp:
        path = os.path.join(tmp, "w.braid")
        with open(path, "w") as fh:
            fh.write("n=%d\n%s\n" % (n, " ".join(workloads.word_token(lt) for lt in letters)))
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            status = cli.main(["invariant", "--mode", "wmulti", "--word", path])
    bottom, _vl, _V, weight = checks.tally(n, letters)
    text = buf.getvalue()
    checks.require(status == 0, "invariant command failed")
    checks.check_invariant(text, n, bottom, weight["wmulti"])
    bad = corrupt_entry(text, one_exponent)
    return "invariant, one exponent shifted", rejects(
        lambda: checks.check_invariant(bad, n, bottom, weight["wmulti"]))


def case_probe(rng):
    report = longmoody.irreducibility_probe(make_burau(3, RingContext(("t",)).var("t")),
                                            p=10007, trials=2, seed=rng.randrange(1 << 30))
    checks.check_probe(report, 3, False, 5)
    raised = dict(report, dimension=report["dimension"] + 1)
    return "probe, span dimension raised by one", rejects(
        lambda: checks.check_probe(raised, 3, False, 5))


def main():
    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    rng = random.Random(2012)
    ok = True
    for case in (case_exact, case_verdict, case_invariant, case_probe):
        name, rejected = case(rng)
        print("%-40s %s" % (name, "rejected" if rejected else "NOT REJECTED"))
        ok = ok and rejected
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
