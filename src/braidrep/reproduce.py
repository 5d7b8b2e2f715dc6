"""The reproduction battery: the paper's printed matrices and stated identities.

Each check recomputes one claim and returns whether it holds.  Golden
matrices are written inline as 1-based (row, col) -> polynomial text;
every other entry is zero.  `run` is what `braidrep paper reproduce`
renders.
"""
from __future__ import annotations

from . import longmoody
from .matrices import RingMatrix
from .reps import make_burau, make_tym, make_wtym
from .ring import RingContext, specialize
from .stringlinks import (LambdaRelation, NormalForm, ctx_for_mode,
                          diagram_from_word, eliminate, tym_matrix)
from .words import BraidWord

TQ = RingContext(("t", "q"))


def _matrix(ctx, n, entries):
    parsed = {(i - 1, j - 1): ctx.parse(text) for (i, j), text in entries.items()}
    return RingMatrix.from_entries_dict(ctx, n, parsed)


def _multi(word):
    return tym_matrix(diagram_from_word(word), "multi")


def lm9_sigma(i):
    """The paper's nine-dimensional image of sigma_i (i = 1, 2) over Z[t, q]."""
    entries = {
        1: {(1, 5): "q^2", (2, 4): "q^2*t^2", (3, 6): "q^2",
            (4, 2): "1", (4, 5): "1 - q^2*t",
            (5, 1): "t", (5, 4): "t - q^2*t",
            (6, 3): "1", (6, 6): "1 - q^2",
            (7, 8): "1", (8, 7): "t", (9, 9): "1"},
        2: {(1, 1): "1", (2, 3): "1", (3, 2): "t",
            (4, 7): "q^2", (5, 9): "q^2", (6, 8): "q^2*t^2",
            (7, 4): "1", (7, 7): "1 - q^2",
            (8, 6): "1", (8, 9): "1 - q^2*t",
            (9, 5): "t", (9, 8): "t - q^2*t"},
    }[i]
    return _matrix(TQ, 9, entries)


def check_generators():
    tctx = RingContext(("t",))
    t = tctx.var("t")
    ok = True
    for n in range(2, 8):
        bur = make_burau(n, t)
        tym = make_tym(n)
        wt = make_wtym(n)
        for i in range(1, n):
            b = bur.sigma_images[i]
            ok = ok and b[i - 1, i - 1].is_zero() and b[i - 1, i] == t
            ok = ok and b[i, i - 1].is_one() and b[i, i] == tctx.one() - t
            m = tym.sigma_images[i]
            ok = ok and m[i - 1, i].is_one() and m[i, i - 1] == tym.ring.var("t")
            w = wt.sigma_images[i]
            ok = ok and w[i - 1, i] == wt.ring.var("u") and w[i, i - 1] == wt.ring.var("v")
            v = wt.tau_images[i]
            ok = ok and v[i - 1, i] == wt.ring.var("al").inverse()
            ok = ok and v[i, i - 1] == wt.ring.var("al")
            for k in range(n):
                if k not in (i - 1, i):
                    ok = ok and b[k, k].is_one() and m[k, k].is_one()
    return ok


def check_specialized():
    m = _multi(BraidWord(3, [("s", 1, 1), ("s", 2, -1)]))
    tctx = RingContext(("t",))
    images = {v: tctx.one() if v.startswith("u") else tctx.var("t")
              for v in m.ring.variables}
    got = m.map_entries(lambda p: specialize(p, images, tctx), ring=tctx)
    return got == _matrix(tctx, 3, {(1, 3): "t^-1", (2, 1): "t", (3, 2): "1"})


def check_elimination():
    ctx = ctx_for_mode("2var", 2)
    u, v = ctx.var("u"), ctx.var("v")
    rels = [
        LambdaRelation("m1", "m3", u),
        LambdaRelation("a1", "m2", v),
        LambdaRelation("m4", "a2", u),
        LambdaRelation("x2", "m3", v),
        LambdaRelation("m2", "x1", u),
        LambdaRelation("m4", "m1", v),
    ]
    nf = eliminate(rels, ["a1", "a2"], ["x1", "x2"])
    return nf == NormalForm(2, [1, 2], [u * v, ctx.one()])


def check_ex311():
    golden = _matrix(ctx_for_mode("multi", 2), 2, {(1, 1): "u2*v2", (2, 2): "u1*v1"})
    return _multi(BraidWord(2, [("s", 1, 1), ("s", 1, 1)])) == golden


def check_ex312():
    ctx = ctx_for_mode("multi", 3)
    sigma1 = _matrix(ctx, 3, {(2, 1): "v1", (1, 2): "u2", (3, 3): "1"})
    sigma2inv = _matrix(ctx, 3, {(1, 1): "1", (3, 2): "u2^-1", (2, 3): "v3^-1"})
    product = _matrix(ctx, 3, {(2, 1): "v1", (3, 2): "u1^-1", (1, 3): "u2*v3^-1"})
    s1 = BraidWord(3, [("s", 1, 1)])
    s2i = BraidWord(3, [("s", 2, -1)])
    return (_multi(s1) == sigma1 and _multi(s2i) == sigma2inv
            and _multi(s1 * s2i) == product
            and sigma1 * sigma2inv.variable_twist(s1.permutation()) == product)


def check_lm9():
    rep = longmoody.lm_semidirect(longmoody.make_eta(3), q_twist=True)
    return rep.sigma_images[1] == lm9_sigma(1) and rep.sigma_images[2] == lm9_sigma(2)


def check_lm12():
    rep = longmoody.lm_q(make_tym(4, TQ))
    return all(rep.sigma_images[i] == longmoody.block_formula_lm_q_tym(3, i)
               for i in (1, 2))


def check_reduced6():
    rep = longmoody.reduced_lm3()
    w1 = BraidWord(3, [("s", 1, 1), ("s", 2, 1), ("s", 1, 1)])
    w2 = BraidWord(3, [("s", 2, 1), ("s", 1, 1), ("s", 2, 1)])
    return rep.evaluate(w1) == rep.evaluate(w2) and not rep.check_relations()


def check_decompose():
    return all(longmoody.decompose_check(n)["ok"] for n in (2, 3))


def check_trivial_burau():
    return all(longmoody.identify_trivial_burau(n) for n in (2, 3))


def check_probe():
    rpt = longmoody.irreducibility_probe(longmoody.reduced_lm3(), p=10007,
                                         trials=5, seed=0)
    neg = longmoody.irreducibility_probe(
        make_burau(3, RingContext(("t",)).var("t")), p=10007, trials=3, seed=0)
    return rpt["full"] and neg["dimension"] < 9


def check_intertwining():
    return not longmoody.intertwining_check(make_tym(4))


def check_kernel_words():
    rpt = longmoody.kernel_experiment()
    return all(r["burau_identity"] and r["lm_identity"] and not r["t1lm_identity"]
               for r in rpt.values())


CHECKS = [
    ("generator matrices", check_generators),
    ("specialized three strand matrix", check_specialized),
    ("two variable elimination", check_elimination),
    ("two string diagonal invariant", check_ex311),
    ("multi variable matrices and twisted product", check_ex312),
    ("nine dimensional construction", check_lm9),
    ("twelve dimensional block formula", check_lm12),
    ("reduced six dimensional images", check_reduced6),
    ("decomposition n=2,3", check_decompose),
    ("trivial source gives Burau at q^2", check_trivial_burau),
    ("irreducibility probe", check_probe),
    ("intertwining identity", check_intertwining),
]


def run(full=False):
    """One {"check": name, "result": "PASS" | "FAIL"} per check, in order.

    `full` adds the kernel word experiment: the paper's four words are the
    identity in Burau and lm(TYM) and not in the shifted lm_q(TYM).  A check
    that raises fails, and its name carries the error.
    """
    checks = CHECKS + ([("kernel word experiment", check_kernel_words)] if full else [])
    results = []
    for name, check in checks:
        try:
            ok = check()
        except Exception as exc:
            ok = False
            name = "%s (error: %s)" % (name, exc)
        results.append({"check": name, "result": "PASS" if ok else "FAIL"})
    return results
