"""Acceptance battery.

Each criterion is one test named test_criterion_NN_*, so a verbose run
prints exactly one pass/fail line per criterion.  Expected values are
transcribed or re-derived inline, independent of the package helpers,
wherever the package itself is under test.  Every criterion asserts its
runtime budget.
"""
import random
import time

from braidrep.longmoody import (decompose_check, identify_trivial_burau,
                                intertwining_check, irreducibility_probe,
                                kernel_experiment, lm_q, lm_semidirect,
                                make_eta, reduced_lm3)
from braidrep.matrices import RingMatrix, direct_sum
from braidrep.reps import (make_burau, make_one_dim, make_tym, make_wtym,
                           tensor_one_dim)
from braidrep.ring import RingContext
from braidrep.stringlinks import (LambdaRelation, NormalForm, add_kink,
                                  diagram_from_word, eliminate,
                                  kernel_predicate, linking_profile_diagram,
                                  tym_matrix)
from braidrep.words import BraidWord

from test_words import random_word

TQ = RingContext(("t", "q"))


class Budget:
    def __init__(self, seconds):
        self.limit = seconds
        self.start = time.monotonic()

    def check(self):
        elapsed = time.monotonic() - self.start
        assert elapsed < self.limit, "runtime %.1fs over budget %.0fs" % (elapsed, self.limit)


def word(n, *ks):
    letters = []
    for k in ks:
        if isinstance(k, str):
            letters.append(("t", int(k[1:])))
        else:
            letters.append(("s", abs(k), 1 if k > 0 else -1))
    return BraidWord(n, letters)


def random_pure(rng, n, length, virtual=False):
    while True:
        w = random_word(rng, n, rng.randrange(0, length + 1), virtual=virtual)
        if w.is_pure():
            return w


def test_criterion_01_golden_generator_matrices():
    budget = Budget(1.0)
    tctx = RingContext(("t",))
    t = tctx.var("t")
    uval = RingContext(("u", "v", "al"))
    u, v, al = uval.var("u"), uval.var("v"), uval.var("al")
    for n in range(2, 8):
        bur = make_burau(n, t)
        tym = make_tym(n)
        wt = make_wtym(n)
        tt = tym.ring.var("t")
        for i in range(1, n):
            # expected matrices built entry by entry from the block shapes
            def expect(block, ring):
                rows = []
                for r in range(n):
                    row = []
                    for c in range(n):
                        if r in (i - 1, i) and c in (i - 1, i):
                            row.append(block[r - (i - 1)][c - (i - 1)])
                        elif r == c:
                            row.append(ring.one())
                        else:
                            row.append(ring.zero())
                    rows.append(row)
                return RingMatrix.from_rows(ring, rows)

            assert bur.sigma_images[i] == expect(
                [[tctx.zero(), t], [tctx.one(), tctx.one() - t]], tctx)
            assert tym.sigma_images[i] == expect(
                [[tym.ring.zero(), tym.ring.one()], [tt, tym.ring.zero()]], tym.ring)
            assert wt.sigma_images[i] == expect(
                [[uval.zero(), u], [v, uval.zero()]], uval)
            assert wt.tau_images[i] == expect(
                [[uval.zero(), al.inverse()], [al, uval.zero()]], uval)
    budget.check()


def test_criterion_02_small_example_reproduction():
    budget = Budget(1.0)
    # specialized three strand evaluation
    tctx = RingContext(("t",))
    t = tctx.var("t")
    got = make_tym(3).evaluate(word(3, 1, -2))
    expect = RingMatrix.from_rows(tctx, [
        [tctx.zero(), tctx.zero(), t ** -1],
        [t, tctx.zero(), tctx.zero()],
        [tctx.zero(), tctx.one(), tctx.zero()]])
    assert got == expect

    # six relation elimination
    ctx = RingContext(("u", "v"))
    u, v = ctx.var("u"), ctx.var("v")
    rels = [LambdaRelation("m1", "m3", u), LambdaRelation("a1", "m2", v),
            LambdaRelation("m4", "a2", u), LambdaRelation("x2", "m3", v),
            LambdaRelation("m2", "x1", u), LambdaRelation("m4", "m1", v)]
    assert eliminate(rels, ["a1", "a2"], ["x1", "x2"]) == NormalForm(
        2, [1, 2], [u * v, ctx.one()])

    # diagonal two string invariant
    m = tym_matrix(diagram_from_word(word(2, 1, 1)), "multi")
    c2 = m.ring
    assert m == RingMatrix.from_rows(c2, [
        [c2.var("u2") * c2.var("v2"), c2.zero()],
        [c2.zero(), c2.var("u1") * c2.var("v1")]])

    # the three multi variable matrices and the twisted product rule
    c3 = tym_matrix(diagram_from_word(word(3, 1)), "multi").ring
    m1 = tym_matrix(diagram_from_word(word(3, 1)), "multi")
    m2 = tym_matrix(diagram_from_word(word(3, -2)), "multi")
    prod = tym_matrix(diagram_from_word(word(3, 1, -2)), "multi")
    assert m1 == RingMatrix.from_entries_dict(c3, 3, {
        (1, 0): c3.var("v1"), (0, 1): c3.var("u2"), (2, 2): c3.one()})
    assert m2 == RingMatrix.from_entries_dict(c3, 3, {
        (0, 0): c3.one(), (2, 1): c3.var("u2") ** -1, (1, 2): c3.var("v3") ** -1})
    assert prod == RingMatrix.from_entries_dict(c3, 3, {
        (1, 0): c3.var("v1"), (2, 1): c3.var("u1") ** -1,
        (0, 2): c3.var("u2") * c3.var("v3") ** -1})
    assert prod == m1 * m2.variable_twist(word(3, 1).permutation())
    budget.check()


def test_criterion_03_kernel_theorems_as_properties():
    budget = Budget(30.0)
    rng = random.Random(303)

    def diag_exponents_2var(m, prof, n):
        uv_ctx = m.ring
        for i in range(n):
            total = sum(prof.lk(i + 1, j) for j in range(1, n + 1) if j != i + 1)
            assert total == int(total)
            assert m[i, i] == (uv_ctx.var("u") * uv_ctx.var("v")) ** int(total)

    def diag_exponents_w3(m, prof, n):
        ctx = m.ring
        for j in range(n):
            p, q, r = prof.row_sums(j + 1)
            expect = ctx.var("u") ** p * ctx.var("v") ** q * ctx.var("al") ** r
            assert m[j, j] == expect

    for _ in range(500):
        w = random_pure(rng, rng.choice((2, 3, 4)), 12)
        d = diagram_from_word(w)
        prof = linking_profile_diagram(d)
        m2 = tym_matrix(d, "2var")
        mm = tym_matrix(d, "multi")
        assert kernel_predicate(d, "318") == m2.is_identity()
        assert kernel_predicate(d, "319") == mm.is_identity()
        diag_exponents_2var(m2, prof, w.n)

    for _ in range(500):
        w = random_pure(rng, rng.choice((2, 3)), 10, virtual=True)
        d = diagram_from_word(w)
        prof = linking_profile_diagram(d)
        m3 = tym_matrix(d, "w3")
        mw = tym_matrix(d, "wmulti")
        assert kernel_predicate(d, "48") == m3.is_identity()
        assert kernel_predicate(d, "49") == mw.is_identity()
        diag_exponents_w3(m3, prof, w.n)
    budget.check()


RELATORS = [
    # braid relation, far commutation, tau involution, virtual braid
    # relation, mixed relation and the welded relation, all as words
    # equal to the trivial braid
    word(4, 1, 2, 1, -2, -1, -2),
    word(4, 2, 3, 2, -3, -2, -3),
    word(4, 1, 3, -1, -3),
    word(4, "v1", "v1"),
    word(4, "v1", "v2", "v1", "v2", "v1", "v2"),
    word(4, "v1", "v2", 1, "v2", "v1", -2),
    word(4, 1, 2, "v1", -2, -1, "v2"),
]


def test_criterion_04_move_invariance():
    budget = Budget(30.0)
    rng = random.Random(404)
    for _ in range(200):
        w = random_word(rng, 4, rng.randrange(0, 9), virtual=True)
        d = diagram_from_word(w)
        base = tym_matrix(d, "wmulti")
        # cancelling pair insertion
        pos = rng.randrange(0, len(w.letters) + 1)
        i = rng.randrange(1, 4)
        if rng.random() < 0.5:
            pair = (("s", i, 1), ("s", i, -1))
        else:
            pair = (("t", i), ("t", i))
        padded = BraidWord(4, w.letters[:pos] + pair + w.letters[pos:])
        assert tym_matrix(diagram_from_word(padded), "wmulti") == base
        # presentation relator insertion
        rel = rng.choice(RELATORS)
        rewritten = BraidWord(4, w.letters[:pos] + rel.letters + w.letters[pos:])
        assert tym_matrix(diagram_from_word(rewritten), "wmulti") == base
        # kink gadget with and without the self writhe correction
        col = rng.randrange(1, 5)
        sign = rng.choice((1, -1))
        kinked = add_kink(d, col, sign)
        assert tym_matrix(kinked, "wmulti") == base
        raw = tym_matrix(kinked, "wmulti", self_writhe_correction=False)
        ctx = base.ring
        src = d.arc_string(d.bottom[col - 1])
        factor = (ctx.var("u%d" % src) * ctx.var("v%d" % src)) ** sign
        for r in range(4):
            for c in range(4):
                expect = base[r, c] * factor if c == col - 1 else base[r, c]
                assert raw[r, c] == expect
    budget.check()


def _expected_lm12(i):
    # closed form: insert [[0, M_i], [I, I - N_i]] at block rows i, i+1 of a
    # 3x3 block identity, then multiply by Diag of three TYM_4(sigma_{i+1})
    ctx = TQ
    t, q = ctx.var("t"), ctx.var("q")
    q2 = q * q
    zero, one = ctx.zero(), ctx.one()

    def diag4(special):
        rows = []
        for r in range(4):
            rows.append([(special[r] if r == c else zero) for c in range(4)])
        return rows

    m_i = diag4([q2 * t if k in (0, i + 1) else q2 for k in range(4)])
    n_i = diag4([q2 * t if k in (0, i) else q2 for k in range(4)])
    ident = diag4([one] * 4)
    zeros = [[zero] * 4 for _ in range(4)]
    i_minus_n = [[ident[r][c] - n_i[r][c] for c in range(4)] for r in range(4)]

    grid = [[ident if bj == bk else zeros for bk in range(3)] for bj in range(3)]
    grid[i - 1][i - 1] = zeros
    grid[i - 1][i] = m_i
    grid[i][i - 1] = ident
    grid[i][i] = i_minus_n
    rows = []
    for bj in range(3):
        for r in range(4):
            rows.append([grid[bj][bk][r][c] for bk in range(3) for c in range(4)])
    left = RingMatrix.from_rows(ctx, rows)

    tym4 = [[zero] * 4 for _ in range(4)]
    for r in range(4):
        tym4[r][r] = one
    tym4[i][i] = tym4[i + 1][i + 1] = zero
    tym4[i][i + 1] = one
    tym4[i + 1][i] = t
    rows = []
    for bj in range(3):
        for r in range(4):
            rows.append([(tym4[r][c] if bj == bk else zero)
                         for bk in range(3) for c in range(4)])
    right = RingMatrix.from_rows(ctx, rows)
    return left * right


LM9_SIGMA1 = {
    (1, 5): "q^2", (2, 4): "q^2*t^2", (3, 6): "q^2",
    (4, 2): "1", (4, 5): "1 - q^2*t",
    (5, 1): "t", (5, 4): "t - q^2*t",
    (6, 3): "1", (6, 6): "1 - q^2",
    (7, 8): "1", (8, 7): "t", (9, 9): "1",
}

LM9_SIGMA2 = {
    (1, 1): "1", (2, 3): "1", (3, 2): "t",
    (4, 7): "q^2", (5, 9): "q^2", (6, 8): "q^2*t^2",
    (7, 4): "1", (7, 7): "1 - q^2",
    (8, 6): "1", (8, 9): "1 - q^2*t",
    (9, 5): "t", (9, 8): "t - q^2*t",
}

LM6_SIGMA1 = [
    ["0", "-q^2", "0", "0", "0", "0"],
    ["-q^2*t^2", "0", "0", "0", "0", "0"],
    ["0", "0", "-q^2", "0", "0", "0"],
    ["0", "1", "0", "0", "1", "0"],
    ["t", "0", "0", "t", "0", "0"],
    ["0", "0", "1", "0", "0", "1"],
]

LM6_SIGMA2 = [
    ["1", "0", "0", "q^2", "0", "0"],
    ["0", "0", "1", "0", "0", "q^2"],
    ["0", "t", "0", "0", "q^2*t^2", "0"],
    ["0", "0", "0", "-q^2", "0", "0"],
    ["0", "0", "0", "0", "0", "-q^2"],
    ["0", "0", "0", "0", "-q^2*t^2", "0"],
]


def _from_entries(n, entries):
    parsed = {(i - 1, j - 1): TQ.parse(s) for (i, j), s in entries.items()}
    return RingMatrix.from_entries_dict(TQ, n, parsed)


def _from_rows(rows):
    return RingMatrix.from_rows(TQ, [[TQ.parse(s) for s in r] for r in rows])


def _braid_rel(rep):
    w1 = BraidWord(3, [("s", 1, 1), ("s", 2, 1), ("s", 1, 1)])
    w2 = BraidWord(3, [("s", 2, 1), ("s", 1, 1), ("s", 2, 1)])
    return rep.evaluate(w1) == rep.evaluate(w2)


def test_criterion_05_long_moody_golden_matrices():
    budget = Budget(5.0)
    twelve = lm_q(make_tym(4, TQ))
    for i in (1, 2):
        assert twelve.sigma_images[i] == _expected_lm12(i)
    assert _braid_rel(twelve)

    nine = lm_semidirect(make_eta(3), q_twist=True)
    assert nine.sigma_images[1] == _from_entries(9, LM9_SIGMA1)
    assert nine.sigma_images[2] == _from_entries(9, LM9_SIGMA2)
    assert _braid_rel(nine)

    six = reduced_lm3()
    assert six.sigma_images[1] == _from_rows(LM6_SIGMA1)
    assert six.sigma_images[2] == _from_rows(LM6_SIGMA2)
    assert _braid_rel(six)
    budget.check()


def test_criterion_06_decomposition():
    budget = Budget(30.0)
    for n in range(2, 6):
        report = decompose_check(n)
        assert report["ok"], "decomposition failed for n=%d" % n
        assert report["blocks"] == (n, n * n)
    budget.check()


def test_criterion_07_trivial_source_is_burau():
    budget = Budget(10.0)
    for n in range(2, 6):
        assert identify_trivial_burau(n), "identification failed for n=%d" % n
        # verify the claimed base change, the identity, explicitly
        basis = RingMatrix.identity(TQ, n)
        lm = lm_q(make_one_dim(n + 1, TQ.one()))
        bur = make_burau(n, TQ.parse("q^2"))
        basis_inv = basis.inverse()
        for i in range(1, n):
            assert basis_inv * lm.sigma_images[i] * basis == bur.sigma_images[i]
    budget.check()


def test_criterion_08_kernel_word_experiment():
    budget = Budget(600.0)
    results = kernel_experiment()
    assert set(results) == {"sigma", "tau", "xi", "upsilon"}
    for name, r in results.items():
        assert r["burau_identity"], "%s not in the Burau kernel" % name
        assert r["lm_identity"], "%s not in the plain construction kernel" % name
        assert not r["t1lm_identity"], "%s unexpectedly in the shifted kernel" % name
    budget.check()


def test_criterion_09_irreducibility_probe():
    budget = Budget(30.0)
    report = irreducibility_probe(reduced_lm3(), p=10007, trials=5, seed=0)
    assert report["full"] and report["dimension"] == 36
    neg = irreducibility_probe(make_burau(3, RingContext(("t",)).var("t")),
                               p=10007, trials=5, seed=0)
    assert neg["dimension"] < 9
    budget.check()


def test_criterion_10_intertwining_identity():
    budget = Budget(10.0)
    q = TQ.var("q")
    sources = [
        make_tym(3), make_tym(5), make_tym(7),
        make_burau(5, RingContext(("t",)).var("t")),
        make_one_dim(4, TQ.one()),
        tensor_one_dim(make_tym(6, TQ), q),
    ]
    for rho in sources:
        assert intertwining_check(rho) == [], "failed for %s" % rho.name
    budget.check()
