import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from braidrep import reproduce
from braidrep.longmoody import (WITNESS_PRIME, _EchelonBasis, _from_blocks,
                                _identity_verdict, _ImagesModP, _semidirect_pair,
                                _witness_images, block_formula_lm_q_tym, check_semidirect,
                                decompose_check, identify_trivial_burau,
                                intertwining_check, irreducibility_probe,
                                kernel_experiment, kernel_words, lm_apply, lm_q,
                                lm_semidirect, make_eta, reduced_lm3)
from braidrep.matrices import RingMatrix, direct_sum
from braidrep.reps import (GenRep, make_burau, make_one_dim, make_tym, make_wtym,
                           tensor_one_dim)
from braidrep.ring import PrimeField, RingContext, specialize
from braidrep.words import BraidWord, FreeWord, artin_action, fox_derivative

from test_matrices import entrywise_product

TQ = RingContext(("t", "q"))


def braid_relation_holds(rep):
    for i in range(1, rep.n - 1):
        w1 = BraidWord(rep.n, [("s", i, 1), ("s", i + 1, 1), ("s", i, 1)])
        w2 = BraidWord(rep.n, [("s", i + 1, 1), ("s", i, 1), ("s", i + 1, 1)])
        if rep.evaluate(w1) != rep.evaluate(w2):
            return False
    return True


def _block(m, j, k, d):
    """The d x d block (j, k) of m, 0-based."""
    return RingMatrix(m.ring, d, d, [m[r, c] for r in range(j * d, (j + 1) * d)
                                     for c in range(k * d, (k + 1) * d)])


def test_lm_block_structure():
    # block (i+1, i) of lm(rho)(sigma_i) is rho of the shifted generator
    rho = make_tym(4)
    lm = lm_apply(rho)
    d = rho.dim
    i = 1
    block = _block(lm.sigma_images[i], i, i - 1, d)
    assert block == rho.evaluate(BraidWord.sigma(4, i + 1))


def test_lm_relations():
    lm = lm_apply(make_tym(4))
    assert lm.check_relations() == []
    assert (lm.evaluate(BraidWord.sigma(3, 1)) *
            lm.evaluate(BraidWord.sigma(3, 1, -1))).is_identity()


def test_lm_q_twelve_dimensional_golden():
    rep = lm_q(make_tym(4, TQ))
    for i in (1, 2):
        assert rep.sigma_images[i] == block_formula_lm_q_tym(3, i)
    assert braid_relation_holds(rep)


def test_block_formula_larger_n():
    for n in (2, 4):
        rep = lm_q(make_tym(n + 1, TQ))
        for i in range(1, n):
            assert rep.sigma_images[i] == block_formula_lm_q_tym(n, i)


def test_lm_q_specializes_to_untwisted():
    rep = lm_q(make_tym(4, TQ))
    plain = lm_apply(make_tym(4))
    tctx = plain.ring
    images = {"t": tctx.var("t"), "q": tctx.one()}
    for i in (1, 2):
        got = rep.sigma_images[i].map_entries(
            lambda p: specialize(p, images, tctx), ring=tctx)
        assert got == plain.sigma_images[i]


def lm_q_reference(rho):
    """lm_q by its definition, q^{-1} * lm(q tensor rho)."""
    q = rho.ring.var("q")
    return tensor_one_dim(lm_apply(tensor_one_dim(rho, q)), q.inverse())


def lm_semidirect_q_reference(eta):
    """lm_semidirect(eta, q_twist=True) by its definition: sigma and x
    images scaled by q, the construction, then the result scaled by q^{-1}."""
    q = eta.ring.var("q")
    twisted = GenRep(eta.n, eta.dim, eta.ring,
                     {lt: m.scale(q if lt[2] > 0 else q.inverse()) for lt, m in eta.images.items()},
                     name=eta.name)
    return tensor_one_dim(lm_semidirect(twisted), q.inverse())


def same_images(a, b):
    return (a.sigma_images == b.sigma_images
            and a.sigma_inv_images == b.sigma_inv_images)


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_lm_q_matches_its_definition(n):
    t, q = TQ.var("t"), TQ.var("q")
    sources = [make_tym(n, TQ), make_burau(n, t), make_one_dim(n, TQ.one()),
               make_one_dim(n, t), tensor_one_dim(make_tym(n, TQ), q)]
    for rho in sources:
        assert same_images(lm_q(rho), lm_q_reference(rho)), rho.name


@pytest.mark.parametrize("n", [3, 4, 5])
def test_lm_semidirect_q_twist_matches_its_definition(n):
    eta = make_eta(n, TQ)
    assert same_images(lm_semidirect(eta, q_twist=True), lm_semidirect_q_reference(eta))


def test_lm_q_error_order():
    with pytest.raises(ValueError, match="must contain q"):
        lm_q(make_tym(2))
    with pytest.raises(ValueError, match="at least 3 strands"):
        lm_q(make_tym(2, TQ))


def test_eta_compatibility():
    for n in (2, 3, 4):
        assert check_semidirect(make_eta(n)) == []


def test_lm_semidirect_nine_dimensional_golden():
    rep = lm_semidirect(make_eta(3), q_twist=True)
    assert rep.sigma_images[1] == reproduce.lm9_sigma(1)
    assert rep.sigma_images[2] == reproduce.lm9_sigma(2)
    assert rep.check_relations() == []


def test_lm_semidirect_trivial_x_images():
    # with all x images trivial the Fox coefficients act through the
    # augmentation and each block is 0 or the sigma image itself
    n = 3
    ring = RingContext(("t",))
    tym = make_tym(n, ring)
    ident = RingMatrix.identity(ring, n)
    images = dict(tym.images)
    images.update((("x", i, s), ident) for i in range(1, n + 1) for s in (1, -1))
    eta = GenRep(n, n, ring, images)
    rep = lm_semidirect(eta)
    s = rep.sigma_images[1]
    d = n
    for j in range(n):
        for k in range(n):
            block = _block(s, j, k, d)
            # augmentation of the Fox derivative of the Artin image
            expect = {(0, 1): 1, (1, 0): 1, (1, 1): 0, (2, 2): 1}.get((j, k), 0)
            if expect:
                assert block == tym.sigma_images[1]
            else:
                assert block == RingMatrix.zeros(ring, d, d)


def dense_assembly(eta):
    """The sigma images of the construction on eta by the dense block formula.

    Block (j, k) of the image of lam is the linear extension of the x images
    to D_j a(lam)(x_k), as scaled and added d x d matrices, times eta(lam),
    every product by entrywise_product.
    """
    n, d, ring = eta.n, eta.dim, eta.ring

    def x_image(elem):
        out = RingMatrix.zeros(ring, d, d)
        for w, c in elem.terms.items():
            m = RingMatrix.identity(ring, d)
            for g, e in w.letters:
                m = entrywise_product(m, eta.images[("x", g, e)])
            out = out + m.scale(ring.const(c))
        return out

    images = {}
    for lt in [lt for lt in eta.images if lt[0] == "s"]:
        blocks = {}
        for k, target in enumerate(artin_action(BraidWord(n, [lt]))):
            for j in range(1, n + 1):
                dj = fox_derivative(target, j)
                if not dj.is_zero():
                    blocks[(j - 1, k)] = entrywise_product(x_image(dj), eta.images[lt])
        images[lt] = _from_blocks(ring, d, n, blocks)
    return images


def trivial_x_eta(n):
    """TYM_n with every x image the identity: the Fox terms of a(sigma_i^-1)(x_i)
    = x_i x_{i+1} x_i^-1 cancel, so its diagonal block is zero."""
    ring = RingContext(("t",))
    images = dict(make_tym(n, ring).images)
    ident = RingMatrix.identity(ring, n)
    images.update((("x", i, s), ident) for i in range(1, n + 1) for s in (1, -1))
    return GenRep(n, n, ring, images)


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_assembly_equals_the_dense_block_formula(n):
    t1 = RingContext(("t",))
    q = TQ.var("q")
    pairs = {"lm(tym)": (lm_apply(make_tym(n + 1, t1)), _semidirect_pair(make_tym(n + 1, t1))),
             "lm(burau)": (lm_apply(make_burau(n + 1, t1.var("t"))),
                           _semidirect_pair(make_burau(n + 1, t1.var("t")))),
             "lm(onedim:t)": (lm_apply(make_one_dim(n + 1, t1.var("t"))),
                              _semidirect_pair(make_one_dim(n + 1, t1.var("t")))),
             "lm_q(tym)": (lm_q(make_tym(n + 1, TQ)),
                           tensor_one_dim(_semidirect_pair(make_tym(n + 1, TQ)), q * q, "x")),
             "lm_sd(eta)": (lm_semidirect(make_eta(n, TQ)), make_eta(n, TQ)),
             "lm_sd(eta,q)": (lm_semidirect(make_eta(n, TQ), q_twist=True),
                              tensor_one_dim(make_eta(n, TQ), q, "x")),
             "lm_sd(trivial x)": (lm_semidirect(trivial_x_eta(n)), trivial_x_eta(n))}
    for name, (rep, eta) in pairs.items():
        expect = dense_assembly(eta)
        assert sorted(rep.images) == sorted(expect), name
        for lt, m in rep.images.items():
            assert m == expect[lt], (name, lt)
            # every zero entry, a cancelled sum included, is the context's one zero
            assert all(e is rep.ring.zero() for e in m.entries if not e.terms), (name, lt)
    cancelled = pairs["lm_sd(trivial x)"][0].images[("s", 1, -1)]
    assert _block(cancelled, 0, 0, n) == RingMatrix.zeros(cancelled.ring, n, n)


def test_reduced_lm3_golden_rows():
    rep = reduced_lm3()
    ring = rep.ring
    t, q = ring.var("t"), ring.var("q")
    row2 = rep.sigma_images[1].row(1)
    assert row2[0] == -(q ** 2) * t ** 2
    assert all(e.is_zero() for e in row2[1:])
    assert braid_relation_holds(rep)
    assert rep.check_relations() == []


def test_reduced_lm3_specialized_invertible():
    rep = reduced_lm3()
    one_ctx = RingContext(("s",))
    images = {"t": one_ctx.one(), "q": one_ctx.one()}
    for i in (1, 2):
        m = rep.sigma_images[i].map_entries(
            lambda p: specialize(p, images, one_ctx), ring=one_ctx)
        assert m.determinant().is_unit()


def test_decompose_check():
    for n in (2, 3):
        report = decompose_check(n)
        assert report["ok"]
        assert report["blocks"] == (n, n * n)


def test_identify_trivial_burau():
    for n in (2, 3):
        assert identify_trivial_burau(n) is True


def test_lm_q_trivial_small_case():
    ring = TQ
    lm = lm_q(make_one_dim(3, ring.one()))
    q = ring.var("q")
    expect = RingMatrix.from_rows(
        ring, [[ring.zero(), q * q], [ring.one(), ring.one() - q * q]])
    assert lm.sigma_images[1] == expect


def test_irreducibility_probe_positive():
    report = irreducibility_probe(reduced_lm3(), p=10007, trials=5, seed=1)
    assert report["full"]
    assert report["dimension"] == 36


def test_irreducibility_probe_negative_controls():
    bur = make_burau(3, RingContext(("t",)).var("t"))
    report = irreducibility_probe(bur, p=10007, trials=3, seed=1)
    assert report["dimension"] < 9
    two = make_burau(2, RingContext(("t",)).var("t"))
    summed = {lt: direct_sum([m, m]) for lt, m in two.images.items()}
    rep = GenRep(2, 4, two.ring, summed, name="bur2+bur2")
    report = irreducibility_probe(rep, p=10007, trials=3, seed=1)
    assert report["dimension"] < 16


def test_irreducibility_probe_pinned_reports():
    # reports of the probe with Gaussian-elimination inverses, kept as pins
    reps = [(lm_q(make_tym(4, TQ)), 50), (lm_semidirect(make_eta(3, TQ), q_twist=True), 45)]
    for rep, dim in reps:
        report = irreducibility_probe(rep, p=10007, trials=1, seed=0)
        assert report == {"dimension": dim, "full": False, "trials_used": 1}


def test_irreducibility_probe_closes_under_the_tau_letters():
    # sigma_1 alone spans only 2 dimensions of the 2x2 matrices; with tau_1 all 4
    report = irreducibility_probe(make_wtym(2), p=10007, trials=2, seed=0)
    assert report == {"dimension": 4, "full": True, "trials_used": 1}


@pytest.mark.parametrize("d", [1, 2, 3])
def test_irreducibility_probe_without_generators_spans_the_identity(d):
    rep = GenRep(1, d, RingContext(("t",)), {})
    report = irreducibility_probe(rep, p=10007, trials=2, seed=0)
    assert report == {"dimension": 1, "full": d == 1, "trials_used": 1 if d == 1 else 2}


def ref_probe(rep, p, trials, seed):
    """The probe closed one pivot at a time: each candidate word image is
    reduced by one row operation per stored pivot, words grown depth first."""
    field = PrimeField(p)
    rng = random.Random(seed)
    d = rep.dim
    dtype = np.int64 if d * (p - 1) ** 2 < 2 ** 63 else object
    best = 0
    for trial in range(1, trials + 1):
        point = {v: rng.randrange(1, p) for v in rep.ring.variables}
        gens = []
        for i in range(1, rep.n):
            for m in (rep.sigma_images[i], rep.sigma_inv_images[i]):
                a = np.zeros((d, d), dtype=dtype)
                for r in range(d):
                    for c in range(d):
                        a[r, c] = specialize(m[r, c], point, field)
                gens.append(a)
        pivots = {}

        def add(vec):
            v = vec % p
            for piv, row in pivots.items():
                if v[piv]:
                    v = (v - v[piv] * row) % p
            nz = np.nonzero(v)[0]
            if len(nz) == 0:
                return False
            v = (v * pow(int(v[nz[0]]), -1, p)) % p
            pivots[int(nz[0])] = v
            return True

        eye = np.eye(d, dtype=dtype)
        add(eye.reshape(-1))
        queue = [eye]
        while queue and len(pivots) < d * d:
            m = queue.pop()
            for g in gens:
                prod = (m @ g) % p
                if add(prod.reshape(-1)):
                    queue.append(prod)
        best = max(best, len(pivots))
        if best == d * d:
            return {"dimension": best, "full": True, "trials_used": trial}
    return {"dimension": best, "full": False, "trials_used": trials}


@pytest.mark.parametrize("name", ["reduced_lm3", "burau3", "lm_q_tym4", "lm_semidirect_eta3"])
def test_irreducibility_probe_matches_the_per_pivot_reference(name):
    rep = {
        "reduced_lm3": reduced_lm3,
        "burau3": lambda: make_burau(3, RingContext(("t",)).var("t")),
        "lm_q_tym4": lambda: lm_q(make_tym(4, TQ)),
        "lm_semidirect_eta3": lambda: lm_semidirect(make_eta(3, TQ), q_twist=True),
    }[name]()
    for seed in range(4):
        assert irreducibility_probe(rep, p=10007, trials=2, seed=seed) == \
            ref_probe(rep, 10007, 2, seed)


def test_irreducibility_probe_matches_the_reference_on_exact_integers():
    # 3 * (p-1)^2 is past 2^63: both sides work on Python integers
    bur = make_burau(3, RingContext(("t",)).var("t"))
    for seed in range(2):
        report = irreducibility_probe(bur, p=4294967311, trials=1, seed=seed)
        assert report == ref_probe(bur, 4294967311, 1, seed)
        assert report["dimension"] == 5


def test_irreducibility_probe_pinned_span_of_lm_q_tym5():
    report = irreducibility_probe(lm_q(make_tym(5, TQ)), p=10007, trials=1, seed=0)
    assert report == {"dimension": 170, "full": False, "trials_used": 1}


def test_echelon_basis_reduces_past_the_int64_range():
    # 12 (p-1)^2 < 2^63 <= 144 (p-1)^2: a product of two residues fits in
    # int64, but reducing a vector of length 144 sums up to 144 of them
    p, n, k = 876706517, 144, 100
    assert 12 * (p - 1) ** 2 < 2 ** 63 <= n * (p - 1) ** 2
    rng = random.Random(0)
    basis = _EchelonBasis(p, n)
    dtype = basis.rows.dtype
    top = [[int(i == j) for j in range(k)] + [rng.randrange(p - 1000, p) for _ in range(n - k)]
           for i in range(k)]
    assert len(basis.add(np.array(top, dtype=dtype))) == k

    def combination():
        coeffs = [rng.randrange(p - 1000, p) for _ in range(k)]
        return [sum(c * row[j] for c, row in zip(coeffs, top)) % p for j in range(n)]

    # combinations of the rows with large coefficients are in the span, but
    # reducing one sums k products near (p-1)^2 in every column past k
    fresh = [0] * (n - 1) + [p - 1]
    block = [combination() for _ in range(6)] + [fresh]
    assert len(basis.add(np.array(block, dtype=dtype))) == 1
    assert basis.dim() == k + 1
    rows = np.array(basis.rows, dtype=object)
    assert all(rows[i, c] == (i == j) for j, c in enumerate(basis.pivots)
               for i in range(len(rows)))
    block = [combination() for _ in range(6)]
    assert basis.add(np.array(block, dtype=dtype)).shape == (0, n)
    assert basis.dim() == k + 1


def test_irreducibility_probe_refuses_wrong_inverse_images():
    tym = make_tym(3)
    images = dict(tym.images)
    images[("s", 2, -1)] = tym.images[("s", 2, 1)]
    broken = GenRep(3, 3, tym.ring, images, name="broken")
    with pytest.raises(ValueError, match="sigma_2 in broken"):
        irreducibility_probe(broken, p=10007, trials=1, seed=0)


@pytest.mark.parametrize("trials", [0, -3])
def test_irreducibility_probe_needs_a_trial(trials):
    with pytest.raises(ValueError, match="trials must be at least 1"):
        irreducibility_probe(make_tym(3), p=10007, trials=trials, seed=0)


def test_intertwining_small():
    assert intertwining_check(make_tym(4)) == []
    assert intertwining_check(make_burau(4, RingContext(("t",)).var("t"))) == []


def test_intertwining_check_names_the_failing_pairs():
    tym = make_tym(4)
    images = dict(tym.images)
    images[("s", 2, 1)] = tym.images[("s", 1, 1)]
    broken = GenRep(4, 4, tym.ring, images)
    assert intertwining_check(broken) == [(1, 2), (1, 3), (2, 2), (2, 3)]
    images[("s", 2, -1)] = tym.images[("s", 1, -1)]
    broken = GenRep(4, 4, tym.ring, images)
    assert intertwining_check(broken) == [(2, 2), (2, 3)]


def test_check_semidirect_names_the_failing_pairs():
    eta = make_eta(3)
    images = dict(eta.images)
    images[("x", 1, 1)], images[("x", 1, -1)] = images[("x", 2, 1)], images[("x", 2, -1)]
    broken = GenRep(3, 3, eta.ring, images)
    assert check_semidirect(broken) == [(1, 1), (1, 2), (2, 1)]


def test_kernel_word_shapes():
    words = kernel_words()
    assert words["sigma"].n == 5
    assert words["tau"].n == 6
    assert words["xi"].n == 6
    assert words["upsilon"].n == 7
    for w in words.values():
        assert w.is_pure()


def test_shifted_kernel_containment_randomized():
    # no random word lands in the shifted kernel without landing in the
    # Burau kernel at t = q^2
    rng = random.Random(53)
    tq = RingContext(("t", "q"))
    t1lm = lm_q(make_tym(4, tq))
    bur = make_burau(2, tq.parse("q^2"))
    for _ in range(25):
        letters = [("s", 1, rng.choice((1, -1))) for _ in range(rng.randrange(0, 8))]
        w = BraidWord(2, letters)
        if t1lm.evaluate(w.shift(1)).is_identity():
            assert bur.evaluate(w).is_identity()


def identity_verdict(rep, word):
    return _identity_verdict(_witness_images(rep), word)


def test_identity_verdict_falls_back_to_exact_evaluation():
    # by Fermat t^(P-1) is 1 at every unit point mod P, but not exactly 1
    t = RingContext(("t",)).var("t")
    rep = make_one_dim(2, t ** (WITNESS_PRIME - 1))
    assert identity_verdict(rep, BraidWord.sigma(2, 1)) == (False, "exact")
    assert identity_verdict(rep, BraidWord(2)) == (True, "exact")


def tau_reps():
    tau = kernel_words()["tau"]
    tctx = RingContext(("t",))
    return [(make_burau(6, tctx.var("t")), tau),
            (lm_apply(make_tym(7, tctx)), tau),
            (lm_q(make_tym(8, TQ)), tau.shift(1))]


def test_identity_verdicts_agree_with_exact_evaluation_on_tau():
    methods = []
    for rep, word in tau_reps():
        verdict, method = identity_verdict(rep, word)
        assert verdict == rep.evaluate(word).is_identity()
        assert method == "exact" or not verdict
        methods.append(method)
    assert methods[:2] == ["exact", "exact"]
    assert methods[2]["p"] == WITNESS_PRIME
    assert set(methods[2]["point"]) == {"t", "q"}


def test_modular_certificate_rechecks():
    rep, word = tau_reps()[2]
    verdict, method = identity_verdict(rep, word)
    assert verdict is False
    p, point = method["p"], method["point"]
    field = PrimeField(p)
    d = rep.dim
    assert d * (p - 1) ** 2 < 2 ** 63

    def image(lt):
        m = rep.letter_image(lt)
        return np.array([[specialize(m[r, c], point, field) for c in range(d)]
                         for r in range(d)], dtype=np.int64)

    prod = np.eye(d, dtype=np.int64)
    for lt in word.letters:
        prod = prod @ image(lt) % p
    assert not np.array_equal(prod, np.eye(d, dtype=np.int64))


def burau4_squared():
    """Burau_4 with each sigma_i sent to a product of two Burau images, so
    that some columns of the images hold three nonzero entries."""
    bur = make_burau(4, RingContext(("t",)).var("t"))
    sig, sig_inv = bur.sigma_images, bur.sigma_inv_images
    pairs = {1: (1, 2), 2: (2, 3), 3: (3, 1)}
    images = {("s", i, 1): sig[a] * sig[b] for i, (a, b) in pairs.items()}
    images.update((("s", i, -1), sig_inv[b] * sig_inv[a]) for i, (a, b) in pairs.items())
    return GenRep(4, 4, bur.ring, images, name="burau4^2")


MODP_REPS = [make_burau(4, RingContext(("t",)).var("t")), make_tym(4), make_wtym(3),
             lm_q(make_tym(4, TQ)), reduced_lm3(), burau4_squared()]
# 4294967311: (p-1)^2 is past 2^63, so the products run on Python integers
MODP_PRIMES = (10007, WITNESS_PRIME, 4294967311)


@st.composite
def modp_case(draw):
    rep = draw(st.sampled_from(MODP_REPS))
    p = draw(st.sampled_from(MODP_PRIMES))
    point = {v: draw(st.integers(1, p - 1)) for v in rep.ring.variables}
    index = st.integers(1, rep.n - 1)
    letter = st.tuples(st.just("s"), index, st.sampled_from((1, -1)))
    if rep.tau_images is not None:
        letter = st.one_of(letter, st.tuples(st.just("t"), index))
    return rep, p, point, draw(st.lists(letter, max_size=12))


@settings(max_examples=120, deadline=None)
@given(modp_case())
def test_images_mod_p_product_is_the_dense_product(case):
    rep, p, point, letters = case
    field = PrimeField(p)
    d = rep.dim
    images = _ImagesModP(rep, field, point)
    expect = np.eye(d, dtype=object)
    for lt in letters:
        m = rep.letter_image(lt)
        g = np.array([[specialize(m[r, c], point, field) for c in range(d)]
                      for r in range(d)], dtype=object)
        expect = (expect @ g) % p
    got = images.product(letters)
    if letters:
        assert (got.dtype == object) == (p == 4294967311)
    assert np.array_equal(got, expect)


def test_images_mod_p_holds_heavy_columns_and_zero_images():
    rep = burau4_squared()
    images = _ImagesModP(rep, PrimeField(10007), {"t": 5})
    assert max(idx.shape[0] for idx, _ in images.images.values()) == 3
    # a tau letter has no inverse letter to check, so its image may be zero
    ring = RingContext(("t",))
    eye, zero = RingMatrix.identity(ring, 2), RingMatrix.zeros(ring, 2, 2)
    rep = GenRep(2, 2, ring, {("s", 1, 1): eye, ("s", 1, -1): eye, ("t", 1): zero},
                 name="zero", welded=True)
    images = _ImagesModP(rep, PrimeField(10007), {"t": 5})
    assert images.images[("t", 1)][0].shape == (0, 2)
    assert not images.product([("t", 1), ("s", 1, 1), ("t", 1)]).any()
    assert images.mul(np.ones((5, 2), dtype=np.int64), ("t", 1)).shape == (5, 2)
    rep = GenRep(2, 2, ring, {("s", 1, 1): zero, ("s", 1, -1): zero}, name="zero")
    with pytest.raises(ValueError, match="sigma_1 in zero is not its inverse mod 10007"):
        _ImagesModP(rep, PrimeField(10007), {"t": 5})


def test_witness_images_refuse_a_wrong_x_inverse():
    eta = make_eta(3, TQ)
    images = dict(eta.images)
    images[("x", 2, -1)] = images[("x", 2, 1)]
    broken = GenRep(3, 3, TQ, images, name="broken")
    with pytest.raises(ValueError, match="inverse image of x_2 in broken is not its "
                                         "inverse mod %d" % WITNESS_PRIME):
        _witness_images(broken)
    assert _witness_images(eta).images.keys() == eta.images.keys()


def test_kernel_experiment_is_deterministic():
    words = {"tau": kernel_words()["tau"]}
    assert kernel_experiment(words) == kernel_experiment(words)


def test_identity_verdict_refuses_wrong_inverse_images():
    tym = make_tym(3)
    images = dict(tym.images)
    images[("s", 2, -1)] = tym.images[("s", 2, 1)]
    broken = GenRep(3, 3, tym.ring, images, name="broken")
    word = BraidWord(3, [("s", 1, 1), ("s", 2, 1), ("s", 1, -1), ("s", 2, -1)])
    with pytest.raises(ValueError, match="inverse image of sigma_2 in broken is not its "
                                         "inverse mod %d" % WITNESS_PRIME):
        identity_verdict(broken, word)
    # the witness images cover every letter of the representation, so a word
    # that holds only one of the two images is refused too
    with pytest.raises(ValueError, match="inverse image of sigma_2 in broken"):
        identity_verdict(broken, BraidWord(3, [("s", 2, -1)]))


@pytest.mark.parametrize("make", [lambda: make_eta(4, TQ),
                                  lambda: _semidirect_pair(make_burau(5, TQ.var("t")))])
def test_x_word_is_the_product_of_the_x_images(make):
    eta = make()
    rank = eta.n
    rng = random.Random(rank)
    for length in (0, 1, 2, 7, 15):
        w = FreeWord(rank, [(rng.randrange(1, rank + 1), rng.choice((1, -1)))
                            for _ in range(length)])
        letters = [("x", j, e) for j, e in w.letters]
        expect = RingMatrix.identity(eta.ring, eta.dim)
        for lt in letters:
            expect = expect * eta.images[lt]
        assert eta._product(letters) == expect
