import random

import pytest
from hypothesis import given, settings, strategies as st

from braidrep.longmoody import (lm_apply, lm_q, lm_semidirect, make_eta,
                                reduced_lm3)
from braidrep.matrices import RingMatrix
from braidrep.reps import (GenRep, make_burau, make_one_dim, make_tym,
                           make_wtym, tensor_one_dim)
from braidrep.ring import RingContext
from braidrep.words import BraidWord, commutator

from test_matrices import entrywise_product
from test_words import random_word

T = RingContext(("t",))
TQ = RingContext(("t", "q"))


def test_burau_generator_block():
    bur = make_burau(2, T.var("t"))
    t = T.var("t")
    expect = RingMatrix.from_rows(T, [[T.zero(), t], [T.one(), T.one() - t]])
    assert bur.sigma_images[1] == expect
    assert bur.sigma_images[1] * bur.sigma_inv_images[1] == RingMatrix.identity(T, 2)


def test_tym_generator_block():
    tym = make_tym(2)
    ring = tym.ring
    t = ring.var("t")
    expect = RingMatrix.from_rows(ring, [[ring.zero(), ring.one()], [t, ring.zero()]])
    assert tym.sigma_images[1] == expect


def test_tym_sigma_squared():
    tym = make_tym(2)
    w = BraidWord(2, [("s", 1, 1), ("s", 1, 1)])
    t = tym.ring.var("t")
    assert tym.evaluate(w) == RingMatrix.identity(tym.ring, 2).scale(t)


def test_wtym_generators():
    wt = make_wtym(2)
    u, v, al = (wt.ring.var(x) for x in ("u", "v", "al"))
    s = wt.sigma_images[1]
    assert s[0, 1] == u and s[1, 0] == v and s[0, 0].is_zero()
    tau = wt.tau_images[1]
    assert tau[0, 1] == al.inverse() and tau[1, 0] == al
    assert wt.evaluate(BraidWord(2, [("t", 1), ("t", 1)])).is_identity()


def test_braid_relation_burau():
    bur = make_burau(3, T.var("t"))
    w1 = BraidWord(3, [("s", 1, 1), ("s", 2, 1), ("s", 1, 1)])
    w2 = BraidWord(3, [("s", 2, 1), ("s", 1, 1), ("s", 2, 1)])
    assert bur.evaluate(w1) == bur.evaluate(w2)


def test_check_relations_pass():
    for n in range(2, 8):
        assert make_tym(n).check_relations() == []
    for n in range(2, 6):
        assert make_wtym(n).check_relations() == []
        assert make_burau(n, T.var("t")).check_relations() == []


def test_check_relations_negative_control():
    tym = make_tym(3)
    broken = dict(tym.images)
    ring = tym.ring
    bad = RingMatrix.from_entries_dict(
        ring, 3, {(0, 1): ring.one(), (1, 0): ring.one(), (2, 2): ring.one()})
    broken[("s", 1, 1)] = bad
    rep = GenRep(3, 3, ring, broken, name="broken")
    assert rep.check_relations() != []


def test_one_dim_and_tensor():
    ctx = RingContext(("t", "q"))
    q = ctx.var("q")
    one_dim = make_one_dim(4, q)
    w = BraidWord(4, [("s", 1, 1), ("s", 3, 1), ("s", 2, -1)])
    assert one_dim.evaluate(w)[0, 0] == q
    tym = make_tym(4, ctx)
    tw = tensor_one_dim(tym, q)
    assert tw.sigma_images[1] == tym.sigma_images[1].scale(q)
    undone = tensor_one_dim(tw, q.inverse())
    assert undone.sigma_images[2] == tym.sigma_images[2]


def test_tensor_context_mismatch():
    with pytest.raises(ValueError):
        tensor_one_dim(make_tym(3), RingContext(("q",)).var("q"))


def test_evaluate_strand_mismatch():
    tym = make_tym(3)
    with pytest.raises(ValueError):
        tym.evaluate(BraidWord(4, [("s", 1, 1)]))


def test_evaluate_tau_on_classical_rep():
    tym = make_tym(3)
    with pytest.raises(ValueError):
        tym.evaluate(BraidWord(3, [("t", 1)]))


def test_evaluate_empty_word():
    assert make_tym(3).evaluate(BraidWord.identity(3)).is_identity()


def test_homomorphism_property():
    rng = random.Random(5)
    wt = make_wtym(4)
    for _ in range(15):
        w1 = random_word(rng, 4, rng.randrange(0, 10), virtual=True)
        w2 = random_word(rng, 4, rng.randrange(0, 10), virtual=True)
        assert wt.evaluate(w1 * w2) == wt.evaluate(w1) * wt.evaluate(w2)
        assert (wt.evaluate(w1) * wt.evaluate(w1.inverse())).is_identity()


def test_tym_images_are_monomial():
    rng = random.Random(9)
    tym = make_tym(5)
    for _ in range(10):
        w = random_word(rng, 5, 12)
        assert tym.evaluate(w).is_monomial()


def test_burau_determinant():
    rng = random.Random(13)
    bur = make_burau(4, T.var("t"))
    t = T.var("t")
    for _ in range(8):
        w = random_word(rng, 4, 8)
        det = bur.evaluate(w).determinant()
        assert det == (-t) ** w.exponent_sum()


def random_pure_word(rng, n, length):
    while True:
        w = random_word(rng, n, length)
        if w.is_pure():
            return w


def test_pure_commutators_in_tym_kernel():
    # commutators of pure braids have zero linking numbers, so they land
    # in the kernel of the Tong-Yang-Ma representation
    rng = random.Random(17)
    tym = make_tym(3)
    for _ in range(10):
        a = random_pure_word(rng, 3, 6)
        b = random_pure_word(rng, 3, 6)
        assert tym.evaluate(commutator(a, b)).is_identity()


# every representation here but burau has monomial generator images
REPS = {
    "tym": make_tym,
    "wtym": make_wtym,
    "onedim": lambda n: make_one_dim(n, TQ.var("q")),
    "tym*onedim": lambda n: tensor_one_dim(make_tym(n, TQ), -TQ.var("q")),
    "burau": lambda n: make_burau(n, T.var("t")),
}


@st.composite
def rep_and_word(draw):
    name = draw(st.sampled_from(sorted(REPS)))
    n = draw(st.integers(2, 8))
    index = st.integers(1, n - 1)
    letter = st.tuples(st.just("s"), index, st.sampled_from((1, -1)))
    if name == "wtym":
        letter = st.one_of(letter, st.tuples(st.just("t"), index))
    return REPS[name](n), BraidWord(n, draw(st.lists(letter, max_size=80)))


@settings(max_examples=120, deadline=None)
@given(rep_and_word())
def test_evaluate_is_the_product_of_the_letter_images(rep_word):
    rep, word = rep_word
    expect = RingMatrix.identity(rep.ring, rep.dim)
    for lt in word.letters:
        expect = entrywise_product(expect, rep.letter_image(lt))
    assert rep.evaluate(word) == expect


def test_monomial_path_is_chosen_from_the_images():
    for name, make in REPS.items():
        assert bool(make(4)._monomial_table()) == (name != "burau")


def test_monomial_bound_overflow_falls_back_to_the_dense_product():
    rep = tensor_one_dim(make_tym(3, T), T.var("t", 2 ** 30))
    # the summed exponent bounds pass EXP_MAX, the exponents do not
    assert rep.evaluate(BraidWord(3, [("s", 1, 1), ("s", 1, -1)])).is_identity()
    with pytest.raises(OverflowError):
        rep.evaluate(BraidWord(3, [("s", 1, 1), ("s", 1, 1)]))


DENSE = {"lm_q(tym%d)" % (m + 2): (lambda m=m: lm_q(make_tym(m + 2, TQ))) for m in (3, 4)}
DENSE.update(("burau%d" % n, lambda n=n: make_burau(n, T.var("t"))) for n in range(3, 7))


@pytest.mark.parametrize("name", sorted(DENSE))
def test_evaluate_on_dense_images_is_the_triple_loop_product(name):
    rep = DENSE[name]()
    rng = random.Random(rep.dim)
    for length in (1, 2, rng.randrange(3, 30), 30):
        word = random_word(rng, rep.n, length)
        expect = rep.letter_image(word.letters[0])
        for lt in word.letters[1:]:
            expect = entrywise_product(expect, rep.letter_image(lt))
        assert rep.evaluate(word) == expect


def conjugated_tym(n):
    """TYM_n conjugated by I + (1 + q) E_{1,n}: images with sum columns, none monomial."""
    tym = make_tym(n, TQ)
    c = TQ.one() + TQ.var("q")
    u = RingMatrix.from_entries_dict(TQ, n, {**{(k, k): 1 for k in range(n)}, (0, n - 1): c})
    u_inv = RingMatrix.from_entries_dict(TQ, n, {**{(k, k): 1 for k in range(n)}, (0, n - 1): -c})
    return GenRep(n, n, TQ, {lt: u * m * u_inv for lt, m in tym.images.items()},
                  name="conjugated tym")


CHAINED = {
    "burau": lambda n: make_burau(n, T.var("t")),
    "burau*onedim": lambda n: tensor_one_dim(make_burau(n, TQ.var("t")), TQ.var("q", -1)),
    "conjugated tym": conjugated_tym,
    "lm_q(tym4)": lambda n: lm_q(make_tym(4, TQ)),
}


@st.composite
def chained_word(draw):
    name = draw(st.sampled_from(sorted(CHAINED)))
    rep = CHAINED[name](draw(st.integers(2, 6)))
    index = st.integers(1, rep.n - 1)
    letter = st.tuples(st.just("s"), index, st.sampled_from((1, -1)))
    length = draw(st.one_of(st.just(0), st.just(1), st.integers(2, 25)))
    return rep, BraidWord(rep.n, draw(st.lists(letter, min_size=length, max_size=length)))


@settings(max_examples=80, deadline=None)
@given(chained_word())
def test_chain_equals_the_left_fold_of_the_product(rep_word):
    rep, word = rep_word
    assert not rep._monomial_table()
    expect = RingMatrix.identity(rep.ring, rep.dim)
    for lt in word.letters:
        expect = entrywise_product(expect, rep.letter_image(lt))
    got = rep.evaluate(word)
    assert got == expect
    if len(word) == 1:
        assert got is rep.letter_image(word.letters[0])


@pytest.mark.parametrize("make", [
    lambda p: make_burau(3, p),
    lambda p: tensor_one_dim(make_burau(3, T.var("t")), p)])
def test_exponents_near_exp_max_overflow_on_both_paths(make):
    rep = make(T.var("t", 2 ** 30))
    s, s_inv = ("s", 1, 1), ("s", 1, -1)
    for letters, overflows in (([s, s_inv], False), ([s_inv, s, s_inv, s], False),
                               ([s, s], True), ([s, s_inv, s, s], True)):
        word = BraidWord(3, letters)
        fold = RingMatrix.identity(T, 3)
        if overflows:
            with pytest.raises(OverflowError):
                for lt in letters:
                    fold = entrywise_product(fold, rep.letter_image(lt))
            with pytest.raises(OverflowError):
                rep.evaluate(word)
        else:
            # the summed exponent bounds pass EXP_MAX, the exponents do not
            for lt in letters:
                fold = entrywise_product(fold, rep.letter_image(lt))
            assert fold.is_identity()
            assert rep.evaluate(word) == fold


def test_a_lone_one_column_shares_the_running_products_polynomials():
    bur = make_burau(4, T.var("t"))
    first = bur.letter_image(("s", 1, 1))
    out = bur.evaluate(BraidWord(4, [("s", 1, 1), ("s", 3, 1), ("s", 3, -1)]))
    # sigma_3 and its inverse keep columns 0 and 1 as lone 1s on the diagonal
    shared = [(r, k) for r in range(4) for k in (0, 1) if first[r, k].terms]
    assert len(shared) == 3
    assert all(out[r, k] is first[r, k] for r, k in shared)


FACTORIES = {
    "burau": lambda: make_burau(4, T.var("t")),
    "tym": lambda: make_tym(4),
    "wtym": lambda: make_wtym(4),
    "wtym1": lambda: make_wtym(1),
    "onedim": lambda: make_one_dim(4, T.var("t", -2)),
    "tym*onedim": lambda: tensor_one_dim(make_tym(4, TQ), TQ.var("q")),
    "wtym*onedim": lambda: tensor_one_dim(make_wtym(3), make_wtym(3).ring.var("al")),
    "lm_apply": lambda: lm_apply(make_tym(4)),
    "lm_q": lambda: lm_q(make_burau(4, TQ.var("t"))),
    "lm_semidirect": lambda: lm_semidirect(make_eta(3, TQ), q_twist=True),
    "reduced_lm3": reduced_lm3,
}


@pytest.mark.parametrize("name", sorted(FACTORIES))
def test_letter_image_is_the_views(name):
    rep = FACTORIES[name]()
    welded = name.startswith("wtym")
    assert (rep.tau_images is None) == (not welded)
    views = {"s": rep.sigma_images, "S": rep.sigma_inv_images, "t": rep.tau_images or {}}
    indices = list(range(1, rep.n))
    assert sorted(views["s"]) == sorted(views["S"]) == indices
    assert sorted(views["t"]) == (indices if welded else [])
    for i in range(1, rep.n):
        assert rep.letter_image(("s", i, 1)) is views["s"][i]
        assert rep.letter_image(("s", i, -1)) is views["S"][i]
        if welded:
            assert rep.letter_image(("t", i)) is views["t"][i]
        else:
            with pytest.raises(ValueError, match="no virtual generator images"):
                rep.letter_image(("t", i))


@pytest.mark.parametrize("name", ["burau", "tym", "wtym", "lm_apply"])
def test_a_view_is_a_copy(name):
    rep = FACTORIES[name]()
    word = random_word(random.Random(3), rep.n, 12, virtual=name == "wtym")
    before = rep.evaluate(word)
    other = rep.letter_image(("s", 2, 1))
    for view in (rep.sigma_images, rep.sigma_inv_images, rep.tau_images or {}):
        for i in view:
            view[i] = other
        view.clear()
    assert rep.sigma_images and rep.sigma_inv_images
    assert rep.evaluate(word) == before
    table = {("s", i, e): m for e, view in ((1, rep.sigma_images), (-1, rep.sigma_inv_images))
             for i, m in view.items()}
    table.update((("t", i), m) for i, m in (rep.tau_images or {}).items())
    assert GenRep(rep.n, rep.dim, rep.ring, table,
                  welded=rep.tau_images is not None).evaluate(word) == before
