import itertools
import re

import pytest
from hypothesis import given, settings, strategies as st

from braidrep.matrices import (Permutation, RingMatrix, ShapeMismatch,
                               _column_chain, direct_sum)
from braidrep.reps import make_burau
from braidrep.ring import EXP_MAX, NotAUnit, PolyParseError, RingContext

T = RingContext(("t",))
TUV = RingContext(("t", "u", "v"))


def tmat(rows):
    return RingMatrix.from_rows(T, [[T.parse(str(e)) if isinstance(e, str) else e
                                     for e in r] for r in rows])


def test_identity_and_getitem():
    m = RingMatrix.identity(T, 3)
    assert m.is_identity()
    assert m[0, 0].is_one() and m[0, 1].is_zero()


def test_multiplication():
    t = T.var("t")
    a = tmat([[0, t], [1, "1 - t"]])
    b = a * a
    assert b[0, 0] == t
    assert b[1, 1] == T.parse("1 - t + t^2")
    assert a * RingMatrix.identity(T, 2) == a
    # a column that is a lone 1 shares the left factor's nonzero polynomials
    assert all(x is y for x, y in zip((a * RingMatrix.identity(T, 2)).entries, a.entries)
               if y.terms)


def test_shape_errors():
    a = RingMatrix.identity(T, 2)
    b = RingMatrix.identity(T, 3)
    with pytest.raises(ShapeMismatch):
        a * b
    with pytest.raises(ShapeMismatch):
        a + b


def test_monomial_inverse():
    t = T.var("t")
    m = tmat([[0, t], [t ** -2, 0]])
    assert m.is_monomial()
    assert m * m.monomial_inverse() == RingMatrix.identity(T, 2)
    dense = tmat([[1, 1], [0, 1]])
    assert not dense.is_monomial()
    with pytest.raises(NotAUnit):
        dense.monomial_inverse()


def test_determinant_and_adjugate():
    t = T.var("t")
    bur = tmat([[0, t], [1, "1 - t"]])
    assert bur.determinant() == -t
    inv = bur.adjugate_inverse()
    assert bur * inv == RingMatrix.identity(T, 2)
    assert inv * bur == RingMatrix.identity(T, 2)
    with pytest.raises(NotAUnit):
        tmat([[1, 1], [1, 1]]).adjugate_inverse()


# small Laurent polynomials in one and in two variables
small_rings = st.sampled_from((T, RingContext(("q", "t"))))


@st.composite
def small_matrix(draw, ring, n):
    def term():
        exps = draw(st.lists(st.integers(-2, 2), min_size=ring.arity, max_size=ring.arity))
        return ring.monomial(exps, draw(st.integers(-3, 3)))
    return RingMatrix(ring, n, n, [sum((term() for _ in range(draw(st.integers(0, 2)))),
                                       ring.zero()) for _ in range(n * n)])


def leibniz(m):
    """det m as the signed sum over permutations."""
    det = m.ring.zero()
    for perm in itertools.permutations(range(m.rows)):
        inversions = sum(perm[i] > perm[j] for i, j in itertools.combinations(range(m.rows), 2))
        term = m.ring.const(-1 if inversions % 2 else 1)
        for i, j in enumerate(perm):
            term = term * m[i, j]
        det = det + term
    return det


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_determinant_equals_the_leibniz_formula(data):
    ring = data.draw(small_rings)
    m = data.draw(small_matrix(ring, data.draw(st.integers(0, 5))))
    assert m.determinant() == leibniz(m)


@st.composite
def unit_or_not_matrix(draw):
    """A random matrix, or L * D * U with L, U unitriangular and D a diagonal of
    units, so that the determinant is a unit about half of the time."""
    ring = draw(small_rings)
    n = draw(st.integers(0, 5))
    m = draw(small_matrix(ring, n))
    if n and draw(st.booleans()):
        lower, upper = draw(small_matrix(ring, n)), draw(small_matrix(ring, n))
        diag = [ring.monomial(draw(st.lists(st.integers(-2, 2), min_size=ring.arity,
                                            max_size=ring.arity)), draw(st.sampled_from((1, -1))))
                for _ in range(n)]
        one, zero = ring.one(), ring.zero()
        lo = RingMatrix(ring, n, n, [lower[i, j] if i > j else one if i == j else zero
                                     for i in range(n) for j in range(n)])
        up = RingMatrix(ring, n, n, [upper[i, j] if i < j else one if i == j else zero
                                     for i in range(n) for j in range(n)])
        m = lo * RingMatrix.from_entries_dict(ring, n, {(i, i): d for i, d in enumerate(diag)}) * up
    return m


@settings(max_examples=60, deadline=None)
@given(unit_or_not_matrix())
def test_adjugate_inverse_is_exact_or_refused(m):
    det = m.determinant()
    if det.is_unit():
        inv = m.adjugate_inverse()
        assert m * inv == RingMatrix.identity(m.ring, m.rows)
        assert inv * m == RingMatrix.identity(m.ring, m.rows)
    else:
        with pytest.raises(NotAUnit, match=re.escape("determinant is not a unit: %s" % det)):
            m.adjugate_inverse()


def test_power():
    t = T.var("t")
    m = tmat([[0, 1], [t, 0]])
    assert m ** 2 == tmat([[t, 0], [0, t]])
    assert m ** -1 == m.monomial_inverse()
    assert m ** 0 == RingMatrix.identity(T, 2)


def test_negative_power_of_a_non_monomial_matrix():
    bur = make_burau(3, T.var("t"))
    s, s_inv = bur.sigma_images[1], bur.sigma_inv_images[1]
    assert not s.is_monomial()
    assert s ** -1 == s_inv
    assert s ** -2 == s_inv * s_inv
    assert s ** 3 == s * s * s
    assert s ** 0 == RingMatrix.identity(T, 3)


# exponents near both ends of the range, so that some products leave it
exponent = st.one_of(st.integers(-3, 3), st.integers(EXP_MAX - 2, EXP_MAX),
                     st.integers(-EXP_MAX, -EXP_MAX + 2))
coefficient = st.integers(-3, 3).filter(bool)
monomial = st.builds(lambda exps, c: TUV.monomial(exps, c),
                     st.lists(exponent, min_size=3, max_size=3), coefficient)
poly = st.lists(monomial, max_size=3).map(lambda ms: sum(ms, TUV.zero()))


@st.composite
def matrix(draw, rows, cols):
    return RingMatrix(TUV, rows, cols, draw(st.lists(poly, min_size=rows * cols,
                                                     max_size=rows * cols)))


@st.composite
def plan_column(draw, rows):
    """A column of zero, copy, shift or sum kind, as a list of entries."""
    kind = draw(st.sampled_from(("zero", "copy", "shift", "sum")))
    col = [TUV.zero()] * rows
    if kind == "sum":
        return draw(st.lists(poly, min_size=rows, max_size=rows))
    if kind != "zero":
        col[draw(st.integers(0, rows - 1))] = TUV.one() if kind == "copy" else draw(monomial)
    return col


@st.composite
def plan_operands(draw):
    r, m, l = (draw(st.integers(1, 6)) for _ in range(3))
    cols = [draw(plan_column(m)) for _ in range(l)]
    b = RingMatrix(TUV, m, l, [cols[k][j] for j in range(m) for k in range(l)])
    return draw(matrix(r, m)), b, draw(matrix(l, r))


def entrywise_product(a, b):
    """a * b by sums of LaurentPoly products; OverflowError as they raise it."""
    flat = []
    for i in range(a.rows):
        for k in range(b.cols):
            acc = a.ring.zero()
            for j in range(a.cols):
                acc = acc + a[i, j] * b[j, k]
            flat.append(acc)
    return RingMatrix(a.ring, a.rows, b.cols, flat)


def product_or_overflow(f, *args):
    try:
        return f(*args)
    except OverflowError:
        return OverflowError


@settings(max_examples=100, deadline=None)
@given(plan_operands())
def test_plan_product_equals_the_entrywise_product(operands):
    a, b, c = operands
    expect = product_or_overflow(entrywise_product, a, b)
    assert product_or_overflow(RingMatrix.__mul__, a, b) == expect
    plan = b._plan
    # the second product reads the plan kept on b
    assert product_or_overflow(RingMatrix.__mul__, a, b) == expect
    assert b._plan is plan is not None
    # b as a left factor, after its plan exists
    expect = product_or_overflow(entrywise_product, b, c)
    assert product_or_overflow(RingMatrix.__mul__, b, c) == expect


@st.composite
def chain_factors(draw):
    """Two to five factors whose columns are of zero, copy, shift or sum kind."""
    dims = draw(st.lists(st.integers(1, 5), min_size=3, max_size=6))
    factors = []
    for m, l in zip(dims, dims[1:]):
        cols = [draw(plan_column(m)) for _ in range(l)]
        factors.append(RingMatrix(TUV, m, l, [cols[k][j] for j in range(m) for k in range(l)]))
    return factors


def left_fold(factors):
    """The product of the factors by entrywise_product, independent of the chain."""
    out = factors[0]
    for m in factors[1:]:
        out = entrywise_product(out, m)
    return out


@settings(max_examples=150, deadline=None)
@given(chain_factors())
def test_column_chain_equals_the_left_fold(factors):
    # exponents near EXP_MAX: both raise OverflowError or both give one product
    assert product_or_overflow(_column_chain, factors) == product_or_overflow(left_fold, factors)


def test_column_chain_keeps_the_bound_of_the_columns_it_copies():
    big, e = T.monomial([EXP_MAX - 1]), 2 ** 30
    diag = lambda a, b: RingMatrix.from_rows(T, [[a, 0], [0, b]])
    # the exact fallback of the second factor sees only t^-e * t^e, but the
    # copied column still holds t^(EXP_MAX - 1), which the third one shifts
    factors = [diag(big, T.var("t", -e)), diag(1, T.var("t", e)), diag(T.var("t", 5), 1)]
    assert _column_chain(factors[:2]) == left_fold(factors[:2]) == diag(big, 1)
    for product in (_column_chain, left_fold):
        with pytest.raises(OverflowError):
            product(factors)


def test_column_chain_shares_the_columns_a_lone_one_keeps():
    bur = make_burau(5, T.var("t"))
    first = bur.sigma_images[1]
    # sigma_3's images keep columns 0, 1 and 4 as lone 1s on the diagonal
    rest = [bur.sigma_images[3], bur.sigma_inv_images[3], bur.sigma_images[3]]
    out = _column_chain([first] + rest)
    assert out == left_fold([first] + rest)
    for k in (0, 1, 4):
        for r in range(5):
            if first[r, k].terms:
                assert out[r, k] is first[r, k]
    assert any(first[r, 0].terms for r in range(5))


@pytest.mark.parametrize("shape", [(0, 3, 2), (3, 0, 2), (3, 2, 0), (0, 0, 0)])
def test_zero_size_products_equal_the_entrywise_product(shape):
    r, m, l = shape
    t = T.var("t")
    a = RingMatrix(T, r, m, [t + i for i in range(r * m)])
    b = RingMatrix(T, m, l, [t - i for i in range(m * l)])
    assert a * b == _column_chain([a, b]) == entrywise_product(a, b)


def test_column_chain_refuses_what_the_product_refuses():
    with pytest.raises(ShapeMismatch, match="2x2 times 3x3"):
        _column_chain([RingMatrix.identity(T, 2), RingMatrix.identity(T, 3)])
    with pytest.raises(ValueError, match="different rings"):
        _column_chain([RingMatrix.identity(T, 2), RingMatrix.identity(TUV, 2)])


def test_permutation_algebra():
    p = Permutation([1, 0, 2])
    q = Permutation([0, 2, 1])
    assert (p * q)(2) == p(q(2))
    assert (p * p).is_identity()
    r = Permutation([2, 0, 1])
    assert r * r.inverse() == Permutation.identity(3)


def test_index_relabel_is_permutation_conjugation():
    t = T.var("t")
    m = tmat([[1, t, 0], [0, 2, t], ["t^-1", 0, 3]])
    perm = Permutation([2, 0, 1])
    rel = m.index_relabel(perm)
    for i in range(3):
        for j in range(3):
            assert rel[i, j] == m[perm(i), perm(j)]


def test_variable_twist():
    ctx = RingContext(("u1", "u2", "v1", "v2"))
    m = RingMatrix.from_rows(ctx, [[ctx.var("u1"), ctx.var("v2")],
                                   [ctx.one(), ctx.var("u2") * ctx.var("v1")]])
    swapped = m.variable_twist(Permutation([1, 0]))
    assert swapped[0, 0] == ctx.var("u2")
    assert swapped[0, 1] == ctx.var("v1")
    assert swapped[1, 1] == ctx.var("u1") * ctx.var("v2")


def test_variable_twist_needs_families():
    m = RingMatrix.identity(T, 2)
    with pytest.raises(ValueError):
        m.variable_twist(Permutation([1, 0]))


def test_direct_sum():
    a = RingMatrix.identity(T, 2)
    b = tmat([[T.var("t")]])
    s = direct_sum([a, b])
    assert (s.rows, s.cols) == (3, 3)
    assert s[2, 2] == T.var("t")
    assert s[0, 2].is_zero()


def test_direct_sum_of_non_square_blocks_equals_the_entrywise_copy():
    blocks = [tmat([["t", 2, "1 - t"]]), tmat([[3], ["t^-1"]]),
              RingMatrix.zeros(T, 0, 2), tmat([["t", 0], [1, "t^2"], [5, "-t"]])]
    s = direct_sum(blocks)
    assert (s.rows, s.cols) == (6, 8)
    want = [[T.zero()] * 8 for _ in range(6)]
    r0 = c0 = 0
    for b in blocks:
        for i in range(b.rows):
            for j in range(b.cols):
                want[r0 + i][c0 + j] = b[i, j]
        r0, c0 = r0 + b.rows, c0 + b.cols
    assert s == RingMatrix.from_rows(T, want)


def test_map_entries_calls_fn_once_per_distinct_entry():
    calls = []

    def neg(p):
        calls.append(p)
        return -p

    m = RingMatrix.identity(T, 6)
    got = m.map_entries(neg)
    assert len(calls) == 2
    assert got == RingMatrix(T, 6, 6, [-e for e in m.entries])


def test_render_parse_round_trip():
    t = T.var("t")
    m = tmat([[0, t ** -1], ["1 - t", 2]])
    again = RingMatrix.parse(T, m.render())
    assert again == m


@pytest.mark.parametrize("text, message", [
    ("1 1\nx", "row 1 column 1: variable 'x' not in context ('t',)"),
    ("2 2\n1;t\nt;t +", "row 2 column 2: dangling sign in 't +'"),
    ("1 2\n1;", "row 1 column 2: empty polynomial text")])
def test_parse_names_the_entry_it_refuses(text, message):
    with pytest.raises(PolyParseError) as info:
        RingMatrix.parse(T, text)
    assert str(info.value) == message


@pytest.mark.parametrize("text", ["", "2", "1 1 1", "a b"])
def test_parse_rejects_a_bad_header(text):
    with pytest.raises(ShapeMismatch, match="expected a 'rows cols' header"):
        RingMatrix.parse(T, text)
