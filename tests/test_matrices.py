import pytest

from braidrep.matrices import (Permutation, RingMatrix, ShapeMismatch,
                               direct_sum)
from braidrep.ring import NotAUnit, RingContext

T = RingContext(("t",))


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


def test_power():
    t = T.var("t")
    m = tmat([[0, 1], [t, 0]])
    assert m ** 2 == tmat([[t, 0], [0, t]])
    assert m ** -1 == m.monomial_inverse()
    assert m ** 0 == RingMatrix.identity(T, 2)


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


def test_render_parse_round_trip():
    t = T.var("t")
    m = tmat([[0, t ** -1], ["1 - t", 2]])
    again = RingMatrix.parse(T, m.render())
    assert again == m


def test_submatrix():
    m = tmat([[1, 2, 3], [4, 5, 6], [7, 8, 9]])
    s = m.submatrix([0, 2], [1, 2])
    assert s == tmat([[2, 3], [8, 9]])
