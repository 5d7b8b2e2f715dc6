import random
import time

import pytest
from hypothesis import given, settings, strategies as st

from braidrep import reproduce
from braidrep.matrices import RingMatrix
from braidrep.ring import (ContextMismatch, LaurentPoly, NotAUnit, PolyParseError,
                           PrimeField, RingContext, poly_render,
                           specialize)

UV = RingContext(("u", "v"))
T = RingContext(("t",))


def test_basic_arithmetic():
    u, v = UV.var("u"), UV.var("v")
    p = (u + v) * (u - v)
    assert p == u * u - v * v
    assert p - p == UV.zero()
    assert (u * v) ** 3 == UV.monomial((3, 3))


def test_negative_powers():
    u = UV.var("u")
    assert u ** -2 == UV.monomial((-2, 0))
    assert u * u ** -1 == UV.one()


def test_units():
    u, v = UV.var("u"), UV.var("v")
    assert (u * v ** -4).is_unit()
    assert (-u).is_unit()
    assert not (u + v).is_unit()
    assert not UV.const(2).is_unit()
    with pytest.raises(NotAUnit):
        (u + v).inverse()


def test_context_mismatch():
    with pytest.raises(ContextMismatch):
        UV.var("u") + T.var("t")


def test_const_and_int_coercion():
    t = T.var("t")
    assert t + 1 == T.parse("t + 1")
    assert 1 - t == T.parse("1 - t")
    assert t * 2 == T.parse("2*t") == T.parse("t*2")
    # juxtaposed factors multiply
    assert t * 2 == T.parse("2t")
    assert t ** 2 == T.parse("t t")
    assert T.const(6) == T.parse("2 3")
    assert T.const(0).is_zero()


def test_one_zero_per_context(monkeypatch):
    ctx = RingContext(("t", "q"))
    zero, t = ctx.zero(), ctx.var("t")
    assert ctx.zero() is zero and ctx.const(0) is zero
    assert t * zero is zero and zero * t is zero and t * 0 is zero and 0 * t is zero
    assert (t - t).is_zero() and RingContext(("t", "q")).zero() == zero
    # the zero is shared, so no operation may fill it in place: record the
    # zero of every context a full reproduction run makes, then check them
    zeros = [zero, reproduce.TQ.zero()]
    init = RingContext.__init__

    def recording_init(self, variables):
        init(self, variables)
        zeros.append(self._zero)

    monkeypatch.setattr(RingContext, "__init__", recording_init)
    assert all(r["result"] == "PASS" for r in reproduce.run(True))
    assert len(zeros) > 2
    assert all(z.terms == {} and z._bound == 0 for z in zeros)


def test_render_example():
    ctx = RingContext(("t", "q"))
    t, q = ctx.var("t"), ctx.var("q")
    p = ctx.one() - 2 * q ** 2 * t + q ** 4 * t ** 2
    assert poly_render(p) == "1 - 2*q^2*t + q^4*t^2"


def test_parse_negative_exponent():
    assert T.parse("t^-3") == T.monomial((-3,))
    assert T.parse("-t^2 + 1") == T.one() - T.var("t") ** 2


def test_parse_errors():
    with pytest.raises(PolyParseError):
        T.parse("")
    with pytest.raises(PolyParseError):
        T.parse("t +")
    # a '*' needs a factor on each side
    for text in ("*t", "t**t", "2**3"):
        with pytest.raises(PolyParseError):
            T.parse(text)
    with pytest.raises(KeyError):
        T.parse("x")


def test_families():
    ctx = RingContext(("u1", "u2", "v1", "v2"))
    fams = ctx.families()
    assert fams["u1"] == ("u", 1)
    assert fams["v2"] == ("v", 2)
    with pytest.raises(ValueError):
        UV.families()


def test_specialize_to_context():
    ctx = ctx2 = RingContext(("t",))
    p = UV.parse("u*v^-1 + 1")
    got = specialize(p, {"u": ctx.var("t"), "v": ctx.var("t")}, ctx2)
    assert got == ctx.const(2)


def test_specialize_rejects_non_unit():
    p = UV.var("u")
    with pytest.raises(NotAUnit):
        specialize(p, {"u": T.parse("t + 1"), "v": T.one()}, T)


def test_specialize_returns_the_one_zero_of_the_target():
    t = T.var("t")
    assert specialize(UV.zero(), {"u": t, "v": t}, T) is T.zero()
    assert specialize(UV.parse("u - v"), {"u": t, "v": t}, T) is T.zero()


def test_specialize_of_an_all_zero_matrix_still_checks_the_images():
    with pytest.raises(NotAUnit):
        RingMatrix.zeros(T, 3, 3).map_entries(lambda p: specialize(p, {"t": T.parse("2*t")}, T))


def test_specialize_to_prime_field():
    f = PrimeField(7)
    p = T.parse("t^2 + 3")
    got = specialize(p, {"t": 2}, f)
    assert type(got) is int and got == 0
    # 3^-1 = 5 and -4 = 3 mod 7, so t^-1 - t is 2 at both
    assert specialize(T.parse("t^-1 - t"), {"t": 3}, f) == 2
    assert specialize(T.parse("t^-1 - t"), {"t": -4}, f) == 2


def test_specialize_to_prime_field_rejects_bad_images():
    f = PrimeField(7)
    with pytest.raises(NotAUnit):
        specialize(T.var("t"), {"t": 14}, f)
    with pytest.raises(ContextMismatch):
        specialize(T.var("t"), {"t": T.var("t")}, f)


def test_prime_field_rejects_composite():
    with pytest.raises(ValueError):
        PrimeField(15)


def test_prime_field_agrees_with_trial_division():
    for n in range(-2, 10 ** 4):
        prime = n >= 2 and all(n % d for d in range(2, int(n ** 0.5) + 1))
        if prime:
            assert PrimeField(n).p == n
        else:
            with pytest.raises(ValueError, match="not prime"):
                PrimeField(n)


def test_prime_field_certifies_a_61_bit_prime_quickly():
    start = time.perf_counter()
    PrimeField(2 ** 61 - 1)
    assert time.perf_counter() - start < 0.1


@pytest.mark.parametrize("n", [561, 3215031751, 318665857834031151167461])
def test_prime_field_rejects_pseudoprimes(n):
    # 561 is a Carmichael number, 3215031751 a strong pseudoprime to the
    # bases 2, 3, 5 and 7, and the last one to every prime base up to 37
    with pytest.raises(ValueError, match="not prime"):
        PrimeField(n)


def test_prime_field_refuses_moduli_it_cannot_certify():
    with pytest.raises(ValueError, match="too large to certify"):
        PrimeField(2 ** 127 - 1)


monomials = st.tuples(st.integers(-4, 4), st.integers(-4, 4))
polys = st.dictionaries(monomials, st.integers(-9, 9), max_size=5).map(
    lambda d: UV.zero() + sum((UV.monomial(e, c) for e, c in d.items()), UV.zero()))


@given(polys, polys, polys)
def test_ring_axioms(a, b, c):
    assert (a + b) * c == a * c + b * c
    assert a * b == b * a
    assert a + b == b + a
    assert (a * b) * c == a * (b * c)


@given(polys)
def test_render_parse_round_trip(p):
    assert UV.parse(poly_render(p)) == p


# --- the packed kernel against a reference on exponent tuples ---------------

LIMIT = 2 ** 31 - 1


def ref_check(e):
    if any(abs(x) > LIMIT for x in e):
        raise OverflowError(e)
    return e


def ref_mul(a, b):
    out = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = ref_check(tuple(x + y for x, y in zip(ea, eb)))
            out[e] = out.get(e, 0) + ca * cb
    return {e: c for e, c in out.items() if c}


def ref_add(a, b, sign=1):
    out = dict(a)
    for e, c in b.items():
        out[e] = out.get(e, 0) + sign * c
    return {e: c for e, c in out.items() if c}


def ref_pow(a, k, arity):
    if k < 0:
        if len(a) != 1 or set(a.values()) - {1, -1}:
            raise NotAUnit(a)
        a = {tuple(-x for x in e): c for e, c in a.items()}
        k = -k
    out = {(0,) * arity: 1}
    for _ in range(k):
        out = ref_mul(out, a)
    return out


def ref_render(names, terms):
    if not terms:
        return "0"
    order = sorted(range(len(names)), key=lambda i: names[i])
    text = ""
    for e in sorted(terms):
        c = terms[e]
        factors = [names[i] if e[i] == 1 else "%s^%d" % (names[i], e[i])
                   for i in order if e[i]]
        body = "*".join(([str(abs(c))] if abs(c) != 1 or not factors else []) + factors)
        if not text:
            text = ("-" if c < 0 else "") + body
        else:
            text += " %s %s" % ("-" if c < 0 else "+", body)
    return text


def ref_specialize(a, images, arity):
    """images: per variable, (sign, exponent vector in the target)."""
    out = {}
    for e, c in a.items():
        img = [0] * arity
        for x, (sign, f) in zip(e, images):
            c *= sign ** (x % 2)
            img = [y + x * g for y, g in zip(img, f)]
        img = ref_check(tuple(img))
        out[img] = out.get(img, 0) + c
    return {e: c for e, c in out.items() if c}


def outcome(fn, show=poly_render):
    try:
        return "ok", show(fn())
    except (OverflowError, NotAUnit, ContextMismatch) as exc:
        return "raises", type(exc)


ARITY_CTX = {r: RingContext(tuple("x%d" % i for i in range(r))) for r in (1, 2, 3, 36)}
TARGET = RingContext(("s", "w"))
FIELD = PrimeField(10007)

exponents = st.one_of(st.integers(-3, 3), st.integers(-LIMIT, LIMIT),
                      st.sampled_from([LIMIT, -LIMIT, LIMIT // 2 + 1]))


def ref_polys(arity):
    vec = st.dictionaries(st.integers(0, arity - 1), exponents, max_size=min(arity, 3)).map(
        lambda d: tuple(d.get(i, 0) for i in range(arity)))
    return st.dictionaries(vec, st.integers(-5, 5).filter(bool), max_size=4)


def build(ctx, terms):
    return sum((ctx.monomial(e, c) for e, c in terms.items()), ctx.zero())


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_packed_kernel_matches_tuple_reference(data):
    arity = data.draw(st.sampled_from(sorted(ARITY_CTX)))
    ctx = ARITY_CTX[arity]
    names = ctx.variables
    A = data.draw(ref_polys(arity))
    B = data.draw(ref_polys(arity))
    a, b = build(ctx, A), build(ctx, B)

    assert poly_render(a) == ref_render(names, A)
    assert ctx.parse(poly_render(a)) == a
    assert LaurentPoly(ctx, A) == a
    assert poly_render(a + b) == ref_render(names, ref_add(A, B))
    assert poly_render(a - b) == ref_render(names, ref_add(A, B, -1))
    assert outcome(lambda: a * b) == outcome(lambda: ref_render(names, ref_mul(A, B)), str)

    k = data.draw(st.integers(-3, 5))
    assert outcome(lambda: a ** k) == outcome(lambda: ref_render(names, ref_pow(A, k, arity)), str)
    if len(A) == 1 and set(A.values()) <= {1, -1}:
        assert poly_render(a.inverse()) == ref_render(names, ref_pow(A, -1, arity))

    # specialisation: every variable to +-s^i*w^j in TARGET, and to a nonzero scalar mod p
    small = st.tuples(st.sampled_from([1, -1]), st.tuples(st.integers(-2, 2), st.integers(-2, 2)))
    imgs = [data.draw(small) for _ in range(arity)]
    images = {v: TARGET.monomial(f, sign) for v, (sign, f) in zip(names, imgs)}
    assert outcome(lambda: specialize(a, images, TARGET)) == outcome(
        lambda: ref_render(TARGET.variables, ref_specialize(A, imgs, 2)), str)
    values = [data.draw(st.integers(1, FIELD.p - 1)) for _ in range(arity)]
    want = sum(c * _prod_mod(values, e, FIELD.p) for e, c in A.items()) % FIELD.p
    assert specialize(a, dict(zip(names, values)), FIELD) == want

    # a 2x2 matrix product: an entry raises if any product it forms leaves the range
    C = data.draw(ref_polys(arity))
    left = RingMatrix.from_rows(ctx, [[a, b], [b, ctx.one()]])
    right = RingMatrix.from_rows(ctx, [[b, build(ctx, C)], [a, ctx.zero()]])
    one = {(0,) * arity: 1}
    ref_left, ref_right = [[A, B], [B, one]], [[B, C], [A, {}]]

    def ref_matrix():
        return [ref_render(names, ref_add(ref_mul(ref_left[i][0], ref_right[0][k]),
                                          ref_mul(ref_left[i][1], ref_right[1][k])))
                for i in range(2) for k in range(2)]

    assert outcome(lambda: left * right, lambda m: [poly_render(e) for e in m.entries]) == \
        outcome(ref_matrix, lambda x: x)


def _prod_mod(values, e, p):
    out = 1
    for v, x in zip(values, e):
        out = out * pow(v, x, p) % p
    return out


def test_exponent_range_is_enforced():
    xy = RingContext(("x", "y"))
    with pytest.raises(OverflowError):
        T.monomial((2 ** 31,))
    with pytest.raises(OverflowError):
        T.monomial((-2 ** 31,))
    with pytest.raises(OverflowError):
        T.var("t") ** 2 ** 31
    with pytest.raises(OverflowError):
        xy.monomial((LIMIT, 0)) * xy.var("x")
    # the other variable's digit has room to spare
    assert xy.monomial((LIMIT, 0)) * xy.var("y") == xy.monomial((LIMIT, 1))
    assert xy.monomial((-LIMIT, 5)) * xy.monomial((0, -5)) == xy.monomial((-LIMIT, 0))
    big = RingMatrix.from_rows(xy, [[xy.monomial((LIMIT - 1, 0)), xy.one()]])
    col = RingMatrix.from_rows(xy, [[xy.var("x") ** 2], [xy.one()]])
    with pytest.raises(OverflowError):
        big * col
    ok = RingMatrix.from_rows(xy, [[xy.var("x")], [xy.one()]])
    assert (big * ok).entries == (xy.monomial((LIMIT, 0)) + 1,)


# targets of the slot test: two contexts, one of them twice (equal, not the same
# object), with a variable order that is not alphabetical
SLOT_TARGETS = (TARGET, RingContext(("s", "w")), RingContext(("z", "y", "x")))


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_specialize_through_the_slot_matches_the_reference(data):
    arity = data.draw(st.integers(1, 3))
    ctx = RingContext(tuple("x%d" % i for i in range(arity)))  # a fresh, empty slot
    names = ctx.variables
    # (images, target, reference result of a term map, or the exception expected)
    maps = []
    # ints are images in every target: one dict of them passed with several targets
    signs = [data.draw(st.sampled_from([1, -1])) for _ in names]
    ints = dict(zip(names, signs))
    for target in SLOT_TARGETS:
        r = target.arity
        maps.append((ints, target, lambda A, target=target, r=r: (
            True, ref_render(target.variables, ref_specialize(A, [(x, (0,) * r) for x in signs], r)))))
        vec = st.tuples(*[st.integers(-2, 2)] * r)
        imgs = [data.draw(st.tuples(st.sampled_from([1, -1]), vec)) for _ in names]

        def want(A, target=target, imgs=imgs, r=r):
            return True, ref_render(target.variables, ref_specialize(A, imgs, r))
        # the same images twice, and equal images held by distinct objects
        for _ in range(2):
            maps.append(({v: target.monomial(f, sign) for v, (sign, f) in zip(names, imgs)},
                         target, want))
        bad = dict(maps[-1][0])
        bad[data.draw(st.sampled_from(names))] = target.monomial(imgs[0][1], 2)
        maps.append((bad, target, NotAUnit))
    values = [data.draw(st.integers(1, FIELD.p - 1)) for _ in names]
    for field in (FIELD, PrimeField(10009)):
        maps.append((dict(zip(names, values)), field, lambda A, q=field.p:
                     sum(c * _prod_mod(values, e, q) for e, c in A.items()) % q))
    # equal to the ints above, but polynomials: not elements of the field
    maps.append(({v: T.const(x) for v, x in zip(names, values)}, FIELD, ContextMismatch))
    maps.append(({v: FIELD.p * x for v, x in zip(names, values)}, FIELD, NotAUnit))

    polys = [data.draw(ref_polys(arity)) for _ in range(3)] + [{}]
    for _ in range(data.draw(st.integers(1, 12))):
        images, target, want = data.draw(st.sampled_from(maps))
        A = data.draw(st.sampled_from(polys))
        if isinstance(want, type):
            expected = "raises", want
        else:  # OverflowError where the reference leaves the exponent range
            expected = outcome(lambda: want(A), lambda x: x)
        show = (lambda r: r) if isinstance(target, PrimeField) else (
            lambda r: (r.ctx is target, poly_render(r)))
        assert outcome(lambda: specialize(build(ctx, A), images, target), show) == expected


def test_specialize_rechecks_images_after_a_cached_success():
    f = PrimeField(7)
    p = T.parse("t^2 + 3")
    assert specialize(p, {"t": 3}, f) == 5
    # the same image objects into another field
    assert specialize(p, {"t": 3}, PrimeField(11)) == 1
    # T.const(3) == 3, yet it is not an element of Z/7
    with pytest.raises(ContextMismatch):
        specialize(p, {"t": T.const(3)}, f)
    assert specialize(p, {"t": 3}, f) == 5
    with pytest.raises(NotAUnit):
        specialize(p, {"t": 14}, f)
    with pytest.raises(NotAUnit):
        specialize(T.var("t"), {"t": T.parse("t + 1")}, T)
    # a zero polynomial with bad images still raises, on a warm slot too
    for images, target, exc in (({"t": 7}, f, NotAUnit), ({"t": T.var("t")}, f, ContextMismatch),
                                ({"t": T.const(2)}, T, NotAUnit), ({}, f, KeyError)):
        assert specialize(p, {"t": 3}, f) == 5
        with pytest.raises(exc):
            specialize(T.zero(), images, target)


def test_specialize_overflow_on_a_fresh_and_a_warm_slot():
    images = {"x": T.var("t", 2), "y": T.var("t", -1)}
    for warm in (False, True):
        xy = RingContext(("x", "y"))
        if warm:
            assert specialize(xy.var("x") + 1, images, T) == T.parse("t^2 + 1")
        for _ in range(2):  # the failed key is not kept
            with pytest.raises(OverflowError):
                specialize(xy.monomial((LIMIT, 0)), images, T)
        # past the bound, but inside the range once worked out exactly
        assert specialize(xy.monomial((LIMIT // 2, LIMIT)), images, T) == T.var("t", -1)


def test_pow_costs_and_results(monkeypatch):
    p = UV.parse("u + 2*v^-1 - 3")
    u = UV.parse("-u*v^-2")
    # repeated multiplication, worked out before products are counted
    expected = {}
    for base in (p, u, u.inverse()):
        acc = UV.one()
        for k in range(10):
            expected[base, k] = acc
            acc = acc * base
    calls = []
    mul = LaurentPoly.__mul__

    def counting(self, other):
        calls.append(1)
        return mul(self, other)

    monkeypatch.setattr(LaurentPoly, "__mul__", counting)
    for k in range(-3, 10):
        del calls[:]
        assert u ** k == (expected[u, k] if k >= 0 else expected[u.inverse(), -k])
        assert not calls  # one key scaling and one coefficient power
        if k < 0:
            with pytest.raises(NotAUnit):
                p ** k
            continue
        del calls[:]
        assert p ** k == expected[p, k]
        assert len(calls) <= max(0, k.bit_length() - 1 + bin(k).count("1") - 1)


# --- differential tests against sympy ----------------------------------------

def _sympy_of(sympy, ctx, p):
    syms = {v: sympy.Symbol(v) for v in ctx.variables}
    return sympy.sympify(poly_render(p).replace("^", "**"), locals=syms)


def _random_poly(rng, ctx, terms=4, span=3):
    out = ctx.zero()
    for _ in range(rng.randrange(terms + 1)):
        exps = [rng.randint(-span, span) for _ in ctx.variables]
        out = out + ctx.monomial(exps, rng.randint(-4, 4))
    return out


def test_mul_and_specialize_agree_with_sympy():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(11)
    ctx = RingContext(("t", "q", "u"))
    t = sympy.Symbol("t")
    for _ in range(25):
        a, b = _random_poly(rng, ctx), _random_poly(rng, ctx)
        sa, sb = _sympy_of(sympy, ctx, a), _sympy_of(sympy, ctx, b)
        assert sympy.expand(_sympy_of(sympy, ctx, a * b) - sa * sb) == 0
        ea, eq, eu = rng.randint(-2, 2), rng.randint(-2, 2), rng.randint(-2, 2)
        images = {"t": T.monomial((ea,)), "q": -T.monomial((eq,)), "u": T.monomial((eu,))}
        got = _sympy_of(sympy, T, specialize(a, images, T))
        want = sa.subs({sympy.Symbol("t"): t ** ea, sympy.Symbol("q"): -t ** eq,
                        sympy.Symbol("u"): t ** eu}, simultaneous=True)
        assert sympy.expand(got - want) == 0


def test_determinant_agrees_with_sympy():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(12)
    for n in (1, 2, 3, 4):
        rows = [[_random_poly(rng, UV, terms=2, span=2) for _ in range(n)] for _ in range(n)]
        m = RingMatrix.from_rows(UV, rows)
        sm = sympy.Matrix([[_sympy_of(sympy, UV, e) for e in r] for r in rows])
        assert sympy.expand(_sympy_of(sympy, UV, m.determinant()) - sm.det()) == 0
