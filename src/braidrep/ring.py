"""Exact arithmetic in Z[x1^{+-1}, ..., xk^{+-1}], and its specialisations.

Polynomials are stored as finite maps from monomial keys to nonzero integer
coefficients.  A key packs the exponent vector (e_1, ..., e_r) of a context
of arity r into one integer by signed-digit Kronecker substitution in base
2^32, first variable in the most significant digit:

    key = sum(e_i * 2^(32 * (r - 1 - i)))

so multiplying monomials adds keys, inverting one negates its key, and the
constant monomial is 0.  Every exponent lies in [-(2^31 - 1), 2^31 - 1]; in
that range the digits never carry into each other and the integer order of
keys equals the lexicographic order of exponent vectors.  Each polynomial
keeps an upper bound on the absolute value of its exponents, and an
operation that would form an exponent outside the range raises
OverflowError instead of returning an aliased value.  Only this module
packs and unpacks keys.

`specialize` maps a polynomial into another context, or into Z/p for a
prime p certified by `PrimeField`; an element of Z/p is a plain int in
[0, p).

All values are immutable after construction and all operations are pure.
A context caches its last specialisation (the checked images and each key's
image), reused only for the same target and the very same image objects, so
the cache cannot be observed.
"""
from __future__ import annotations

import re
from operator import is_

_NAME_RE = re.compile(r"[A-Za-z][A-Za-z0-9_]*$")
_FAMILY_RE = re.compile(r"([A-Za-z_]+?)([0-9]+)$")
_TOKEN_RE = re.compile(r"\s*(?:(\d+)|([A-Za-z][A-Za-z0-9_]*)|(\^)|(\*)|(\+)|(-))")

_SHIFT = 32
_MASK = (1 << _SHIFT) - 1
_HALF = 1 << (_SHIFT - 1)
EXP_MAX = _HALF - 1
"""Largest absolute value of an exponent."""


def _pack(exps):
    """Key of an exponent vector; OverflowError outside the exponent range."""
    key = 0
    for e in exps:
        if not -EXP_MAX <= e <= EXP_MAX:
            raise OverflowError("exponent %d outside +-%d" % (e, EXP_MAX))
        key = (key << _SHIFT) + e
    return key


def _unpack(key, arity):
    """Exponent vector of a key, as a list."""
    exps = [0] * arity
    for i in range(arity - 1, -1, -1):
        e = ((key + _HALF) & _MASK) - _HALF
        exps[i] = e
        key = (key - e) >> _SHIFT
    return exps


class ContextMismatch(ValueError):
    """Operands belong to different ring contexts."""


class NotAUnit(ValueError):
    """An inverse of a non-unit was requested."""


class PolyParseError(ValueError):
    """Polynomial text does not match the grammar."""


class RingContext:
    """An ordered tuple of distinct Laurent variable names."""

    __slots__ = ("variables", "_index", "_spec", "_zero")

    def __init__(self, variables):
        vs = tuple(variables)
        if len(set(vs)) != len(vs):
            raise ValueError("duplicate variable names: %r" % (vs,))
        for v in vs:
            if not _NAME_RE.match(v):
                raise ValueError("bad variable name: %r" % (v,))
        self.variables = vs
        self._index = {v: i for i, v in enumerate(vs)}
        # (target, images, checked unit images, {source key: image}) of the
        # last `specialize` from this context
        self._spec = None
        self._zero = LaurentPoly._raw(self, {}, 0)  # shared by every caller: values are immutable

    @property
    def arity(self):
        return len(self.variables)

    def index(self, name):
        try:
            return self._index[name]
        except KeyError:
            raise KeyError("variable %r not in context %r" % (name, self.variables))

    def zero(self):
        return self._zero

    def one(self):
        return self.const(1)

    def const(self, c):
        if c == 0:
            return self.zero()
        return LaurentPoly._raw(self, {0: int(c)}, 0)

    def monomial(self, exps, c=1):
        """Single-term polynomial c * prod(x_i^exps[i])."""
        exps = [int(e) for e in exps]
        if len(exps) != self.arity:
            raise ValueError("exponent vector length %d != arity %d" % (len(exps), self.arity))
        if c == 0:
            return self.zero()
        return LaurentPoly._raw(self, {_pack(exps): int(c)}, max(map(abs, exps), default=0))

    def var(self, name, power=1):
        exps = [0] * self.arity
        exps[self.index(name)] = power
        return self.monomial(exps)

    def families(self):
        """Split variables into indexed families, e.g. u1,u2 -> ('u', 1), ('u', 2).

        Returns a dict variable -> (family, index).  Raises if any variable
        does not carry a trailing integer index.
        """
        out = {}
        for v in self.variables:
            m = _FAMILY_RE.match(v)
            if not m:
                raise ValueError("variable %r is not part of an indexed family" % v)
            out[v] = (m.group(1), int(m.group(2)))
        return out

    def parse(self, text):
        """Parse polynomial text (integer coefficients, `*`, `^`, `+`, `-`)."""
        return _parse_poly(self, text)

    def __eq__(self, other):
        return isinstance(other, RingContext) and self.variables == other.variables

    def __hash__(self):
        return hash(self.variables)

    def __repr__(self):
        return "RingContext(%s)" % ", ".join(self.variables)


class LaurentPoly:
    """Multivariate Laurent polynomial with integer coefficients.

    `terms` maps monomial keys (see the module docstring) to coefficients;
    `_bound` is an upper bound on the absolute value of every exponent.
    """

    __slots__ = ("ctx", "terms", "_bound")

    def __init__(self, ctx, terms):
        """`terms` maps exponent vectors (tuples of length ctx.arity) to coefficients."""
        out = {}
        bound = 0
        for e, c in terms.items():
            e = [int(x) for x in e]
            if len(e) != ctx.arity:
                raise ValueError("exponent vector arity mismatch")
            c = int(c)
            if c:
                key = _pack(e)
                out[key] = out.get(key, 0) + c
                bound = max(bound, max(map(abs, e), default=0))
        self.ctx = ctx
        self.terms = {k: c for k, c in out.items() if c}
        self._bound = bound

    @classmethod
    def _raw(cls, ctx, terms, bound):
        p = object.__new__(cls)
        p.ctx = ctx
        p.terms = terms
        p._bound = bound
        return p

    def _coerce(self, other):
        if isinstance(other, LaurentPoly):
            if other.ctx is not self.ctx and other.ctx != self.ctx:
                raise ContextMismatch("%r vs %r" % (self.ctx, other.ctx))
            return other
        if isinstance(other, int):
            return self.ctx.const(other)
        return None

    def is_zero(self):
        return not self.terms

    def is_one(self):
        return self.terms == {0: 1}

    def is_unit(self):
        """Units of Z[Lambda] are +-(single monomial)."""
        if len(self.terms) != 1:
            return False
        (c,) = self.terms.values()
        return c in (1, -1)

    def inverse(self):
        if not self.is_unit():
            raise NotAUnit("not a unit: %s" % self)
        ((k, c),) = self.terms.items()
        return LaurentPoly._raw(self.ctx, {-k: c}, self._bound)

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        out = dict(self.terms)
        for k, c in other.terms.items():
            s = out.get(k, 0) + c
            if s:
                out[k] = s
            else:
                del out[k]
        return LaurentPoly._raw(self.ctx, out, max(self._bound, other._bound))

    __radd__ = __add__

    def __neg__(self):
        return LaurentPoly._raw(self.ctx, {k: -c for k, c in self.terms.items()}, self._bound)

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if not self.terms or not other.terms:
            return self.ctx.zero()
        bound = self._bound + other._bound
        if bound > EXP_MAX:
            bound = _product_bound(self, other)
        (terms,) = _row_products((self.terms,), (((0, other),),), 1)
        return LaurentPoly._raw(self.ctx, terms, bound)

    __rmul__ = __mul__

    def __pow__(self, k):
        k = int(k)
        if k == 0:
            return self.ctx.one()
        if len(self.terms) == 1:
            ((key, c),) = self.terms.items()
            if k < 0 and c not in (1, -1):
                raise NotAUnit("not a unit: %s" % self)
            bound = self._bound * abs(k)
            if bound > EXP_MAX:
                bound = max(map(abs, _unpack(key, self.ctx.arity))) * abs(k)
                if bound > EXP_MAX:
                    raise OverflowError("exponent of (%s)^%d outside +-%d" % (self, k, EXP_MAX))
            return LaurentPoly._raw(self.ctx, {key * k: c ** abs(k)}, bound)
        if k < 0:
            raise NotAUnit("not a unit: %s" % self)
        # left-to-right binary powering: floor(log2 k) squarings and
        # popcount(k) - 1 further products
        result = self
        for bit in bin(k)[3:]:
            result = result * result
            if bit == "1":
                result = result * self
        return result

    def __eq__(self, other):
        if isinstance(other, int):
            return self.terms == self.ctx.const(other).terms
        return (
            isinstance(other, LaurentPoly)
            and self.ctx == other.ctx
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.ctx, tuple(sorted(self.terms.items()))))

    def __str__(self):
        return poly_render(self)

    def __repr__(self):
        return "<%s>" % poly_render(self)


def _row_products(arow, brows, width):
    """Term maps of the row vector `arow` times a sparse matrix.

    `arow[j]` is the term map of entry j of the row and `brows[j]` lists
    (column, polynomial) for the nonzero entries of row j of the matrix.
    Returns one term map per column, None where no product landed.  This is
    the one multiplication loop of the package: keys add, coefficients
    multiply, and cancelled terms are dropped.
    """
    acc = [None] * width
    for at, brow in zip(arow, brows):
        if not at:
            continue
        at = at.items()
        for k, b in brow:
            d = acc[k]
            if d is None:
                d = acc[k] = {}
            bt = b.terms.items()
            for ka, ca in at:
                for kb, cb in bt:
                    key = ka + kb
                    s = d.get(key, 0) + ca * cb
                    if s:
                        d[key] = s
                    else:
                        del d[key]
    return acc


def _ranges(p):
    """Per-variable lists of the lowest and the highest exponents of p."""
    arity = p.ctx.arity
    lo = [EXP_MAX] * arity
    hi = [-EXP_MAX] * arity
    for key in p.terms:
        for i, e in enumerate(_unpack(key, arity)):
            if e < lo[i]:
                lo[i] = e
            if e > hi[i]:
                hi[i] = e
    return lo, hi


def _product_bound(a, b):
    """The largest absolute exponent of a * b, or OverflowError.

    Each variable's highest (lowest) exponent in a product is the sum of
    the factors' highest (lowest) ones: Z[x^{+-1}, ...] has no zero
    divisors, so the extreme terms cannot cancel.
    """
    if not a.terms or not b.terms:
        return 0
    (alo, ahi), (blo, bhi) = _ranges(a), _ranges(b)
    worst = max([0] + [-(x + y) for x, y in zip(alo, blo)] + [x + y for x, y in zip(ahi, bhi)])
    if worst > EXP_MAX:
        raise OverflowError("product has an exponent outside +-%d" % EXP_MAX)
    return worst


# Miller-Rabin with the first 13 prime bases decides primality exactly for
# every n below this bound (Sorenson and Webster, Math. Comp. 2017).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_BOUND = 3317044064679887385961981


def _is_prime(n):
    """Deterministic Miller-Rabin; ValueError for n at or above _MR_BOUND."""
    if n >= _MR_BOUND:
        raise ValueError("modulus too large to certify prime")
    if n < 2:
        return False
    for a in _MR_BASES:
        if n % a == 0:
            return n == a
    d, s = n - 1, 0
    while not d & 1:
        d >>= 1
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class PrimeField:
    """The field Z/pZ for a certified prime p, as a target of `specialize`.

    Its elements are plain ints in [0, p).
    """

    __slots__ = ("p",)

    def __init__(self, p):
        p = int(p)
        if not _is_prime(p):
            raise ValueError("modulus %d is not prime" % p)
        self.p = p

    def __repr__(self):
        return "PrimeField(%d)" % self.p


def specialize(p, images, target):
    """Apply the ring homomorphism sending each variable to its image.

    Into a RingContext, `images` maps every variable of p's context to a
    unit of `target` (an int is read as a constant) and the result is a
    LaurentPoly.  Into a PrimeField(q), every image is an int that is
    nonzero mod q and the result is an int in [0, q).  Images must be
    units because exponents may be negative: NotAUnit otherwise, and
    ContextMismatch for an image of the wrong kind.

    The checked images and each key's image stay in the `_spec` slot of p's
    context for later calls with the same target and image objects.
    """
    ctx = p.ctx
    try:
        imgs = tuple(map(images.__getitem__, ctx.variables))
    except KeyError:
        raise KeyError("no image for variables %r"
                       % ([v for v in ctx.variables if v not in images],)) from None
    spec = ctx._spec
    if spec is None or spec[0] is not target or not all(map(is_, spec[1], imgs)):
        spec = ctx._spec = (target, imgs, _unit_images(ctx, imgs, target), {})
    _, _, units, memo = spec
    arity = len(imgs)
    if isinstance(target, PrimeField):
        mod = target.p
        acc = 0
        for key, c in p.terms.items():
            v = memo.get(key)
            if v is None:
                v = 1
                for img, e in zip(units, _unpack(key, arity)):
                    if e:
                        v = v * pow(img, e, mod) % mod
                memo[key] = v
            acc += c * v
        return acc % mod
    # each image is s*x^f with s = +-1, and a term c*x^e maps to
    # c * prod(s_i^e_i) * x^(sum e_i*f_i), the key sum e_i*f_i
    out = {}
    bound = 0
    for key, c in p.terms.items():
        image = memo.get(key)
        if image is None:
            exps = _unpack(key, arity)
            k = b = flip = 0
            for e, (f, s, fb) in zip(exps, units):
                if e:
                    k += e * f
                    b += abs(e) * fb
                    if s < 0:
                        flip ^= e & 1
            if b > EXP_MAX:
                b, k = _checked_image(exps, units, target.arity)
            image = memo[key] = (k, flip, b)
        k, flip, b = image
        if flip:
            c = -c
        if b > bound:
            bound = b
        s = out.get(k, 0) + c
        if s:
            out[k] = s
        else:
            del out[k]
    return LaurentPoly._raw(target, out, bound)


def _unit_images(ctx, imgs, target):
    """The images checked: ints mod p into a PrimeField, else (key, sign, bound)."""
    units = []
    if isinstance(target, PrimeField):
        mod = target.p
        for v, img in zip(ctx.variables, imgs):
            if not isinstance(img, int):
                raise ContextMismatch("image of %s is not in %r" % (v, target))
            if not img % mod:
                raise NotAUnit("image of %s is not a unit: %d (mod %d)" % (v, img, mod))
            units.append(img % mod)
        return units
    for v, img in zip(ctx.variables, imgs):
        if isinstance(img, int):
            img = target.const(img)
        if getattr(img, "ctx", None) != target:
            raise ContextMismatch("image of %s is not in %r" % (v, target))
        if not img.is_unit():
            raise NotAUnit("image of %s is not a unit: %r" % (v, img))
        ((f, s),) = img.terms.items()
        units.append((f, s, img._bound))
    return units


def _checked_image(exps, units, arity):
    """(largest absolute exponent, key) of the monomial prod(x^(exps[i]*f_i)).

    The exact, slow form of the key arithmetic in `specialize`, used when
    its bound cannot rule out an exponent outside the range.
    """
    image = [0] * arity
    for e, (f, _, _) in zip(exps, units):
        for j, g in enumerate(_unpack(f, arity)):
            image[j] += e * g
    return max(map(abs, image), default=0), _pack(image)


def poly_render(p):
    """Canonical text form, parseable back to an equal polynomial.

    Terms are ordered lexicographically by exponent vector, which is the
    order of their keys; variables inside a monomial are printed in
    alphabetical order.
    """
    return _render_polys((p,), p.ctx)[0]


def _render_polys(polys, ctx):
    """`poly_render` of each polynomial of `ctx`, each key's factors printed once."""
    names = ctx.variables
    arity = len(names)
    order = sorted(range(arity), key=names.__getitem__)
    factors = {}
    texts = []
    for p in polys:
        if not p.terms:
            texts.append("0")
            continue
        pieces = []
        for key in sorted(p.terms):
            c = p.terms[key]
            text = factors.get(key)
            if text is None:
                e = _unpack(key, arity)
                text = factors[key] = "*".join(
                    names[i] if e[i] == 1 else "%s^%d" % (names[i], e[i]) for i in order if e[i])
            mag = abs(c)
            if pieces:
                pieces.append(" - " if c < 0 else " + ")
            elif c < 0:
                pieces.append("-")
            if not text:
                pieces.append(str(mag))
            elif mag == 1:
                pieces.append(text)
            else:
                pieces.append(str(mag) + "*" + text)
        texts.append("".join(pieces))
    return texts


def _tokenize(text):
    pos = 0
    out = []
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if not m:
            if text[pos:].strip():
                raise PolyParseError("bad token at offset %d in %r" % (pos, text))
            break
        pos = m.end()
        if m.group(1):
            try:
                out.append(("int", int(m.group(1))))
            except ValueError:
                # longer than the interpreter's limit on integer conversion
                raise PolyParseError("integer literal of %d digits at offset %d is too long"
                                     % (len(m.group(1)), m.start(1))) from None
        elif m.group(2):
            out.append(("name", m.group(2)))
        elif m.group(3):
            out.append(("pow", None))
        elif m.group(4):
            out.append(("mul", None))
        elif m.group(5):
            out.append(("plus", None))
        else:
            out.append(("minus", None))
    return out


def _parse_poly(ctx, text):
    tokens = _tokenize(text)
    if not tokens:
        raise PolyParseError("empty polynomial text")
    result = ctx.zero()
    i = 0
    n = len(tokens)
    first = True
    while i < n:
        sign = 1
        while i < n and tokens[i][0] in ("plus", "minus"):
            if tokens[i][0] == "minus":
                sign = -sign
            i += 1
            first = False
        if i >= n:
            raise PolyParseError("dangling sign in %r" % text)
        if not first and tokens[i][0] not in ("int", "name"):
            raise PolyParseError("expected term in %r" % text)
        # a factor follows '*' or is juxtaposed: "2t" is 2*t, "t t" is t^2
        coeff = 1
        exps = [0] * ctx.arity
        expect_factor = True
        while i < n:
            kind, val = tokens[i]
            if kind == "int":
                coeff *= val
                i += 1
            elif kind == "name":
                idx = ctx.index(val)
                power = 1
                i += 1
                if i < n and tokens[i][0] == "pow":
                    i += 1
                    psign = 1
                    if i < n and tokens[i][0] == "minus":
                        psign = -1
                        i += 1
                    if i >= n or tokens[i][0] != "int":
                        raise PolyParseError("bad exponent in %r" % text)
                    power = psign * tokens[i][1]
                    i += 1
                exps[idx] += power
            elif kind == "mul":
                if expect_factor:
                    raise PolyParseError("'*' without a factor before it in %r" % text)
                expect_factor = True
                i += 1
                continue
            else:
                break
            expect_factor = False
        if expect_factor:
            raise PolyParseError("dangling '*' in %r" % text)
        try:
            result = result + ctx.monomial(exps, sign * coeff)
        except OverflowError as exc:
            raise PolyParseError("%s in %r" % (exc, text))
        first = False
    return result
