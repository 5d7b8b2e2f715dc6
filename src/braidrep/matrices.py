"""Dense matrices over a Laurent ring, plus permutations.

The `ring` of a matrix is a RingContext and its entries are LaurentPoly
values of that context.  Matrices are immutable and all operations
return fresh values.
"""
from __future__ import annotations

from .ring import (EXP_MAX, ContextMismatch, LaurentPoly, NotAUnit,
                   _product_bound, _render_polys, _row_products, specialize)


class ShapeMismatch(ValueError):
    """Matrix shapes are incompatible for the requested operation."""


class Permutation:
    """A bijection of {0, ..., n-1}, stored as the tuple of images."""

    __slots__ = ("img",)

    def __init__(self, images):
        img = tuple(int(i) for i in images)
        if sorted(img) != list(range(len(img))):
            raise ValueError("not a bijection: %r" % (img,))
        self.img = img

    @classmethod
    def identity(cls, n):
        return cls(range(n))

    @property
    def size(self):
        return len(self.img)

    def __call__(self, j):
        return self.img[j]

    def __mul__(self, other):
        """(p * q)(j) = p(q(j))."""
        if self.size != other.size:
            raise ValueError("size mismatch")
        return Permutation(self.img[other.img[j]] for j in range(self.size))

    def inverse(self):
        inv = [0] * self.size
        for j, i in enumerate(self.img):
            inv[i] = j
        return Permutation(inv)

    def is_identity(self):
        return self.img == tuple(range(self.size))

    def __eq__(self, other):
        return isinstance(other, Permutation) and self.img == other.img

    def __hash__(self):
        return hash(self.img)

    def __repr__(self):
        return "Permutation(%r)" % (self.img,)


class RingMatrix:
    """Row-major dense matrix over a single ring context."""

    __slots__ = ("ring", "rows", "cols", "entries", "_plan")

    def __init__(self, ring, rows, cols, entries):
        entries = tuple(entries)
        if len(entries) != rows * cols:
            raise ShapeMismatch("expected %d entries, got %d" % (rows * cols, len(entries)))
        self.ring = ring
        self.rows = rows
        self.cols = cols
        self.entries = entries
        self._plan = None

    @classmethod
    def from_rows(cls, ring, rows):
        rows = [list(r) for r in rows]
        ncols = len(rows[0]) if rows else 0
        if any(len(r) != ncols for r in rows):
            raise ShapeMismatch("ragged rows")
        flat = []
        for r in rows:
            for e in r:
                flat.append(ring.const(e) if isinstance(e, int) else e)
        return cls(ring, len(rows), ncols, flat)

    @classmethod
    def identity(cls, ring, n):
        one, zero = ring.one(), ring.zero()
        return cls(ring, n, n, [one if i == j else zero for i in range(n) for j in range(n)])

    @classmethod
    def zeros(cls, ring, rows, cols):
        zero = ring.zero()
        return cls(ring, rows, cols, [zero] * (rows * cols))

    @classmethod
    def from_entries_dict(cls, ring, n, entries):
        """Square matrix from {(i, j): scalar} with zeros elsewhere (0-based)."""
        zero = ring.zero()
        flat = [zero] * (n * n)
        for (i, j), v in entries.items():
            flat[i * n + j] = ring.const(v) if isinstance(v, int) else v
        return cls(ring, n, n, flat)

    def __getitem__(self, ij):
        i, j = ij
        return self.entries[i * self.cols + j]

    def row(self, i):
        return self.entries[i * self.cols:(i + 1) * self.cols]

    def is_square(self):
        return self.rows == self.cols

    def is_identity(self):
        if not self.is_square():
            return False
        for i in range(self.rows):
            for j in range(self.cols):
                e = self[i, j]
                if i == j:
                    if not e.is_one():
                        return False
                elif not e.is_zero():
                    return False
        return True

    def __eq__(self, other):
        return (
            isinstance(other, RingMatrix)
            and self.ring == other.ring
            and self.rows == other.rows
            and self.cols == other.cols
            and self.entries == other.entries
        )

    def __hash__(self):
        return hash((self.rows, self.cols, self.entries))

    def __mul__(self, other):
        if not isinstance(other, RingMatrix):
            return NotImplemented
        if self.cols != other.rows:
            raise ShapeMismatch("%dx%d times %dx%d" % (self.rows, self.cols, other.rows, other.cols))
        if self.ring != other.ring:
            raise ContextMismatch("matrices over different rings")
        copies, shifts, scols, srows, sbrows, sbound = other._column_plan()
        ctx = self.ring
        n, m, l = self.rows, self.cols, other.cols
        raw = LaurentPoly._raw
        zeros = [ctx.zero()] * l
        flat = []
        for i in range(n):
            arow = self.entries[i * m:(i + 1) * m]
            out = zeros[:]
            for k, j in copies:
                out[k] = arow[j]
            for k, j, b, kb, cb in shifts:
                a = arow[j]
                if a.terms:
                    bound = a._bound + b._bound
                    if bound > EXP_MAX:
                        bound = _product_bound(a, b)
                    out[k] = raw(ctx, {ka + kb: ca * cb for ka, ca in a.terms.items()}, bound)
            if scols:
                # one exponent bound for the sum columns of this row
                bound = max(arow[j]._bound for j in srows) + sbound
                if bound > EXP_MAX:
                    bound = max(_product_bound(arow[j], other.entries[j * l + k])
                                for j in srows for k in scols)
                prods = _row_products([arow[j].terms for j in srows], sbrows, len(scols))
                for k, d in zip(scols, prods):
                    if d:
                        out[k] = raw(ctx, d, bound)
            flat.extend(out)
        return RingMatrix(ctx, n, l, flat)

    def _column_plan(self):
        """How each column of this matrix is read as the right factor of a product.

        Built on first use and kept.  A column with no nonzero entry gives
        a zero column.  A column whose lone nonzero entry is 1, at row j,
        shares column j of the left factor: (k, j) in `copies`.  A column
        whose lone nonzero entry b, at row j, is the single term cb * (the
        monomial of key kb) adds kb to every key of column j:
        (k, j, b, kb, cb) in `shifts`.  The other columns, listed in
        `scols`, are sums: `srows` lists the rows j with a nonzero entry in
        one of them, `sbrows` holds [(position in scols, term map)] for
        each such row, and `sbound` is the largest exponent bound of those
        entries.
        """
        if self._plan is None:
            l = self.cols
            copies, shifts, scols = [], [], []
            sbrows = [[] for _ in range(self.rows)]
            sbound = 0
            for k in range(l):
                col = [(j, b) for j, b in enumerate(self.entries[k::l]) if b.terms]
                if len(col) == 1 and len(col[0][1].terms) == 1:
                    j, b = col[0]
                    if b.is_one():
                        copies.append((k, j))
                    else:
                        ((kb, cb),) = b.terms.items()
                        shifts.append((k, j, b, kb, cb))
                elif col:
                    for j, b in col:
                        sbrows[j].append((len(scols), b.terms))
                        sbound = max(sbound, b._bound)
                    scols.append(k)
            srows = [j for j, brow in enumerate(sbrows) if brow]
            sbrows = [sbrows[j] for j in srows]
            self._plan = (copies, shifts, scols, srows, sbrows, sbound)
        return self._plan

    def __add__(self, other):
        if not isinstance(other, RingMatrix):
            return NotImplemented
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ShapeMismatch("shape mismatch in add")
        return RingMatrix(self.ring, self.rows, self.cols,
                          [a + b for a, b in zip(self.entries, other.entries)])

    def __sub__(self, other):
        if not isinstance(other, RingMatrix):
            return NotImplemented
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ShapeMismatch("shape mismatch in sub")
        return RingMatrix(self.ring, self.rows, self.cols,
                          [a - b for a, b in zip(self.entries, other.entries)])

    def scale(self, s):
        return RingMatrix(self.ring, self.rows, self.cols,
                          [e if e.is_zero() else s * e for e in self.entries])

    def __pow__(self, k):
        if not self.is_square():
            raise ShapeMismatch("power of a non-square matrix")
        k = int(k)
        if k == 0:
            return RingMatrix.identity(self.ring, self.rows)
        base = self.inverse() if k < 0 else self
        # left-to-right binary powering: floor(log2 |k|) squarings and
        # popcount(|k|) - 1 further products by `base`
        result = base
        for bit in bin(abs(k))[3:]:
            result = result * result
            if bit == "1":
                result = result * base
        return result

    def is_monomial(self):
        """Exactly one nonzero unit entry per row and per column."""
        return _monomial_rows(self) is not None

    def monomial_inverse(self):
        """Inverse of a monomial matrix (unit entries, permutation support)."""
        if not self.is_square():
            raise ShapeMismatch("inverse of a non-square matrix")
        rows = _monomial_rows(self)
        if rows is None:
            raise NotAUnit("matrix is not monomial")
        n = self.rows
        ctx = self.ring
        flat = [ctx.zero()] * (n * n)
        for i, (j, key, coeff, bound) in enumerate(rows):
            flat[j * n + i] = LaurentPoly._raw(ctx, {-key: coeff}, bound)
        return RingMatrix(ctx, n, n, flat)

    def determinant(self):
        """Exact determinant, by the Faddeev-LeVerrier recurrence (see _faddeev_leverrier)."""
        return self._faddeev_leverrier()[0]

    def adjugate_inverse(self):
        """Inverse via the adjugate; requires a unit determinant."""
        det, adj = self._faddeev_leverrier()
        if not det.is_unit():
            raise NotAUnit("determinant is not a unit: %s" % det)
        return adj.scale(det.inverse())

    def _faddeev_leverrier(self):
        """(det A, adj A) for this n x n matrix A, from n matrix products.

        With A M_0 = 0 and c_n = 1, for k = 1..n: M_k = A M_{k-1} + c_{n-k+1} I
        and c_{n-k} = -tr(A M_k) / k.  The c_k are the coefficients of the
        characteristic polynomial, so they lie in Z[Lambda] and the division
        by k is exact.  By Cayley-Hamilton det A = (-1)^n c_0 and
        adj A = (-1)^(n+1) M_n.  M_k is a polynomial in A, so A M_k is
        computed as M_k A, with A's column plan built once.  Every step is a
        full product: on very sparse large matrices cofactor expansion,
        which skips zero entries, would be faster.
        """
        if not self.is_square():
            raise ShapeMismatch("determinant of a non-square matrix")
        n, ctx = self.rows, self.ring
        am = RingMatrix.zeros(ctx, n, n)
        m, c = am, ctx.one()
        for k in range(1, n + 1):
            m = RingMatrix(ctx, n, n, [e + c if i % (n + 1) == 0 else e
                                       for i, e in enumerate(am.entries)])
            am = m * self
            tr = sum(am.entries[::n + 1], ctx.zero())
            c = LaurentPoly._raw(ctx, {key: -v // k for key, v in tr.terms.items()}, tr._bound)
        return (-c, m) if n % 2 else (c, m.map_entries(LaurentPoly.__neg__))

    def inverse(self):
        if self.is_monomial():
            return self.monomial_inverse()
        return self.adjugate_inverse()

    def index_relabel(self, perm):
        """Entry (i, j) of the result is entry (perm(i), perm(j)) of self."""
        if not self.is_square():
            raise ShapeMismatch("index relabel needs a square matrix")
        n = self.rows
        return RingMatrix(self.ring, n, n,
                          [self[perm(i), perm(j)] for i in range(n) for j in range(n)])

    def variable_twist(self, perm):
        """Relabel indexed-family variables: exponent at fam_j moves to fam_{perm(j)}.

        The context must consist entirely of indexed families (u1..un, ...)
        whose index sets all equal {1..perm.size}.
        """
        ctx = self.ring
        fams = ctx.families()
        by_family = {}
        for v, (fam, idx) in fams.items():
            by_family.setdefault(fam, {})[idx] = v
        n = perm.size
        for fam, members in by_family.items():
            if set(members) != set(range(1, n + 1)):
                raise ValueError("family %r does not cover indices 1..%d" % (fam, n))
        images = {}
        for v in ctx.variables:
            fam, idx = fams[v]
            images[v] = ctx.var(by_family[fam][perm(idx - 1) + 1])
        return self.map_entries(lambda e: specialize(e, images, ctx))

    def map_entries(self, fn, ring=None):
        return RingMatrix(ring if ring is not None else self.ring,
                          self.rows, self.cols, [fn(e) for e in self.entries])

    def render(self):
        """Text form: `rows cols` header, then `;`-separated rows."""
        texts = _render_polys(self.entries, self.ring)
        lines = ["%d %d" % (self.rows, self.cols)]
        for i in range(self.rows):
            lines.append(";".join(texts[i * self.cols:(i + 1) * self.cols]))
        return "\n".join(lines)

    @classmethod
    def parse(cls, ring, text):
        lines = [ln for ln in (ln.strip() for ln in text.splitlines()) if ln]
        header = lines[0] if lines else ""
        try:
            rows, cols = (int(x) for x in header.split())
        except ValueError:
            raise ShapeMismatch("expected a 'rows cols' header, got %r" % header) from None
        if len(lines) != rows + 1:
            raise ShapeMismatch("expected %d data rows" % rows)
        flat = []
        for ln in lines[1:]:
            parts = ln.split(";")
            if len(parts) != cols:
                raise ShapeMismatch("expected %d columns" % cols)
            flat.extend(ring.parse(p) for p in parts)
        return cls(ring, rows, cols, flat)

    def __repr__(self):
        return "RingMatrix(%dx%d over %r)" % (self.rows, self.cols, self.ring)


def _monomial_rows(m):
    """The lone entry of each row of a monomial matrix, or None.

    For a square matrix with exactly one nonzero entry per row, each a unit
    (+-1 times a monomial) and no two in the same column, returns one
    (column, key, coeff, bound) per row: the entry is coeff * (the monomial
    of `key`) and `bound` is its exponent bound.  Returns None for every
    other matrix.
    """
    if not m.is_square():
        return None
    out = []
    seen = set()
    for i in range(m.rows):
        nz = [(j, e) for j, e in enumerate(m.row(i)) if e.terms]
        if len(nz) != 1:
            return None
        j, e = nz[0]
        if j in seen or not e.is_unit():
            return None
        seen.add(j)
        ((key, coeff),) = e.terms.items()
        out.append((j, key, coeff, e._bound))
    return out


def direct_sum(blocks, ring=None):
    """Block-diagonal assembly; `ring` is required for an empty sequence."""
    blocks = list(blocks)
    if not blocks:
        if ring is None:
            raise ValueError("empty direct sum needs an explicit ring")
        return RingMatrix(ring, 0, 0, [])
    ring = blocks[0].ring
    rows = sum(b.rows for b in blocks)
    cols = sum(b.cols for b in blocks)
    out = RingMatrix.zeros(ring, rows, cols)
    flat = list(out.entries)
    r0 = c0 = 0
    for b in blocks:
        if b.ring != ring:
            raise ContextMismatch("direct sum over mixed rings")
        for i in range(b.rows):
            for j in range(b.cols):
                flat[(r0 + i) * cols + (c0 + j)] = b[i, j]
        r0 += b.rows
        c0 += b.cols
    return RingMatrix(ring, rows, cols, flat)
