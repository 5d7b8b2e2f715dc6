"""Dense matrices over a Laurent ring, plus permutations.

The `ring` of a matrix is a RingContext and its entries are LaurentPoly
values of that context.  Matrices are immutable and all operations
return fresh values.
"""
from __future__ import annotations

from .ring import (EXP_MAX, ContextMismatch, LaurentPoly, NotAUnit,
                   PolyParseError, _product_bound, _render_polys, _row_products, specialize)


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
        return _column_chain([self, other])

    def _column_plan(self):
        """This matrix's _ColumnPlan, built on first use and kept."""
        if self._plan is None:
            self._plan = _ColumnPlan(self)
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
        img, e = perm.img, self.entries
        return RingMatrix(self.ring, n, n, [e[i * n + j] for i in img for j in img])

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
        """Read `render` text; a malformed header or row shape is a
        ShapeMismatch, an entry `ring.parse` refuses a PolyParseError that
        names its 1-based row and column."""
        lines = [ln for ln in (ln.strip() for ln in text.splitlines()) if ln]
        header = lines[0] if lines else ""
        try:
            rows, cols = (int(x) for x in header.split())
        except ValueError:
            raise ShapeMismatch("expected a 'rows cols' header, got %r" % header) from None
        if len(lines) != rows + 1:
            raise ShapeMismatch("expected %d data rows" % rows)
        flat = []
        for r, ln in enumerate(lines[1:], 1):
            parts = ln.split(";")
            if len(parts) != cols:
                raise ShapeMismatch("expected %d columns" % cols)
            for c, part in enumerate(parts, 1):
                try:
                    flat.append(ring.parse(part))
                except (PolyParseError, KeyError) as exc:
                    raise PolyParseError("row %d column %d: %s" % (r, c, exc.args[0])) from None
        return cls(ring, rows, cols, flat)

    def __repr__(self):
        return "RingMatrix(%dx%d over %r)" % (self.rows, self.cols, self.ring)


class _ColumnPlan:
    """How a matrix is read in a product, from one scan.

    `columns[k]` lists (row j, polynomial) for the nonzero entries of
    column k.  Each nonzero column is also filed by kind.  A column whose
    lone nonzero entry is 1, at row j, is (k, j) in `copies`: it repeats
    column j of the left factor.  A column whose lone nonzero entry b, at
    row j, is the single term cb * (the monomial of key kb) is
    (k, j, b, kb, cb) in `shifts`: it adds kb to every key of column j.
    Every other nonzero column is a sum, (k, its entries) in `sums`.
    `bound` is the largest exponent bound of the shift and sum entries.
    """

    __slots__ = ("columns", "copies", "shifts", "sums", "bound")

    def __init__(self, m):
        l = m.cols
        columns = [[] for _ in range(l)]
        for i, b in enumerate(m.entries):
            if b.terms:
                columns[i % l].append((i // l, b))
        copies, shifts, sums = [], [], []
        bound = 0
        for k, col in enumerate(columns):
            if len(col) == 1 and len(col[0][1].terms) == 1:
                j, b = col[0]
                if b.is_one():
                    copies.append((k, j))
                    continue
                ((kb, cb),) = b.terms.items()
                shifts.append((k, j, b, kb, cb))
            elif col:
                sums.append((k, col))
            for _, b in col:
                if b._bound > bound:
                    bound = b._bound
        self.columns, self.copies, self.shifts, self.sums = columns, copies, shifts, sums
        self.bound = bound


def _column_chain(factors):
    """The product of two or more matrices, carried as a list of sparse columns.

    Column k of the running product lists (row, polynomial) for its nonzero
    entries, as _ColumnPlan.columns does, and one exponent bound covers
    them all.  The chain starts from the first factor's plan columns.  Each
    further factor is read through its plan: a copy column reuses a column
    of the running product (the same list, so the same polynomials), a
    shift column shifts the keys of one, and a sum column is the running
    product times that column by _row_products, with the column's entries
    as the row vector.  The product becomes a RingMatrix once, at the end.
    RingMatrix.__mul__ is this chain on two factors.  An exponent past
    EXP_MAX raises OverflowError where the LaurentPoly products would.
    """
    first = factors[0]
    ctx, rows = first.ring, first.rows
    raw = LaurentPoly._raw
    plan = first._column_plan()
    cols, bound = plan.columns, plan.bound
    for m in factors[1:]:
        if len(cols) != m.rows:
            raise ShapeMismatch("%dx%d times %dx%d" % (rows, len(cols), m.rows, m.cols))
        if m.ring != ctx:
            raise ContextMismatch("matrices over different rings")
        plan = m._column_plan()
        new = [()] * m.cols
        for k, j in plan.copies:
            new[k] = cols[j]
        bound += plan.bound
        if bound > EXP_MAX:
            # the exact bound of every product this factor makes, or OverflowError
            bound = max([bound - plan.bound]
                        + [_product_bound(a, b) for _, j, b, _, _ in plan.shifts for _, a in cols[j]]
                        + [_product_bound(a, b) for _, col in plan.sums
                           for j, b in col for _, a in cols[j]])
        for k, j, b, kb, cb in plan.shifts:
            new[k] = [(r, raw(ctx, {ka + kb: ca * cb for ka, ca in a.terms.items()}, bound))
                      for r, a in cols[j]]
        for k, col in plan.sums:
            prods = _row_products([b.terms for _, b in col], [cols[j] for j, _ in col], rows)
            new[k] = [(r, raw(ctx, d, bound)) for r, d in enumerate(prods) if d]
        cols = new
    l = len(cols)
    flat = [ctx.zero()] * (rows * l)
    for k, col in enumerate(cols):
        for r, a in col:
            flat[r * l + k] = a
    return RingMatrix(ctx, rows, l, flat)


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
