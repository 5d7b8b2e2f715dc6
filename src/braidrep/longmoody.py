"""The Long-Moody construction and the experiments built on top of it."""
from __future__ import annotations

import random

import numpy as np

from .matrices import Permutation, RingMatrix, direct_sum
from .reps import GenRep, make_burau, make_one_dim, make_tym, tensor_one_dim
from .ring import PrimeField, RingContext, specialize
from .words import (BraidWord, FreeWord, artin_action, chi, commutator,
                    fox_derivative)


def _from_blocks(ring, d, n, blocks):
    """The n*d square matrix with d x d blocks {(j, k): block} (0-based), zero elsewhere."""
    size = n * d
    flat = [ring.zero()] * (size * size)
    for (j, k), b in blocks.items():
        for r in range(d):
            at = (j * d + r) * size + k * d
            flat[at:at + d] = b.row(r)
    return RingMatrix(ring, size, size, flat)


def _assemble(eta, name):
    """The Long-Moody construction on eta, a representation of F_n x| B_n,
    of dimension n*d.

    Block (j, k) of the image of a letter lam is
    eta_x(D_j a(lam)(x_k)) * eta(lam), the sum of c * eta(w lam) over the
    terms c * w of the Fox derivative of the Artin image: one column chain
    per term, ending in the letter, so the empty word gives eta(lam)
    itself.  Only generators that occur in a(lam)(x_k) are differentiated,
    and only the nonzero entries of each chain are added in.  Every sigma
    letter of eta's table is mapped.
    """
    n, d, ring = eta.n, eta.dim, eta.ring
    size, zero = n * d, ring.zero()

    def image(letter):
        flat = [zero] * (size * size)
        for k, target in enumerate(artin_action(BraidWord(n, [letter]))):
            for j in sorted({g for g, _ in target.letters}):
                for w, c in fox_derivative(target, j).terms.items():
                    m = eta._product([("x", g, e) for g, e in w.letters] + [letter])
                    for src, e in enumerate(m.entries):
                        if e.terms:
                            r, col = divmod(src, d)
                            at = ((j - 1) * d + r) * size + k * d + col
                            e = e if c == 1 else e * c
                            e = e if flat[at] is zero else flat[at] + e
                            flat[at] = e if e.terms else zero
        return RingMatrix(ring, size, size, flat)

    images = {lt: image(lt) for lt in eta.images if lt[0] == "s"}
    return GenRep(n, n * d, ring, images, name=name)


def _semidirect_pair(rho):
    """The rep of F_n x| B_n given by sigma_i -> rho(sigma_{i+1}), x_j -> rho(chi(x_j))."""
    n = rho.n - 1
    images = {("s", i, e): rho.images[("s", i + 1, e)] for i in range(1, n) for e in (1, -1)}
    for j in range(1, n + 1):
        w = chi(FreeWord.gen(n, j))
        images[("x", j, 1)] = rho.evaluate(w)
        images[("x", j, -1)] = rho.evaluate(w.inverse())
    return GenRep(n, rho.dim, rho.ring, images, name=rho.name)


def lm_apply(rho):
    """Turn a representation of B_{n+1} into one of B_n of dimension n*d.

    This is the semidirect construction on sigma_i -> rho(sigma_{i+1}),
    x_j -> rho(chi(x_j)).  The underlying space is indexed by pairs
    (j, k): j picks a free-group generator, k a coordinate of rho.
    """
    if rho.n < 3:
        raise ValueError("source representation must have at least 3 strands")
    return _assemble(_semidirect_pair(rho), "lm(%s)" % rho.name)


def lm_q(rho):
    """The q-twisted Long-Moody construction: q^{-1} * lm(q tensor rho).

    The q of the braid images cancels against the q^{-1}, so this is the
    construction on the pair of lm_apply with the x images scaled by q^2
    (chi(x_j) has exponent sum 2).
    """
    ring = rho.ring
    if "q" not in ring.variables:
        raise ValueError("ring context must contain q")
    if rho.n < 3:
        raise ValueError("source representation must have at least 3 strands")
    q = ring.var("q")
    return _assemble(tensor_one_dim(_semidirect_pair(rho), q * q, "x"),
                     "lm_q(%s)" % rho.name)


def make_eta(n, ctx=None):
    """The semidirect representation with sigma_i -> TYM and x_i -> q Diag(1,..,t,..,1)."""
    ring = ctx if ctx is not None else RingContext(("t", "q"))
    images = make_tym(n, ring).images
    q, t = ring.var("q"), ring.var("t")
    for j in range(1, n + 1):
        diag = {(k, k): (q * t if k == j - 1 else q) for k in range(n)}
        images[("x", j, 1)] = RingMatrix.from_entries_dict(ring, n, diag)
        images[("x", j, -1)] = images[("x", j, 1)].monomial_inverse()
    return GenRep(n, n, ring, images, name="eta%d" % n)


def check_semidirect(eta):
    """Pairs (i, j) where sigma_i * x_j = x(a(sigma_i)(x_j)) * sigma_i fails.

    This is the relation that makes the construction on eta well defined.
    """
    n = eta.n
    bad = []
    for i in range(1, n):
        s = eta.images[("s", i, 1)]
        for j, twisted in enumerate(artin_action(BraidWord.sigma(n, i)), 1):
            x = eta._product([("x", k, e) for k, e in twisted.letters])
            if s * eta.images[("x", j, 1)] != x * s:
                bad.append((i, j))
    return bad


def lm_semidirect(eta, q_twist=False):
    """Long-Moody construction from a semidirect representation.

    With q_twist the sigma and x images are first scaled by q and the
    result by q^{-1}, the same normalization as lm_q.  The two scalings of
    the braid images cancel, so only the x images are scaled.
    """
    name = "lm_sd(%s%s)" % (eta.name, ",q" if q_twist else "")
    if q_twist:
        eta = tensor_one_dim(eta, eta.ring.var("q"), "x")
    return _assemble(eta, name)


def reduced_lm3():
    """The six-dimensional reduction of the nine-dimensional construction on B_3."""
    ring = RingContext(("t", "q"))
    t, q = ring.var("t"), ring.var("q")
    q2 = q * q
    rows1 = [
        [0, -q2, 0, 0, 0, 0],
        [-q2 * t * t, 0, 0, 0, 0, 0],
        [0, 0, -q2, 0, 0, 0],
        [0, 1, 0, 0, 1, 0],
        [t, 0, 0, t, 0, 0],
        [0, 0, 1, 0, 0, 1],
    ]
    rows2 = [
        [1, 0, 0, q2, 0, 0],
        [0, 0, 1, 0, 0, q2],
        [0, t, 0, 0, q2 * t * t, 0],
        [0, 0, 0, -q2, 0, 0],
        [0, 0, 0, 0, 0, -q2],
        [0, 0, 0, 0, -q2 * t * t, 0],
    ]
    m1 = RingMatrix.from_rows(ring, rows1)
    m2 = RingMatrix.from_rows(ring, rows2)
    images = {("s", 1, 1): m1, ("s", 2, 1): m2,
              ("s", 1, -1): m1.inverse(), ("s", 2, -1): m2.inverse()}
    return GenRep(3, 6, ring, images, name="reduced_lm3")


def decompose_block_permutation(n):
    """Order that lists the (j, 1) coordinates first, then the rest."""
    d = n + 1
    first = [j * d for j in range(n)]
    rest = [i for i in range(n * d) if i % d != 0]
    return Permutation(first + rest)


def decompose_check(n):
    """Split lm_q(TYM_{n+1}) into a Burau block and a semidirect block."""
    ring = RingContext(("t", "q"))
    lm = lm_q(make_tym(n + 1, ring))
    q, t = ring.var("q"), ring.var("t")
    bur = make_burau(n, q * q * t)
    sd = lm_semidirect(make_eta(n, ring), q_twist=True)
    perm = decompose_block_permutation(n)
    gens = {}
    for i in range(1, n):
        want = direct_sum([bur.images[("s", i, 1)], sd.images[("s", i, 1)]], ring=ring)
        gens[i] = lm.images[("s", i, 1)].index_relabel(perm) == want
    return {"n": n, "blocks": (n, n * n), "generators": gens, "ok": all(gens.values())}


def identify_trivial_burau(n):
    """Whether lm_q of the trivial one-dimensional rep is Burau at q^2.

    The base change is the identity: in the basis used here the two
    representations have equal images.
    """
    ring = RingContext(("t", "q"))
    lm = lm_q(make_one_dim(n + 1, ring.one()))
    q = ring.var("q")
    bur = make_burau(n, q * q)
    return lm.images == bur.images


def block_formula_lm_q_tym(n, i):
    """Closed form for lm_q(TYM_{n+1})(sigma_i) used as an independent check.

    The image is a block matrix over d = n + 1: identity blocks off the
    i, i+1 rows, the 2x2 insert [[0, M_i], [I, I - N_i]] there, all
    multiplied by the block diagonal matrix of TYM_{n+1}(sigma_{i+1}).
    """
    ring = RingContext(("t", "q"))
    t, q = ring.var("t"), ring.var("q")
    q2 = q * q
    d = n + 1
    tym = make_tym(n + 1, ring)
    sfac = tym.images[("s", i + 1, 1)]
    mi = RingMatrix.from_entries_dict(
        ring, d, {(k, k): (q2 * t if k in (0, i + 1) else q2) for k in range(d)})
    ni = RingMatrix.from_entries_dict(
        ring, d, {(k, k): (q2 * t if k in (0, i) else q2) for k in range(d)})
    ident = RingMatrix.identity(ring, d)
    blocks = {(j, j): ident for j in range(n) if j not in (i - 1, i)}
    blocks.update({(i - 1, i): mi, (i, i - 1): ident, (i, i): ident - ni})
    left = _from_blocks(ring, d, n, blocks)
    right = direct_sum([sfac] * n, ring=ring)
    return left * right


def _field_dtype(terms, p):
    """int64 while a sum of `terms` products of residues, at most terms*(p-1)^2,
    stays below 2^63; exact Python integers (object) above."""
    return np.int64 if terms * (p - 1) ** 2 < 2 ** 63 else object


class _ImagesModP:
    """Every letter image of a representation at a unit point mod p.

    Only the nonzero entries of each image, read from the columns of its
    product plan (matrices._ColumnPlan), are specialised.  An image is
    kept in column-gather form: `idx` and `coef`, both w x d, where w is the
    largest number of nonzero entries in a column of that image; column k
    holds coef[s, k] at row idx[s, k], shorter columns padded with
    coefficient 0.  So `block @ image` is the sum over s of
    block[:, idx[s]] * coef[s], reduced mod p once, and its arithmetic is
    on int64 while w*(p-1)^2 stays below 2^63 (w the largest column weight
    of all the images), on exact Python integers above.

    Each pair of letters (kind, i, 1) and (kind, i, -1) in the table, sigma
    and x alike, is checked mod p: ValueError if their product is not I.
    """

    __slots__ = ("rep", "p", "point", "dim", "dtype", "images")

    def __init__(self, rep, field, point):
        self.rep = rep
        p = self.p = field.p
        self.point = point
        d = self.dim = rep.dim
        cols = {lt: m._column_plan().columns for lt, m in rep.images.items()}
        self.dtype = _field_dtype(max((len(c) for cs in cols.values() for c in cs), default=0), p)
        self.images = {}
        for lt, cs in cols.items():
            w = max(map(len, cs), default=0)
            idx = np.zeros((w, d), dtype=np.intp)
            coef = np.zeros((w, d), dtype=self.dtype)
            for k, col in enumerate(cs):
                for s, (j, e) in enumerate(col):
                    idx[s, k] = j
                    coef[s, k] = specialize(e, point, field)
            self.images[lt] = (idx, coef)
        eye = self.identity()
        for lt in self.images:
            inv = lt[:2] + (-1,)
            if (lt[2:] == (1,) and inv in self.images
                    and not np.array_equal(self.mul(self.mul(eye, lt), inv), eye)):
                raise ValueError("inverse image of %s_%d in %s is not its inverse mod %d"
                                 % ("sigma" if lt[0] == "s" else lt[0], lt[1],
                                    rep.name or "the representation", p))

    def identity(self):
        return np.eye(self.dim, dtype=self.dtype)

    def mul(self, block, letter):
        """block @ (the image of `letter`) mod p, for a block of residues with d
        columns; an int64 block needs `dtype` int64, as it is scaled in place.

        In place, because on the probe's tall blocks two fresh temporaries
        take about twice as long.
        """
        idx, coef = self.images[letter]
        out = block[:, idx]
        out *= coef
        out = out.sum(axis=1)
        out %= self.p
        return out

    def product(self, letters):
        """The product of the letters' images mod p, I for no letters."""
        out = self.identity()
        for lt in letters:
            out = self.mul(out, lt)
        return out


class _EchelonBasis:
    """A subspace of F_p^n in reduced row echelon form.

    `rows` is a k x n array with entries in 0..p-1 whose columns `pivots`
    are the k x k identity.  Reducing a vector against it sums up to n
    products of residues, so the dtype is _field_dtype(n, p).
    """

    __slots__ = ("p", "rows", "pivots")

    def __init__(self, p, n):
        self.p = p
        self.rows = np.zeros((0, n), dtype=_field_dtype(n, p))
        self.pivots = []

    def dim(self):
        return len(self.pivots)

    def add(self, block):
        """Add the span of `block`'s rows, entries in 0..p-1; return the rows it adds.

        The block is reduced in place against the basis with one product.
        Each nonzero row left is reduced against the rows this call has
        already added, which stay in reduced echelon form among themselves;
        then one product reduces the old rows against the new ones.
        """
        p = self.p
        k, n = self.rows.shape
        red = block[:, self.pivots] @ self.rows
        red %= p
        block -= red
        block %= p
        block = block[block.any(axis=1)]
        new = np.zeros((min(len(block), n - k), n), dtype=self.rows.dtype)
        piv = []
        for v in block:
            m = len(piv)
            if m:
                v = v - (v[piv] @ new[:m]) % p
                v %= p
            nz = np.flatnonzero(v)
            if len(nz) == 0:
                continue
            c = int(nz[0])
            v = (v * pow(int(v[c]), -1, p)) % p
            new[:m] -= np.outer(new[:m, c], v)
            new[:m] %= p
            new[m] = v
            piv.append(c)
        new = new[:len(piv)].copy()
        if piv:
            self.rows -= self.rows[:, piv] @ new
            self.rows %= p
            self.rows = np.concatenate((self.rows, new))
            self.pivots += piv
        return new


def irreducibility_probe(rep, p=10007, trials=5, seed=0):
    """Burnside span probe at random prime-field specializations.

    A trial specializes every variable to a random nonzero value mod p and
    closes the span of words in the generator images under multiplication:
    the identity first, then one frontier of new basis vectors at a time,
    each multiplied by every generator.  The generators are the letters of
    the representation's table other than the (kind, i, -1) ones.  Their
    inverse images are specialized too and checked mod p (ValueError if
    some g * g_inv is not I), and need no closing: over F_p an invertible g
    is a polynomial in g by Cayley-Hamilton, so g^-1 lies in any span
    closed under g.  Reaching dimension d*d in any trial certifies that no
    proper invariant subspace can exist generically; with no generator the
    span is that of I.  `p` must be prime and `trials` at least 1
    (ValueError otherwise).  Reducing a vector of length d*d sums up to
    d*d products of residues, so the span is kept on int64 while
    d*d*(p-1)^2 stays below 2^63, and on exact Python integers above; each
    product by a generator sums only w of them, w the largest column
    weight of the images (see _ImagesModP).
    """
    if trials < 1:
        raise ValueError("trials must be at least 1, got %d" % trials)
    field = PrimeField(p)
    rng = random.Random(seed)
    d = rep.dim
    n = d * d
    dtype = _field_dtype(n, p)
    best = 0
    gens = [lt for lt in rep.images if lt[2:] != (-1,)]
    for trial in range(1, trials + 1):
        values = {v: rng.randrange(1, p) for v in rep.ring.variables}
        images = _ImagesModP(rep, field, values)
        basis = _EchelonBasis(p, n)
        frontier = basis.add(np.eye(d, dtype=dtype).reshape(1, n))
        while len(frontier) and basis.dim() < n:
            added = [frontier[:0]]
            for lt in gens:
                block = images.mul(frontier.reshape(-1, d), lt)
                added.append(basis.add(block.reshape(-1, n)))
                if basis.dim() == n:
                    break
            frontier = np.concatenate(added)
        best = max(best, basis.dim())
        if best == n:
            return {"dimension": best, "full": True, "trials_used": trial}
    return {"dimension": best, "full": False, "trials_used": trials}


def kernel_words():
    """The four commutator words of the kernel experiment, keyed by name."""
    def b(n, *ks):
        letters = []
        for k in ks:
            letters.append(("s", abs(k), 1 if k > 0 else -1))
        return BraidWord(n, letters)

    psi1 = b(5, -3, 2, 1, 1, 2, 4, 4, 4, 3, 2)
    psi2 = b(5, -4, 3, 2, -1, -1, 2, 1, 1, 2, 2, 1, 4, 4, 4, 4, 4)
    mid = b(5, 4, 3, 2, 1, 1, 2, 3, 4)
    sigma = commutator(psi1.inverse() * b(5, 4) * psi1,
                       psi2.inverse() * mid * psi2)

    delta1 = b(6, 4, -5, -2, 1)
    delta2 = b(6, -4, 5, 5, 2, -1, -1)
    theta = b(6, -5, -4, 5, -3, 4, -2, -3, -3, -3, 1, 1, 1, 5, 4, -3, -2, 1)
    tau = commutator(delta1.inverse() * b(6, 3) * delta1,
                     delta2.inverse() * b(6, 3) * delta2)
    xi = commutator(theta.inverse() * b(6, 5) * theta,
                    b(6, 2, 3, 4, 5) ** 5)

    theta7 = theta.shift(1)
    upsilon = commutator(b(7, 1), theta7.inverse() * b(7, 6) * theta7)
    return {"sigma": sigma, "tau": tau, "xi": xi, "upsilon": upsilon}


# The witness prime 2^28 + 3: the products of _identity_verdict stay on
# int64 while w*(p-1)^2 < 2^63, w the column weight of the images (up to 127).
WITNESS_PRIME = 268435459


def _witness_images(rep):
    """Every letter image of `rep` at the fixed witness point mod WITNESS_PRIME."""
    rng = random.Random(0)  # a fixed point, so reports repeat exactly
    point = {v: rng.randrange(2, WITNESS_PRIME - 1) for v in rep.ring.variables}
    return _ImagesModP(rep, PrimeField(WITNESS_PRIME), point)


def _identity_verdict(images, word):
    """Whether rep(word) is the identity, and how that was settled.

    Specialising every variable at a unit point mod p is a ring
    homomorphism, so a product that is not I mod p proves the exact
    product is not I; the method is then {"p": p, "point": {var: value}},
    enough to recheck it.  A product equal to I mod p may still hide a
    nonzero exact difference (its chance is at most degree/p by
    Schwartz-Zippel), so that case is settled by exact evaluation and the
    method is "exact": an identity verdict never rests on modular
    arithmetic.  `images` is `_witness_images(rep)` of the representation
    `rep` the word is checked in, built once for all its words.
    """
    if not np.array_equal(images.product(word.letters), images.identity()):
        return False, {"p": images.p, "point": images.point}
    return images.rep.evaluate(word).is_identity(), "exact"


def kernel_experiment(words=None):
    """Evaluate the kernel words in Burau, lm(TYM) and shifted lm_q(TYM).

    Returns, per word, whether each of the three images is the identity
    (keys burau_identity, lm_identity, t1lm_identity) and under "method"
    how each verdict was settled.  Every identity verdict is exact
    ("exact"); a non-identity verdict is a modular certificate
    {"p": p, "point": {var: value}}: the product of the generator images
    specialised at that point mod p is not the identity, which cannot
    happen for an identity.  A non-identity verdict is exact only when the
    modular product happens to be I.
    """
    if words is None:
        words = kernel_words()
    results = {}
    cache = {}  # per n: the witness images of each representation
    for name, w in words.items():
        n = w.n
        if n not in cache:
            tctx = RingContext(("t",))
            tqctx = RingContext(("t", "q"))
            cache[n] = [_witness_images(rep) for rep in (
                make_burau(n, tctx.var("t")),
                lm_apply(make_tym(n + 1, tctx)),
                lm_q(make_tym(n + 2, tqctx)))]
        report = {"n": n}
        method = {}
        for key, images, word in zip(
                ("burau_identity", "lm_identity", "t1lm_identity"),
                cache[n], (w, w, w.shift(1))):
            report[key], method[key] = _identity_verdict(images, word)
        report["method"] = method
        results[name] = report
    return results


def intertwining_check(rho):
    """Matrix form of the relation making lm(rho) well defined.

    For every generator sigma_i and free generator x_j:
    rho(shift(sigma_i)) rho(chi(x_j)) = rho(chi(a(sigma_i)(x_j))) rho(shift(sigma_i)),
    the check_semidirect relation of the pair lm_apply builds on.
    """
    return check_semidirect(_semidirect_pair(rho))
