"""Matrix representations of braid and welded braid groups given by generator images."""
from __future__ import annotations

from .matrices import RingMatrix, _column_chain
from .ring import RingContext
from .words import BraidWord


class GenRep:
    """A representation determined by images of the generators.

    `images` maps each letter to its RingMatrix: ("s", i, 1) and
    ("s", i, -1) for sigma_i and its inverse, ("t", i) for tau_i when the
    representation is `welded`, and for a representation of F_n x| B_n also
    ("x", j, 1) and ("x", j, -1) for the free generator x_j and its
    inverse, the letters of a FreeWord with "x" in front.  A word of two or
    more letters, monomial images or not, is evaluated as one
    matrices._column_chain of its letters' images.
    """

    __slots__ = ("n", "dim", "ring", "images", "name", "welded")

    def __init__(self, n, dim, ring, images, name="", welded=False):
        for i in range(1, n):
            if (("s", i, 1) not in images or ("s", i, -1) not in images
                    or welded and ("t", i) not in images):
                raise ValueError("missing image for generator %d" % i)
        self.n = n
        self.dim = dim
        self.ring = ring
        self.images = dict(images)
        self.name = name
        self.welded = welded

    def _by_index(self, *kind):
        """A fresh dict of the images of the letters (kind[0], i, *kind[1:]), by i."""
        return {lt[1]: m for lt, m in self.images.items() if (lt[0],) + lt[2:] == kind}

    # read-only views of `images` by generator index, each a fresh dict
    sigma_images = property(lambda self: self._by_index("s", 1))
    sigma_inv_images = property(lambda self: self._by_index("s", -1))
    tau_images = property(lambda self: self._by_index("t") if self.welded else None)

    def letter_image(self, letter):
        if letter[0] == "t" and not self.welded:
            raise ValueError("representation has no virtual generator images")
        return self.images[letter]

    def evaluate(self, word):
        if word.n != self.n:
            raise ValueError("word on %d strands, representation on %d" % (word.n, self.n))
        return self._product(word.letters)

    def _product(self, letters):
        """The product of the letters' images: I for no letters, the image
        itself for one, and a chain of sparse columns for more."""
        if not letters:
            return RingMatrix.identity(self.ring, self.dim)
        if len(letters) == 1:
            return self.letter_image(letters[0])
        return _column_chain([self.letter_image(lt) for lt in letters])

    def check_relations(self):
        """Verify the defining relations of the (welded) braid group.

        Returns a list of human-readable descriptions of violated relations;
        an empty list means the images really define a representation.
        """
        n = self.n
        bad = []
        W = lambda *ls: BraidWord(n, ls)
        s = lambda i, e=1: ("s", i, e)
        t = lambda i: ("t", i)

        def chk(label, left, right):
            if self.evaluate(left) != self.evaluate(right):
                bad.append(label)

        for i in range(1, n):
            chk("sigma_%d invertible" % i, W(s(i), s(i, -1)), W())
            for j in range(i + 2, n):
                chk("sigma_%d sigma_%d commute" % (i, j),
                    W(s(i), s(j)), W(s(j), s(i)))
        for i in range(1, n - 1):
            chk("braid relation at %d" % i,
                W(s(i), s(i + 1), s(i)), W(s(i + 1), s(i), s(i + 1)))
        if self.welded:
            for i in range(1, n):
                chk("tau_%d involution" % i, W(t(i), t(i)), W())
                for j in range(i + 2, n):
                    chk("tau_%d tau_%d commute" % (i, j),
                        W(t(i), t(j)), W(t(j), t(i)))
                    chk("sigma_%d tau_%d commute" % (i, j),
                        W(s(i), t(j)), W(t(j), s(i)))
                    chk("tau_%d sigma_%d commute" % (i, j),
                        W(t(i), s(j)), W(s(j), t(i)))
            for i in range(1, n - 1):
                chk("virtual braid relation at %d" % i,
                    W(t(i), t(i + 1), t(i)), W(t(i + 1), t(i), t(i + 1)))
                chk("mixed relation at %d" % i,
                    W(t(i), t(i + 1), s(i)), W(s(i + 1), t(i), t(i + 1)))
                chk("welded relation at %d" % i,
                    W(s(i), s(i + 1), t(i)), W(t(i + 1), s(i), s(i + 1)))
        return bad


def _block_rep(n, ring, block, block_inv, tau_block=None, name=""):
    """Build a GenRep whose generator images are identity except a 2x2 block at i, i+1."""
    def at(b, i):
        entries = {}
        for k in range(n):
            if k not in (i - 1, i):
                entries[(k, k)] = ring.one()
        entries[(i - 1, i - 1)] = b[0][0]
        entries[(i - 1, i)] = b[0][1]
        entries[(i, i - 1)] = b[1][0]
        entries[(i, i)] = b[1][1]
        return RingMatrix.from_entries_dict(ring, n, entries)

    images = {}
    for i in range(1, n):
        images[("s", i, 1)] = at(block, i)
        images[("s", i, -1)] = at(block_inv, i)
        if tau_block is not None:
            images[("t", i)] = at(tau_block, i)
    return GenRep(n, n, ring, images, name=name, welded=tau_block is not None)


def make_burau(n, param):
    """Unreduced Burau representation of B_n with t specialized to the unit `param`."""
    ring = param.ctx
    zero, one = ring.zero(), ring.one()
    tinv = param.inverse()
    return _block_rep(
        n, ring,
        [[zero, param], [one, one - param]],
        [[one - tinv, one], [tinv, zero]],
        name="burau")


def make_tym(n, ctx=None):
    """Tong-Yang-Ma representation of B_n over Z[t, t^-1] (or a given context with t)."""
    ring = ctx if ctx is not None else RingContext(("t",))
    t = ring.var("t")
    zero, one = ring.zero(), ring.one()
    return _block_rep(
        n, ring,
        [[zero, one], [t, zero]],
        [[zero, t.inverse()], [one, zero]],
        name="tym")


def make_wtym(n):
    """Welded Tong-Yang-Ma representation of wB_n over Z[u^-1, v^-1, al^-1]."""
    ring = RingContext(("u", "v", "al"))
    u, v, al = ring.var("u"), ring.var("v"), ring.var("al")
    zero = ring.zero()
    return _block_rep(
        n, ring,
        [[zero, u], [v, zero]],
        [[zero, v.inverse()], [u.inverse(), zero]],
        tau_block=[[zero, al.inverse()], [al, zero]],
        name="wtym")


def make_one_dim(n, r):
    """One-dimensional representation sigma_i -> (r) for a unit r."""
    ring = r.ctx
    m = RingMatrix.from_rows(ring, [[r]])
    m_inv = RingMatrix.from_rows(ring, [[r.inverse()]])
    images = {("s", i, e): m if e > 0 else m_inv for i in range(1, n) for e in (1, -1)}
    return GenRep(n, 1, ring, images, name="onedim")


def tensor_one_dim(rep, r, kind="s"):
    """Tensor a representation with the one-dimensional one that sends each
    letter (kind, i, 1) to the unit r, (kind, i, -1) to r^-1 and every
    other letter to 1.

    Kind "s" twists the braid generators.  Kind "x" scales the free
    letters of a representation of F_n x| B_n: x_j -> r, sigma_i -> 1 is
    one of F_n x| B_n, as the Artin action keeps exponent sums.
    """
    if r.ctx != rep.ring:
        raise ValueError("scalar lives in a different ring")
    rinv = r.inverse()
    images = {lt: m.scale(r if lt[2] > 0 else rinv) if lt[0] == kind else m
              for lt, m in rep.images.items()}
    return GenRep(rep.n, rep.dim, rep.ring, images, name=rep.name + "*onedim",
                  welded=rep.welded)
