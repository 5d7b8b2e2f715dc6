"""Braid and welded braid words, free-group words, Fox calculus.

Braid letters are tuples ("s", i, sign) for the Artin generator sigma_i^sign
and ("t", i) for the virtual generator tau_i (which is its own inverse).
Generator indices are 1-based, 1 <= i <= n-1.
"""
from __future__ import annotations

from collections import Counter
from fractions import Fraction
from functools import partial

from .matrices import Permutation


class WordParseError(ValueError):
    """Braid word text does not match the grammar."""


class BraidWord:
    """A word in the welded braid group on n strands."""

    __slots__ = ("n", "letters")

    def __init__(self, n, letters=()):
        letters = tuple(letters)
        for lt in letters:
            if lt[0] == "s":
                _, i, s = lt
                if not (1 <= i <= n - 1) or s not in (1, -1):
                    raise ValueError("bad letter %r for %d strands" % (lt, n))
            elif lt[0] == "t":
                _, i = lt
                if not (1 <= i <= n - 1):
                    raise ValueError("bad letter %r for %d strands" % (lt, n))
            else:
                raise ValueError("unknown letter %r" % (lt,))
        self.n = n
        self.letters = letters

    @classmethod
    def sigma(cls, n, i, sign=1):
        return cls(n, [("s", i, sign)])

    @classmethod
    def tau(cls, n, i):
        return cls(n, [("t", i)])

    @classmethod
    def identity(cls, n):
        return cls(n)

    def __len__(self):
        return len(self.letters)

    def __mul__(self, other):
        if self.n != other.n:
            raise ValueError("strand count mismatch: %d vs %d" % (self.n, other.n))
        return BraidWord(self.n, self.letters + other.letters)

    def inverse(self):
        return BraidWord(self.n, _invert(self.letters))

    def __pow__(self, k):
        k = int(k)
        base = self if k >= 0 else self.inverse()
        return BraidWord(self.n, base.letters * abs(k))

    def is_classical(self):
        return all(lt[0] == "s" for lt in self.letters)

    def shift(self, k):
        """Raise every generator index and the strand count by k (id_1-style embedding)."""
        out = []
        for lt in self.letters:
            if lt[0] == "s":
                out.append(("s", lt[1] + k, lt[2]))
            else:
                out.append(("t", lt[1] + k))
        return BraidWord(self.n + k, out)

    def permutation(self):
        """tau(j) = index of the string ending at bottom position j (0-based)."""
        pos2str = list(range(self.n))
        for lt in self.letters:
            k = lt[1] - 1
            pos2str[k], pos2str[k + 1] = pos2str[k + 1], pos2str[k]
        return Permutation(pos2str)

    def is_pure(self):
        return self.permutation().is_identity()

    def exponent_sum(self):
        return sum(lt[2] for lt in self.letters if lt[0] == "s")

    def render(self):
        tokens = []
        for lt in self.letters:
            if lt[0] == "s":
                tokens.append(str(lt[1] * lt[2]))
            else:
                tokens.append("v%d" % lt[1])
        return "n=%d\n%s\n" % (self.n, " ".join(tokens))

    @classmethod
    def parse(cls, text):
        """Read a word from text: an `n=<strands>` header, then letters.

        `#` starts a comment.  The header is the first token of the first
        non-empty line; the rest of that line is body.  A body token is `k`
        for sigma_|k|^sign(k) or `vk` for tau_k, and `[A, B]` expands to
        A^-1 B^-1 A B; brackets may nest.  A malformed header or token is
        reported with its line number.
        """
        for ch in "[],":
            text = text.replace(ch, " %s " % ch)
        n = None
        # one frame per open bracket: [letters around it, A once its comma is read]
        stack = []
        out = []
        # each distinct token is read once; a bad one raises before it is stored
        seen = {}
        for lineno, line in enumerate(text.split("\n"), 1):
            for tok in line.split("#", 1)[0].split():
                if n is None:
                    n = _strand_count(tok, lineno)
                elif tok == "[":
                    stack.append([out, None])
                    out = []
                elif stack and tok == ("," if stack[-1][1] is None else "]"):
                    frame = stack[-1]
                    if frame[1] is None:
                        frame[1], out = out, []
                    else:
                        stack.pop()
                        a, b, out = frame[1], out, frame[0]
                        out += _invert(a) + _invert(b) + a + b
                else:
                    lt = seen.get(tok)
                    if lt is None:
                        lt = seen[tok] = _letter(tok, lineno, n)
                    out.append(lt)
        if n is None:
            raise WordParseError("missing 'n=<strands>' header")
        if stack:
            raise WordParseError("unterminated commutator")
        # _letter has checked every letter against n; skip the constructor's pass
        word = cls.__new__(cls)
        word.n, word.letters = n, tuple(out)
        return word

    def __eq__(self, other):
        return isinstance(other, BraidWord) and self.n == other.n and self.letters == other.letters

    def __hash__(self):
        return hash((self.n, self.letters))

    def __repr__(self):
        return "BraidWord(n=%d, %s)" % (self.n, " ".join(
            ("s%d" % lt[1] if lt[2] > 0 else "S%d" % lt[1]) if lt[0] == "s" else "t%d" % lt[1]
            for lt in self.letters) or "1")


def _invert(letters):
    """The letters of the inverse word."""
    return [("s", lt[1], -lt[2]) if lt[0] == "s" else lt for lt in reversed(letters)]


def _decimal(tok):
    """int(tok), refusing the underscores and non-ASCII digits int() also reads."""
    if "_" in tok or not tok.isascii():
        raise ValueError("not a decimal integer: %r" % tok)
    return int(tok)


def _shown(tok):
    """repr(tok), or past 20 characters the repr of its first 20 and its length."""
    if len(tok) <= 20:
        return repr(tok)
    return "%r... (%d characters)" % (tok[:20], len(tok))


def _number(k, tok):
    """The integer k read from tok, for an error message: tok's excerpt if it is long."""
    return "%d" % k if len(tok) <= 20 else _shown(tok)


def _strand_count(tok, lineno):
    if not tok.startswith("n="):
        raise WordParseError("line %d: expected 'n=<strands>' header" % lineno)
    try:
        n = _decimal(tok[2:])
    except ValueError:
        raise WordParseError("line %d: bad strand count %s" % (lineno, _shown(tok[2:])))
    if n < 1:
        raise WordParseError("line %d: strand count %s is below 1" % (lineno, _number(n, tok[2:])))
    return n


def _letter(tok, lineno, n):
    virtual = tok[0] == "v"
    try:
        k = _decimal(tok[1:] if virtual else tok)
    except ValueError:
        raise WordParseError("line %d: bad token %s" % (lineno, _shown(tok)))
    i = k if virtual else abs(k)
    if not 0 < i < n:
        raise WordParseError("line %d: generator index %s outside 1..%d"
                             % (lineno, _number(i, tok), n - 1))
    return ("t", i) if virtual else ("s", i, 1 if k > 0 else -1)


def commutator(a, b):
    """[a, b] = a^{-1} b^{-1} a b."""
    return a.inverse() * b.inverse() * a * b


class FreeWord:
    """A freely reduced word in the free group on `rank` generators."""

    __slots__ = ("rank", "letters")

    def __init__(self, rank, letters=()):
        stack = []
        for g, s in letters:
            if not (1 <= g <= rank) or s not in (1, -1):
                raise ValueError("bad free letter (%r, %r)" % (g, s))
            if stack and stack[-1] == (g, -s):
                stack.pop()
            else:
                stack.append((g, s))
        self.rank = rank
        self.letters = tuple(stack)

    @classmethod
    def identity(cls, rank):
        return cls(rank)

    @classmethod
    def gen(cls, rank, i, sign=1):
        return cls(rank, [(i, sign)])

    def __mul__(self, other):
        if self.rank != other.rank:
            raise ValueError("rank mismatch")
        return FreeWord(self.rank, self.letters + other.letters)

    def inverse(self):
        return FreeWord(self.rank, [(g, -s) for g, s in reversed(self.letters)])

    def __pow__(self, k):
        k = int(k)
        base = self if k >= 0 else self.inverse()
        return FreeWord(self.rank, base.letters * abs(k))

    def is_identity(self):
        return not self.letters

    def exponent_sum(self):
        return sum(s for _, s in self.letters)

    def __len__(self):
        return len(self.letters)

    def __eq__(self, other):
        return isinstance(other, FreeWord) and self.rank == other.rank and self.letters == other.letters

    def __hash__(self):
        return hash((self.rank, self.letters))

    def __repr__(self):
        return "FreeWord(%s)" % ("*".join(
            ("x%d" % g if s > 0 else "x%d^-1" % g) for g, s in self.letters) or "1")


class GroupRingElement:
    """An element of the integral group ring of a free group."""

    __slots__ = ("rank", "terms")

    def __init__(self, rank, terms=()):
        self.rank = rank
        clean = {}
        items = terms.items() if isinstance(terms, dict) else terms
        for w, c in items:
            c = int(c)
            if c:
                clean[w] = clean.get(w, 0) + c
        self.terms = {w: c for w, c in clean.items() if c}

    @classmethod
    def zero(cls, rank):
        return cls(rank)

    @classmethod
    def from_word(cls, w, c=1):
        return cls(w.rank, [(w, c)])

    @classmethod
    def one(cls, rank):
        return cls.from_word(FreeWord.identity(rank))

    def __add__(self, other):
        return GroupRingElement(self.rank, list(self.terms.items()) + list(other.terms.items()))

    def __neg__(self):
        return GroupRingElement(self.rank, [(w, -c) for w, c in self.terms.items()])

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, FreeWord):
            other = GroupRingElement.from_word(other)
        out = []
        for wa, ca in self.terms.items():
            for wb, cb in other.terms.items():
                out.append((wa * wb, ca * cb))
        return GroupRingElement(self.rank, out)

    def is_zero(self):
        return not self.terms

    def __eq__(self, other):
        return (isinstance(other, GroupRingElement)
                and self.rank == other.rank and self.terms == other.terms)

    def __repr__(self):
        return "GroupRingElement(%r)" % (self.terms,)


def _substitute(letters, images, make):
    """The image of the free letters under x_g -> images[g], as make(its letters).

    The letters of the images are collected first and the word is built
    once, so the cost is linear in the length of the result.
    """
    out = []
    for g, s in letters:
        out += images[g].letters if s > 0 else images[g].inverse().letters
    return make(out)


def artin_action(word):
    """Images of x_1..x_n under the Artin action of a classical braid word.

    The action is a homomorphism to Aut(F_n) with composition
    a(w1 w2) = a(w1) after a(w2).  sigma_i sends x_i to x_{i+1} and x_{i+1}
    to x_{i+1}^-1 x_i x_{i+1}; sigma_i^-1 sends x_i to x_i x_{i+1} x_i^-1
    and x_{i+1} to x_i.  Both fix every other x_j, so each letter rewrites
    only the images of x_i and x_{i+1}.
    """
    if not word.is_classical():
        raise ValueError("Artin action is defined on classical words only")
    rank = word.n
    images = {j: FreeWord.gen(rank, j) for j in range(1, rank + 1)}
    make = partial(FreeWord, rank)
    for _, i, sign in word.letters:
        x, y = (i, 1), (i + 1, 1)
        # the letters of a(sigma_i^sign)(x_i) and a(sigma_i^sign)(x_{i+1})
        rule = ([y], [(i + 1, -1), x, y]) if sign > 0 else ([x, y, (i, -1)], [x])
        images[i], images[i + 1] = [_substitute(r, images, make) for r in rule]
    return [images[j] for j in range(1, rank + 1)]


def chi(w):
    """The injection F_n -> B_{n+1}: x_i maps to a conjugate of sigma_i^2.

    x_i -> (sigma_{i-1} ... sigma_1)^{-1} sigma_i^2 (sigma_{i-1} ... sigma_1),
    extended homomorphically over the free word w.
    """
    n = w.rank
    images = {}
    for g, _ in w.letters:
        if g not in images:
            conj = BraidWord(n + 1, [("s", k, 1) for k in range(g - 1, 0, -1)])
            images[g] = conj.inverse() * BraidWord.sigma(n + 1, g) ** 2 * conj
    return _substitute(w.letters, images, partial(BraidWord, n + 1))


def fox_derivative(w, j):
    """Right Fox derivative D_j with w - 1 = sum_j (x_j - 1) * D_j(w).

    Rules: D_j(x_i) = delta_ij, D_j(x_i^{-1}) = -delta_ij x_i^{-1},
    D_j(ab) = D_j(a) b + D_j(b).
    """
    rank, letters = w.rank, w.letters
    # +(the suffix after x_j), or -(x_j^-1 and the suffix after it)
    return GroupRingElement(rank, [(FreeWord(rank, letters[i + 1:] if s > 0 else letters[i:]), s)
                                   for i, (g, s) in enumerate(letters) if g == j])


class LinkingProfile:
    """Signed crossing tallies between the strings of a (welded) diagram.

    vl[(i, j)] counts classical crossings where string i passes over string j;
    V[(i, j)] is the signed virtual-pass count (antisymmetric).  Both are
    Counters that hold only the pairs that crossed; an absent pair reads 0.
    Strings are 1-based and identified by their starting position.  The
    diagonal is counted too: vl[(s, s)] is the signed self-crossing count
    (the writhe) of string s, and V[(s, s)] is always 0.  bottom[j] is the
    string ending at bottom position j + 1, and `virtual` says whether any
    crossing is virtual.
    """

    __slots__ = ("n", "vl", "V", "bottom", "virtual")

    def __init__(self, n, bottom=None, virtual=False):
        self.n = n
        self.vl = Counter()
        self.V = Counter()
        self.bottom = tuple(range(1, n + 1)) if bottom is None else tuple(bottom)
        self.virtual = virtual

    def is_pure(self):
        """Whether every string ends at the position it starts from."""
        return self.bottom == tuple(range(1, self.n + 1))

    def lk(self, i, j):
        """Classical linking number: half the signed crossing count."""
        return Fraction(self.vl[(i, j)] + self.vl[(j, i)], 2)

    def row_sums(self, j):
        """(sum_i vl_ij, sum_i vl_ji, sum_i V_ij) over i != j."""
        others = [i for i in range(1, self.n + 1) if i != j]
        return (sum(self.vl[(i, j)] for i in others),
                sum(self.vl[(j, i)] for i in others),
                sum(self.V[(i, j)] for i in others))

    def __eq__(self, other):
        return (isinstance(other, LinkingProfile) and self.n == other.n
                and self.vl == other.vl and self.V == other.V
                and self.bottom == other.bottom and self.virtual == other.virtual)

    def __repr__(self):
        return "LinkingProfile(n=%d, vl=%r, V=%r, bottom=%r, virtual=%r)" % (
            self.n, self.vl, self.V, self.bottom, self.virtual)
