"""String link diagrams and the monomial invariants read off their crossings.

A diagram is an abstract incidence structure: n strings run from a family of
top arcs to a family of bottom arcs through a sequence of crossings.  Each
classical crossing rewrites its two incoming arcs with monomial weights
(`relations_of`), and eliminating the intermediate arcs (`eliminate`) yields
a monomial matrix invariant.  Since the weights commute, each string's weight
depends only on its signed crossing counts against every string, so
`tym_matrix` and `kernel_predicate` read the matrix and the kernel criteria
off one tally record, a `LinkingProfile`.  A diagram is tallied crossing by
crossing (`linking_profile_diagram`); a braid word is tallied straight from
its letters (`linking_profile_word`), with no diagram built.  The relations
and their elimination remain as the reference definition.
"""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import NamedTuple

from .matrices import Permutation, RingMatrix
from .ring import RingContext
from .words import LinkingProfile, _decimal

MODES = ("2var", "multi", "w3", "wmulti")


class DiagramError(ValueError):
    """The incidence structure does not describe n directed strings."""


class Crossing(NamedTuple):
    """Strand a meets strand b, each passing from its in arc to its out arc.

    `kind` is "x" for a classical crossing, where strand a passes over
    strand b and `sign` is the crossing sign, or "v" for a virtual crossing,
    where `sign` is its chirality.
    """

    kind: str
    sign: int
    a_in: str
    a_out: str
    b_in: str
    b_out: str


@dataclass(frozen=True)
class LambdaRelation:
    src: str
    dst: str
    weight: object


class Diagram:
    """An n-string diagram given by top/bottom arcs and a crossing list."""

    __slots__ = ("n", "crossings", "top", "bottom", "_arc_string")

    def __init__(self, n, crossings, top, bottom):
        self.n = n
        self.crossings = tuple(crossings)
        self.top = tuple(top)
        self.bottom = tuple(bottom)
        if len(self.top) != n or len(self.bottom) != n:
            raise DiagramError("need exactly %d top and bottom arcs" % n)
        succ = {}
        for c in self.crossings:
            for a_in, a_out in ((c.a_in, c.a_out), (c.b_in, c.b_out)):
                if a_in in succ:
                    raise DiagramError("arc %r consumed twice" % a_in)
                succ[a_in] = a_out
        if len(set(self.top).union(succ.values())) != n + len(succ):
            raise DiagramError("some arc is produced twice")
        # Every arc now has one producer and no top arc is produced by a
        # crossing, so a walk never revisits an arc or meets another string.
        bottom = set(self.bottom)
        arc_string = {}
        for s, arc in enumerate(self.top, 1):
            arc_string[arc] = s
            while arc not in bottom:
                if arc not in succ:
                    raise DiagramError("string %d breaks at arc %r" % (s, arc))
                arc = succ[arc]
                arc_string[arc] = s
        if len(arc_string) != n + len(succ):
            raise DiagramError("unreachable arcs present")
        self._arc_string = arc_string

    def arc_string(self, arc):
        """1-based index (top position) of the string containing an arc."""
        return self._arc_string[arc]

    def permutation(self):
        """perm(j) = 0-based string index ending at bottom position j."""
        return Permutation([self._arc_string[a] - 1 for a in self.bottom])

    def is_pure(self):
        return self.permutation().is_identity()

    def has_virtual(self):
        return any(c.kind == "v" for c in self.crossings)

    @classmethod
    def trivial(cls, n):
        arcs = ["s%d" % i for i in range(1, n + 1)]
        return cls(n, [], arcs, arcs)

    def render(self):
        lines = ["strands %d" % self.n]
        for s, a in enumerate(self.top, 1):
            lines.append("top %d %s" % (s, a))
        for s, a in enumerate(self.bottom, 1):
            lines.append("bottom %d %s" % (s, a))
        for c in self.crossings:
            lines.append(" ".join((c.kind, "+" if c.sign > 0 else "-") + c[2:]))
        return "\n".join(lines) + "\n"

    @classmethod
    def parse(cls, text):
        n = None
        ends = {"top": {}, "bottom": {}}
        crossings = []
        for lineno, raw in enumerate(text.split("\n"), 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            kw, *args = line.split()
            try:
                if kw == "strands":
                    if n is not None:
                        raise DiagramError("line %d: repeated 'strands' line" % lineno)
                    (count,) = args
                    n = _decimal(count)
                    if n < 1:
                        raise DiagramError("line %d: strand count %d is below 1" % (lineno, n))
                elif kw in ends:
                    pos, arc = args
                    pos = _decimal(pos)
                    if pos in ends[kw]:
                        raise DiagramError("line %d: repeated '%s %d' line" % (lineno, kw, pos))
                    ends[kw][pos] = arc
                elif kw in ("x", "v"):
                    sign, a_in, a_out, b_in, b_out = args
                    crossings.append(Crossing(kw, {"+": 1, "-": -1}[sign],
                                              a_in, a_out, b_in, b_out))
                else:
                    raise DiagramError("line %d: unknown keyword %r" % (lineno, kw))
            except DiagramError:
                raise
            except (KeyError, ValueError):
                raise DiagramError("line %d: malformed %r line" % (lineno, kw))
        if n is None:
            raise DiagramError("missing 'strands' line")
        top, bottom = ends["top"], ends["bottom"]
        # positions are distinct keys, so n of them inside 1..n cover 1..n
        if any(len(e) != n or not all(1 <= s <= n for s in e) for e in (top, bottom)):
            raise DiagramError("top/bottom positions must cover 1..%d" % n)
        return cls(n, crossings, [top[s] for s in range(1, n + 1)],
                   [bottom[s] for s in range(1, n + 1)])


def diagram_from_word(word):
    """Thread arcs through the letters of a (welded) braid word."""
    n = word.n
    cur = ["t%d" % s for s in range(1, n + 1)]
    top = list(cur)
    crossings = []
    for k, lt in enumerate(word.letters):
        i = lt[1] - 1
        left, right = cur[i], cur[i + 1]
        new_left, new_right = "m%d" % (2 * k + 1), "m%d" % (2 * k + 2)
        if lt[0] == "t":
            crossings.append(Crossing("v", 1, left, new_right, right, new_left))
        elif lt[2] > 0:
            crossings.append(Crossing("x", 1, right, new_left, left, new_right))
        else:
            crossings.append(Crossing("x", -1, left, new_right, right, new_left))
        cur[i], cur[i + 1] = new_left, new_right
    return Diagram(n, crossings, top, cur)


def ctx_for_mode(mode, n):
    if mode not in MODES:
        raise ValueError("unknown mode %r" % mode)
    families = ("u", "v", "al") if mode in ("w3", "wmulti") else ("u", "v")
    if mode in ("2var", "w3"):
        return RingContext(families)
    # built as a list: a tuple grown from a generator is resized, and each
    # call would leave one more tuple on the interpreter's free lists
    return RingContext(["%s%d" % (f, i) for f in families for i in range(1, n + 1)])


def _mode_vars(mode, s_over, s_under):
    """Names of the (u, v) weight variables of a classical crossing in the given mode."""
    if mode in ("2var", "w3"):
        return "u", "v"
    return "u%d" % s_over, "v%d" % s_under


def relations_of(d, mode, ctx=None):
    """One weighted rewriting relation per arc consumed by a crossing.

    At a classical crossing of sign e, the under arc picks up the weight
    u^e indexed by the over string, and the over arc picks up v^e indexed
    by the under string.  A virtual crossing trades al^{+-chirality}
    factors indexed by the other string.
    """
    if mode not in MODES:
        raise ValueError("unknown mode %r" % mode)
    if mode in ("2var", "multi") and d.has_virtual():
        raise DiagramError("virtual crossings need a welded mode")
    if ctx is None:
        ctx = ctx_for_mode(mode, d.n)
    weights = {}

    def weight(name, e):
        w = weights.get((name, e))
        if w is None:
            w = weights[(name, e)] = ctx.var(name, e)
        return w

    rels = []
    for c in d.crossings:
        s_a = d.arc_string(c.a_in)
        s_b = d.arc_string(c.b_in)
        if c.kind == "x":
            u, v = _mode_vars(mode, s_a, s_b)
            rels.append(LambdaRelation(c.b_in, c.b_out, weight(u, c.sign)))
            rels.append(LambdaRelation(c.a_in, c.a_out, weight(v, c.sign)))
        else:
            if mode == "w3":
                al_for_a = al_for_b = "al"
            else:
                al_for_a = "al%d" % s_b
                al_for_b = "al%d" % s_a
            rels.append(LambdaRelation(c.a_in, c.a_out, weight(al_for_a, -c.sign)))
            rels.append(LambdaRelation(c.b_in, c.b_out, weight(al_for_b, c.sign)))
    return rels


class NormalForm:
    """Bottom position j comes from string source[j] with monomial weight[j]."""

    __slots__ = ("n", "source", "weight")

    def __init__(self, n, source, weight):
        self.n = n
        self.source = tuple(source)
        self.weight = tuple(weight)
        if sorted(self.source) != list(range(1, n + 1)):
            raise DiagramError("sources are not a permutation of 1..%d" % n)
        for w in self.weight:
            if not w.is_unit():
                raise DiagramError("weight %r is not a monomial" % w)

    def __eq__(self, other):
        return (isinstance(other, NormalForm) and self.n == other.n
                and self.source == other.source and self.weight == other.weight)

    def __repr__(self):
        return "NormalForm(%r, %r)" % (self.source, self.weight)


def eliminate(relations, tops, bottoms):
    """Chain the relations from each top arc to a bottom arc.

    Relations are treated as undirected edges: following dst = src^w in
    reverse contributes w^{-1}.  Each top arc must reach exactly one
    bottom arc along a simple chain.
    """
    adj = {}
    for r in relations:
        adj.setdefault(r.src, []).append((r.dst, r.weight, 1))
        adj.setdefault(r.dst, []).append((r.src, r.weight, -1))
    bottom_pos = {a: j for j, a in enumerate(bottoms)}
    top_pos = {a: s for s, a in enumerate(tops, 1)}
    n = len(tops)
    source = [None] * n
    weight = [None] * n
    for s, start in enumerate(tops, 1):
        arc = start
        prev = None
        w = None
        steps = 0
        while arc not in bottom_pos:
            nexts = [(b, wt, sgn) for (b, wt, sgn) in adj.get(arc, []) if b != prev]
            if len(nexts) != 1:
                raise DiagramError("broken chain at arc %r" % arc)
            b, wt, sgn = nexts[0]
            step_w = wt if sgn > 0 else wt.inverse()
            w = step_w if w is None else w * step_w
            prev, arc = arc, b
            steps += 1
            if steps > 2 * len(relations) + 1:
                raise DiagramError("relation chain does not terminate")
        j = bottom_pos[arc]
        if source[j] is not None:
            raise DiagramError("two strings end at bottom position %d" % (j + 1))
        source[j] = s
        weight[j] = w
    if any(w is None for w in weight):
        ctx = relations[0].weight.ctx if relations else None
        if ctx is None:
            raise DiagramError("cannot infer ring for a trivial string")
        weight = [ctx.one() if w is None else w for w in weight]
    return NormalForm(n, source, weight)


def tym_matrix(d, mode, self_writhe_correction=True):
    """The monomial matrix with entry (source string, bottom position) = weight.

    `d` is a diagram or its `LinkingProfile`.  With vl and V its crossing
    tally, the weight of string s is the product over strings i of
    u_i^vl(i,s) * v_i^vl(s,i) * al_i^-V(s,i); in the "2var" and "w3" modes
    u_i, v_i and al_i are u, v and al.  The self-writhe correction drops the
    i = s factors of u and v, that is, divides by (u_s v_s)^vl(s,s).
    """
    ctx = ctx_for_mode(mode, d.n)
    prof = d if isinstance(d, LinkingProfile) else linking_profile_diagram(d)
    if mode in ("2var", "multi") and prof.virtual:
        raise DiagramError("virtual crossings need a welded mode")
    strings = range(1, prof.n + 1)
    entries = {}
    for j, s in enumerate(prof.bottom):
        u = [prof.vl[(i, s)] for i in strings]
        v = [prof.vl[(s, i)] for i in strings]
        al = [-prof.V[(s, i)] for i in strings]
        if self_writhe_correction:
            u[s - 1] = v[s - 1] = 0
        if mode in ("2var", "w3"):
            u, v, al = [sum(u)], [sum(v)], [sum(al)]
        # the variables of each mode are the u's, then the v's, then any al's
        entries[(s - 1, j)] = ctx.monomial((u + v + al)[:ctx.arity])
    return RingMatrix.from_entries_dict(ctx, prof.n, entries)


def compose(d1, d2):
    """Stack d2 below d1, identifying bottom arcs of d1 with top arcs of d2."""
    if d1.n != d2.n:
        raise DiagramError("strand counts differ")
    rename = {}
    used = set(d1._arc_string)
    for j, a in enumerate(d2.top):
        rename[a] = d1.bottom[j]

    def rn(a):
        if a in rename:
            return rename[a]
        b = a
        while b in used:
            b = b + "'"
        rename[a] = b
        used.add(b)
        return b

    crossings = list(d1.crossings)
    for c in d2.crossings:
        crossings.append(Crossing(c.kind, c.sign, *map(rn, c[2:])))
    bottom = [rn(a) for a in d2.bottom]
    return Diagram(d1.n, crossings, d1.top, bottom)


def add_kink(d, position, sign=1):
    """Append a single-string curl at the given bottom position (1-based)."""
    if not 1 <= position <= d.n:
        raise DiagramError("kink position %r is outside 1..%d" % (position, d.n))
    old = d.bottom[position - 1]
    used = d._arc_string
    mid, new = old + "k", old + "kk"
    while mid in used or new in used:
        mid, new = mid + "k", new + "kk"
    crossings = list(d.crossings)
    crossings.append(Crossing("x", sign, mid, new, old, mid))
    bottom = list(d.bottom)
    bottom[position - 1] = new
    return Diagram(d.n, crossings, d.top, bottom)


def linking_profile_diagram(d):
    """Tally every crossing by the strings that meet there, self-crossings included."""
    prof = LinkingProfile(d.n, [d.arc_string(a) for a in d.bottom], d.has_virtual())
    for c in d.crossings:
        a = d.arc_string(c.a_in)
        b = d.arc_string(c.b_in)
        if c.kind == "x":
            prof.vl[(a, b)] += c.sign
        else:
            prof.V[(a, b)] += c.sign
            prof.V[(b, a)] -= c.sign
    return prof


def linking_profile_word(word):
    """The tally of `diagram_from_word(word)`, read straight off the letters.

    With l and r the strings at positions i and i+1, sigma_i adds 1 to
    vl[(r, l)], sigma_i^-1 adds -1 to vl[(l, r)] and tau_i adds 1 to
    V[(l, r)] and -1 to V[(r, l)]; then l and r swap.
    """
    prof = LinkingProfile(word.n)
    # each pair (l, r) under the int l*m + r in a plain dict: no tuple per
    # letter, and a Counter (a dict subclass) updates items twice as slowly
    m = word.n + 1
    vl, V = {}, {}
    at = list(prof.bottom)
    for lt in word.letters:
        i = lt[1]
        l, r = at[i - 1], at[i]
        if lt[0] == "t":
            V[l * m + r] = V.get(l * m + r, 0) + 1
            V[r * m + l] = V.get(r * m + l, 0) - 1
            prof.virtual = True
        elif lt[2] > 0:
            vl[r * m + l] = vl.get(r * m + l, 0) + 1
        else:
            vl[l * m + r] = vl.get(l * m + r, 0) - 1
        at[i - 1], at[i] = r, l
    prof.vl.update({divmod(k, m): x for k, x in vl.items()})
    prof.V.update({divmod(k, m): x for k, x in V.items()})
    prof.bottom = tuple(at)
    return prof


def kernel_predicate(d, which):
    """Linking number criteria for the invariant being the identity matrix.

    `d` is a diagram or its `LinkingProfile`.  The classical criteria compare
    twice the linking numbers, vl(i,j) + vl(j,i), as integers.
    """
    prof = d if isinstance(d, LinkingProfile) else linking_profile_diagram(d)
    # only the pairs of distinct strings that crossed; every other pair is 0
    vl = [(i, j, x) for (i, j), x in prof.vl.items() if i != j]
    V = [(i, j, x) for (i, j), x in prof.V.items() if i != j]
    if which in ("318", "319") and prof.virtual:
        raise DiagramError("criterion %s applies to classical diagrams" % which)
    if which in ("319", "49") and not prof.is_pure():
        raise DiagramError("criterion %s needs a pure diagram" % which)
    totals = Counter()
    if which == "318":  # twice the total linking number of each string
        for i, j, x in vl:
            totals[i] += x
            totals[j] += x
    elif which == "319":
        return all(x + prof.vl[(j, i)] == 0 for i, j, x in vl)
    elif which == "48":  # the three row sums of each string (LinkingProfile.row_sums)
        for i, j, x in vl:
            totals[(j, "in")] += x
            totals[(i, "out")] += x
        for i, j, x in V:
            totals[(j, "virtual")] += x
    elif which == "49":
        return not any(x for _, _, x in vl + V)
    else:
        raise ValueError("unknown criterion %r" % which)
    return not any(totals.values())
