"""Checks made apart from braidrep: a modular evaluator, a parser for the
rendered matrix text, and a crossing tally for string link invariants.

Nothing here imports braidrep.  Matrices cross over as the text that
`RingMatrix.render` prints, so the checks do not depend on how the program
stores polynomials.
"""
from __future__ import annotations

import re
from fractions import Fraction

import numpy as np

# A prime with 128 * (P - 1)**2 < 2**63, so an int64 product of two reduced
# matrices of dimension up to 128 cannot overflow before the final `% P`.
P = 268435399
MAX_DIM = 128
assert MAX_DIM * (P - 1) ** 2 < 2 ** 63


class CheckFailed(AssertionError):
    """An output of the program disagrees with the independent computation."""


def require(cond, message):
    if not cond:
        raise CheckFailed(message)


# --- rendered text -------------------------------------------------------

_MONO_RE = re.compile(r"([A-Za-z][A-Za-z0-9_]*)(?:\^(-?\d+))?$")


def parse_poly(text):
    """Parse `poly_render` text into {((name, exp), ...): coeff}.

    Keys list the variables with nonzero exponent in name order, so two
    polynomials compare equal exactly when they have the same terms.
    """
    text = text.strip()
    if text == "0":
        return {}
    out = {}
    pieces = text.replace(" - ", " + -").split(" + ")
    for piece in pieces:
        sign = 1
        if piece.startswith("-"):
            sign, piece = -1, piece[1:]
        coeff = 1
        exps = {}
        for factor in piece.split("*"):
            if factor.isdigit():
                coeff *= int(factor)
                continue
            m = _MONO_RE.match(factor)
            require(m is not None, "bad factor %r in %r" % (factor, text))
            e = int(m.group(2)) if m.group(2) else 1
            exps[m.group(1)] = exps.get(m.group(1), 0) + e
        key = tuple(sorted((v, e) for v, e in exps.items() if e))
        require(key not in out, "repeated monomial %r in %r" % (key, text))
        out[key] = sign * coeff
    return out


def parse_matrix(text):
    """Parse `RingMatrix.render` text into (rows, cols, [poly dict, ...])."""
    lines = [ln for ln in text.strip().split("\n") if ln.strip()]
    rows, cols = (int(x) for x in lines[0].split())
    require(len(lines) == rows + 1, "expected %d rows of entries" % rows)
    entries = []
    for ln in lines[1:]:
        parts = ln.split(";")
        require(len(parts) == cols, "expected %d columns" % cols)
        entries.extend(parse_poly(p) for p in parts)
    return rows, cols, entries


def render_poly(terms):
    """Text of a parsed polynomial that parse_poly reads back (for selftest.py)."""
    if not terms:
        return "0"
    out = []
    for key, c in sorted(terms.items()):
        body = "*".join([str(abs(c))] + ["%s^%d" % ve for ve in key])
        out.append(("-" if c < 0 else "+") + body)
    return " ".join(out).lstrip("+")


# --- arithmetic mod P ----------------------------------------------------

def mod_value(terms, point):
    """Value of a parsed polynomial at a point {name: unit mod P}."""
    acc = 0
    for key, c in terms.items():
        v = c
        for name, e in key:
            v = v * pow(point[name], e, P) % P
        acc += v
    return acc % P


def mod_matrix(parsed, point):
    rows, cols, entries = parsed
    require(rows <= MAX_DIM and cols <= MAX_DIM, "dimension above %d" % MAX_DIM)
    flat = [mod_value(t, point) for t in entries]
    return np.array(flat, dtype=np.int64).reshape(rows, cols)


def mod_product(gens, letters, dim):
    """Product of generator images mod P along a word (letters are keys of gens)."""
    require(dim <= MAX_DIM, "dimension above %d" % MAX_DIM)
    out = np.eye(dim, dtype=np.int64)
    for lt in letters:
        out = (out @ gens[lt]) % P
    return out


def is_identity(m):
    return m.shape[0] == m.shape[1] and np.array_equal(m, np.eye(m.shape[0], dtype=np.int64))


def random_point(rng, names):
    return {v: rng.randrange(2, P - 1) for v in names}


# --- string link tally ---------------------------------------------------

MODE_OF_THEOREM = {"318": "2var", "319": "multi", "48": "w3", "49": "wmulti"}


def tally(n, letters):
    """Follow the strings through a word letter by letter.

    `letters` holds ("s", i, sign) and ("t", i).  Returns the string ending
    at each bottom position (1-based string ids, by starting position), the
    crossing tables vl and V, and for each mode the weight of each string as
    {variable: exponent}, self-writhe corrected.
    """
    pos = list(range(1, n + 1))
    vl = {}
    V = {}
    weight = {mode: {s: {} for s in pos} for mode in MODE_OF_THEOREM.values()}
    writhe = {s: 0 for s in pos}

    def gain(mode, s, var, e):
        w = weight[mode][s]
        w[var] = w.get(var, 0) + e

    for lt in letters:
        k = lt[1] - 1
        left, right = pos[k], pos[k + 1]
        if lt[0] == "s":
            e = lt[2]
            over, under = (right, left) if e > 0 else (left, right)
            if over == under:
                writhe[over] += e
            else:
                vl[(over, under)] = vl.get((over, under), 0) + e
            for mode in ("2var", "w3"):
                gain(mode, under, "u", e)
                gain(mode, over, "v", e)
            for mode in ("multi", "wmulti"):
                gain(mode, under, "u%d" % over, e)
                gain(mode, over, "v%d" % under, e)
        else:
            V[(left, right)] = V.get((left, right), 0) + 1
            V[(right, left)] = V.get((right, left), 0) - 1
            gain("w3", left, "al", -1)
            gain("w3", right, "al", 1)
            gain("wmulti", left, "al%d" % right, -1)
            gain("wmulti", right, "al%d" % left, 1)
        pos[k], pos[k + 1] = right, left
    for s, k in writhe.items():
        if k:
            for mode in weight:
                u, v = ("u", "v") if mode in ("2var", "w3") else ("u%d" % s, "v%d" % s)
                gain(mode, s, u, -k)
                gain(mode, s, v, -k)
    return pos, vl, V, weight


def expected_invariant(n, bottom, weight):
    """Entries of the invariant matrix as parsed polynomials, row-major."""
    entries = [{} for _ in range(n * n)]
    for j, s in enumerate(bottom):
        key = tuple(sorted((v, e) for v, e in weight[s].items() if e))
        entries[(s - 1) * n + j] = {key: 1}
    return n, n, entries


def expected_identity(n, bottom, weight):
    return (bottom == list(range(1, n + 1))
            and all(not any(weight[s].values()) for s in bottom))


def check_invariant(text, n, bottom, weight):
    require(parse_matrix(text) == expected_invariant(n, bottom, weight),
            "invariant matrix differs from the crossing tally")


def check_linking(report, n, vl, V):
    pairs = [(i, j) for i in range(1, n + 1) for j in range(1, n + 1) if i != j]
    require(report["strings"] == n, "wrong string count")
    for i, j in pairs:
        key = "%d,%d" % (i, j)
        require(report["vl"][key] == vl.get((i, j), 0), "vl %s differs" % key)
        require(report["V"][key] == V.get((i, j), 0), "V %s differs" % key)
        if i < j:
            lk = Fraction(vl.get((i, j), 0) + vl.get((j, i), 0), 2)
            require(report["lk"][key] == str(lk), "lk %s differs" % key)


def check_kernel(report, thm, n, bottom, weights):
    want = expected_identity(n, bottom, weights[MODE_OF_THEOREM[thm]])
    require(report == {"criterion": thm, "in_kernel": want},
            "kernel-check %s says %r, the tally says %r" % (thm, report, want))


# --- exact evaluation ----------------------------------------------------

def check_exact(text, gens, letters, point):
    """Rendered exact result against the modular product at one point.

    `gens` maps each letter to its generator image already reduced at
    `point`.  Returns the parsed matrix for further checks.
    """
    parsed = parse_matrix(text)
    got = mod_matrix(parsed, point)
    want = mod_product(gens, letters, parsed[0])
    require(np.array_equal(got, want), "exact result does not specialise to the modular product")
    return parsed


# --- kernel word verdicts ------------------------------------------------

def check_verdict(identity_claim, products):
    """An identity verdict must hold at every point; a non-identity verdict
    needs one point where the product is not I."""
    at_identity = [is_identity(m) for m in products]
    if identity_claim:
        require(all(at_identity), "identity verdict, but a point gives a non-identity product")
    else:
        require(not all(at_identity), "non-identity verdict without a witness point")


# --- irreducibility probe ------------------------------------------------

def check_probe(report, dim, full_expected, span_bound=None):
    require(report["dimension"] <= dim * dim, "span above d^2")
    if full_expected:
        require(report["full"] and report["dimension"] == dim * dim,
                "probe did not reach the full span %d" % (dim * dim))
    else:
        require(not report["full"], "reducible representation reported full")
        require(report["dimension"] <= span_bound,
                "span %d above the block bound %d" % (report["dimension"], span_bound))
