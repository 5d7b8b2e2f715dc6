"""The four benchmark workloads.

Each workload builds its inputs from a seed in `__init__` (that is set-up
time) and lists its timed operations as `Item`s.  An item's `run` is the
only code timed; `check` verifies the result of the first round against the
independent computations in `checks.py` and returns a digest, and later
rounds must reproduce that digest.
"""
from __future__ import annotations

import contextlib
import functools
import io
import json
import os
import random
import shutil

# Program functions are looked up through their modules when called, so
# that the spans installed by spans.Tracer see every call.
from braidrep import cli, longmoody, reps, ring, words
from braidrep.matrices import RingMatrix
from braidrep.ring import RingContext
from braidrep.words import BraidWord

import checks
from checks import require


class Item:
    """One timed operation; `ops` is how many operations it counts for."""

    __slots__ = ("name", "run", "check", "digest", "ops", "expect_fail")

    def __init__(self, name, run, check, digest=None, ops=1, expect_fail=False):
        self.name = name
        self.run = run
        self.check = check
        self.digest = digest if digest is not None else check
        self.ops = ops
        self.expect_fail = expect_fail


def gens_mod_p(rep, point):
    """Generator images of a GenRep reduced at a point, keyed by letter."""
    gens = {}
    for i in range(1, rep.n):
        gens[("s", i, 1)] = checks.mod_matrix(checks.parse_matrix(rep.sigma_images[i].render()), point)
        gens[("s", i, -1)] = checks.mod_matrix(checks.parse_matrix(rep.sigma_inv_images[i].render()), point)
        if rep.tau_images is not None:
            gens[("t", i)] = checks.mod_matrix(checks.parse_matrix(rep.tau_images[i].render()), point)
    return gens


def _rep_digest(rep):
    return hash(tuple(rep.sigma_images[i] for i in range(1, rep.n))
                + tuple(rep.sigma_inv_images[i] for i in range(1, rep.n)))


def check_braid_relations(gens, n):
    """sigma_i sigma_i^-1 = I, the braid relation and far commutation, mod P."""
    d = gens[("s", 1, 1)].shape[0]
    prod = lambda *ls: checks.mod_product(gens, ls, d)
    for i in range(1, n):
        s = ("s", i, 1)
        require(checks.is_identity(prod(s, ("s", i, -1))), "sigma_%d inverse image is wrong" % i)
        if i + 1 < n:
            t = ("s", i + 1, 1)
            require((prod(s, t, s) == prod(t, s, t)).all(), "braid relation fails at %d" % i)
        for j in range(i + 2, n):
            t = ("s", j, 1)
            require((prod(s, t) == prod(t, s)).all(), "sigma_%d, sigma_%d do not commute" % (i, j))


# --- kernel_words ----------------------------------------------------------

class KernelWords:
    """`kernel_experiment()` on the paper's words: 12 verdicts per round.

    The seed only picks the points of the modular check.
    """

    ROUND_IS_ITEM = True

    POINTS = 3

    def __init__(self, seed):
        self.rng = random.Random(seed)
        self.words = longmoody.kernel_words()

    def items(self):
        return [Item("kernel_experiment", lambda: longmoody.kernel_experiment(), self.check,
                     digest=lambda r: r, ops=12)]

    def check(self, result):
        require(set(result) == set(self.words), "wrong set of words")
        t1 = RingContext(("t",))
        tq = RingContext(("t", "q"))
        for name, w in self.words.items():
            n = w.n
            got = result[name]
            require(got["n"] == n, "wrong strand count for %s" % name)
            # The paper's claim: the three words lie in the kernel of Burau
            # and of lm(TYM), and the shifted lm_q(TYM) detects them.
            require(got["burau_identity"] and got["lm_identity"] and not got["t1lm_identity"],
                    "verdicts for %s differ from the paper" % name)
            cases = [("burau_identity", reps.make_burau(n, t1.var("t")), w),
                     ("lm_identity", longmoody.lm_apply(reps.make_tym(n + 1, t1)), w),
                     ("t1lm_identity", longmoody.lm_q(reps.make_tym(n + 2, tq)), w.shift(1))]
            for key, rep, word in cases:
                products = []
                for _ in range(self.POINTS):
                    point = checks.random_point(self.rng, rep.ring.variables)
                    products.append(checks.mod_product(gens_mod_p(rep, point), word.letters, rep.dim))
                checks.check_verdict(got[key], products)
        return result


# --- exact_eval ------------------------------------------------------------

def _coxeter_word(rng, n, blocks, shift=0):
    """A positive word: `blocks` products of all generators in random order.

    Such words do not cancel, so words of like length give results of like
    size, which keeps the spread between seeds small.
    """
    letters = []
    for _ in range(blocks):
        gens = list(range(1, n))
        rng.shuffle(gens)
        letters.extend(("s", i + shift, 1) for i in gens)
    return BraidWord(n + shift, letters)


def _random_letters(rng, n, length, welded):
    out = []
    for _ in range(length):
        i = rng.randrange(1, n)
        if welded and rng.random() < 0.3:
            out.append(("t", i))
        else:
            out.append(("s", i, rng.choice((1, -1))))
    return out


class ExactEval:
    """`GenRep.evaluate`, `RingMatrix.render` and `specialize`, as `eval --spec` does.

    42 items per round: 18 positive shifted words of about 40 letters in
    lm_q(TYM) of dimension 42, 56 and 72, 12 positive words of about 140
    letters in Burau on 6 to 12 strands, and 12 welded words of 2500 letters
    in wtym.
    """

    def __init__(self, seed):
        rng = random.Random(seed)
        self.rng = rng
        tq = RingContext(("t", "q"))
        t1 = RingContext(("t",))
        # (rep, words, target variables, image text of each variable)
        self.groups = []
        for m, blocks in ((5, 8), (6, 7), (7, 6)):
            rep = longmoody.lm_q(reps.make_tym(m + 2, tq))
            words = [_coxeter_word(rng, m, blocks, shift=1) for _ in range(6)]
            self.groups.append((rep, words, ("t",), {"t": "t", "q": "-t"}))
        for n in (6, 8, 10, 12):
            rep = reps.make_burau(n, t1.var("t"))
            words = [_coxeter_word(rng, n, 140 // (n - 1)) for _ in range(3)]
            self.groups.append((rep, words, (), {"t": "-1"}))
        for n in (8, 10, 12):
            rep = reps.make_wtym(n)
            words = [BraidWord(n, _random_letters(rng, n, 2500, True)) for _ in range(4)]
            self.groups.append((rep, words, ("x",), {"u": "x", "v": "x", "al": "-1"}))
        self._mod = {}

    def items(self):
        out = []
        for g, (rep, words, tvars, spec) in enumerate(self.groups):
            target = RingContext(tvars)
            images = {v: target.parse(spec[v]) for v in rep.ring.variables}
            for k, w in enumerate(words):
                out.append(Item("%s/%d" % (rep.name, k), self._runner(rep, w, images, target),
                                self._checker(g, rep, w), digest=self._digest))
        return out

    @staticmethod
    def _runner(rep, word, images, target):
        def run():
            m = rep.evaluate(word)
            full = m.render()
            spec = m.map_entries(lambda p: ring.specialize(p, images, target), ring=target)
            return m, full, spec.render()
        return run

    @staticmethod
    def _digest(result):
        m, full, spec = result
        return hash(full), hash(spec)

    def _points(self, g):
        """Per group: source point, its generators mod P, target point and the
        source point it induces through the specialisation, with generators."""
        if g not in self._mod:
            rep, _, tvars, spec = self.groups[g]
            src = checks.random_point(self.rng, rep.ring.variables)
            tgt = checks.random_point(self.rng, tvars)
            induced = {v: checks.mod_value(checks.parse_poly(spec[v]), tgt) for v in rep.ring.variables}
            self._mod[g] = (src, gens_mod_p(rep, src), tgt, gens_mod_p(rep, induced))
        return self._mod[g]

    def _checker(self, g, rep, word):
        def check(result):
            m, full, spec = result
            require(RingMatrix.parse(m.ring, full) == m,
                    "rendered text does not parse back to an equal matrix")
            src, gens, tgt, induced_gens = self._points(g)
            checks.check_exact(full, gens, word.letters, src)
            checks.check_exact(spec, induced_gens, word.letters, tgt)
            return self._digest(result)
        return check


# --- invariants ------------------------------------------------------------

def _purify(rng, n, letters, welded):
    """Append letters that bring every string back to its start."""
    pos = list(range(n))
    for lt in letters:
        k = lt[1] - 1
        pos[k], pos[k + 1] = pos[k + 1], pos[k]
    tail = []
    for k in range(n):  # bubble sort with random crossing kinds
        for j in range(n - 1 - k):
            if pos[j] > pos[j + 1]:
                pos[j], pos[j + 1] = pos[j + 1], pos[j]
                if welded and rng.random() < 0.3:
                    tail.append(("t", j + 1))
                else:
                    tail.append(("s", j + 1, rng.choice((1, -1))))
    return letters + tail


def word_token(lt):
    return "v%d" % lt[1] if lt[0] == "t" else str(lt[1] * lt[2])


class Invariants:
    """CLI `invariant`, `linking` and `kernel-check` through `braidrep.cli.main`.

    40 word files of 1000 to 1400 letters on 4 to 12 strands: for classical
    and for welded words, 10 random, 6 pure and 4 commutators of pure words
    (which lie in every kernel).  The files are written at set-up.
    """

    KINDS = (("random", 10), ("pure", 6), ("kernel", 4))

    def __init__(self, seed, workdir):
        rng = random.Random(seed)
        self.workdir = workdir
        os.makedirs(workdir, exist_ok=True)
        self.files = []
        for welded in (False, True):
            for kind, count in self.KINDS:
                for _ in range(count):
                    # sizes follow the file's slot, not the seed, so that
                    # seeds change the words but not the amount of work
                    k = len(self.files)
                    n = 4 + k % 9
                    length = 1000 + 100 * (k % 5)
                    if kind == "random":
                        letters = _random_letters(rng, n, length, welded)
                    elif kind == "pure":
                        letters = _purify(rng, n, _random_letters(rng, n, length, welded), welded)
                    else:
                        a = _purify(rng, n, _random_letters(rng, n, length // 4, welded), welded)
                        b = _purify(rng, n, _random_letters(rng, n, length // 4, welded), welded)
                        letters = list(words.commutator(BraidWord(n, a), BraidWord(n, b)).letters)
                    path = os.path.join(workdir, "w%02d.braid" % len(self.files))
                    with open(path, "w") as fh:
                        fh.write("n=%d\n%s\n" % (n, " ".join(word_token(lt) for lt in letters)))
                    self.files.append((path, n, letters, welded, kind != "random"))

    def close(self):
        shutil.rmtree(self.workdir, ignore_errors=True)

    def items(self):
        out = []
        for path, n, letters, welded, pure in self.files:
            out.extend(self._file_items(path, n, letters, welded, pure))
        return out

    def _file_items(self, path, n, letters, welded, pure):
        # The tally is the checker's work, not set-up: it runs at the first
        # check of the file's first item.
        tally = functools.cache(lambda: checks.tally(n, letters))

        def invariant(text, mode):
            bottom, _, _, weight = tally()
            checks.check_invariant(text, n, bottom, weight[mode])

        def linking(text):
            _, vl, V, _ = tally()
            checks.check_linking(json.loads(text), n, vl, V)

        def kernel(text, thm):
            bottom, _, _, weight = tally()
            checks.check_kernel(json.loads(text), thm, n, bottom, weight)

        out = []
        for mode in (("w3", "wmulti") if welded else ("2var", "multi", "w3", "wmulti")):
            out.append(self._item(["invariant", "--mode", mode, "--word", path],
                                  lambda text, m=mode: invariant(text, m)))
        out.append(self._item(["--format", "json", "linking", "--word", path], linking))
        if pure:
            for thm in (("48", "49") if welded else ("318", "319")):
                out.append(self._item(
                    ["--format", "json", "kernel-check", "--thm", thm, "--word", path],
                    lambda text, t=thm: kernel(text, t)))
        return out

    @staticmethod
    def _item(argv, check_text):
        def run():
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                status = cli.main(argv)
            return status, buf.getvalue()

        def digest(result):
            return result[0], hash(result[1])

        def check(result):
            status, text = result
            require(status == 0, "%s exited with %r" % (" ".join(argv[:-2]), status))
            check_text(text)
            return digest(result)

        return Item(" ".join(argv[:-2]), run, check, digest=digest)


# --- lm_pipeline -----------------------------------------------------------

# The probe's int64 arithmetic overflows at this prime; see CHANGES.md.
OVERFLOW_PRIME = 4294967311


class LmPipeline:
    """Long-Moody construction and certification, 37 operations per round.

    Builds of lm_apply, lm_q and lm_semidirect for n = 3..8,
    decompose_check and intertwining_check for n = 2..7, check_relations
    and the irreducibility probe.  The seed picks the probe seeds and the
    point at which the builds are checked.
    """

    # Its operations differ too much in size for a median over them to hold
    # still, so the whole round counts as the item.
    ROUND_IS_ITEM = True

    def __init__(self, seed):
        self.rng = random.Random(seed)
        self.probe_seeds = [self.rng.randrange(1 << 30) for _ in range(4)]
        self.blocks = {}

    def items(self):
        t1 = RingContext(("t",))
        tq = RingContext(("t", "q"))
        out = []
        for n in range(3, 9):
            out.append(self._build("lm_apply/%d" % n, n, lambda n=n: longmoody.lm_apply(
                reps.make_tym(n + 1, t1))))
            out.append(self._build("lm_q/%d" % n, n, lambda n=n: longmoody.lm_q(
                reps.make_tym(n + 1, tq))))
            out.append(self._build("lm_semidirect/%d" % n, n, lambda n=n: longmoody.lm_semidirect(
                longmoody.make_eta(n, tq), q_twist=True)))
        for n in range(2, 8):
            out.append(Item("decompose_check/%d" % n, lambda n=n: longmoody.decompose_check(n),
                            self._decompose_checker(n), digest=repr))
            out.append(Item("intertwining_check/%d" % n,
                            lambda n=n: longmoody.intertwining_check(reps.make_tym(n + 1)),
                            self._empty))
        out.append(Item("check_relations/reduced_lm3",
                        lambda: longmoody.reduced_lm3().check_relations(), self._empty))
        out.append(Item("check_relations/lm_q_tym4",
                        lambda: longmoody.lm_q(reps.make_tym(4, tq)).check_relations(), self._empty))
        s = self.probe_seeds
        burau3 = lambda: reps.make_burau(3, t1.var("t"))
        probes = [
            ("reduced_lm3", lambda: longmoody.reduced_lm3(), 10007, 5, s[0], 6, True, None),
            ("burau3", burau3, 10007, 2, s[1], 3, False, lambda: 2 * 2 + 1 * 1),
            ("lm_q_tym4", lambda: longmoody.lm_q(reps.make_tym(4, tq)), 10007, 2, s[2], 12, False,
             lambda: self._block_bound(3)),
            ("lm_q_tym5", lambda: longmoody.lm_q(reps.make_tym(5, tq)), 10007, 1, s[3], 20, False,
             lambda: self._block_bound(4)),
            # Same input whatever the seed: this probe fails on every run.
            ("burau3@overflow", burau3, OVERFLOW_PRIME, 1, 0, 3, False, lambda: 2 * 2 + 1 * 1),
        ]
        for name, make, p, trials, seed, dim, full, bound in probes:
            out.append(Item(
                "irreducibility_probe/" + name,
                lambda make=make, p=p, trials=trials, seed=seed: longmoody.irreducibility_probe(
                    make(), p=p, trials=trials, seed=seed),
                lambda r, dim=dim, full=full, bound=bound: self._probe_check(r, dim, full, bound),
                digest=repr, expect_fail=p == OVERFLOW_PRIME))
        return out

    def _build(self, name, n, make):
        def check(rep):
            require(rep.n == n and rep.dim == rep.sigma_images[1].rows, "wrong shape for %s" % name)
            point = checks.random_point(self.rng, rep.ring.variables)
            check_braid_relations(gens_mod_p(rep, point), n)
            return _rep_digest(rep)
        return Item(name, make, check, digest=_rep_digest)

    def _decompose_checker(self, n):
        def check(report):
            require(report["ok"] and all(report["generators"].values()), "decomposition fails at n=%d" % n)
            require(tuple(report["blocks"]) == (n, n * n), "unexpected blocks at n=%d" % n)
            self.blocks[n] = report["blocks"]
            return repr(report)
        return check

    def _block_bound(self, n):
        return sum(b * b for b in self.blocks[n])

    @staticmethod
    def _empty(result):
        require(result == [], "violations: %r" % (result,))
        return result

    @staticmethod
    def _probe_check(report, dim, full, bound):
        checks.check_probe(report, dim, full, bound() if bound else None)
        return repr(report)


WORKLOADS = {
    "kernel_words": KernelWords,
    "exact_eval": ExactEval,
    "invariants": Invariants,
    "lm_pipeline": LmPipeline,
}
