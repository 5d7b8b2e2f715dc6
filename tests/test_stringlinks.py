import random

import pytest
from hypothesis import given, settings, strategies as st

from braidrep.matrices import RingMatrix
from braidrep.reps import make_tym, make_wtym
from braidrep.ring import RingContext, specialize
from braidrep.stringlinks import (MODES, Crossing, Diagram, DiagramError,
                                  LambdaRelation, NormalForm, add_kink,
                                  compose, ctx_for_mode, diagram_from_word,
                                  eliminate, kernel_predicate,
                                  linking_profile_diagram,
                                  linking_profile_word, relations_of,
                                  tym_matrix)
from braidrep.words import BraidWord, commutator

from test_words import random_word


def word(n, *ks):
    letters = []
    for k in ks:
        if isinstance(k, str):
            letters.append(("t", int(k[1:])))
        else:
            letters.append(("s", abs(k), 1 if k > 0 else -1))
    return BraidWord(n, letters)


def multi_ctx(n):
    return ctx_for_mode("multi", n)


def test_diagram_from_word_structure():
    d = diagram_from_word(word(2, 1))
    assert len(d.crossings) == 1
    assert d.permutation().img == (1, 0)
    d2 = diagram_from_word(word(2, "v1"))
    assert d2.has_virtual()


def test_diagram_validation():
    with pytest.raises(DiagramError):
        Diagram(2, [Crossing("x", 1, "a", "b", "a", "c")], ["a", "x"], ["b", "c"])
    with pytest.raises(DiagramError):
        Diagram(2, [], ["a"], ["a", "b"])


def classical(*arcs):
    return Crossing("x", 1, *arcs)


@pytest.mark.parametrize("n, crossings, top, bottom", [
    # two crossings consume one arc
    (2, [classical("a", "c", "b", "d"), classical("a", "e", "c", "f")], ["a", "b"], ["e", "f"]),
    # two crossings produce one arc
    (2, [classical("a", "c", "b", "d"), classical("c", "e", "d", "e")], ["a", "b"], ["e", "q"]),
    # a crossing produces the top arc a, so the walk from a would cycle a, b, a, ...
    (1, [classical("a", "b", "b", "a")], ["a"], ["z"]),
    # string 2 stops at d, which is neither consumed nor at the bottom
    (2, [classical("a", "c", "b", "d")], ["a", "b"], ["c", "e"]),
    # a closed component next to a trivial string
    (1, [Crossing("v", 1, "p", "q", "q", "p")], ["s"], ["s"]),
    # a crossing consumes an arc that nothing produces
    (1, [classical("z", "y", "w", "u")], ["s"], ["s"]),
    # the bottom arc c is also consumed
    (2, [classical("a", "c", "b", "d"), classical("c", "e", "d", "f")], ["a", "b"], ["c", "f"]),
    # a repeated bottom arc
    (2, [classical("a", "c", "b", "d")], ["a", "b"], ["c", "c"]),
    # the wrong number of top or bottom arcs
    (2, [], ["a"], ["a", "b"]),
    (2, [], ["a", "b"], ["a"]),
])
def test_malformed_incidence_structures(n, crossings, top, bottom):
    with pytest.raises(DiagramError):
        Diagram(n, crossings, top, bottom)


def test_add_kink_rejects_positions_outside_the_strings():
    d = Diagram.trivial(3)
    for position in (0, -1, 4):
        with pytest.raises(DiagramError, match="kink position %d is outside 1..3" % position):
            add_kink(d, position)


def test_relations_sigma1_multi():
    d = diagram_from_word(word(2, 1))
    ctx = multi_ctx(2)
    rels = relations_of(d, "multi", ctx)
    weights = {(r.src, r.dst): r.weight for r in rels}
    # x_2 = a_1^{u_2} and x_1 = a_2^{v_1}
    assert set(weights.values()) == {ctx.var("u2"), ctx.var("v1")}


def test_virtual_relations_tau1():
    d = diagram_from_word(word(2, "v1"))
    m = tym_matrix(d, "w3")
    ctx = m.ring
    al = ctx.var("al")
    assert m[0, 1] == al.inverse()
    assert m[1, 0] == al
    tym3 = tym_matrix(diagram_from_word(word(2, "v1")), "wmulti")
    c = tym3.ring
    assert tym3[0, 1] == c.var("al2").inverse()
    assert tym3[1, 0] == c.var("al1")


def test_eliminate_example_six_relations():
    ctx = ctx_for_mode("2var", 2)
    u, v = ctx.var("u"), ctx.var("v")
    rels = [
        LambdaRelation("m1", "m3", u),
        LambdaRelation("a1", "m2", v),
        LambdaRelation("m4", "a2", u),
        LambdaRelation("x2", "m3", v),
        LambdaRelation("m2", "x1", u),
        LambdaRelation("m4", "m1", v),
    ]
    nf = eliminate(rels, ["a1", "a2"], ["x1", "x2"])
    assert nf == NormalForm(2, [1, 2], [u * v, ctx.one()])


def test_eliminate_trivial():
    d = Diagram.trivial(3)
    m = tym_matrix(d, "2var")
    assert m.is_identity()


def test_eliminate_broken_chain():
    ctx = ctx_for_mode("2var", 1)
    with pytest.raises(DiagramError):
        eliminate([LambdaRelation("a1", "m1", ctx.var("u"))], ["a1"], ["x1"])


def test_ex311_figure_link():
    m = tym_matrix(diagram_from_word(word(2, 1, 1)), "multi")
    ctx = m.ring
    assert m[0, 0] == ctx.var("u2") * ctx.var("v2")
    assert m[1, 1] == ctx.var("u1") * ctx.var("v1")
    assert m[0, 1].is_zero() and m[1, 0].is_zero()


def test_ex312_matrices():
    ctx = multi_ctx(3)
    m1 = tym_matrix(diagram_from_word(word(3, 1)), "multi")
    assert m1[1, 0] == ctx.var("v1") and m1[0, 1] == ctx.var("u2")
    m2 = tym_matrix(diagram_from_word(word(3, -2)), "multi")
    assert m2[2, 1] == ctx.var("u2").inverse()
    assert m2[1, 2] == ctx.var("v3").inverse()
    prod = tym_matrix(diagram_from_word(word(3, 1, -2)), "multi")
    assert prod[0, 2] == ctx.var("u2") * ctx.var("v3").inverse()
    assert prod[1, 0] == ctx.var("v1")
    assert prod[2, 1] == ctx.var("u1").inverse()


def test_twisted_product_rule():
    # the invariant of a stacked diagram is the first factor times the
    # permutation twisted second factor
    rng = random.Random(23)
    for _ in range(12):
        w1 = random_word(rng, 3, 5)
        w2 = random_word(rng, 3, 5)
        m1 = tym_matrix(diagram_from_word(w1), "multi")
        m2 = tym_matrix(diagram_from_word(w2), "multi")
        both = tym_matrix(diagram_from_word(w1 * w2), "multi")
        assert both == m1 * m2.variable_twist(w1.permutation())


def test_pure_product_is_plain_product():
    rng = random.Random(29)
    count = 0
    while count < 6:
        w1 = random_word(rng, 3, 6)
        w2 = random_word(rng, 3, 6)
        if not (w1.is_pure() and w2.is_pure()):
            continue
        count += 1
        m1 = tym_matrix(diagram_from_word(w1), "multi")
        m2 = tym_matrix(diagram_from_word(w2), "multi")
        assert tym_matrix(diagram_from_word(w1 * w2), "multi") == m1 * m2


def test_compose_diagrams():
    d1 = diagram_from_word(word(3, 1))
    d2 = diagram_from_word(word(3, -2))
    d = compose(d1, d2)
    assert tym_matrix(d, "multi") == tym_matrix(diagram_from_word(word(3, 1, -2)), "multi")
    assert tym_matrix(compose(d1, Diagram.trivial(3)), "multi") == tym_matrix(d1, "multi")


def test_two_var_is_collapse_of_multi():
    rng = random.Random(31)
    ctx2 = ctx_for_mode("2var", 3)
    for _ in range(10):
        w = random_word(rng, 3, 8)
        d = diagram_from_word(w)
        multi = tym_matrix(d, "multi")
        images = {}
        for v in multi.ring.variables:
            images[v] = ctx2.var("u") if v.startswith("u") else ctx2.var("v")
        collapsed = multi.map_entries(
            lambda p: specialize(p, images, ctx2), ring=ctx2)
        assert collapsed == tym_matrix(d, "2var")


def test_specialization_bridge_to_one_variable():
    # multi variable matrix at u_i -> t_i, v_i -> 1 on sigma_i gives the
    # one variable generator block with t_{i+1}
    n = 3
    ctx = multi_ctx(n)
    target = RingContext(("t1", "t2", "t3"))
    for i in (1, 2):
        m = tym_matrix(diagram_from_word(word(n, i)), "multi")
        images = {}
        for v in ctx.variables:
            if v.startswith("u"):
                images[v] = target.var("t" + v[1:])
            else:
                images[v] = target.one()
        got = m.map_entries(lambda p: specialize(p, images, target), ring=target)
        assert got[i - 1, i] == target.var("t%d" % (i + 1))
        assert got[i, i - 1] == target.one()
        for k in range(n):
            if k not in (i - 1, i):
                assert got[k, k] == target.one()


def test_kink_gadget_needs_correction():
    d = Diagram.trivial(1)
    kinked = add_kink(d, 1, sign=1)
    ctx = ctx_for_mode("2var", 1)
    uv = ctx.var("u") * ctx.var("v")
    uncorrected = tym_matrix(kinked, "2var", self_writhe_correction=False)
    assert uncorrected[0, 0] == uv
    corrected = tym_matrix(kinked, "2var")
    assert corrected.is_identity()
    neg = add_kink(d, 1, sign=-1)
    assert tym_matrix(neg, "2var").is_identity()
    assert tym_matrix(neg, "2var", self_writhe_correction=False)[0, 0] == uv.inverse()


def test_braid_words_have_no_self_crossings():
    rng = random.Random(37)
    for _ in range(15):
        w = random_word(rng, 4, 10, virtual=True)
        prof = linking_profile_diagram(diagram_from_word(w))
        for s in range(1, 5):
            assert prof.vl[(s, s)] == 0
            assert prof.V[(s, s)] == 0


@pytest.mark.parametrize("sign", [1, -1])
def test_one_kink_is_a_unit_self_crossing(sign):
    d = add_kink(diagram_from_word(word(3, 1, "v2", -1)), 2, sign=sign)
    prof = linking_profile_diagram(d)
    s = d.arc_string(d.bottom[1])
    assert prof.vl[(s, s)] == sign
    assert all(prof.vl[(i, i)] == 0 for i in (1, 2, 3) if i != s)


def test_monomiality_and_purity():
    rng = random.Random(41)
    for _ in range(15):
        w = random_word(rng, 3, 8, virtual=True)
        d = diagram_from_word(w)
        m = tym_matrix(d, "wmulti")
        assert m.is_monomial()
        diagonal = all(m[i, j].is_zero() for i in range(3) for j in range(3) if i != j)
        assert diagonal == d.is_pure()


def test_kernel_predicate_examples():
    sq = diagram_from_word(word(2, 1, 1))
    assert not kernel_predicate(sq, "318")
    assert not tym_matrix(sq, "2var").is_identity()
    undo = diagram_from_word(word(2, 1, 1, -1, -1))
    assert kernel_predicate(undo, "318")
    assert kernel_predicate(undo, "319")
    assert tym_matrix(undo, "2var").is_identity()


def test_kernel_predicate_purity_requirement():
    d = diagram_from_word(word(2, 1))
    with pytest.raises(DiagramError):
        kernel_predicate(d, "319")
    with pytest.raises(DiagramError):
        kernel_predicate(d, "49")
    v = diagram_from_word(word(2, "v1"))
    with pytest.raises(DiagramError):
        kernel_predicate(v, "318")


def test_diagram_file_round_trip():
    d = diagram_from_word(word(3, 1, "v2", -1))
    again = Diagram.parse(d.render())
    assert again.top == d.top and again.bottom == d.bottom
    assert again.crossings == d.crossings
    assert tym_matrix(again, "wmulti") == tym_matrix(d, "wmulti")


def test_diagram_parse_errors():
    with pytest.raises(DiagramError):
        Diagram.parse("top 1 a\nbottom 1 a\n")
    with pytest.raises(DiagramError):
        Diagram.parse("strands 1\ntop 1 a\nbottom 1 b\nx ? a b c d\n")


def test_welded_specialization_recovers_wtym():
    # wmulti collapsed to u, v, al agrees with the w3 pipeline
    rng = random.Random(47)
    ctx3 = ctx_for_mode("w3", 3)
    for _ in range(10):
        w = random_word(rng, 3, 8, virtual=True)
        d = diagram_from_word(w)
        m = tym_matrix(d, "wmulti")
        images = {}
        for v in m.ring.variables:
            images[v] = ctx3.var(v.rstrip("123"))
        collapsed = m.map_entries(lambda p: specialize(p, images, ctx3), ring=ctx3)
        assert collapsed == tym_matrix(d, "w3")


def test_invariant_restricts_to_tym_on_braids():
    # on braid diagrams the string link invariant is (w)TYM: w3 is wTYM,
    # and 2var at u -> 1, v -> t is TYM
    rng = random.Random(53)
    t_ctx = RingContext(("t",))
    for _ in range(20):
        n = rng.randrange(2, 6)
        w = random_word(rng, n, rng.randrange(0, 15), virtual=True)
        assert make_wtym(n).evaluate(w) == tym_matrix(diagram_from_word(w), "w3")
        w = random_word(rng, n, rng.randrange(0, 15))
        m = tym_matrix(diagram_from_word(w), "2var")
        images = {"u": t_ctx.one(), "v": t_ctx.var("t")}
        got = m.map_entries(lambda p: specialize(p, images, t_ctx), ring=t_ctx)
        assert make_tym(n).evaluate(w) == got


@st.composite
def kinked_diagrams(draw):
    """Word diagrams, classical or welded, composed and kinked at least once."""
    n = draw(st.integers(1, 4))
    if n > 1:
        i = st.integers(1, n - 1)
        letter = st.builds(lambda i, e: ("s", i, e), i, st.sampled_from((1, -1)))
        if draw(st.booleans()):
            letter = letter | st.builds(lambda i: ("t", i), i)

    def piece():
        letters = draw(st.lists(letter, max_size=8)) if n > 1 else []
        return diagram_from_word(BraidWord(n, letters))

    d = piece()
    kinks = draw(st.lists(st.tuples(st.integers(1, n), st.sampled_from((1, -1))),
                          min_size=1, max_size=5))
    for position, sign in kinks:
        if draw(st.booleans()):
            d = compose(d, piece())
        d = add_kink(d, position, sign)
    return d


def eliminated_matrix(d, mode, correction):
    """The invariant by chaining the crossing relations, and the writhe by rescanning."""
    ctx = ctx_for_mode(mode, d.n)
    nf = eliminate(relations_of(d, mode, ctx), d.top, d.bottom)
    entries = {}
    for j in range(d.n):
        s, w = nf.source[j], nf.weight[j]
        if correction:
            k = sum(c.sign for c in d.crossings if c.kind == "x"
                    and d.arc_string(c.a_in) == s == d.arc_string(c.b_in))
            u, v = ("u", "v") if mode in ("2var", "w3") else ("u%d" % s, "v%d" % s)
            w = w * (ctx.var(u) * ctx.var(v)) ** (-k)
        entries[(s - 1, j)] = w
    return RingMatrix.from_entries_dict(ctx, d.n, entries)


@settings(max_examples=80, deadline=None)
@given(kinked_diagrams())
def test_tally_matches_elimination(d):
    modes = ("w3", "wmulti") if d.has_virtual() else MODES
    for mode in modes:
        for correction in (True, False):
            assert (tym_matrix(d, mode, self_writhe_correction=correction)
                    == eliminated_matrix(d, mode, correction))


@st.composite
def welded_words(draw):
    """Welded braid words on 1 to 5 strands, the empty word included."""
    n = draw(st.integers(1, 5))
    if n == 1:
        return BraidWord(1)
    i = st.integers(1, n - 1)
    letter = st.one_of(st.builds(lambda i, e: ("s", i, e), i, st.sampled_from((1, -1))),
                       st.builds(lambda i: ("t", i), i))
    return BraidWord(n, draw(st.lists(letter, max_size=30)))


@settings(max_examples=200, deadline=None)
@given(welded_words())
def test_word_tally_matches_the_diagram_tally(w):
    d = diagram_from_word(w)
    prof = linking_profile_word(w)
    assert prof == linking_profile_diagram(d)
    assert prof.bottom == tuple(d.arc_string(a) for a in d.bottom)
    assert prof.is_pure() == d.is_pure() == w.is_pure()
    assert prof.virtual == d.has_virtual() == (not w.is_classical())
    modes = ("w3", "wmulti") if prof.virtual else MODES
    assert all(tym_matrix(prof, mode) == tym_matrix(d, mode) for mode in modes)


def dense_kernel_predicate(prof, which):
    """The four kernel criteria read over all n^2 pairs of strings."""
    strings = range(1, prof.n + 1)
    vl, V = prof.vl, prof.V
    pairs = [(i, j) for i in strings for j in strings if i != j]
    if which == "318":
        return all(sum(vl[(i, j)] + vl[(j, i)] for j in strings if j != i) == 0
                   for i in strings)
    if which == "319":
        return all(vl[(i, j)] + vl[(j, i)] == 0 for i, j in pairs)
    if which == "48":
        return all(x == 0 for j in strings for x in prof.row_sums(j))
    return all(vl[p] == 0 and V[p] == 0 for p in pairs)


@settings(max_examples=100, deadline=None)
@given(welded_words())
def test_sparse_kernel_criteria_match_the_dense_ones(w):
    # w, a pure power of w, and w times its inverse (every tally cancels)
    perm, k = w.permutation(), 1
    power = perm
    while not power.is_identity():
        power, k = power * perm, k + 1
    for u in (w, w ** k, w * w.inverse()):
        prof = linking_profile_word(u)
        for which, needs_classical, needs_pure in (("318", True, False), ("319", True, True),
                                                   ("48", False, False), ("49", False, True)):
            if (needs_classical and prof.virtual) or (needs_pure and not prof.is_pure()):
                with pytest.raises(DiagramError):
                    kernel_predicate(prof, which)
            else:
                assert kernel_predicate(prof, which) == dense_kernel_predicate(prof, which)


def test_a_large_strand_count_tallies_only_the_crossing_pair():
    prof = linking_profile_word(BraidWord.parse("n=100000\n1\n"))
    assert len(prof.vl) + len(prof.V) <= 1
    assert prof.vl[(2, 1)] == 1 and prof.vl[(1, 2)] == 0
    assert not kernel_predicate(prof, "48")


def test_profiles_differing_only_in_bottom_or_virtual_flag_are_unequal():
    w = linking_profile_word(word(2, "v1", "v1"))
    assert w.virtual and w.V == linking_profile_word(word(2)).V
    assert w != linking_profile_word(word(2))
    assert linking_profile_word(word(2, 1, -1)) == linking_profile_word(word(2))
    swapped = linking_profile_word(word(2, "v1"))
    assert swapped.bottom == (2, 1) and not swapped.is_pure()
