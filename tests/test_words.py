import random

import pytest
from hypothesis import given, settings, strategies as st

from braidrep.stringlinks import diagram_from_word, linking_profile_diagram
from braidrep.words import (BraidWord, FreeWord, GroupRingElement,
                            WordParseError, artin_action, chi, commutator,
                            fox_derivative)


def random_word(rng, n, length, virtual=False):
    letters = []
    for _ in range(length):
        i = rng.randrange(1, n)
        if virtual and rng.random() < 0.3:
            letters.append(("t", i))
        else:
            letters.append(("s", i, rng.choice((1, -1))))
    return BraidWord(n, letters)


def test_word_parse_render_round_trip():
    w = BraidWord(4, [("s", 1, 1), ("s", 3, -1), ("t", 2)])
    assert BraidWord.parse(w.render()) == w


def test_word_parse_errors():
    with pytest.raises(WordParseError):
        BraidWord.parse("1 2")
    with pytest.raises(WordParseError):
        BraidWord.parse("n=3\n5")
    with pytest.raises(WordParseError):
        BraidWord.parse("n=3\n0")
    with pytest.raises(WordParseError):
        BraidWord.parse("n=2\nvx")


@pytest.mark.parametrize("letter, err", [
    (("s", 3, 1), "bad letter"),   # index outside 1..n-1
    (("t", 0), "bad letter"),
    (("s", 1, 2), "bad letter"),   # sign other than +-1
    (("x", 1), "unknown letter"),
])
def test_constructor_checks_letters_for_library_callers(letter, err):
    with pytest.raises(ValueError, match=err):
        BraidWord(3, [("s", 1, 1), letter])


def test_parse_builds_the_word_the_constructor_builds():
    w = BraidWord.parse("n=3\n1 -2 v2 [1, v1]")
    assert type(w.letters) is tuple
    assert w == BraidWord(3, w.letters) and hash(w) == hash(BraidWord(3, w.letters))


def test_header_may_share_its_line():
    assert BraidWord.parse("n=3 1 -2") == BraidWord.parse("n=3\n1 -2")


TOKENS = ("1", "-1", "2", "-2", "v1", "v2")


def token_word(tokens):
    return BraidWord(3, [("t", int(t[1:])) if t.startswith("v")
                         else ("s", abs(int(t)), 1 if int(t) > 0 else -1) for t in tokens])


# a commutator factor: one letter, or an inner [C, D] of letters
factors = st.one_of(
    st.sampled_from(TOKENS).map(lambda t: (t, token_word([t]))),
    st.tuples(st.lists(st.sampled_from(TOKENS), max_size=3),
              st.lists(st.sampled_from(TOKENS), max_size=3)).map(
        lambda cd: ("[%s, %s]" % (" ".join(cd[0]), " ".join(cd[1])),
                    commutator(token_word(cd[0]), token_word(cd[1])))))


def product(parts):
    w = BraidWord.identity(3)
    for _, part in parts:
        w = w * part
    return w


@settings(max_examples=150, deadline=None)
@given(st.lists(factors, max_size=4), st.lists(factors, max_size=4), st.data())
def test_commutator_text_parses_to_commutator(a, b, data):
    text = "n=3 [%s, %s]" % (" ".join(t for t, _ in a), " ".join(t for t, _ in b))
    expected = commutator(product(a), product(b))
    assert BraidWord.parse(text) == expected
    # the same tokens over several lines, with comments and blank lines
    gaps = st.sampled_from([" ", "\n", "\n\n", " # ] [ , x\n", "\n# c\n\n"])
    spread = data.draw(gaps)
    for tok in text.replace("[", " [ ").replace(",", " , ").replace("]", " ] ").split():
        spread += tok + data.draw(gaps)
    assert BraidWord.parse(spread) == expected


def test_word_inverse_and_power():
    w = BraidWord(3, [("s", 1, 1), ("t", 2), ("s", 2, -1)])
    assert w.inverse().letters == (("s", 2, 1), ("t", 2), ("s", 1, -1))
    assert (w ** 2).letters == w.letters * 2
    assert (w ** -1) == w.inverse()


def test_word_permutation():
    w = BraidWord(3, [("s", 1, 1), ("s", 2, 1)])
    perm = w.permutation()
    # string 1 crosses to the rightmost position
    assert perm.img == (1, 2, 0)
    assert not w.is_pure()
    assert (w * w * w).is_pure()


def test_shift():
    w = BraidWord(3, [("s", 1, 1), ("t", 2)])
    sh = w.shift(1)
    assert sh.n == 4
    assert sh.letters == (("s", 2, 1), ("t", 3))


def test_commutator():
    a = BraidWord(3, [("s", 1, 1)])
    b = BraidWord(3, [("s", 2, 1)])
    c = commutator(a, b)
    assert c.letters == (("s", 1, -1), ("s", 2, -1), ("s", 1, 1), ("s", 2, 1))


def test_free_word_reduction():
    w = FreeWord(2, [(1, 1), (2, 1), (2, -1), (1, -1), (1, 1)])
    assert w.letters == ((1, 1),)
    assert (w * w.inverse()).is_identity()


def test_artin_generator_images():
    w = BraidWord(3, [("s", 1, 1)])
    x1, x2, x3 = artin_action(w)
    assert x1 == FreeWord.gen(3, 2)
    assert x2 == FreeWord(3, [(2, -1), (1, 1), (2, 1)])
    assert x3 == FreeWord.gen(3, 3)
    inv = artin_action(w.inverse())
    assert inv[0] == FreeWord(3, [(1, 1), (2, 1), (1, -1)])
    assert inv[1] == FreeWord.gen(3, 1)


def test_artin_action_is_action():
    rng = random.Random(7)
    for _ in range(20):
        w1 = random_word(rng, 4, 4)
        w2 = random_word(rng, 4, 4)
        both = artin_action(w1 * w2)
        a2 = artin_action(w2)
        a1 = artin_action(w1)

        def apply1(word):
            out = FreeWord.identity(4)
            for g, s in word.letters:
                img = a1[g - 1]
                out = out * (img if s > 0 else img.inverse())
            return out

        for j in range(4):
            assert both[j] == apply1(a2[j])


def test_artin_preserves_product_of_generators():
    # the Artin action fixes x_1 x_2 ... x_n
    rng = random.Random(3)
    for _ in range(20):
        w = random_word(rng, 4, 6)
        images = artin_action(w)
        prod = FreeWord.identity(4)
        for img in images:
            prod = prod * img
        expected = FreeWord(4, [(g, 1) for g in range(1, 5)])
        assert prod == expected


def test_artin_rejects_virtual():
    with pytest.raises(ValueError):
        artin_action(BraidWord(3, [("t", 1)]))


def test_chi_single_generator():
    w = chi(FreeWord.gen(2, 1))
    assert w.n == 3
    assert w.letters == (("s", 1, 1), ("s", 1, 1))
    w2 = chi(FreeWord.gen(3, 3))
    assert w2.letters == (("s", 1, -1), ("s", 2, -1), ("s", 3, 1), ("s", 3, 1),
                          ("s", 2, 1), ("s", 1, 1))


def test_chi_homomorphic():
    a = FreeWord(3, [(1, 1), (3, -1)])
    b = FreeWord(3, [(2, 1)])
    assert chi(a * b).letters == (chi(a) * chi(b)).letters
    assert chi(a).exponent_sum() == 2 * a.exponent_sum()


def test_fox_basic_rules():
    x1 = FreeWord.gen(2, 1)
    assert fox_derivative(x1, 1) == GroupRingElement.one(2)
    assert fox_derivative(x1, 2).is_zero()
    d = fox_derivative(x1.inverse(), 1)
    assert d == -GroupRingElement.from_word(x1.inverse())


words2 = st.lists(
    st.tuples(st.integers(1, 2), st.sampled_from((1, -1))), max_size=8
).map(lambda ls: FreeWord(2, ls))


@settings(max_examples=60)
@given(words2)
def test_fox_fundamental_identity(w):
    # w - 1 = sum_j (x_j - 1) D_j(w)
    one = GroupRingElement.one(2)
    lhs = GroupRingElement.from_word(w) - one
    rhs = GroupRingElement.zero(2)
    for j in (1, 2):
        xj = GroupRingElement.from_word(FreeWord.gen(2, j))
        rhs = rhs + (xj - one) * fox_derivative(w, j)
    assert lhs == rhs


def fold_substitute(w, images, out):
    """out times the image of w under x_g -> images[g], one product per letter."""
    for g, s in w.letters:
        out = out * (images[g] if s > 0 else images[g].inverse())
    return out


def reference_artin_action(word):
    rank = word.n
    images = {j: FreeWord.gen(rank, j) for j in range(1, rank + 1)}
    for _, i, sign in word.letters:
        x, y = (i, 1), (i + 1, 1)
        rule = ([y], [(i + 1, -1), x, y]) if sign > 0 else ([x, y, (i, -1)], [x])
        images[i], images[i + 1] = [fold_substitute(FreeWord(rank, r), images,
                                                    FreeWord.identity(rank)) for r in rule]
    return [images[j] for j in range(1, rank + 1)]


def reference_chi(w):
    n = w.rank
    images = {}
    for g in range(1, n + 1):
        conj = BraidWord(n + 1, [("s", k, 1) for k in range(g - 1, 0, -1)])
        images[g] = conj.inverse() * BraidWord.sigma(n + 1, g) ** 2 * conj
    return fold_substitute(w, images, BraidWord.identity(n + 1))


def reference_fox(w, j):
    """D_j(w) letter by letter from the right: D_j(l u) = D_j(l) u + D_j(u)."""
    rank = w.rank
    out = GroupRingElement.zero(rank)
    suffix = FreeWord.identity(rank)
    for g, s in reversed(w.letters):
        if g == j:
            if s > 0:
                out = out + GroupRingElement.from_word(suffix)
            else:
                out = out - GroupRingElement.from_word(FreeWord(rank, [(g, -1)]) * suffix)
        suffix = FreeWord(rank, [(g, s)]) * suffix
    return out


def test_artin_chi_and_fox_match_their_letter_by_letter_definitions():
    rng = random.Random(21)
    for _ in range(40):
        rank = rng.randrange(2, 6)
        length = rng.randrange(0, 40)
        braid = random_word(rng, rank, length)
        assert artin_action(braid) == reference_artin_action(braid)
        free = FreeWord(rank, [(rng.randrange(1, rank + 1), rng.choice((1, -1)))
                               for _ in range(length)])
        image = chi(free)
        assert (image.n, image.letters) == (rank + 1, reference_chi(free).letters)
        for j in range(1, rank + 1):
            assert fox_derivative(free, j) == reference_fox(free, j)


def test_chi_of_a_long_word_is_the_concatenation_of_its_halves():
    rng = random.Random(4)
    a, b = (FreeWord(5, [(rng.randrange(1, 6), 1) for _ in range(2000)]) for _ in range(2))
    assert chi(a * b).letters == chi(a).letters + chi(b).letters


def test_linking_profile_sigma1_squared():
    w = BraidWord(2, [("s", 1, 1), ("s", 1, 1)])
    prof = linking_profile_diagram(diagram_from_word(w))
    assert prof.vl[(1, 2)] == 1 and prof.vl[(2, 1)] == 1
    assert prof.lk(1, 2) == 1
    assert all(v == 0 for v in prof.V.values())


def test_linking_profile_virtual_antisymmetry():
    rng = random.Random(11)
    for _ in range(30):
        w = random_word(rng, 3, 8, virtual=True)
        prof = linking_profile_diagram(diagram_from_word(w))
        for i in range(1, 4):
            for j in range(1, 4):
                if i != j:
                    assert prof.V[(i, j)] == -prof.V[(j, i)]


def test_linking_profile_tau_squared_cancels():
    w = BraidWord(2, [("t", 1), ("t", 1)])
    prof = linking_profile_diagram(diagram_from_word(w))
    assert prof.V[(1, 2)] == 0
