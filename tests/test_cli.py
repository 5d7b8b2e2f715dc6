import hashlib
import io
import json

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from braidrep import cli, longmoody, reproduce
from braidrep.cli import emit_matrix, main
from braidrep.reps import GenRep, make_tym, make_wtym
from braidrep.ring import RingContext, poly_render
from braidrep.stringlinks import MODES, diagram_from_word
from braidrep.words import BraidWord


def run(capsys, *argv):
    status = main(list(argv))
    out = capsys.readouterr()
    return status, out.out, out.err


def write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


def test_eval_tym_specialized(tmp_path, capsys):
    word = write(tmp_path, "w.braid", "n=3\n1 -2\n")
    status, out, _ = run(capsys, "eval", "--rep", "tym", "--word", word,
                         "--spec", "t=-1")
    assert status == 0
    assert out.splitlines() == ["3 3", "0;0;-1", "-1;0;0", "0;1;0"]


@pytest.mark.parametrize("argv, rows", [
    (("eval", "--rep", "wtym", "--spec", "u=x", "v=x", "al=-1"),
     [["0", "0", "-x^3", "0"], ["x^-1", "0", "0", "0"],
      ["0", "0", "0", "x^3"], ["0", "-x", "0", "0"]]),
    (("eval", "--rep", "burau", "--spec", "t=-t^-1"),
     [["-t^-1 - 2 - t", "-t^-1 - 1", "t^-3 + 2*t^-2 + t^-1", "t^-2"],
      ["t^-1 + 3 + 3*t + t^2", "t^-1 + 2 + t", "-t^-3 - 2*t^-2 - 3*t^-1 - 1", "-t^-2 - t^-1"],
      ["-t - t^2", "-t", "t^-1 + 1", "0"],
      ["-t", "0", "t^-1 + 1", "t^-1 + 1"]]),
])
def test_eval_specialized_output_is_pinned(tmp_path, capsys, argv, rows):
    text = "n=4\nv1 1 v2 -3 2 v3 1 -2 v1 3 3\n" if "wtym" in argv else "n=4\n1 -2 3 1 2 -1\n"
    word = write(tmp_path, "w.braid", text)
    argv = argv[:3] + ("--word", word) + argv[3:]
    assert run(capsys, *argv) == (0, "\n".join(["4 4"] + [";".join(r) for r in rows]) + "\n", "")
    payload = {"rows": 4, "cols": 4, "entries": rows}
    assert run(capsys, "--format", "json", *argv) == (0, json.dumps(payload, indent=2) + "\n", "")


def test_matrix_text_and_json_render_each_entry_as_poly_render():
    # variable orders that are not alphabetical: ("t", "q") and ("u", "v", "al")
    lmq = longmoody.lm_q(make_tym(4, RingContext(("t", "q"))))
    wtym = make_wtym(4)
    for rep, letters in ((lmq, "1 -2 1 2 2 -1"), (wtym, "v1 1 v2 -3 2 v3 1 -2 v1 3 3")):
        m = rep.evaluate(BraidWord.parse("n=%d\n%s\n" % (rep.n, letters)))
        texts = [[poly_render(m[i, j]) for j in range(m.cols)] for i in range(m.rows)]
        assert len({t for row in texts for t in row}) > 2
        assert m.render() == "\n".join(["%d %d" % (m.rows, m.cols)] + [";".join(r) for r in texts])
        out = io.StringIO()
        emit_matrix(m, "json", out)
        assert json.loads(out.getvalue()) == {"rows": m.rows, "cols": m.cols, "entries": texts}


def test_spec_variable_outside_the_ring_is_a_parse_error(tmp_path, capsys):
    word = write(tmp_path, "w.braid", "n=3\n1 -2\n")
    status, out, err = run(capsys, "eval", "--rep", "tym", "--word", word, "--spec", "u=1")
    assert (status, out) == (2, "")
    assert "'u'" in err and "Traceback" not in err


def test_invariant_multi(tmp_path, capsys):
    word = write(tmp_path, "w.braid", "n=3\n1 -2\n")
    status, out, _ = run(capsys, "invariant", "--mode", "multi", "--word", word)
    assert status == 0
    assert "u2*v3^-1" in out


def test_invariant_rejects_virtual_in_classical_mode(tmp_path, capsys):
    word = write(tmp_path, "w.braid", "n=2\nv1\n")
    status, _, err = run(capsys, "invariant", "--mode", "multi", "--word", word)
    assert status == 1
    assert "welded" in err


def test_parse_error_exit_code(tmp_path, capsys):
    word = write(tmp_path, "bad.braid", "n=3\n5\n")
    status, _, err = run(capsys, "eval", "--rep", "tym", "--word", word)
    assert status == 2
    assert err


def test_word_round_trip_through_files(tmp_path, capsys):
    word = write(tmp_path, "w.braid", "n=4\n1 -3 v2\n")
    status, out, _ = run(capsys, "eval", "--rep", "wtym", "--word", word)
    assert status == 0


def test_commutator_expansion(tmp_path, capsys):
    plain = write(tmp_path, "a.braid", "n=3\n-1 -2 1 2\n")
    bracket = write(tmp_path, "b.braid", "n=3\n[1, 2]\n")
    _, out1, _ = run(capsys, "eval", "--rep", "tym", "--word", plain)
    _, out2, _ = run(capsys, "eval", "--rep", "tym", "--word", bracket)
    assert out1 == out2
    plain = write(tmp_path, "c.braid", "n=3\n-1 -1 -2 1 2 1 -2 -1 2 1\n")
    nested = write(tmp_path, "d.braid", "n=3\n[1, [2, 1]]\n")
    _, out1, _ = run(capsys, "eval", "--rep", "tym", "--word", plain)
    _, out2, _ = run(capsys, "eval", "--rep", "tym", "--word", nested)
    assert out1 == out2


@pytest.mark.parametrize("depth", [50, 3000])
def test_unterminated_commutator_at_any_depth(tmp_path, capsys, depth):
    word = write(tmp_path, "w.braid", "n=3\n" + "[" * depth + "1 , 2\n")
    status, out, err = run(capsys, "eval", "--rep", "tym", "--word", word)
    assert status == 2
    assert out == ""
    assert err == "error: unterminated commutator\n"


@pytest.mark.parametrize("text, err", [
    ("n=3\n\n# c\n1 2\n1 x\n", "error: line 5: bad token 'x'\n"),
    ("\n\nn=q\n1\n", "error: line 3: bad strand count 'q'\n"),
    # numbers are optionally signed ASCII digits: no underscores, no other scripts
    ("n=1_2\n1\n", "error: line 1: bad strand count '1_2'\n"),
    ("n=\u0663\n1\n", "error: line 1: bad strand count '\u0663'\n"),
    ("n=12\n1 1_0\n", "error: line 2: bad token '1_0'\n"),
    ("n=12\n-1_0\n", "error: line 2: bad token '-1_0'\n"),
    ("n=12\nv1_0\n", "error: line 2: bad token 'v1_0'\n"),
    ("n=3\n\u0661\n", "error: line 2: bad token '\u0661'\n"),
    ("n=3\n1\n\n5\n", "error: line 4: generator index 5 outside 1..2\n"),
    ("n=3 -3\n", "error: line 1: generator index 3 outside 1..2\n"),
    ("n=3\nv3\n", "error: line 2: generator index 3 outside 1..2\n"),
    ("n=3\nv-1\n", "error: line 2: generator index -1 outside 1..2\n"),
    ("n=3\n0\n", "error: line 2: generator index 0 outside 1..2\n"),
    ("n=1\n1\n", "error: line 2: generator index 1 outside 1..0\n"),
    ("n=3\n[1, [2, 7]]\n", "error: line 2: generator index 7 outside 1..2\n"),
])
def test_word_errors_name_the_line_in_the_file(tmp_path, capsys, text, err):
    word = write(tmp_path, "w.braid", text)
    assert run(capsys, "linking", "--word", word) == (2, "", err)


@pytest.mark.parametrize("text, err", [
    # past int()'s 4300-digit limit, a bad token
    ("n=3\n1 " + "1" * 5000 + "\n",
     "error: line 2: bad token '11111111111111111111'... (5000 characters)\n"),
    # below it, a number outside the range
    ("n=3\n-" + "2" * 4000 + "\n",
     "error: line 2: generator index '-2222222222222222222'... (4001 characters) outside 1..2\n"),
    ("n=" + "x" * 5000 + "\n1\n",
     "error: line 1: bad strand count 'xxxxxxxxxxxxxxxxxxxx'... (5000 characters)\n"),
    ("n=-" + "3" * 4000 + "\n1\n",
     "error: line 1: strand count '-3333333333333333333'... (4001 characters) is below 1\n"),
], ids=["bad-token", "generator-index", "bad-strand-count", "strand-count-below-1"])
def test_word_errors_quote_a_long_token_in_part(tmp_path, capsys, text, err):
    word = write(tmp_path, "w.braid", text)
    assert run(capsys, "linking", "--word", word) == (2, "", err)
    assert len(err) < 120


WORD_TOKENS = ("n=1", "n=2", "n=3", "n=0", "n=q", "n=", "1", "-2", "0", "5",
               "v1", "vx", "x", "[", "]", ",", "#")


# every token is followed by whitespace, so a header never grows past n=3
@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.lists(st.tuples(st.sampled_from(WORD_TOKENS),
                          st.sampled_from((" ", "\n", "\t", "\n\n"))), max_size=30))
def test_any_word_text_exits_0_or_2(tmp_path, capsys, pairs):
    word = write(tmp_path, "w.braid", "".join(tok + sep for tok, sep in pairs))
    status, _, err = run(capsys, "linking", "--word", word)
    assert status in (0, 2)
    assert "Traceback" not in err


def test_linking_json(tmp_path, capsys):
    word = write(tmp_path, "w.braid", "n=2\n1 1\n")
    status, out, _ = run(capsys, "--format", "json", "linking", "--word", word)
    assert status == 0
    data = json.loads(out)
    assert data["lk"]["1,2"] == "1"
    assert data["vl"]["2,1"] == 1


def test_kernel_check(tmp_path, capsys):
    word = write(tmp_path, "w.braid", "n=2\n1 1 -1 -1\n")
    status, out, _ = run(capsys, "kernel-check", "--thm", "319", "--word", word)
    assert status == 0
    assert "in_kernel: True" in out


def test_kernel_check_purity_error(tmp_path, capsys):
    word = write(tmp_path, "w.braid", "n=2\n1\n")
    status, _, err = run(capsys, "kernel-check", "--thm", "319", "--word", word)
    assert status == 1
    assert "pure" in err


def test_diagram_input(tmp_path, capsys):
    diagram = write(tmp_path, "d.diag", """
strands 2
top 1 a1
top 2 a2
bottom 1 x1
bottom 2 x2
x + a2 x1 a1 x2
""".lstrip())
    status, out, _ = run(capsys, "invariant", "--mode", "multi",
                         "--diagram", diagram)
    assert status == 0
    assert "u2" in out and "v1" in out


@pytest.mark.parametrize("line, bad", [
    ("x + a2 x1 a1 x2", "x + a"),
    ("x + a2 x1 a1 x2", "v + b c"),
    ("x + a2 x1 a1 x2", "x + a2 x1 a1 x2 junk"),
    ("top 1 a1", "top 1 a1 b"),
    ("strands 2", "strands 2\nstrands 2"),
    ("top 2 a2", "top 2 a2\ntop 2 a3"),
    ("bottom 2 x2", "bottom 2 x2\nbottom 2 x3"),
    ("strands 2", "strands 0"),
    ("strands 2", "strands -1"),
    ("strands 2", "strands 0_2"),
    ("strands 2", "strands \u0662"),
    ("top 2 a2", "top 0_2 a2"),
    ("bottom 1 x1", "bottom 1_0 x1"),
])
def test_malformed_diagram_line_is_a_parse_error(tmp_path, capsys, line, bad):
    text = "strands 2\ntop 1 a1\ntop 2 a2\nbottom 1 x1\nbottom 2 x2\nx + a2 x1 a1 x2\n"
    diagram = write(tmp_path, "d.diag", text.replace(line, bad))
    status, out, err = run(capsys, "invariant", "--mode", "multi", "--diagram", diagram)
    assert status == 2
    assert out == ""
    assert err.startswith("error: line") and "Traceback" not in err


DIAGRAM_TOKENS = ("strands", "top", "bottom", "x", "v", "+", "-", "0", "1", "2", "3",
                  "-1", "t1", "t2", "m1", "m2", "m3", "#")
DIAGRAM_COMMANDS = [("invariant", "--mode", mode) for mode in MODES]
DIAGRAM_COMMANDS += [("linking",)]
DIAGRAM_COMMANDS += [("kernel-check", "--thm", thm) for thm in ("318", "319", "48", "49")]


@st.composite
def diagram_text(draw):
    """The text of the diagram of a random word, with random lines dropped or inserted."""
    n = draw(st.integers(1, 3))
    letter = st.tuples(st.just("s"), st.integers(1, n - 1), st.sampled_from((1, -1)))
    letter = st.one_of(letter, st.tuples(st.just("t"), st.integers(1, n - 1)))
    d = diagram_from_word(BraidWord(n, draw(st.lists(letter, max_size=4)) if n > 1 else ()))
    lines = ["strands %d" % n]
    lines += ["top %d %s" % (s, arc) for s, arc in enumerate(d.top, 1)]
    lines += ["bottom %d %s" % (s, arc) for s, arc in enumerate(d.bottom, 1)]
    lines += ["%s %s %s %s %s %s" % (c.kind, "+-"[c.sign < 0], c.a_in, c.a_out, c.b_in, c.b_out)
              for c in d.crossings]
    junk = st.lists(st.sampled_from(DIAGRAM_TOKENS), max_size=6).map(" ".join)
    for at, line in draw(st.lists(st.tuples(st.integers(0, 20), st.none() | junk), max_size=3)):
        at %= len(lines) + 1
        if line is not None:
            lines.insert(at, line)
        elif at < len(lines):
            del lines[at]
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("text", [
    "n=1\n",
    "n=3\n",
    "n=2\n1 1 -1 -1\n",
    "n=3\n1 -2 1 2\n",
    "n=3\n[1 2, -2 1]\n",
    "n=3\n1 2 # not pure\n",
    "n=4\nv1 1 v2 -3 2 v3 1 -2 v1 3 3\n",
    "n=3\n[v1 1 v1, 2 2]\n",
], ids=["one-strand", "empty", "pure", "braid", "commutator", "not-pure", "welded",
        "welded-commutator"])
@pytest.mark.parametrize("argv", DIAGRAM_COMMANDS + [("--format", "json", "linking")])
def test_a_word_and_its_diagram_give_the_same_output(tmp_path, capsys, text, argv):
    word = write(tmp_path, "w.braid", text)
    diagram = write(tmp_path, "w.diag", diagram_from_word(BraidWord.parse(text)).render())
    got = run(capsys, *argv, "--word", word)
    assert got == run(capsys, *argv, "--diagram", diagram)
    if "v" in text and argv[-1] in ("2var", "multi"):
        assert got == (1, "", "error: virtual crossings need a welded mode\n")
    if "not pure" in text and argv[-1] == "319":
        assert got == (1, "", "error: criterion 319 needs a pure diagram\n")


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(diagram_text(), st.sampled_from(DIAGRAM_COMMANDS))
def test_any_diagram_text_exits_0_1_or_2(tmp_path, capsys, text, argv):
    diagram = write(tmp_path, "d.diag", text)
    status, out, err = run(capsys, *argv, "--diagram", diagram)
    assert status in (0, 1, 2)
    assert "Traceback" not in err
    if status:
        assert out == "" and err.startswith("error:")


def test_huge_strand_count_in_a_diagram_is_rejected(tmp_path, capsys):
    diagram = write(tmp_path, "d.diag", "strands 1000000000\ntop 1 a\nbottom 1 a\n")
    status, out, err = run(capsys, "invariant", "--mode", "multi", "--diagram", diagram)
    assert (status, out) == (2, "")
    assert err == "error: top/bottom positions must cover 1..1000000000\n"


def test_lm_decompose(capsys):
    status, out, _ = run(capsys, "lm", "decompose", "--n", "2")
    assert status == 0
    assert "ok: True" in out


@pytest.mark.parametrize("n", ["1", "0", "-3"])
def test_lm_decompose_needs_two_strands(capsys, n):
    assert run(capsys, "lm", "decompose", "--n", n) == (1, "", "error: need n >= 2\n")


def test_lm_irreducible_json(capsys):
    status, out, _ = run(capsys, "--format", "json", "lm", "irreducible",
                         "--rep", "reduced-lm3", "--trials", "3")
    assert status == 0
    data = json.loads(out)
    assert data["full"] is True


@pytest.mark.parametrize("trials", ["0", "-3"])
def test_lm_irreducible_trials_below_one_is_a_parse_error(capsys, trials):
    status, out, err = run(capsys, "lm", "irreducible", "--trials", trials)
    assert (status, out) == (2, "")
    assert err == "error: --trials must be at least 1, got %s\n" % trials


def test_lm_build_onedim(capsys):
    status, out, _ = run(capsys, "lm", "build", "--source", "onedim:1",
                         "--n", "2", "--q-twist")
    assert status == 0
    assert "q^2" in out


# SHA-256 of the text output of `lm build --source S --n N [--q-twist]`.
# wtym builds the construction on its sigma images alone.
LM_BUILD_DIGESTS = {
    "tym 2": "22b615b1a602e7e3a885747e4b0e6cdce3a1236a05c754162ed7458c250e0e32",
    "tym 2 --q-twist": "fc7d9d1504250b0457bfb87ebbdbd251c0167d1b3209ac9ad70a4c105610ff79",
    "burau 2": "7bc359991008553a01cb5138f29464a369ec94d5683e6f5f464ede6c3c9ddd95",
    "burau 2 --q-twist": "0596b335114844b9f145d2d55adbc50ac199b65a69233503cbaa5c2e26116515",
    "onedim:t 2": "ff45cfa302c4396ac7a977b88e148983dc4c96f09ec5db5d56c42a9d3b381901",
    "onedim:t 2 --q-twist": "cfd7ff25e6dfaa6b908254fd2290ad7511fa16a934eb83d4f7443fab8ea23886",
    "eta 2": "54bfa6617c9ddc89975bf693fe553801b6fba4371346ec4313182d3aadabeeba",
    "eta 2 --q-twist": "83077e0da959264c8e38f5524c9df5692c848df62277098d0591654092c09c96",
    "wtym 2": "b34d866d8c32634e45ecefd2a26681d525ad8f177104110f6b8bf8c12b48c28a",
    "tym 3": "b515ada204b56eaacbb0a9011885579f9e202b33b0de86acda5126640b44061c",
    "tym 3 --q-twist": "8e29423ba06bf9443ba0b09c148b1c22c24d493e807fe630108ad3ec0a678aa9",
    "burau 3": "c2fbc2af9a9ec375e644411ebb69a66b1161c70a8b41521a1cb19a6d9a023dd2",
    "burau 3 --q-twist": "b35674d04106428fe96fffa26c6dedd671a162ca3f4e4f1a2075fe94b8fce79a",
    "onedim:t 3": "6fcc638fb247ee60228ce446455d85a20d355acab1499c79b4eb54c024d24e3a",
    "onedim:t 3 --q-twist": "dc424b926135ac7e22969408a6cf9f1429bade0bd26dfc09df61a4cf4948a2d5",
    "eta 3": "14d2410cec059b71d1fd452513019ed909f601f76c2b3e0badb37f0d8cf721ba",
    "eta 3 --q-twist": "b7e739453092c4a86ce23de24f684033a29fdfce0955e2f5b2131fa4ff3a8768",
    "wtym 3": "9d4332965abe0f6bc6ab984901722834eda1af7faa96659b2d9d4ca68eb6a323",
    "tym 4": "ad93cc02faf61d8c9647043c7f1bb4a8ea0034a6801a1d3f64e721d6a18e2fff",
    "tym 4 --q-twist": "730857c499a6854e3c44fa96d4611bf4d144bb66d48dd2e26cb9694820ad0378",
    "burau 4": "4e65e05ecfabc720964e158f868affc46e2ec960afdd4dc492ba8e40eaddc175",
    "burau 4 --q-twist": "e7ee50c92cfcacb030612fa6339d1832d67cb16a170970da7346f6b1e7327754",
    "onedim:t 4": "b941079ee0abc16deea809d43535a97eb4020afea8365fa1f51e29e82178d869",
    "onedim:t 4 --q-twist": "66ac47c791df8347321d6a923a5c4b928f822fb74f0d641a8762580fc8d9bf72",
    "eta 4": "28bd28ded6cf98bd162cf15c745737399612c2aedd765056aa570fcff6325eaf",
    "eta 4 --q-twist": "a567e6f1ed7a589e8235691acf0874060481d586798c72c4e2400e09d2dc8a0a",
    "wtym 4": "d2eb961814f2799ff0972530d425eff86a8024f1ccc2c2ef84103e9e1ce17608",
    "tym 5": "89796a82afd142206f93a63f6bb62cf2c1467f054d161486e4d047bf5ba20e24",
    "tym 5 --q-twist": "ea1710774297a4076f678a5b57d7966fa33e69d9807161587a67a9ab9cd961aa",
    "burau 5": "9daea9468739a419b42a860c9004a59bc39ade968dcbeb5038652aea0834e577",
    "burau 5 --q-twist": "22540c4021a14fb6b109edabd79b689e9c318825b6c1baf898de31dc14c99b9d",
    "onedim:t 5": "64dc97e9736f2a302f4c4c0ac75c1d88adf275174c0e4dead824684341760220",
    "onedim:t 5 --q-twist": "9e9d4b8a269e762c6819dca56cdc07a2817e39838b3338fee6fdf9c2ff85b871",
    "eta 5": "90c9775868579f78dd3390ca90c36731bf149cac3be161184c05354bc524a0ea",
    "eta 5 --q-twist": "9b232a3dbac3634c4e28e2793c42e88dcc4fa16bcc550fae19909fa1d55f0456",
    "wtym 5": "7b765b7d9e6f810cd673702c825e5cbe55d2d1f15815bfba3d12721f9d861229",
}


@pytest.mark.parametrize("key", sorted(LM_BUILD_DIGESTS))
def test_lm_build_output_is_pinned(capsys, key):
    source, n, *twist = key.split()
    status, out, _ = run(capsys, "lm", "build", "--source", source, "--n", n, *twist)
    assert status == 0
    assert hashlib.sha256(out.encode()).hexdigest() == LM_BUILD_DIGESTS[key]


def test_paper_reproduce(capsys):
    status, out, _ = run(capsys, "paper", "reproduce")
    assert status == 0
    lines = [ln for ln in out.splitlines() if ln.strip()]
    assert lines and all(ln.endswith("PASS") for ln in lines)


def test_paper_reproduce_reports_a_check_that_raises(capsys, monkeypatch):
    def boom():
        raise RuntimeError("boom")
    checks = list(reproduce.CHECKS)
    name = checks[2][0]
    checks[2] = (name, boom)
    monkeypatch.setattr(reproduce, "CHECKS", checks)
    status, out, _ = run(capsys, "paper", "reproduce")
    assert status == 1
    lines = out.splitlines()
    assert len(lines) == len(reproduce.CHECKS)
    assert lines[2] == "%-45s FAIL" % ("%s (error: boom)" % name)
    assert all(ln.endswith("PASS") for i, ln in enumerate(lines) if i != 2)


def test_determinism(tmp_path, capsys):
    word = write(tmp_path, "w.braid", "n=3\n1 2 -1\n")
    _, out1, _ = run(capsys, "invariant", "--mode", "multi", "--word", word)
    _, out2, _ = run(capsys, "invariant", "--mode", "multi", "--word", word)
    assert out1 == out2


def test_out_of_range_exponent_in_text_is_a_parse_error(tmp_path, capsys):
    word = write(tmp_path, "w.braid", "n=3\n1 -2\n")
    status, _, err = run(capsys, "eval", "--rep", "burau", "--word", word,
                         "--spec", "t=t^2147483648")
    assert status == 2
    assert err.startswith("error:") and "Traceback" not in err


def test_malformed_spec_text_is_a_parse_error(tmp_path, capsys):
    word = write(tmp_path, "w.braid", "n=3\n1 -2\n")
    status, out, err = run(capsys, "eval", "--rep", "tym", "--word", word, "--spec", "t=(t)")
    assert (status, out) == (2, "")
    assert err.startswith("error:") and "Traceback" not in err


def test_spec_with_a_non_unit_image_is_a_domain_error(tmp_path, capsys):
    word = write(tmp_path, "w.braid", "n=3\n1 -2\n")
    status, out, err = run(capsys, "eval", "--rep", "tym", "--word", word, "--spec", "t=2t")
    assert (status, out) == (1, "")
    assert "not a unit" in err


def test_non_unit_spec_image_exits_before_the_word_is_evaluated(tmp_path, capsys, monkeypatch):
    def evaluate(self, word):
        raise AssertionError("evaluated before the --spec images were checked")
    monkeypatch.setattr(GenRep, "evaluate", evaluate)
    word = write(tmp_path, "w.braid", "n=3\n1 -2\n")
    assert (run(capsys, "eval", "--rep", "burau", "--word", word, "--spec", "t=2t")
            == (1, "", "error: image of t is not a unit: <2*t>\n"))


@pytest.mark.parametrize("spec, err", [
    (("t",), "error: bad --spec item 't', expected var=poly\n"),
    (("u=1",), "error: --spec variable 'u' is not in the ring of tym ('t',)\n"),
    (("t=(t)",), "error: bad token at offset 0 in '(t)'\n"),
    (("t=q", "t=-1"), "error: repeated --spec variable 't'\n"),
], ids=["no-equals", "foreign-variable", "bad-text", "repeated-variable"])
def test_malformed_spec_exits_before_the_word_is_evaluated(tmp_path, capsys, monkeypatch,
                                                           spec, err):
    def evaluate(self, word):
        raise AssertionError("evaluated before the --spec items were read")
    monkeypatch.setattr(GenRep, "evaluate", evaluate)
    word = write(tmp_path, "w.braid", "n=3\n1 -2\n")
    assert run(capsys, "eval", "--rep", "tym", "--word", word, "--spec", *spec) == (2, "", err)


@pytest.mark.parametrize("argv", [
    ("eval", "--rep", "onedim:x"),
    ("lm", "build", "--source", "onedim:q", "--n", "3"),
])
def test_unknown_name_in_onedim_is_a_parse_error(tmp_path, capsys, argv):
    word = write(tmp_path, "w.braid", "n=2\n1\n")
    argv = argv + ("--word", word) if argv[0] == "eval" else argv
    status, out, err = run(capsys, *argv)
    assert (status, out) == (2, "")
    assert err.startswith("error: bad unit for onedim: variable '")


POLY_TOKENS = ("t", "q", "x", "u1", "0", "1", "2", "-1", "2147483648", "^", "*",
               "+", "-", "(", " ", "=")


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.lists(st.sampled_from(POLY_TOKENS), max_size=12).map("".join),
       st.sampled_from(("spec", "onedim")))
def test_any_polynomial_text_exits_0_1_or_2(tmp_path, capsys, text, where):
    word = write(tmp_path, "w.braid", "n=3\n1 -2 1\n")
    if where == "spec":
        argv = ("eval", "--rep", "burau", "--word", word, "--spec", "t=" + text)
    else:
        argv = ("eval", "--rep", "onedim:" + text, "--word", word)
    status, _, err = run(capsys, *argv)
    assert status in (0, 1, 2)
    assert "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ("--rep", "burau", "--spec", "t=" + "1" * 5000),
    ("--rep", "onedim:" + "1" * 5000 + "*t"),
])
def test_integer_literal_past_the_conversion_limit_is_a_parse_error(tmp_path, capsys, argv):
    word = write(tmp_path, "w.braid", "n=3\n1 -2 1\n")
    status, out, err = run(capsys, "eval", "--word", word, *argv)
    assert (status, out) == (2, "")
    assert err.startswith("error:") and "Traceback" not in err


def test_exponent_overflow_in_arithmetic_is_a_domain_error(tmp_path, capsys):
    word = write(tmp_path, "w.braid", "n=2\n1 1\n")
    status, _, err = run(capsys, "eval", "--rep", "onedim:t^2147483647", "--word", word)
    assert status == 1
    assert err.startswith("error:") and "Traceback" not in err


def test_lm_irreducible_at_a_prime_above_int64_products(capsys):
    # d*(p-1)^2 >= 2^63 here; the answer must agree with p = 10007
    status, out, _ = run(capsys, "lm", "irreducible", "--rep", "burau3",
                         "--prime", "4294967311")
    assert status == 0
    assert "dimension: 5" in out and "full: False" in out


def test_lm_irreducible_rejects_composite_prime(capsys):
    status, _, err = run(capsys, "lm", "irreducible", "--rep", "burau3", "--prime", "10005")
    assert status == 1
    assert "10005" in err and "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ("eval", "--rep", "tym"),
    ("invariant", "--mode", "multi"),
    ("linking",),
])
@pytest.mark.parametrize("header", ["n=-2", "n=0"])
def test_strand_count_below_one_is_a_parse_error(tmp_path, capsys, argv, header):
    word = write(tmp_path, "w.braid", header + "\n")
    status, out, err = run(capsys, *argv, "--word", word)
    assert status == 2
    assert out == ""
    assert err.startswith("error:") and "strand count" in err and "Traceback" not in err


# the whole report, pinned: every verdict, method, prime and point
KERNEL_WORDS_JSON = """\
{
  "sigma": {
    "n": 5,
    "burau_identity": true,
    "lm_identity": true,
    "t1lm_identity": false,
    "method": {
      "burau_identity": "exact",
      "lm_identity": "exact",
      "t1lm_identity": {
        "p": 268435459,
        "point": {
          "t": 206827001,
          "q": 225792652
        }
      }
    }
  },
  "tau": {
    "n": 6,
    "burau_identity": true,
    "lm_identity": true,
    "t1lm_identity": false,
    "method": {
      "burau_identity": "exact",
      "lm_identity": "exact",
      "t1lm_identity": {
        "p": 268435459,
        "point": {
          "t": 206827001,
          "q": 225792652
        }
      }
    }
  },
  "xi": {
    "n": 6,
    "burau_identity": true,
    "lm_identity": true,
    "t1lm_identity": false,
    "method": {
      "burau_identity": "exact",
      "lm_identity": "exact",
      "t1lm_identity": {
        "p": 268435459,
        "point": {
          "t": 206827001,
          "q": 225792652
        }
      }
    }
  },
  "upsilon": {
    "n": 7,
    "burau_identity": true,
    "lm_identity": true,
    "t1lm_identity": false,
    "method": {
      "burau_identity": "exact",
      "lm_identity": "exact",
      "t1lm_identity": {
        "p": 268435459,
        "point": {
          "t": 206827001,
          "q": 225792652
        }
      }
    }
  }
}
"""


def test_lm_kernel_words_reports_the_method_of_every_verdict(capsys):
    status, out, _ = run(capsys, "--format", "json", "lm", "kernel-words")
    assert status == 0
    report = json.loads(out)
    assert set(report) == {"sigma", "tau", "xi", "upsilon"}
    keys = {"burau_identity", "lm_identity", "t1lm_identity"}
    for r in report.values():
        assert set(r["method"]) == keys
        for key in keys:
            m = r["method"][key]
            # identity verdicts are exact; a modular method is a certificate
            assert m == "exact" or (not r[key] and set(m) == {"p", "point"})
    assert out == KERNEL_WORDS_JSON


INPUTS = {
    "bad.braid": "n=3\n1 q\n",
    "w.braid": "n=3\n1 -2\n",
    "virtual.braid": "n=3\nv1 1\n",
    "nonpure.braid": "n=3\n1 2\n",
    "twice.braid": "n=2\n1 1\n",
    "bad.dia": "strands 0\n",
}


# one input per error path, each output as it was before main became the only
# place that decides an exit status
@pytest.mark.parametrize("argv, status, err", [
    (("eval", "--rep", "tym", "--word", "bad.braid"), 2, "line 2: bad token 'q'"),
    (("eval", "--rep", "tym", "--word", "w.braid", "--spec", "t=(1"), 2,
     "bad token at offset 0 in '(1'"),
    (("eval", "--rep", "tym", "--word", "w.braid", "--spec", "t"), 2,
     "bad --spec item 't', expected var=poly"),
    (("eval", "--rep", "tym", "--word", "w.braid", "--spec", "u=1"), 2,
     "--spec variable 'u' is not in the ring of tym ('t',)"),
    (("linking", "--word", "missing.braid"), 2,
     "[Errno 2] No such file or directory: 'missing.braid'"),
    (("invariant", "--mode", "w3", "--diagram", "bad.dia"), 2, "line 1: strand count 0 is below 1"),
    (("invariant", "--mode", "2var", "--word", "virtual.braid"), 1,
     "virtual crossings need a welded mode"),
    (("kernel-check", "--thm", "319", "--word", "nonpure.braid"), 1,
     "criterion 319 needs a pure diagram"),
    (("eval", "--rep", "tym", "--word", "virtual.braid"), 1,
     "representation has no virtual generator images"),
    (("eval", "--rep", "tym", "--word", "w.braid", "--spec", "t=2"), 1,
     "image of t is not a unit: <2>"),
    (("eval", "--rep", "onedim:t^2147483647", "--word", "twice.braid"), 1,
     "product has an exponent outside +-2147483647"),
    (("lm", "build", "--source", "tym", "--n", "1"), 1, "need n >= 2"),
    (("lm", "irreducible", "--trials", "0"), 2, "--trials must be at least 1, got 0"),
])
def test_each_error_path_has_one_exit_status(tmp_path, capsys, monkeypatch, argv, status, err):
    for name, text in INPUTS.items():
        write(tmp_path, name, text)
    monkeypatch.chdir(tmp_path)
    assert run(capsys, *argv) == (status, "", "error: %s\n" % err)


def test_a_shared_parser_call_matches_the_call_run_alone(tmp_path, capsys, monkeypatch):
    for name, text in INPUTS.items():
        write(tmp_path, name, text)
    monkeypatch.chdir(tmp_path)
    calls = [
        ("eval", "--rep", "tym", "--word", "w.braid", "--spec", "t=-1"),
        ("eval", "--rep", "tym", "--word", "w.braid"),
        ("--format", "json", "invariant", "--mode", "multi", "--word", "w.braid"),
        ("invariant", "--mode", "multi", "--word", "w.braid"),
        ("eval", "--rep", "tym", "--spec"),  # argparse error: --word is required
        ("--format", "json", "kernel-check", "--thm", "48", "--word", "w.braid"),
        ("eval", "--rep", "burau", "--word", "w.braid"),
        ("--format", "json", "--seed", "3", "lm", "irreducible", "--trials", "1"),
        ("linking", "--word", "w.braid"),
        ("lm", "irreducible", "--trials", "1"),
        ("eval", "--rep", "tym", "--word", "w.braid", "--spec", "t=-t^-1"),
        ("invariant", "--mode", "w3", "--no-correction", "--word", "w.braid"),
        ("invariant", "--mode", "w3", "--word", "w.braid"),
    ]

    def call(argv):
        try:
            status = main(list(argv))
        except SystemExit as exc:
            status = ("exit", exc.code)
        out = capsys.readouterr()
        return status, out.out, out.err

    shared = [call(argv) for argv in calls]
    alone = []
    for argv in calls:
        monkeypatch.setattr(cli, "PARSER", cli.build_parser())
        alone.append(call(argv))
    assert shared == alone
    assert shared[4][0] == ("exit", 2) and "--word" in shared[4][2]
    assert shared[0][1] != shared[1][1] and shared[2][1] != shared[3][1]


NOT_UTF8 = b"n=3\n1 \xff 2\n"


@pytest.mark.parametrize("argv", [
    ("eval", "--rep", "tym", "--word"),
    ("invariant", "--mode", "w3", "--word"),
    ("invariant", "--mode", "w3", "--diagram"),
    ("linking", "--word"),
    ("linking", "--diagram"),
    ("kernel-check", "--thm", "48", "--word"),
    ("kernel-check", "--thm", "48", "--diagram"),
])
def test_a_file_that_is_not_utf8_text_is_a_parse_error(tmp_path, capsys, argv):
    path = tmp_path / "latin.txt"
    path.write_bytes(NOT_UTF8)
    status, out, err = run(capsys, *argv, str(path))
    assert (status, out) == (2, "")
    assert err == "error: %s: byte 6 is not UTF-8 text (invalid start byte)\n" % path
