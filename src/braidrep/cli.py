"""Command line front end.

Exit status: 0 on success, 1 on domain errors (bad math input), 2 on
parse errors (malformed files or flags).
"""
from __future__ import annotations

import argparse
import json
import sys

from . import golden
from .reps import make_burau, make_one_dim, make_tym, make_wtym
from .ring import (ContextMismatch, NotAUnit, PolyParseError, RingContext,
                   _tokenize, specialize)
from .stringlinks import (Diagram, DiagramError, MODES, ctx_for_mode,
                          diagram_from_word, eliminate, kernel_predicate,
                          linking_profile_diagram, tym_matrix)
from .words import BraidWord, WordParseError
from . import longmoody


class CliError(Exception):
    def __init__(self, message, status):
        super().__init__(message)
        self.status = status


def _read(path):
    try:
        with open(path) as fh:
            return fh.read()
    except OSError as exc:
        raise CliError(str(exc), 2)


def load_word(path):
    return BraidWord.parse(_read(path))


def load_diagram(path):
    try:
        return Diagram.parse(_read(path))
    except DiagramError as exc:
        raise CliError(str(exc), 2)


def load_input(args):
    """The diagram of --diagram, or the diagram threaded through the --word file."""
    if args.diagram:
        return load_diagram(args.diagram)
    return diagram_from_word(load_word(args.word))


def emit_matrix(m, fmt, out):
    if fmt == "json":
        from .ring import poly_render
        payload = {
            "rows": m.rows,
            "cols": m.cols,
            "entries": [[poly_render(m[i, j]) for j in range(m.cols)]
                        for i in range(m.rows)],
        }
        out.write(json.dumps(payload, indent=2) + "\n")
    else:
        out.write(m.render() + "\n")


def emit_obj(obj, fmt, out):
    if fmt == "json":
        out.write(json.dumps(obj, indent=2, default=str) + "\n")
    else:
        _emit_plain(obj, out)


def _emit_plain(obj, out, indent=""):
    if isinstance(obj, dict):
        for k, v in obj.items():
            if isinstance(v, (dict, list)):
                out.write("%s%s:\n" % (indent, k))
                _emit_plain(v, out, indent + "  ")
            else:
                out.write("%s%s: %s\n" % (indent, k, v))
    elif isinstance(obj, list):
        for v in obj:
            _emit_plain(v, out, indent)
    else:
        out.write("%s%s\n" % (indent, obj))


def _make_rep(name, n, ring=None):
    if name == "burau":
        ctx = ring if ring is not None else RingContext(("t",))
        return make_burau(n, ctx.var("t"))
    if name == "tym":
        return make_tym(n, ring)
    if name == "wtym":
        return make_wtym(n)
    if name.startswith("onedim:"):
        ctx = ring if ring is not None else RingContext(("t",))
        try:
            r = ctx.parse(name.split(":", 1)[1])
        except PolyParseError as exc:
            raise CliError("bad unit for onedim: %s" % exc, 2)
        if not r.is_unit():
            raise CliError("onedim scalar must be a unit monomial", 1)
        return make_one_dim(n, r)
    raise CliError("unknown representation %r" % name, 2)


def cmd_eval(args, out):
    word = load_word(args.word)
    rep = _make_rep(args.rep, word.n)
    try:
        m = rep.evaluate(word)
    except ValueError as exc:
        raise CliError(str(exc), 1)
    if args.spec:
        images = {}
        for item in args.spec:
            if "=" not in item:
                raise CliError("bad --spec item %r, expected var=poly" % item, 2)
            var, text = item.split("=", 1)
            images[var] = text
        # the target context keeps unspecialized variables and gains any
        # variables mentioned on the right hand sides
        mentioned = {name for text in images.values()
                     for kind, name in _tokenize(text) if kind == "name"}
        keep = [v for v in rep.ring.variables if v not in images]
        target = RingContext(tuple(keep) + tuple(sorted(mentioned - set(keep))))
        try:
            full = {v: target.parse(images.get(v, v)) for v in rep.ring.variables}
            m = m.map_entries(lambda p: specialize(p, full, target), ring=target)
        except (PolyParseError, KeyError) as exc:
            raise CliError(str(exc), 2)
        except (NotAUnit, ContextMismatch) as exc:
            raise CliError(str(exc), 1)
    emit_matrix(m, args.format, out)
    return 0


def cmd_invariant(args, out):
    d = load_input(args)
    try:
        m = tym_matrix(d, args.mode,
                       self_writhe_correction=not args.no_correction)
    except (DiagramError, ValueError) as exc:
        raise CliError(str(exc), 1)
    emit_matrix(m, args.format, out)
    return 0


def cmd_linking(args, out):
    prof = linking_profile_diagram(load_input(args))
    n = prof.n
    pairs = [(i, j) for i in range(1, n + 1) for j in range(1, n + 1) if i != j]
    report = {
        "strings": n,
        "vl": {"%d,%d" % p: prof.vl[p] for p in pairs},
        "V": {"%d,%d" % p: prof.V[p] for p in pairs},
        "lk": {"%d,%d" % (i, j): str(prof.lk(i, j))
               for i, j in pairs if i < j},
    }
    emit_obj(report, args.format, out)
    return 0


def cmd_kernel_check(args, out):
    d = load_input(args)
    try:
        verdict = kernel_predicate(d, args.thm)
    except (DiagramError, ValueError) as exc:
        raise CliError(str(exc), 1)
    emit_obj({"criterion": args.thm, "in_kernel": verdict}, args.format, out)
    return 0


def cmd_lm_build(args, out):
    n = args.n
    if n < 2:
        raise CliError("need n >= 2", 1)
    if args.source == "eta":
        rep = longmoody.lm_semidirect(longmoody.make_eta(n), q_twist=args.q_twist)
    else:
        ring = RingContext(("t", "q")) if args.q_twist else RingContext(("t",))
        src = _make_rep(args.source, n + 1, ring=ring)
        rep = longmoody.lm_q(src) if args.q_twist else longmoody.lm_apply(src)
    for i in range(1, rep.n):
        out.write("sigma_%d\n" % i)
        emit_matrix(rep.sigma_images[i], args.format, out)
    return 0


def cmd_lm_decompose(args, out):
    report = longmoody.decompose_check(args.n)
    emit_obj(report, args.format, out)
    return 0 if report["ok"] else 1


def cmd_lm_irreducible(args, out):
    if args.rep == "reduced-lm3":
        rep = longmoody.reduced_lm3()
    elif args.rep == "burau3":
        rep = make_burau(3, RingContext(("t",)).var("t"))
    else:
        raise CliError("unknown probe target %r" % args.rep, 2)
    report = longmoody.irreducibility_probe(rep, p=args.prime,
                                            trials=args.trials, seed=args.seed)
    emit_obj(report, args.format, out)
    return 0


def cmd_lm_kernel_words(args, out):
    report = longmoody.kernel_experiment()
    emit_obj(report, args.format, out)
    return 0


def _reproduce_checks(full):
    def check_generators():
        tctx = RingContext(("t",))
        t = tctx.var("t")
        ok = True
        for n in range(2, 8):
            bur = make_burau(n, t)
            tym = make_tym(n)
            wt = make_wtym(n)
            for i in range(1, n):
                b = bur.sigma_images[i]
                ok = ok and b[i - 1, i - 1].is_zero() and b[i - 1, i] == t
                ok = ok and b[i, i - 1].is_one() and b[i, i] == tctx.one() - t
                m = tym.sigma_images[i]
                ok = ok and m[i - 1, i].is_one() and m[i, i - 1] == tym.ring.var("t")
                w = wt.sigma_images[i]
                ok = ok and w[i - 1, i] == wt.ring.var("u") and w[i, i - 1] == wt.ring.var("v")
                v = wt.tau_images[i]
                ok = ok and v[i - 1, i] == wt.ring.var("al").inverse()
                ok = ok and v[i, i - 1] == wt.ring.var("al")
                for k in range(n):
                    if k not in (i - 1, i):
                        ok = ok and b[k, k].is_one() and m[k, k].is_one()
        return ok

    def check_specialized():
        w = BraidWord(3, [("s", 1, 1), ("s", 2, -1)])
        m = tym_matrix(diagram_from_word(w), "multi")
        tctx = RingContext(("t",))
        images = {}
        for v in m.ring.variables:
            images[v] = tctx.one() if v.startswith("u") else tctx.var("t")
        got = m.map_entries(lambda p: specialize(p, images, tctx), ring=tctx)
        return got == golden.specialized_31_matrix()

    def check_elimination():
        from .stringlinks import LambdaRelation, NormalForm
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
        return nf == NormalForm(2, [1, 2], [u * v, ctx.one()])

    def check_ex311():
        w = BraidWord(2, [("s", 1, 1), ("s", 1, 1)])
        return tym_matrix(diagram_from_word(w), "multi") == golden.ex311_matrix()

    def check_ex312():
        s1 = BraidWord(3, [("s", 1, 1)])
        s2i = BraidWord(3, [("s", 2, -1)])
        prod = s1 * s2i
        ok = tym_matrix(diagram_from_word(s1), "multi") == golden.ex312_matrix("sigma1")
        ok = ok and tym_matrix(diagram_from_word(s2i), "multi") == golden.ex312_matrix("sigma2inv")
        ok = ok and tym_matrix(diagram_from_word(prod), "multi") == golden.ex312_matrix("product")
        twisted = golden.ex312_matrix("sigma2inv").variable_twist(s1.permutation())
        ok = ok and golden.ex312_matrix("sigma1") * twisted == golden.ex312_matrix("product")
        return ok

    def check_lm9():
        rep = longmoody.lm_semidirect(longmoody.make_eta(3), q_twist=True)
        return (rep.sigma_images[1] == golden.lm9_sigma(1)
                and rep.sigma_images[2] == golden.lm9_sigma(2))

    def check_lm12():
        rep = longmoody.lm_q(make_tym(4, golden.TQ))
        return all(rep.sigma_images[i] == longmoody.block_formula_lm_q_tym(3, i)
                   for i in (1, 2))

    def check_reduced6():
        rep = longmoody.reduced_lm3()
        w1 = BraidWord(3, [("s", 1, 1), ("s", 2, 1), ("s", 1, 1)])
        w2 = BraidWord(3, [("s", 2, 1), ("s", 1, 1), ("s", 2, 1)])
        return rep.evaluate(w1) == rep.evaluate(w2) and not rep.check_relations()

    def check_decompose():
        return all(longmoody.decompose_check(n)["ok"] for n in (2, 3))

    def check_trivial_burau():
        return all(longmoody.identify_trivial_burau(n)[1] for n in (2, 3))

    def check_probe():
        rep = longmoody.reduced_lm3()
        rpt = longmoody.irreducibility_probe(rep, p=10007, trials=5, seed=0)
        neg = longmoody.irreducibility_probe(
            make_burau(3, RingContext(("t",)).var("t")), p=10007, trials=3, seed=0)
        return rpt["full"] and neg["dimension"] < 9

    def check_intertwining():
        return not longmoody.intertwining_check(make_tym(4))

    checks = [
        ("generator matrices", check_generators),
        ("specialized three strand matrix", check_specialized),
        ("two variable elimination", check_elimination),
        ("two string diagonal invariant", check_ex311),
        ("multi variable matrices and twisted product", check_ex312),
        ("nine dimensional construction", check_lm9),
        ("twelve dimensional block formula", check_lm12),
        ("reduced six dimensional images", check_reduced6),
        ("decomposition n=2,3", check_decompose),
        ("trivial source gives Burau at q^2", check_trivial_burau),
        ("irreducibility probe", check_probe),
        ("intertwining identity", check_intertwining),
    ]
    if full:
        def check_kernel_words():
            rpt = longmoody.kernel_experiment()
            return all(r["burau_identity"] and r["lm_identity"]
                       and not r["t1lm_identity"] for r in rpt.values())
        checks.append(("kernel word experiment", check_kernel_words))
    return checks


def cmd_paper_reproduce(args, out):
    status = 0
    results = []
    for name, fn in _reproduce_checks(args.full):
        try:
            ok = fn()
        except Exception as exc:
            ok = False
            name = "%s (error: %s)" % (name, exc)
        results.append({"check": name, "result": "PASS" if ok else "FAIL"})
        if not ok:
            status = 1
    if args.format == "json":
        out.write(json.dumps(results, indent=2) + "\n")
    else:
        for r in results:
            out.write("%-45s %s\n" % (r["check"], r["result"]))
    return status


def build_parser():
    parser = argparse.ArgumentParser(prog="braidrep")
    parser.add_argument("--format", choices=("text", "json"), default="text")
    parser.add_argument("--seed", type=int, default=0)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("eval", help="evaluate a representation on a braid word")
    p.add_argument("--rep", required=True)
    p.add_argument("--word", required=True)
    p.add_argument("--spec", nargs="*", default=[])
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("invariant", help="diagram invariant matrix")
    p.add_argument("--mode", choices=MODES, required=True)
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--word")
    g.add_argument("--diagram")
    p.add_argument("--no-correction", action="store_true")
    p.set_defaults(fn=cmd_invariant)

    p = sub.add_parser("linking", help="linking number tables")
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--word")
    g.add_argument("--diagram")
    p.set_defaults(fn=cmd_linking)

    p = sub.add_parser("kernel-check", help="linking number kernel criteria")
    p.add_argument("--thm", choices=("318", "319", "48", "49"), required=True)
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--word")
    g.add_argument("--diagram")
    p.set_defaults(fn=cmd_kernel_check)

    lm = sub.add_parser("lm", help="Long-Moody constructions")
    lmsub = lm.add_subparsers(dest="lm_command", required=True)

    p = lmsub.add_parser("build")
    p.add_argument("--source", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--q-twist", action="store_true")
    p.set_defaults(fn=cmd_lm_build)

    p = lmsub.add_parser("decompose")
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(fn=cmd_lm_decompose)

    p = lmsub.add_parser("irreducible")
    p.add_argument("--rep", default="reduced-lm3")
    p.add_argument("--prime", type=int, default=10007)
    p.add_argument("--trials", type=int, default=5)
    p.set_defaults(fn=cmd_lm_irreducible)

    p = lmsub.add_parser("kernel-words")
    p.set_defaults(fn=cmd_lm_kernel_words)

    paper = sub.add_parser("paper", help="reproduction battery")
    papersub = paper.add_subparsers(dest="paper_command", required=True)
    p = papersub.add_parser("reproduce")
    p.add_argument("--full", action="store_true",
                   help="include the slow kernel word experiment")
    p.set_defaults(fn=cmd_paper_reproduce)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args, sys.stdout)
    except CliError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return exc.status
    except (WordParseError, PolyParseError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except (DiagramError, NotAUnit, ContextMismatch, ValueError, OverflowError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
