"""Command line front end.

Exit status: 0 on success, 1 on domain errors (bad math input), 2 on
parse errors (malformed files or flags).  Commands raise; `main` alone
turns an error into a status.
"""
from __future__ import annotations

import argparse
import json
import sys

from .reps import make_burau, make_one_dim, make_tym, make_wtym
from .ring import PolyParseError, RingContext, _render_polys, _tokenize, specialize
from .stringlinks import (Diagram, DiagramError, MODES, kernel_predicate,
                          linking_profile_diagram, linking_profile_word, tym_matrix)
from .words import BraidWord, WordParseError
from . import longmoody, reproduce


class CliError(Exception):
    def __init__(self, message, status):
        super().__init__(message)
        self.status = status


def _read(path):
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise CliError(str(exc), 2)
    except UnicodeDecodeError as exc:
        raise CliError("%s: byte %d is not UTF-8 text (%s)" % (path, exc.start, exc.reason), 2)


def load_word(path):
    return BraidWord.parse(_read(path))


def load_diagram(path):
    try:
        return Diagram.parse(_read(path))
    except DiagramError as exc:
        raise CliError(str(exc), 2)


def load_input(args):
    """The crossing tally of the --diagram file, or of the --word file's letters."""
    if args.diagram:
        return linking_profile_diagram(load_diagram(args.diagram))
    return linking_profile_word(load_word(args.word))


def emit_matrix(m, fmt, out):
    if fmt == "json":
        texts = _render_polys(m.entries, m.ring)
        payload = {
            "rows": m.rows,
            "cols": m.cols,
            "entries": [texts[i * m.cols:(i + 1) * m.cols] for i in range(m.rows)],
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
        except (PolyParseError, KeyError) as exc:
            raise CliError("bad unit for onedim: %s" % exc.args[0], 2)
        if not r.is_unit():
            raise CliError("onedim scalar must be a unit monomial", 1)
        return make_one_dim(n, r)
    raise CliError("unknown representation %r" % name, 2)


def _parse_spec(items, ring, rep_name):
    """The images of the --spec items `var=poly` and the context they land in.

    The target context keeps the unspecialized variables and gains any
    variables mentioned on the right hand sides.
    """
    images = {}
    for item in items:
        if "=" not in item:
            raise CliError("bad --spec item %r, expected var=poly" % item, 2)
        var, text = item.split("=", 1)
        if var not in ring.variables:
            raise CliError("--spec variable %r is not in the ring of %s %r"
                           % (var, rep_name, ring.variables), 2)
        if var in images:
            raise CliError("repeated --spec variable %r" % var, 2)
        images[var] = text
    mentioned = {name for text in images.values()
                 for kind, name in _tokenize(text) if kind == "name"}
    keep = [v for v in ring.variables if v not in images]
    target = RingContext(tuple(keep) + tuple(sorted(mentioned - set(keep))))
    return {v: target.parse(images.get(v, v)) for v in ring.variables}, target


def cmd_eval(args, out):
    word = load_word(args.word)
    rep = _make_rep(args.rep, word.n)
    # every --spec item is read before the word is evaluated
    spec = _parse_spec(args.spec, rep.ring, args.rep) if args.spec else None
    if spec:
        # a non-unit image raises here, not after the evaluation
        specialize(rep.ring.zero(), *spec)
    m = rep.evaluate(word)
    if spec:
        images, target = spec
        zero = target.zero()  # most entries of a long word's image are zero
        m = m.map_entries(lambda p: specialize(p, images, target) if p.terms else zero,
                          ring=target)
    emit_matrix(m, args.format, out)
    return 0


def cmd_invariant(args, out):
    m = tym_matrix(load_input(args), args.mode,
                   self_writhe_correction=not args.no_correction)
    emit_matrix(m, args.format, out)
    return 0


def cmd_linking(args, out):
    prof = load_input(args)
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
    verdict = kernel_predicate(load_input(args), args.thm)
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
        emit_matrix(rep.images[("s", i, 1)], args.format, out)
    return 0


def cmd_lm_decompose(args, out):
    if args.n < 2:
        raise CliError("need n >= 2", 1)
    report = longmoody.decompose_check(args.n)
    emit_obj(report, args.format, out)
    return 0 if report["ok"] else 1


def cmd_lm_irreducible(args, out):
    if args.trials < 1:
        raise CliError("--trials must be at least 1, got %d" % args.trials, 2)
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


def cmd_paper_reproduce(args, out):
    results = reproduce.run(args.full)
    if args.format == "json":
        out.write(json.dumps(results, indent=2) + "\n")
    else:
        for r in results:
            out.write("%-45s %s\n" % (r["check"], r["result"]))
    return 0 if all(r["result"] == "PASS" for r in results) else 1


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
                   help="also check that the kernel words lie in the kernels of "
                        "Burau and lm(TYM) but not of the shifted lm_q(TYM)")
    p.set_defaults(fn=cmd_paper_reproduce)

    return parser


# Built once per process: every main() call in it parses with this one tree.
PARSER = build_parser()


def main(argv=None):
    """Run one command; the only place where an error becomes an exit status."""
    args = PARSER.parse_args(argv)
    try:
        return args.fn(args, sys.stdout)
    except CliError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return exc.status
    except (WordParseError, PolyParseError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except (ValueError, OverflowError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
