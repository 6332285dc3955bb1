"""Batch front door: parse object files, dispatch checks and
constructions, emit deterministic reports, witnesses, and graph exports.

Exit codes: 0 verdict true / construction succeeded; 1 verdict false
(with a machine-readable witness) or a failed precondition (one stderr
line, no output); 2 not decidable or fuel exhausted;
3 malformed input or a usage error; 4 internal error (a bug in simpcat,
reported in one line).
"""

import argparse
import gc
import json
import sys
import threading
from contextlib import contextmanager
from functools import lru_cache

from . import (chain_model, doldkan, fibrations, formats, hcnerve,
               nerve_cat, quasicat, segal)
from .errors import FuelExhausted, InputError, NotDecidable
from .quasicat import LiftingObstruction


def emit(args, payload):
    write_out(args, formats.dumps(payload))


def write_out(args, text):
    """Write text to the --out file, or to stdout without one."""
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def report_line(line):
    sys.stdout.write(line + "\n")


def load_category(path):
    obj = formats.load_object(path, None)
    if isinstance(obj, nerve_cat.RelativeCategory):
        return obj.category
    if not isinstance(obj, nerve_cat.FinCategory):
        raise InputError("expected a category document")
    return obj


def load_relative(path):
    obj = formats.load_object(path)
    if isinstance(obj, nerve_cat.RelativeCategory):
        return obj
    raise InputError("expected a category document with a weak list")


def vertex(X, name):
    """The vertex of X that a command line names: the one whose name
    written through str is name, as documents key names; name itself
    when there is none."""
    return {str(v): v for v in X.cells(0)}.get(name, name)


# -- commands ----------------------------------------------------------------


def cmd_check_horns(args, mode):
    """check-quasicategory (inner horns) and check-kan (all horns)."""
    X = formats.load_object(args.input, "simplicial-set")
    report = quasicat.classify(X, args.dim, mode)
    for (n, k), (t, u, m) in sorted(report.stats.items()):
        report_line("horn(%d,%d): tested=%d unfillable=%d nonunique=%d"
                    % (n, k, t, u, m))
    if report.passed():
        report_line("%s up to dimension %d" % (
            "quasicategory" if mode == "inner" else "Kan", args.dim))
        return 0
    witness = {"kind": "horn-witness", "witness": report.first_witness(),
               "object": formats.sset_to_dict(X)}
    emit(args, witness)
    return 1


def cmd_ho(args):
    X = formats.load_object(args.input, "simplicial-set")
    Ho = quasicat.homotopy_category(X)
    emit(args, formats.category_to_dict(Ho))
    return 0


def cmd_equivalences(args):
    X = formats.load_object(args.input, "simplicial-set")
    eqs = quasicat.equivalences(X)
    emit(args, {"kind": "equivalences",
                "edges": sorted((X.describe(e) for e in eqs),
                                key=nerve_cat._name_key)})
    return 0


def cmd_max_kan(args):
    X = formats.load_object(args.input, "simplicial-set")
    M = quasicat.max_kan_subset(X)
    emit(args, formats.sset_to_dict(M))
    return 0


def cmd_hom_space(args):
    X = formats.load_object(args.input, "simplicial-set")
    H = quasicat.hom_space(X, vertex(X, args.source),
                           vertex(X, args.target), args.mode or "right",
                           args.dim)
    emit(args, formats.sset_to_dict(H))
    return 0


def cmd_pi0(args):
    X = formats.load_object(args.input, "simplicial-set")
    report = quasicat.homotopy_group(X, None, 0)
    emit(args, {"kind": "pi0", "count": report.count,
                "classes": [sorted(c, key=nerve_cat._name_key)
                            for c in report.classes]})
    return 0


def cmd_pin(args, n=None):
    X = formats.load_object(args.input, "simplicial-set")
    n = n if n is not None else args.n
    group = quasicat.homotopy_group(X, vertex(X, args.base), n)
    if isinstance(group, FuelExhausted):
        report_line("fuel exhausted: %s" % group.reason)
        return 2
    emit(args, {"kind": "pi%d" % n, "order": group.order,
                "structure": group.structure,
                "elements": list(group.elements),
                "table": [[a, b, c]
                          for (a, b), c in sorted(group.table.items())]})
    return 0


def cmd_nerve(args):
    C = load_category(args.input)
    N = nerve_cat.nerve(C, args.dim)
    emit(args, formats.sset_to_dict(N))
    return 0


def cmd_bg(args):
    table = formats.load_object(args.input, "monoid-table")
    B = nerve_cat.bg(table)
    emit(args, formats.category_to_dict(B))
    return 0


def cmd_localize(args):
    R = load_relative(args.input)
    result = nerve_cat.localize(R, args.fuel)
    if isinstance(result, FuelExhausted):
        report_line("fuel exhausted: %s" % result.reason)
        return 2
    emit(args, formats.category_to_dict(result.category))
    return 0


def cmd_coherent_nerve(args):
    C = formats.load_object(args.input, "simplicial-category")
    N = hcnerve.coherent_nerve(C, args.dim)
    emit(args, formats.sset_to_dict(N))
    return 0


def cmd_frak_c(args):
    F = hcnerve.frak_c(args.n)
    emit(args, formats.simplicial_category_to_dict(F))
    return 0


def cmd_normalized_chains(args):
    A = formats.load_object(args.input, "simplicial-abelian-group")
    C = doldkan.normalized_chains(A)
    emit(args, formats.complex_to_dict(C))
    return 0


def cmd_dold_kan(args):
    C = formats.load_object(args.input, "chain-complex")
    A = doldkan.dold_kan_gamma(C, args.dim)
    emit(args, formats.simplicial_ab_to_dict(A))
    return 0


def cmd_homology(args):
    C = formats.load_object(args.input, "chain-complex")
    H = doldkan.homology(C)
    for n in sorted(H):
        report_line("H_%d = %r" % (n, H[n]))
    emit(args, {"kind": "homology",
                "groups": {str(n): list(H[n].invariant_factors)
                           for n in H}})
    return 0


def cmd_quasi_iso(args):
    f = formats.load_object(args.input, "chain-map")
    report = chain_model.is_quasi_iso(f)
    emit(args, dict(report.as_dict(), kind="quasi-iso-report"))
    return 0 if report.verdict else 1


def cmd_factor_4a(args):
    f = formats.load_object(args.input, "chain-map")
    cert = chain_model.factor_trivcofib_fib(f)
    emit(args, dict(cert.as_dict(), kind="factorization-certificate"))
    return 0


def cmd_factor_4b(args):
    f = formats.load_object(args.input, "chain-map")
    result = chain_model.factor_cofib_trivfib(f, args.fuel)
    if isinstance(result, FuelExhausted):
        report_line("fuel exhausted: %s" % result.reason)
        if args.out and result.partial is not None:
            emit(args, dict(result.partial.as_dict(),
                            kind="factorization-certificate-partial"))
        return 2
    emit(args, dict(result.as_dict(), kind="factorization-certificate"))
    return 0


def cmd_left_fibration(args):
    F = formats.load_object(args.input, "functor")
    report = fibrations.is_left_fibration(F)
    if report.verdict:
        report_line("left fibration")
        return 0
    emit(args, {"kind": "left-fibration-witness",
                "witnesses": report.witnesses})
    return 1


def cmd_cocart_analyze(args):
    F = formats.load_object(args.input, "functor")
    analysis = fibrations.cocart_analyze(F)
    emit(args, dict(analysis.as_dict(), kind="cocart-analysis"))
    return 0 if analysis.is_cocartesian_fibration else 1


def cmd_grothendieck_build(args):
    S = formats.load_object(args.input, "split-functor")
    proj = fibrations.grothendieck_build(S)
    emit(args, formats.functor_to_dict(proj))
    return 0


def cmd_grothendieck_read(args):
    F = formats.load_object(args.input, "functor")
    readout = fibrations.grothendieck_read(F)
    payload = {
        "kind": "grothendieck-readout",
        "all_theta_iso": readout.all_theta_iso,
        "fibers": {d: formats.category_to_dict(fib)
                   for d, fib in readout.fibers.items()},
        "transports": {phi: {"objects": T.obj_map, "arrows": T.arr_map}
                       for phi, T in readout.transports.items()},
        "thetas": {"%s;%s" % pair: comps
                   for pair, comps in readout.thetas.items()},
    }
    emit(args, payload)
    return 0


def cmd_join(args):
    C = load_category(args.input)
    D = load_category(args.second)
    emit(args, formats.category_to_dict(fibrations.join(C, D)))
    return 0


def cmd_twisted_arrows(args):
    C = load_category(args.input)
    Tw, proj = fibrations.twisted_arrows(C)
    emit(args, formats.functor_to_dict(proj))
    return 0


def cmd_rezk_nerve(args):
    R = load_relative(args.input)
    B = segal.rezk_nerve(R, args.dim, args.dim2
                         if args.dim2 is not None else args.dim)
    emit(args, formats.bisimplicial_to_dict(B))
    return 0


def cmd_segal_check(args):
    X = formats.load_object(args.input, "bisimplicial-set")
    report = segal.strict_segal_check(X)
    if report.verdict:
        report_line("strict Segal condition holds")
        return 0
    emit(args, {"kind": "segal-witness", "failures": report.failures})
    return 1


def cmd_completeness(args):
    X = formats.load_object(args.input, "bisimplicial-set")
    result = segal.completeness_check(X)
    if isinstance(result, NotDecidable):
        report_line("not decidable: %s" % result.reason)
        return 2
    if result.verdict:
        report_line("complete: %s" % result.reason)
        return 0
    emit(args, {"kind": "completeness-witness", "reason": result.reason,
                "details": result.details})
    return 1


def cmd_export_dot(args):
    d = formats.load(args.input)
    kind = d.get("kind")
    lines = ["digraph G {"]
    if kind == "category":
        C = formats._category(d)
        for x in C.objects:
            lines.append('  "%s";' % x)
        for a in sorted(C.arrows, key=nerve_cat._name_key):
            if not C.is_identity(a):
                lines.append('  "%s" -> "%s" [label="%s"];'
                             % (C.src[a], C.dst[a], a))
    elif kind == "simplicial-set":
        X = formats.sset_from_dict(d)
        for v in X.cells(0):
            lines.append('  "%s";' % v)
        for idx, e in enumerate(X.cells(1)):
            simplex = X.cell_simplex(1, e)
            v0 = X.names[0][X.apply((0,), simplex)[1]]
            v1 = X.names[0][X.apply((1,), simplex)[1]]
            lines.append('  "%s" -> "%s" [label="%s"];' % (v0, v1, e))
        for t in X.cells(2):
            lines.append('  // triangle %s' % t)
    elif kind == "cocart-analysis":
        arrows = d.get("arrows")
        if not (isinstance(arrows, dict)
                and all(isinstance(f, dict) for f in arrows.values())):
            raise InputError("malformed cocart-analysis document: arrows "
                             "must be an object of flag objects")
        for a, flags in sorted(arrows.items()):
            attrs = []
            if flags.get("cocartesian"):
                attrs.append("cocartesian")
            if flags.get("locally_cocartesian"):
                attrs.append("locally-cocartesian")
            lines.append('  "%s" [flags="%s"];' % (a, ",".join(attrs)))
    else:
        raise InputError("export-dot supports categories, simplicial "
                         "sets and cocart analyses, not %r" % (kind,))
    lines.append("}")
    write_out(args, "\n".join(lines) + "\n")
    return 0


# name: (function, the arguments it reads besides --out)
COMMANDS = {
    "check-quasicategory": (lambda a: cmd_check_horns(a, "inner"),
                            ["input", "--dim"]),
    "check-kan": (lambda a: cmd_check_horns(a, "kan"), ["input", "--dim"]),
    "ho": (cmd_ho, ["input"]),
    "equivalences": (cmd_equivalences, ["input"]),
    "max-kan": (cmd_max_kan, ["input"]),
    "hom-space": (cmd_hom_space,
                  ["input", "source", "target", "--mode", "--dim"]),
    "pi0": (cmd_pi0, ["input"]),
    "pi1": (lambda a: cmd_pin(a, 1), ["input", "--base"]),
    "pin": (cmd_pin, ["input", "--n", "--base"]),
    "nerve": (cmd_nerve, ["input", "--dim"]),
    "bg": (cmd_bg, ["input"]),
    "localize": (cmd_localize, ["input", "--fuel"]),
    "coherent-nerve": (cmd_coherent_nerve, ["input", "--dim"]),
    "frak-c": (cmd_frak_c, ["n"]),
    "normalized-chains": (cmd_normalized_chains, ["input"]),
    "dold-kan": (cmd_dold_kan, ["input", "--dim"]),
    "homology": (cmd_homology, ["input"]),
    "quasi-iso": (cmd_quasi_iso, ["input"]),
    "factor-4a": (cmd_factor_4a, ["input"]),
    "factor-4b": (cmd_factor_4b, ["input", "--fuel"]),
    "left-fibration": (cmd_left_fibration, ["input"]),
    "cocart-analyze": (cmd_cocart_analyze, ["input"]),
    "grothendieck-build": (cmd_grothendieck_build, ["input"]),
    "grothendieck-read": (cmd_grothendieck_read, ["input"]),
    "join": (cmd_join, ["input", "second"]),
    "twisted-arrows": (cmd_twisted_arrows, ["input"]),
    "rezk-nerve": (cmd_rezk_nerve, ["input", "--dim", "--dim2"]),
    "segal-check": (cmd_segal_check, ["input"]),
    "completeness": (cmd_completeness, ["input"]),
    "export-dot": (cmd_export_dot, ["input"]),
}


def _int_at_least(low):
    """An argparse type for integers >= low."""
    def parse(text):
        try:
            value = int(text)
        except ValueError:
            value = None
        if value is None or value < low:
            raise argparse.ArgumentTypeError(
                "expected an integer >= %d, got %r" % (low, text))
        return value
    return parse


@lru_cache(maxsize=1)
def build_parser():
    """The command-line parser, built on the first call and shared after
    that: parsing reads it and never changes it."""
    parser = argparse.ArgumentParser(
        prog="simpcat",
        description="exact checks and constructions for finite "
                    "simplicial sets and categories")
    sub = parser.add_subparsers(dest="command", required=True)
    nonnegative, positive = _int_at_least(0), _int_at_least(1)
    settings = {"n": {"type": int},
                "--n": {"type": positive, "required": True},
                "--dim": {"type": nonnegative, "default": 3},
                "--dim2": {"type": nonnegative},
                "--fuel": {"type": positive, "default": 8}}
    for name, (fn, arguments) in sorted(COMMANDS.items()):
        p = sub.add_parser(name)
        for arg in arguments + ["--out"]:
            p.add_argument(arg, **settings.get(arg, {}))
        p.set_defaults(fn=fn)
    return parser


_collector = threading.Lock()
_running = 0  # commands running now, under _collector
_resume = False  # whether the collector was on when the first one began


@contextmanager
def _collector_paused():
    """Pause the cyclic collector while a command runs.  No command
    leaves a reference cycle (the tests keep it so), so a collection
    during one would free nothing.  Overlapping commands share one
    pause: the collector comes back on when the last of them ends, and
    only if it was on when the first began.  The collector is one per
    process, so this state is too."""
    global _running, _resume
    with _collector:
        if not _running:
            _resume = gc.isenabled()
            gc.disable()
        _running += 1
    try:
        yield
    finally:
        with _collector:
            _running -= 1
            if not _running and _resume:
                gc.enable()


def main(argv=None):
    """Run one command; usage errors exit 3 like malformed input,
    --help exits 0, and any unplanned exception exits 4 with one line
    instead of a traceback, so that it never reads as a false verdict."""
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as e:
        return 3 if e.code else 0
    try:
        with _collector_paused():
            return args.fn(args)
    except (InputError, FileNotFoundError, json.JSONDecodeError) as e:
        sys.stderr.write("input error: %s\n" % (e,))
        return 3
    except LiftingObstruction as e:
        sys.stderr.write("precondition failed: %s\n" % (e,))
        return 1
    except Exception as e:
        sys.stderr.write("internal error: %s: %s\n"
                         % (type(e).__name__, e))
        return 4


if __name__ == "__main__":
    sys.exit(main())
