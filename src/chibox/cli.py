"""Command line front end.

Commands: construct, analyze, group, fixed-points, cost.  Shared flags:
--format text|structured and -o <path>.  Structured output is a single JSON
document per invocation and is byte-identical for identical inputs; -o
writes the truth-table document for construct and group materialize, and
the structured report document for everything else.

Exit codes: 0 success, 2 usage or parse error, 3 domain error (bad
parameters, non-permutation, non-unit, m dividing n) or internal error (a
self-check that failed, such as the fixed-point predicate disagreeing with
enumeration), 4 I/O or file-format error.  Every error, argparse's usage
errors included, is one stderr line starting with "error:".
"""

from __future__ import annotations

import argparse
import csv
import functools
import os
import sys

import numpy as np

from . import boolmap, cost, families, metrics, thetagroup
from .boolmap import dump_json
from .families import FamilyParseError


class UsageError(Exception):
    """A malformed argv, argparse's errors among them: exit 2 with one error: line."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


class FileFormatError(Exception):
    pass


def _int(text):
    """int(text); a power over the interpreter's int-string digit limit is refused by its length, not echoed."""
    try:
        return int(text)
    except ValueError as exc:
        if not str(exc).startswith("Exceeds the limit"):
            raise
        digits = sum(ch.isdecimal() for ch in text)
        msg = "power has %d digits, more than the interpreter's int-string limit of %d"
        raise argparse.ArgumentTypeError(msg % (digits, sys.get_int_max_str_digits())) from None


_int.__name__ = "int"  # argparse's "invalid int value" message names the type


METRIC_ORDER = ("ddt", "walsh", "bct", "dlct", "degree", "cycles")

SPECTRUM_FOR = {
    "ddt": metrics.differential_spectrum,
    "walsh": metrics.walsh_spectrum,
    "bct": metrics.boomerang_spectrum,
    "dlct": metrics.dlct_spectrum,
}

HEADLINE_LABEL = {
    "differential": "uniformity",
    "walsh": "nonlinearity",
    "boomerang": "uniformity",
    "dlct": "uniformity",
}


def _write_out(path, text):
    try:
        with open(path, "w") as fh:
            fh.write(text)
    except OSError as exc:
        raise FileFormatError("cannot write %s: %s" % (path, exc)) from exc


def _load_file(path, parse, what):
    """parse applied to the text of path; unreadable or malformed files are FileFormatErrors."""
    try:
        with open(path) as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise FileFormatError("cannot read %s: %s" % (path, exc)) from exc
    try:
        return parse(text)
    except (KeyError, TypeError, ValueError, RecursionError, csv.Error) as exc:
        raise FileFormatError("bad %s %s: %s" % (what, path, exc)) from exc


def _resolve_target(target):
    """A family spec string, or a path to a serialized truth table."""
    try:
        fs = families.parse_family(target)
    except FamilyParseError:
        if os.path.exists(target):
            return _load_file(target, boolmap.table_from_json, "truth-table document")
        if os.sep in target or (os.altsep and os.altsep in target):
            raise FileFormatError("cannot read %s: no such file" % (target,)) from None
        raise
    return families.build(fs), families.spec_string(fs)


def cmd_construct(args):
    fs = families.parse_family(args.spec)
    table = families.build(fs)
    family = families.spec_string(fs)
    ok, witness = boolmap.is_permutation(table)
    degree = boolmap.table_degree(table)
    doc = {
        "command": "construct",
        "family": family,
        "n": table.n,
        "permutation": ok,
        "witness": None if witness is None else [witness[0], witness[1]],
        "degree": degree,
        "entries": table,
    }
    lines = [
        "family: %s" % family,
        "n: %d" % table.n,
        "permutation: %s" % ("true" if ok else "false"),
    ]
    if witness is not None:
        words = (witness[0], witness[1], table[witness[0]])
        bits = ["".join(map(str, boolmap.bits_of(w, table.n))) for w in words]
        lines.append("collision: %s and %s both map to %s" % tuple(bits))
    lines.append("degree: %s" % ("undefined" if degree is None else degree))
    return doc, "\n".join(lines) + "\n", (table, family)


def _metric_reports(table, selected):
    """(document, text line) of every selected metric, in METRIC_ORDER.

    dlct is computed first: its pass over the DDT blocks also finishes the
    ddt report, which differential_spectrum then hands back.
    """
    order = [name for name in METRIC_ORDER if name in selected]
    reports = {}
    for name in sorted(order, key=lambda name: name != "dlct"):
        if name in SPECTRUM_FOR:
            rep = SPECTRUM_FOR[name](table)
            label = HEADLINE_LABEL[rep["metric"]]
            text = "%s: %s %d, spectrum %s" % (rep["metric"], label, rep["headline"], metrics.render_spectrum(rep))
        elif name == "degree":
            value = boolmap.table_degree(table)
            rep = {"metric": "degree", "n": table.n, "value": value}
            text = "degree: %s" % ("undefined" if value is None else value)
        else:
            rep = boolmap.cycle_structure(table)
            lengths = ",".join("%d^%d" % pair for pair in rep["cycle_lengths"])
            text = "cycles: order %d, fixed points %d, lengths {%s}" % (
                rep["order"],
                rep["fixed_point_count"],
                lengths,
            )
        reports[name] = (rep, text)
    return [reports[name] for name in order]


def cmd_analyze(args):
    selected = [s for s in args.metrics.split(",") if s]
    if not selected:
        raise UsageError("at least one metric must be selected")
    for s in selected:
        if s not in METRIC_ORDER:
            raise UsageError("unknown metric %r (choose from %s)" % (s, ",".join(METRIC_ORDER)))
    table, family = _resolve_target(args.target)
    reports = _metric_reports(table, set(selected))
    doc = {
        "command": "analyze",
        "family": family,
        "n": table.n,
        "reports": [rep for rep, _ in reports],
    }
    lines = ["family: %s" % family, "n: %d" % table.n] + [text for _, text in reports]
    return doc, "\n".join(lines) + "\n", None


def cmd_group(args):
    thetagroup.check_group(args.n, args.m)
    comb = thetagroup.ThetaComb(args.n, args.m, args.coeffs)
    doc = {
        "command": "group",
        "query": args.query,
        "n": args.n,
        "m": args.m,
        "coeffs": thetagroup.bitstring(comb),
    }
    if args.query == "materialize":
        fs = families.FamilySpec("comb", n=args.n, m=args.m, coeffs=doc["coeffs"])
        table, family = families.build(fs), families.spec_string(fs)
        doc["permutation"], _ = boolmap.is_permutation(table)
        doc["entries"] = table
        text = "family: %s\nn: %d\npermutation: %s\n" % (family, table.n, "true" if doc["permutation"] else "false")
        return doc, text, (table, family)
    if args.query == "inverse":
        inv = thetagroup.group_inverse(comb)
        doc["inverse"] = thetagroup.bitstring(inv)
        doc["degree"] = thetagroup.comb_degree(inv)
        text = "inverse: %s\ndegree: %d\n" % (doc["inverse"], doc["degree"])
    elif args.query == "order":
        doc["order"] = thetagroup.element_order(comb)
        text = "order: %d\n" % doc["order"]
    elif args.query == "involution":
        doc["involution"] = thetagroup.is_involution(comb)
        text = "involution: %s\n" % ("true" if doc["involution"] else "false")
    elif args.query.startswith("iterate:"):
        try:
            k = _int(args.query.split(":", 1)[1])
        except ValueError:
            raise UsageError("iterate needs an integer power, got %r" % (args.query,)) from None
        doc["power"] = k
        doc["iterate"] = thetagroup.bitstring(thetagroup.group_pow(comb, k))
        text = "iterate %d: %s\n" % (k, doc["iterate"])
    else:
        raise UsageError("unknown group query %r" % (args.query,))
    return doc, text, None


def cmd_fixed_points(args):
    k = args.power
    thetagroup.check_group(args.n, args.m)
    if k < 0:
        raise ValueError("power must be non-negative")
    # chi^k = chi^k' for k' = (k-1) mod ord(chi) + 1, >= 1 so the predicate still checks the order
    reduced = k and (k - 1) % (1 << thetagroup.order_exponent(args.n, args.m)) + 1
    points = boolmap.fixed_points(boolmap.iterate(families.make_chi_nm(args.n, args.m), reduced))
    pred = None
    if k >= 1 and (k & (k - 1)) == 0:
        pred = thetagroup.predicate_fixed_set(args.n, args.m, k.bit_length() - 1)
        if not np.array_equal(pred, points):
            msg = "window predicate disagrees with enumeration for n=%d m=%d power=%d"
            raise RuntimeError(msg % (args.n, args.m, k))
    sample = points[:16]
    doc = {
        "command": "fixed-points",
        "n": args.n,
        "m": args.m,
        "power": k,
        "count": len(points),
        "predicate_count": None if pred is None else len(pred),
        "agree": None if pred is None else True,
        "sample": [d.tobytes().decode() for d in boolmap.hex_digits(sample, args.n)],
    }
    lines = ["fixed points of chi_{%d,%d}^%d: %d" % (args.n, args.m, k, len(points))]
    if pred is not None:
        lines.append("predicate count: %d (agreement: yes)" % len(pred))
    bits = ("".join(map(str, boolmap.bits_of(w, args.n))) for w in sample)
    lines.append("sample (x0 first): %s" % " ".join(bits))
    return doc, "\n".join(lines) + "\n", None


def cmd_cost(args):
    _, _, stages = cost.check_template(args.template, args.n)  # before --gates is read
    if args.gates:
        libs = _load_file(args.gates, cost.load_gate_libraries, "gate library")
    else:
        libs = cost.shipped_libraries()
    doc = {
        "command": "cost",
        "template": args.template,
        "n": args.n,
        "library": args.lib,
        "area_ge": str(cost.area_estimate(args.template, args.n, libs, args.lib)),
        "latency_stages": stages,
    }
    # the text form lists the same fields, one per line
    return doc, "".join("%s: %s\n" % (key, doc[key]) for key in list(doc)[1:]), None


# built once per process: parsing an argv costs a small fraction of building
@functools.cache
def _build_parser():
    parser = _Parser(
        prog="chibox",
        description="Construct, analyze and cost the chi family of S-boxes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--format", choices=("text", "structured"), default="text")
        p.add_argument("-o", "--output", default=None, metavar="PATH")

    p = sub.add_parser("construct", help="build a family member and serialize it")
    p.add_argument("spec", help="family spec, e.g. chi:5, chi_nm:8:3, theta:8:3:2, chi_prime3:7, cchi:8, "
                   "comb:8:3:101 (a_0 first) or concat(chi:3,chi:3)")
    common(p)
    p.set_defaults(func=cmd_construct)

    p = sub.add_parser("analyze", help="compute spectra and structure metrics")
    p.add_argument("target", help="family spec or path to a truth-table document")
    p.add_argument("--metrics", required=True, help="comma list from: %s" % ",".join(METRIC_ORDER))
    common(p)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("group", help="symbolic queries in the unit group")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--coeffs", required=True, help="bitstring a_0..a_ell, lowest index first")
    p.add_argument("query", help="inverse | order | iterate:<k> | involution | materialize")
    common(p)
    p.set_defaults(func=cmd_group)

    p = sub.add_parser("fixed-points", help="fixed points of chi_{n,m}^k, two ways")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--power", type=_int, required=True)
    common(p)
    p.set_defaults(func=cmd_fixed_points)

    p = sub.add_parser("cost", help="gate-equivalent area and latency stages")
    p.add_argument("template", help="chi | chi_prime3 | cchi")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--lib", required=True, help="technology name, e.g. umc180")
    p.add_argument("--gates", default=None, metavar="CSV", help="load gate areas from a CSV file")
    common(p)
    p.set_defaults(func=cmd_cost)

    return parser


def main(argv=None):
    try:
        args = _build_parser().parse_args(argv)
        # each command returns its report document, its text form, and, when
        # -o writes a truth-table document instead of the report, (table, family)
        doc, text, table = args.func(args)
        if args.output:
            _write_out(args.output, boolmap.table_to_json(*table) if table else dump_json(doc))
            text += "wrote: %s\n" % args.output if table else ""
    except (UsageError, FamilyParseError, argparse.ArgumentTypeError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except ValueError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 3
    except (FileFormatError, OSError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 4
    except RuntimeError as exc:
        print("error: internal error: %s" % exc, file=sys.stderr)
        return 3
    sys.stdout.write(dump_json(doc) if args.format == "structured" else text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
