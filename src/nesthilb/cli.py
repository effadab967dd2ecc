"""Command-line front end: single invariants, series tables, verify suites.

Exit codes: 0 success, 1 verification failure, 2 usage or configuration
error, 3 localization failure (specializations disagree, or no fresh
nondegenerate specialization was drawn); any other exception is a bug
and propagates as a traceback.  All rationals are emitted as decimal
strings, never floats, and a fixed seed yields byte-identical output.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import engine, verify
from .characters import LocalizationError
from .fock import FockError
from .toric import ToricError, builtin_surface, canonical_int, load_surface_config

EXIT_OK = 0
EXIT_VERIFY_FAIL = 1
EXIT_USAGE = 2
EXIT_INCONSISTENT = 3


class UsageError(Exception):
    pass


def _coefficients(text):
    """Integer coefficients a,b,..., or None unless the text lists them, each
    in its canonical spelling, so that a bundle has one label."""
    coeffs = [canonical_int(c) for c in text.split(",")]
    return None if None in coeffs else coeffs


def _integer(text):
    """An integer option, spelled as str() spells it, like config integers and
    bundle coefficients: so --seed 1_0, --cap " +01" and --n1 01 exit 2."""
    value = canonical_int(text)
    if value is None:
        raise argparse.ArgumentTypeError(
            f"invalid int value: {text!r} (not an integer spelled canonically)")
    return value


def _in_bundle_grammar(label):
    """Whether a label is O, K, O(...) or integer coefficients a,b,..."""
    return (label in ("O", "K") or label.startswith("O(") and label.endswith(")")
            or _coefficients(label) is not None)


def _resolve_surface(spec):
    """A builtin surface name, or else a path to a YAML/JSON surface config;
    a config file named like a builtin is passed as ./p2."""
    try:
        return builtin_surface(spec), {}
    except ToricError:
        if not os.path.exists(spec):
            raise UsageError(f"unknown surface {spec!r}: not a builtin name or a config file")
    surface, named = load_surface_config(spec)
    for label in named:
        if _in_bundle_grammar(label):
            raise UsageError(f"config bundle label {label!r} would shadow a built-in bundle")
    return surface, named


def _resolve_bundle(surface, named, label):
    """Bundle labels: O, K, O(a,b,...), a config label, or raw coefficients."""
    if label in named:
        return named[label]
    if label == "O":
        return surface.structure_sheaf()
    if label == "K":
        return surface.canonical_bundle()
    wrapped = label.startswith("O(") and label.endswith(")")
    coeffs = _coefficients(label[2:-1] if wrapped else label)
    if coeffs is None:
        raise UsageError(f"cannot parse bundle {label!r}")
    if wrapped:
        coeffs += [0] * (len(surface.rays) - len(coeffs))
    return surface.line_bundle(coeffs)


def _rational(value):
    """The one encoding of an exact rational: decimal strings, never floats."""
    return {"num": str(value.numerator), "den": str(value.denominator)}


def _write(args, payload, header, rows, out):
    """Write the JSON payload, or the CSV header and rows, as --format asks."""
    if args.format == "json":
        out.write(json.dumps(payload, indent=2, sort_keys=True) + "\n")
        return
    import csv

    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(header)
    writer.writerows([str(c).lower() if isinstance(c, bool) else c for c in row] for row in rows)


def cmd_integrate(args, out):
    surface, named = _resolve_surface(args.surface)
    bundle = _resolve_bundle(surface, named, args.bundle)
    if args.n1 < args.n2:
        raise UsageError("n1 < n2: the nesting range is empty")
    routes = ["nested", "product"] if args.route == "both" else [args.route]
    records = [
        engine.invariant_record(surface, bundle, args.n1, args.n2, route=route, seed=args.seed)
        for route in routes
    ]
    agreement = len({r.value for r in records}) == 1
    labels = {"surface": surface.name, "bundle": args.bundle}
    payload = {
        # Disagreeing specializations raise, so a record always agrees.
        "records": [
            {**labels, "n1": r.n1, "n2": r.n2, "route": r.route, "value": _rational(r.value),
             "specializations": [[str(x), str(y)] for x, y in r.specializations],
             "agreement": True}
            for r in records
        ],
        "agreement": agreement,
    }
    header = ["surface", "bundle", "n1", "n2", "route", "num", "den", "agreement"]
    rows = [
        [*labels.values(), r.n1, r.n2, r.route, *_rational(r.value).values(), agreement]
        for r in records
    ]
    _write(args, payload, header, rows, out)
    return EXIT_OK


def cmd_series(args, out):
    surface, named = _resolve_surface(args.surface)
    bundle = _resolve_bundle(surface, named, args.bundle)
    direct = engine.z_nest_series(
        surface, bundle, args.cap, seed=args.seed, route=args.route
    )
    closed = engine.closed_form_series(surface, bundle, args.cap) if args.compare else None
    rows = []
    for n1, n2 in engine.series_grid(args.cap):
        value = direct.coeff(n1, n2)
        row = {"n1": n1, "n2": n2, "value": _rational(value)}
        if closed is not None:
            cf = closed.coeff(n1, n2)
            row["closed_form"] = _rational(cf)
            row["match"] = value == cf
        rows.append(row)
    payload = {"surface": surface.name, "bundle": args.bundle, "cap": args.cap, "rows": rows}
    header = ["n1", "n2", "num", "den"]
    if closed is not None:
        header += ["closed_num", "closed_den", "match"]
    # the CSV columns are a row's fields in order, each rational spread over num, den
    flat = [
        [c for v in row.values() for c in (v.values() if isinstance(v, dict) else [v])]
        for row in rows
    ]
    _write(args, payload, header, flat, out)
    mismatch = closed is not None and not all(row["match"] for row in rows)
    return EXIT_VERIFY_FAIL if mismatch else EXIT_OK


def cmd_verify(args, out):
    checks = verify.run_suite(args.suite, cap=args.cap, seed=args.seed)
    failed = [c for c in checks if not c.passed]
    for c in checks:
        status = "PASS" if c.passed else "FAIL"
        line = f"{status} {c.label}"
        if not c.passed and c.detail:
            line += f": {c.detail}"
        out.write(line + "\n")
    summary = "pass" if not failed else f"fail ({len(failed)}/{len(checks)})"
    out.write(f"{args.suite}: {summary}\n")
    return EXIT_OK if not failed else EXIT_VERIFY_FAIL


def build_parser():
    parser = argparse.ArgumentParser(
        prog="nesthilb",
        description="Exact localization invariants of nested Hilbert schemes "
        "on toric surfaces.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--seed", type=_integer, default=0, help="specialization seed (default 0)")

    p_int = sub.add_parser("integrate", help="one invariant at (n1, n2)")
    p_int.add_argument("--surface", required=True, help="builtin name or config path")
    p_int.add_argument("--bundle", default="O",
                       help="O, K, O(a,b,...), config label, or coefficients a,b,...")
    p_int.add_argument("--n1", type=_integer, required=True)
    p_int.add_argument("--n2", type=_integer, required=True)
    p_int.add_argument("--route", choices=("nested", "product", "both"), default="nested")
    p_int.add_argument("--jobs", type=_integer, default=1, metavar="N",
                       help="accepted and ignored: the product route's fixed-point "
                            "sum runs serially; N must be positive")
    p_int.add_argument("--format", choices=("json", "csv"), default="json")
    common(p_int)

    p_ser = sub.add_parser("series", help="coefficient table up to a total-degree cap")
    p_ser.add_argument("--surface", required=True)
    p_ser.add_argument("--bundle", default="O")
    p_ser.add_argument("--cap", type=_integer, required=True)
    p_ser.add_argument("--route", choices=("nested", "product"), default="nested")
    p_ser.add_argument("--compare", choices=("closed-form",), default=None,
                       help="add the closed-product coefficient and a match flag")
    p_ser.add_argument("--format", choices=("json", "csv"), default="json")
    common(p_ser)

    p_ver = sub.add_parser("verify", help="run a named verification suite")
    p_ver.add_argument("suite", choices=verify.SUITES)
    p_ver.add_argument("--cap", type=_integer, default=None)
    common(p_ver)

    return parser


def main(argv=None, out=None):
    out = out if out is not None else sys.stdout
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if getattr(args, "jobs", 1) < 1:
            raise UsageError("--jobs must be positive")
        if getattr(args, "cap", 0) is not None and getattr(args, "cap", 0) < 0:
            raise UsageError("--cap must be nonnegative")
        if getattr(args, "n1", 0) < 0 or getattr(args, "n2", 0) < 0:
            raise UsageError("n1 and n2 must be nonnegative")
        if args.command == "integrate":
            return cmd_integrate(args, out)
        if args.command == "series":
            return cmd_series(args, out)
        return cmd_verify(args, out)
    except (UsageError, ToricError, FockError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except LocalizationError as exc:
        print(f"localization failure: {exc}", file=sys.stderr)
        return EXIT_INCONSISTENT


if __name__ == "__main__":
    sys.exit(main())
