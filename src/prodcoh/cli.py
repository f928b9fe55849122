"""Command line driver.

Subcommands: regions (cohomology-region grids), cohomology (tables of a
line-bundle complex), split-check (splitting verdict), tate-profile
(Tate term dimensions and exactness checksums).  An argv that names a
command is parsed by that command's parser alone, the one argparse would
build as its subparser (prog "prodcoh <command>"), so its usage, errors and
--help read the same.  The top-level parser is built only for top-level
help, for an argv with no command or an unknown one, and to report
unrecognized arguments, whose error shows the top-level usage line.

Exit codes: 0 success / Split, 2 usage (an unreadable --input or --table),
schema (a file that is not UTF-8 JSON) or invalid complex, 3 engine
self-check failed, 4 insufficient table coverage, 5 --check-prime
disagreement, 10 NonSplit, 11 Inconclusive.  Every command refuses an
invalid complex where it reads it (LineBundleComplex's constructor).

A flag the command would ignore is refused with exit 2, naming it:
tate-profile's --input, --window and --field beside --table, which say how
to compute a table it reads instead; its --c without --checks corner or
strand, and --I/--J/--K without --checks strand; cohomology's --window
beside --twist; regions' --d outside --mode safe, and --slice on a space of
two factors.  A --slice value outside the window's range for its
coordinate is refused too, where it would draw an empty grid.  tate-profile
checks its --checks, --c and --I/--J/--K after it reads its input and
before it builds a table.
"""

import argparse
import json
import sys

from . import bott, cech, linalg, splitter, tate
from .coxring import CoxError, LineBundleComplex, SchemaError
from .lattice import (
    LatticeError,
    Polarization,
    ProductSpace,
    Window,
    render_region,
    safe_region,
)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_ENGINE = 3
EXIT_COVERAGE = 4
EXIT_PRIME = 5
EXIT_NONSPLIT = 10
EXIT_INCONCLUSIVE = 11


class UsageError(ValueError):
    pass


class PrimeDisagreement(RuntimeError):
    """--check-prime found different dimensions at the second prime."""


def parse_ints(text, what):
    try:
        return tuple(int(x) for x in text.split(","))
    except ValueError as exc:
        raise UsageError("bad %s %r: %s" % (what, text, exc)) from exc


def parse_window(text):
    los, his = [], []
    for piece in text.split(","):
        if ":" not in piece:
            raise UsageError("bad window component %r (expected lo:hi)" % piece)
        lo, hi = piece.split(":", 1)
        try:
            los.append(int(lo))
            his.append(int(hi))
        except ValueError as exc:
            raise UsageError("bad window %r: %s" % (text, exc)) from exc
    try:
        return Window(tuple(los), tuple(his))
    except LatticeError as exc:
        raise UsageError(str(exc)) from exc


def read_json(path):
    """The JSON value in the file at path, read as UTF-8: a file that cannot
    be read is a usage error, one that is not UTF-8 JSON a schema error."""
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise UsageError("cannot read %s: %s" % (path, exc)) from exc
    except (ValueError, RecursionError) as exc:  # bad syntax or bytes, deep nesting
        raise SchemaError("%s: invalid JSON: %s" % (path, exc)) from exc


def load_complex(path, field_flag=None):
    obj = read_json(path)
    override = None if field_flag is None else linalg.parse_field(field_flag)
    return LineBundleComplex.from_json(obj, field_override=override)


def emit(text):
    sys.stdout.write(text)
    if not text.endswith("\n"):
        sys.stdout.write("\n")


def dump_json(obj):
    emit(json.dumps(obj, sort_keys=True, indent=2))


def cmd_regions(args):
    space = ProductSpace(parse_ints(args.space, "space"))
    if space.t < 2:
        raise UsageError("regions needs a space of at least two factors")
    window = parse_window(args.window)
    if len(window.lo) != space.t:
        raise UsageError("window dimension does not match the space")
    if space.t != 2:
        if args.slice is None:
            raise UsageError(
                "regions renders 2-D grids; pass --slice v3,...,vt to fix the "
                "remaining coordinates"
            )
        fixed = parse_ints(args.slice, "slice")
        if len(fixed) != space.t - 2:
            raise UsageError("--slice needs %d values" % (space.t - 2))
        for j, (v, lo, hi) in enumerate(zip(fixed, window.lo[2:], window.hi[2:]), 3):
            if not lo <= v <= hi:
                raise UsageError("--slice puts a%d = %d outside the window's %d:%d"
                                 % (j, v, lo, hi))
        window = Window(window.lo[:2] + fixed, window.hi[:2] + fixed)  # compute the slice alone
    elif args.slice is not None:
        raise UsageError("--slice does not apply to a space of two factors")
    else:
        fixed = ()

    if args.mode == "safe":
        if args.d is None:
            raise UsageError("--mode safe requires --d")
        d = Polarization(parse_ints(args.d, "polarization"))
        cells = safe_region(space, d, window)
    elif args.d is not None:
        raise UsageError("--d does not apply to --mode %s" % args.mode)
    else:  # the twists of O with a nonzero group (full), or one at some 0 < i < m
        h = bott.kunneth_window(space, window, [(0, (0,) * space.t, 1)])
        cells = {a for a, v in h.items() if any(v if args.mode == "full" else v[1:space.m])}

    cells = {a[:2] for a in cells}
    window = Window(window.lo[:2], window.hi[:2])

    if args.format == "ascii":
        emit(render_region(cells, window))
    elif args.format == "json":
        named = {"slice": list(fixed)} if fixed else {}  # a sliced output names its slice
        dump_json({"space": space.to_json(), "window": window.to_json(), "mode": args.mode,
                   "cells": sorted([list(a) for a in cells]), **named})
    else:
        lines = [",".join("a%d" % j for j in range(1, space.t + 1)) + ",member"]
        for a in window.twists():
            lines.append(",".join(map(str, a + fixed + (int(a in cells),))))
        emit("\n".join(lines))
    return EXIT_OK


def _table_ascii(table):
    space = table.space
    head = " ".join("a%d" % (j + 1) for j in range(space.t))
    head += " | " + " ".join("h%d" % i for i in range(space.m + 1))
    lines = [head]
    for a in table.window.twists():
        h = table.h_vector(a)
        lines.append(
            " ".join("%3d" % x for x in a)
            + " | "
            + " ".join(str(x) for x in h)
        )
    return "\n".join(lines)


def _at_check_prime(args, C, compute):
    """compute(complex) for the input read at --check-prime, or None when
    there is nothing to compare: no flag, or a complex over Q, which has no
    unlucky primes.  A value that is not a prime is refused over every field."""
    if args.check_prime is None:
        return None
    flag = "p:%d" % args.check_prime
    linalg.parse_field(flag)
    if not C.field.p:
        return None
    return compute(load_complex(args.input, flag))


def cmd_cohomology(args):
    if args.twist is not None and args.window is not None:
        raise UsageError("--window does not apply to --twist")
    C = load_complex(args.input, args.field)
    if args.twist is not None:
        a = C.space.degree(parse_ints(args.twist, "twist"))
        h = cech.hypercohomology(C, a)
        h2 = _at_check_prime(args, C, lambda other: cech.hypercohomology(other, a))
        if h2 is not None and h2 != h:
            raise PrimeDisagreement(
                "dimensions differ between primes: %r vs %r" % (h, h2)
            )
        if args.format == "json":
            dump_json({"twist": list(a), "h": list(h)})
        elif args.format == "csv":  # the table of the one-twist window a:a
            table = tate.CohomologyTable(C.space, Window(a, a))
            table.set_h(a, h)
            emit(table.to_csv())
        else:
            emit("h(F(%s)) = %s" % (",".join(map(str, a)), list(h)))
        return EXIT_OK
    if args.window is None:
        raise UsageError("cohomology needs --twist or --window")
    window = parse_window(args.window)
    table = cech.cohomology_table(C, window)
    table2 = _at_check_prime(args, C, lambda other: cech.cohomology_table(other, window))
    if table2 is not None and table2 != table:
        raise PrimeDisagreement("tables differ between primes")
    if args.format == "json":
        dump_json(table.to_json())
    elif args.format == "csv":
        emit(table.to_csv())
    else:
        emit(_table_ascii(table))
    return EXIT_OK


def cmd_split_check(args):
    C = load_complex(args.input, args.field)
    d = Polarization(parse_ints(args.d, "polarization"))
    window = parse_window(args.window)
    verdict = splitter.split_check(
        C, d, window, torsion_free_asserted=args.assert_torsion_free
    )
    if verdict.kind == "split":
        label = " + ".join(
            "O(%dH)^%d" % (k, mult) for k, mult in verdict.summands
        ) or "0"
        backing = (
            "theorem-backed" if verdict.torsion_free_asserted else
            "necessary conditions only (torsion-freeness not asserted)"
        )
        emit("SPLIT: F = %s  [%s]" % (label, backing))
    elif verdict.kind == "nonsplit":
        a, i = verdict.witness
        emit(
            "NONSPLIT: h^%d(F(%s)) != 0 at the safe twist %s"
            % (i, ",".join(map(str, a)), list(a))
        )
    else:
        emit("INCONCLUSIVE: %s" % verdict.reason)
    dump_json(verdict.to_json())
    return {
        "split": EXIT_OK,
        "nonsplit": EXIT_NONSPLIT,
        "inconclusive": EXIT_INCONCLUSIVE,
    }[verdict.kind]


def _tate_checks(args, space):
    """The --checks list as (name, c, {"I": set, "J": set, "K": set}), each
    flag refused before any table is built."""
    checks = []
    for check in [] if args.checks is None else args.checks.split(","):
        if check not in ("tate", "corner", "strand"):
            raise UsageError("unknown check %r" % check)
        c = sets = None
        if check != "tate":
            if args.c is None:
                raise UsageError("--checks %s requires --c" % check)
            c = space.degree(parse_ints(args.c, "%s degree" % check))
        if check == "strand":
            sets = {f: set() if v is None else set(parse_ints(v, f))
                    for f, v in zip("IJK", (args.I, args.J, args.K))}
            for f, js in sets.items():
                if any(not 0 <= j < space.t for j in js):
                    raise UsageError("--%s %s: factor indices run over 0..%d"
                                     % (f, getattr(args, f), space.t - 1))
            for f, g in ("IJ", "IK", "JK"):
                if sets[f] & sets[g]:
                    raise UsageError("--%s and --%s share factor index %d"
                                     % (f, g, min(sets[f] & sets[g])))
        checks.append((check, c, sets))
    return checks


def cmd_tate_profile(args):
    names = [] if args.checks is None else args.checks.split(",")
    if args.c is not None and not {"corner", "strand"} & set(names):
        raise UsageError("--c does not apply without --checks corner or strand")
    for f in "IJK":
        if getattr(args, f) is not None and "strand" not in names:
            raise UsageError("--%s does not apply without --checks strand" % f)
    if args.table is not None:
        for flag in ("input", "window", "field"):
            if getattr(args, flag) is not None:
                raise UsageError("--%s does not apply to --table" % flag)
        obj = read_json(args.table)
        try:
            table = tate.CohomologyTable.from_json(obj)
        except (KeyError, TypeError, ValueError) as exc:
            raise SchemaError("table %s: %s" % (args.table, exc)) from exc
        space = table.space
        b = space.degree(parse_ints(args.b, "internal degree"))
        checks = _tate_checks(args, space)
    else:
        if args.input is None:
            raise UsageError("tate-profile needs --input or --table")
        C = load_complex(args.input, args.field)
        space = C.space
        b = space.degree(parse_ints(args.b, "internal degree"))
        window = (
            tate.support_box(space, b) if args.window is None else parse_window(args.window)
        )
        checks = _tate_checks(args, space)
        table = cech.cohomology_table(C, window)

    profile = tate.tate_term_dims(table, b)
    report = {
        "b": list(b),
        "profile": {str(d): v for d, v in sorted(profile.dims.items())},
        "checksum": profile.checksum(),
    }
    for check, c, sets in checks:
        if check == "corner":
            report["corner"] = {
                "c": list(c),
                "value": tate.corner_checksum(table, c, b),
                "exact_expected": True,
            }
        elif check == "strand":
            I, J, K = sets["I"], sets["J"], sets["K"]
            report["strand"] = {
                "c": list(c),
                "I": sorted(I),
                "J": sorted(J),
                "K": sorted(K),
                "value": tate.strand_checksum(table, c, I, J, K, b),
                "exact_expected": tate.strand_is_guaranteed(space, I, J, K),
            }
        # "tate" is the headline checksum above
    dump_json(report)
    return EXIT_OK


# Each subcommand's handler, help line and flags, in the order --help lists them.
_COMMANDS = {
    "regions": (cmd_regions, "render cohomology regions of line bundles", [
        ("--space", dict(required=True, help="factor dimensions, e.g. 2,3")),
        ("--window", dict(required=True, help="per-factor lo:hi, e.g. -5:1,-5:2")),
        ("--mode", dict(choices=["full", "intermediate", "safe"], default="full")),
        ("--d", dict(help="polarization degrees (required for --mode safe)")),
        ("--slice", dict(help="fixed values of coordinates 3..t")),
        ("--format", dict(choices=["ascii", "json", "csv"], default="ascii")),
    ]),
    "cohomology": (cmd_cohomology, "cohomology of a line-bundle complex", [
        ("--input", dict(required=True, help="complex JSON file")),
        ("--twist", dict(help="single twist a1,...,at")),
        ("--window", dict(help="per-factor lo:hi")),
        ("--field", dict(help="q or p:<prime> (overrides the file)")),
        ("--check-prime", dict(
            type=int, default=None,
            help="recompute at this prime and compare (guards unlucky primes)")),
        ("--format", dict(choices=["ascii", "json", "csv"], default="ascii")),
    ]),
    "split-check": (cmd_split_check, "decide splitting into sums of O(kH)", [
        ("--input", dict(required=True, help="complex JSON file")),
        ("--d", dict(required=True, help="polarization degrees, e.g. 1,1")),
        ("--window", dict(required=True, help="per-factor lo:hi")),
        ("--field", dict(help="q or p:<prime>")),
        ("--assert-torsion-free", dict(
            action="store_true",
            help="record the torsion-freeness hypothesis (not verified)")),
    ]),
    "tate-profile": (cmd_tate_profile, "Tate term dimensions and checksums", [
        ("--input", dict(help="complex JSON file")),
        ("--table", dict(help="precomputed table JSON file")),
        ("--b", dict(required=True, help="internal degree b1,...,bt")),
        ("--window", dict(help="table window (default: the support box of b)")),
        ("--field", dict(help="q or p:<prime>")),
        ("--checks", dict(help="comma list from tate,strand,corner")),
        ("--c", dict(help="quadrant degree for strand/corner checks")),
        ("--I", dict(help="strand factors with a_i < c_i (0-based)")),
        ("--J", dict(help="strand factors with a_i = c_i (0-based)")),
        ("--K", dict(help="strand factors with a_i >= c_i (0-based)")),
    ]),
}


def _add_flags(parser, command):
    """Give parser the flags and the handler of one subcommand."""
    func, _, flags = _COMMANDS[command]
    for flag, kwargs in flags:
        parser.add_argument(flag, **kwargs)
    parser.set_defaults(func=func)
    return parser


def build_parser():
    """The top-level prodcoh parser, with every subcommand."""
    parser = argparse.ArgumentParser(
        prog="prodcoh",
        description="Exact multigraded sheaf cohomology on products of "
        "projective spaces, and the splitting test for sums of O(kH).",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_line, _) in _COMMANDS.items():
        _add_flags(sub.add_parser(name, help=help_line), name)
    return parser


# Flags whose values routinely start with '-' (negative degrees); join them
# with '=' so argparse does not mistake the value for an option.
_VALUE_FLAGS = {
    "--space", "--window", "--twist", "--b", "--c", "--d", "--slice",
    "--I", "--J", "--K",
}


def _join_values(argv):
    out = []
    it = iter(argv)
    for tok in it:
        if tok in _VALUE_FLAGS:
            val = next(it, None)
            if val is None:
                out.append(tok)
            else:
                out.append("%s=%s" % (tok, val))
        else:
            out.append(tok)
    return out


def parse_args(argv):
    """The parsed flags of argv, whose first word is the command; usage
    errors and help exit through SystemExit, as argparse does."""
    argv = _join_values(argv)
    if not argv or argv[0] not in _COMMANDS:
        return build_parser().parse_args(argv)
    command = argv[0]
    parser = argparse.ArgumentParser(prog="prodcoh " + command)
    args, extras = _add_flags(parser, command).parse_known_args(argv[1:])
    if extras:
        build_parser().error("unrecognized arguments: %s" % " ".join(extras))
    return args


def main(argv=None):
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        args = parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code is not None else EXIT_USAGE
    try:
        return args.func(args)
    except (UsageError, SchemaError, LatticeError, linalg.FieldError, CoxError) as exc:
        sys.stderr.write("error: %s\n" % exc)
        return EXIT_USAGE
    except cech.EngineCheckFailed as exc:
        sys.stderr.write("error: %s\n" % exc)
        return EXIT_ENGINE
    except tate.TateCoverageError as exc:
        sys.stderr.write("error: %s\n" % exc)
        return EXIT_COVERAGE
    except PrimeDisagreement as exc:
        sys.stderr.write("error: %s\n" % exc)
        return EXIT_PRIME


def console_main():
    sys.exit(main())


if __name__ == "__main__":
    console_main()
