"""Command-line front end.

Subcommands: example, transform, verify, positivity, sample, search.
Every run is deterministic given its flags; exit status is 0 for
success/true; 1 when `verify` prints false, `positivity` refutes, or
`example`/`search` breaks a documented invariant; 2 for usage or input
errors (an unwritable --out too) or a failed internal identity; 3 for an
inconclusive branch-and-bound or a leading form not positive definite;
141 (128 + SIGPIPE) when the reader closed stdout early, as `| head` does.

At module level this imports only what every subcommand needs (the
parser, JSON, the typed errors, polynomials and serialization); each
`cmd_*` imports the module it runs, so `transform` never loads the
positivity prover and `verify` never loads the construction.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from decimal import Decimal, localcontext
from fractions import Fraction
from typing import Callable, Optional

from . import serialization
from .errors import (
    DEFAULT_MAX_DEPTH,
    Inconclusive,
    MoutardKitError,
    NonPositiveLeadingForm,
    VerificationFailed,
)
from .polynomials import BivariatePoly, RationalFn

EXIT_OK = 0
EXIT_FALSE = 1
EXIT_USAGE = 2
EXIT_INCONCLUSIVE = 3
EXIT_BROKEN_PIPE = 141


class UsageError(Exception):
    pass


def _load(path: str, what: str, parse: Callable):
    """parse(obj) of the JSON file at path; a file that cannot be read or
    parsed is a UsageError naming `what` the file should have held."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            obj = json.load(fh)
    except OSError as exc:
        raise UsageError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise UsageError(f"{path}: parse error at byte {exc.pos}: {exc.msg}") from exc
    except (UnicodeDecodeError, RecursionError) as exc:
        raise UsageError(f"{path}: unreadable JSON: {exc}") from exc
    try:
        return parse(obj)
    except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
        raise UsageError(f"{path}: bad {what} file: {exc}") from exc


def _emit(text: str, out: Optional[str]) -> None:
    if out:
        try:
            with open(out, "w", encoding="utf-8") as fh:
                fh.write(text)
                if not text.endswith("\n"):
                    fh.write("\n")
        except OSError as exc:
            raise UsageError(f"cannot write {out}: {exc}") from exc
    else:
        print(text)


def _parse_fraction(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise UsageError(f"bad rational constant {text!r}") from exc


def _int_at_least(minimum: int):
    """argparse type for an integer flag with a lower bound (exit 2 below it)."""

    def parse(text: str) -> int:
        value = int(text)
        if value < minimum:
            raise argparse.ArgumentTypeError(f"must be at least {minimum}, got {value}")
        return value

    parse.__name__ = "integer"  # argparse names the type in "invalid integer value"
    return parse


def _decimal17(value: Fraction) -> str:
    with localcontext() as ctx:
        ctx.prec = 17
        return str(Decimal(value.numerator) / Decimal(value.denominator))


def _seeds(obj) -> tuple:
    omega1 = serialization.obj_to_poly(obj["omega1"])
    omega2 = serialization.obj_to_poly(obj["omega2"])
    u0 = serialization.obj_to_rationalfn(obj["u0"]) if "u0" in obj else RationalFn.zero()
    return u0, omega1, omega2


def _rationalfn(obj) -> RationalFn:
    if "num" in obj and "den" in obj and "terms" not in obj:
        return serialization.obj_to_rationalfn(obj)
    return RationalFn(serialization.obj_to_poly(obj))


def _bundle_obj(result) -> dict:
    """The canonical JSON of a `construct.DoubleMoutardResult`."""
    return {
        "W": serialization.poly_to_obj(result.w_poly),
        "C": serialization.fraction_to_obj(result.w_poly.coefficient(0, 0)),
        "u": serialization.rationalfn_to_obj(result.u),
        "psi1": serialization.rationalfn_to_obj(result.psi1),
        "psi2": serialization.rationalfn_to_obj(result.psi2),
        "verified": True,  # double_transform raises unless the lemma holds
    }


def cmd_example(args) -> int:
    from . import search
    from .decay import square_summable

    report, certificate = search.verify_example_full(args.ident, args.max_depth)
    obj = {
        "example": args.ident,
        "bundle": _bundle_obj(report.result),
        "u_decay": report.u_report.to_obj(),
        "psi1_decay": report.psi1_report.to_obj(),
        "psi2_decay": report.psi2_report.to_obj(),
        "l2": {"psi1": square_summable(report.psi1_report), "psi2": square_summable(report.psi2_report)},
        "positivity": certificate.to_obj(),
        "record": report.record.to_obj(),
    }
    _emit(serialization.dumps(obj), args.out)
    return EXIT_OK


def cmd_transform(args) -> int:
    from . import construct

    # outside `_load`: seeds that parse but are no SeedPair keep their typed error
    seeds = construct.SeedPair(*_load(args.seeds, "seeds", _seeds))
    constant = BivariatePoly.constant(_parse_fraction(args.constant))
    result = construct.double_transform(seeds, construct.transform_family(seeds) + constant)
    _emit(serialization.dumps(_bundle_obj(result)), args.out)
    return EXIT_OK


def cmd_verify(args) -> int:
    from .moutard import verify_solution

    u = _load(args.potential, "function", _rationalfn)
    psi = _load(args.solution, "function", _rationalfn)
    ok = verify_solution(u, psi)
    _emit(serialization.dumps({"verified": ok}), args.out)
    return EXIT_OK if ok else EXIT_FALSE


def cmd_positivity(args) -> int:
    from .positivity import PositivityCertificate, global_positivity

    w = _load(args.poly, "polynomial", serialization.obj_to_poly)
    outcome = global_positivity(w, args.max_depth)
    if isinstance(outcome, PositivityCertificate):
        _emit(serialization.dumps({"certified": True, "certificate": outcome.to_obj()}), args.out)
        return EXIT_OK
    _emit(serialization.dumps({"certified": False, "refutation": outcome.to_obj()}), args.out)
    return EXIT_FALSE


def cmd_sample(args) -> int:
    fn = _load(args.fn, "function", _rationalfn)
    lo, hi = _parse_fraction(args.min), _parse_fraction(args.max)
    if lo >= hi:
        raise UsageError("empty sampling range")
    # the axis of numeric.uniform_grid(lo, hi, lo, hi, resolution)
    axis = [lo + (hi - lo) * i / (args.resolution - 1) for i in range(args.resolution)]
    labels = [_decimal17(v) for v in axis]
    pairs = fn.values_at([(x, y) for x in axis for y in axis])
    lines = ["x,y,value"]
    for (x, y), (n, d) in zip([(x, y) for x in labels for y in labels], pairs):
        lines.append(f"{x},{y},{_decimal17(Fraction(n, d)) if d else 'nan'}")
    poles = sum(d == 0 for _, d in pairs)
    if poles:
        print(f"warning: {poles} grid points hit a pole", file=sys.stderr)
    _emit("\n".join(lines), args.out)
    return EXIT_OK


def cmd_search(args) -> int:
    from . import search

    records = search.sweep(
        args.degree, args.seed, args.trials, max_depth=args.max_depth
    )
    text = "\n".join(serialization.dumps(r.to_obj()) for r in records)
    _emit(text, args.out)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="moutardkit",
        description="Exact construction and verification of planar Schrodinger "
        "operators with rational potentials and zero-energy kernels.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--out", help="write the report to a file instead of stdout")

    def add_max_depth(p):
        p.add_argument(
            "--max-depth",
            type=_int_at_least(0),
            default=DEFAULT_MAX_DEPTH,
            help=f"branch-and-bound depth limit (default {DEFAULT_MAX_DEPTH})",
        )

    p = sub.add_parser("example", help="reproduce and verify a built-in example")
    p.add_argument("ident", type=int, choices=(1, 2), metavar="{1,2}")
    add_common(p)
    add_max_depth(p)
    p.set_defaults(func=cmd_example)

    p = sub.add_parser("transform", help="run the double construction on a seeds file")
    p.add_argument("--seeds", required=True, help="JSON file with omega1/omega2 (and optional u0)")
    p.add_argument("--constant", required=True, help="free constant C, e.g. 20 or -3/2")
    add_common(p)
    p.set_defaults(func=cmd_transform)

    p = sub.add_parser("verify", help="check (-Lap + u) psi = 0 symbolically")
    p.add_argument("--potential", required=True)
    p.add_argument("--solution", required=True)
    add_common(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("positivity", help="certify or refute global positivity")
    p.add_argument("--poly", required=True)
    add_common(p)
    add_max_depth(p)
    p.set_defaults(func=cmd_positivity)

    p = sub.add_parser("sample", help="sample a function on a square grid as CSV")
    p.add_argument("--fn", required=True)
    p.add_argument("--min", default="-5")
    p.add_argument("--max", default="5")
    p.add_argument("--resolution", type=_int_at_least(2), default=101, help="points per side")
    add_common(p)
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("search", help="random seed-pair sweep at a fixed degree")
    p.add_argument("--degree", type=_int_at_least(2), required=True)
    p.add_argument("--trials", type=_int_at_least(1), required=True)
    p.add_argument("--seed", type=int, required=True)
    add_common(p)
    add_max_depth(p)
    p.set_defaults(func=cmd_search)

    return parser


def main(argv: Optional[list] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        status = args.func(args)
        sys.stdout.flush()  # a closed pipe raises here, not at interpreter exit
        return status
    except BrokenPipeError:
        # point stdout at devnull so the interpreter's final flush stays quiet
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return EXIT_BROKEN_PIPE
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (Inconclusive, NonPositiveLeadingForm) as exc:
        print(f"inconclusive: {exc}", file=sys.stderr)
        return EXIT_INCONCLUSIVE
    except VerificationFailed as exc:
        print(f"verification failed: {exc}", file=sys.stderr)
        return EXIT_FALSE
    except MoutardKitError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
