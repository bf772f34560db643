"""Command-line front end: verify identities, print series, emit JSON reports.

Exit codes: 0 for a verified match (or a printed series), 1 for a mismatch,
2 for usage errors (bad flags, invalid partitions, nonpositive scales,
negative orders, and a --spec that is not JSON, is nested more than 512
levels deep, has unknown, missing or repeated fields or a value of the wrong
type), reported on one "error:" line, and 141 (128 + SIGPIPE) when stdout's
reader has closed the pipe.  Output is deterministic byte-for-byte for
identical invocations; timing is excluded unless --timing is passed so
reports stay reproducible.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import re
import sys
from fractions import Fraction
from itertools import accumulate
from typing import Optional, Sequence

from .affine import (
    specialized_character_series,
    trace_series,
    verify_proposition,
)
from .identities import (
    CLASSICAL_NAMES,
    class1_identity,
    class2_identity,
    classical_identity,
    verify_identity,
)
from .qseries import (
    ProductSpec,
    QSeries,
    VerifyReport,
    _json_int,
    _json_object,
    as_rational,
    format_rational,
    product_series,
    render,
)

__all__ = ["build_parser", "entry", "main"]

# The deepest --spec nesting read, in [ and { levels.  json.loads recurses
# once per level, so its own limit is whatever stack the caller has left
# (under a thousand levels from a fresh interpreter, fewer from deep in a
# caller's stack); a fixed depth well below that reads the same everywhere.
_MAX_SPEC_DEPTH = 512
_JSON_STRING = re.compile(r'"(?:[^"\\]|\\.)*"', re.DOTALL)


def _rational_arg(text: str) -> Fraction:
    # the grammar of as_rational: decimals and junk are usage errors
    try:
        return as_rational(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc))


def _int_arg(text: str) -> int:
    # the integer grammar of the --spec reader: ASCII digits, no underscores
    try:
        return _json_int(text, "value")
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc))


def _partition_arg(text: str) -> tuple[int, ...]:
    return tuple(_int_arg(p) for p in text.split(","))


def _add_partition_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--partition",
        type=_partition_arg,
        required=True,
        help="ascending comma-separated parts, e.g. 1,3",
    )
    p.add_argument("--k", type=_int_arg, required=True, help="weight index, 0 <= k < n")


def _finish_command(p: argparse.ArgumentParser, func, timing: bool) -> None:
    """Add the flags every subcommand ends with, then bind its handler."""
    p.add_argument(
        "--order",
        type=_rational_arg,
        default=Fraction(50),
        help="truncation order, an integer or num/den rational (default 50)",
    )
    p.add_argument("--json", action="store_true", help="emit JSON instead of text")
    if timing:
        p.add_argument(
            "--timing",
            action="store_true",
            help="include wall_time_ms in the report (breaks byte reproducibility)",
        )
    p.set_defaults(func=func)


def _power(e: Fraction) -> str:
    """q^e, a non-integer exponent parenthesized as render writes it."""
    text = format_rational(e)
    return f"q^{text}" if e.denominator == 1 else f"q^({text})"


def _emit_report(report: VerifyReport, args: argparse.Namespace) -> int:
    if args.json:
        print(json.dumps(report.to_json(include_timing=args.timing), sort_keys=True))
    else:
        lines = ["match" if report.match else "MISMATCH"]
        lines.append(f"checked through: {_power(report.checked_through)}")
        if report.lhs_shift or report.rhs_shift:
            lines.append(
                f"leading shifts: lhs {_power(report.lhs_shift)}, rhs {_power(report.rhs_shift)}"
            )
        if report.first_mismatch is not None:
            m = report.first_mismatch
            lines.append(
                f"first mismatch at {_power(m.exponent)}: "
                f"lhs {m.lhs_coeff} vs rhs {m.rhs_coeff}"
            )
        if args.timing:
            lines.append(f"wall time: {report.wall_time_ms} ms")
        print("\n".join(lines))
    return 0 if report.match else 1


def _emit_series(series: QSeries, args: argparse.Namespace) -> int:
    if args.json:
        print(json.dumps(series.to_json(), sort_keys=True))
    else:
        print(render(series))
    return 0


# -- verify subcommands -------------------------------------------------------


def _cmd_verify_classical(args: argparse.Namespace) -> int:
    return _emit_report(verify_identity(classical_identity(args.name), args.order), args)


_FAMILIES = {"class1": class1_identity, "class2": class2_identity}


def _cmd_verify_family(args: argparse.Namespace) -> int:
    spec = _FAMILIES[args.target](args.m)
    return _emit_report(verify_identity(spec, args.order), args)


def _cmd_verify_proposition(args: argparse.Namespace) -> int:
    report = verify_proposition(args.partition, args.k, args.order)
    return _emit_report(report, args)


# -- series subcommands -------------------------------------------------------


def _cmd_series_phi(args: argparse.Namespace) -> int:
    spec = ProductSpec(((args.scale, args.power),))
    return _emit_series(product_series(spec, args.order), args)


def _spec_depth(text: str) -> int:
    """The deepest nesting of [ and { in text, outside JSON strings."""
    brackets = (1 if c in "[{" else -1 for c in _JSON_STRING.sub("", text) if c in "[]{}")
    return max(accumulate(brackets), default=0)


def _cmd_series_product(args: argparse.Namespace) -> int:
    if _spec_depth(args.spec) > _MAX_SPEC_DEPTH:
        raise ValueError("spec is nested too deeply")
    try:
        spec = ProductSpec.from_json(json.loads(args.spec, object_pairs_hook=_json_object))
    except json.JSONDecodeError as exc:
        raise ValueError(f"spec is not valid JSON: {exc}")
    except RecursionError:
        # a caller that is already deep in its stack can run out below the limit
        raise ValueError("spec is nested too deeply")
    return _emit_series(product_series(spec, args.order), args)


def _cmd_series_character(args: argparse.Namespace) -> int:
    series = specialized_character_series(args.partition, args.k, args.order)
    return _emit_series(series, args)


def _cmd_series_trace(args: argparse.Namespace) -> int:
    return _emit_series(trace_series(args.partition, args.k, args.order), args)


# -- wiring ---------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qchar",
        description=(
            "exact q-series toolkit: verify series-product identities and "
            "print truncated expansions"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    verify = sub.add_parser("verify", help="compare two expansions of an identity")
    vsub = verify.add_subparsers(dest="target", required=True)

    p = vsub.add_parser("classical", help="a named one-dimensional identity")
    p.add_argument("name", choices=CLASSICAL_NAMES)
    _finish_command(p, _cmd_verify_classical, timing=True)

    for target, which in zip(_FAMILIES, ("first", "second")):
        p = vsub.add_parser(target, help=f"{which} identity family, parameter m")
        p.add_argument("--m", type=_int_arg, required=True, help="family parameter >= 1")
        _finish_command(p, _cmd_verify_family, timing=True)

    p = vsub.add_parser(
        "proposition", help="character route vs trace route for a partition"
    )
    _add_partition_flags(p)
    _finish_command(p, _cmd_verify_proposition, timing=True)

    series = sub.add_parser("series", help="print one truncated expansion")
    ssub = series.add_subparsers(dest="target", required=True)

    p = ssub.add_parser("phi", help="phi(q^scale)^power")
    p.add_argument("--scale", type=_rational_arg, required=True)
    p.add_argument("--power", type=_int_arg, default=1)
    _finish_command(p, _cmd_series_phi, timing=False)

    p = ssub.add_parser("product", help="a product given as JSON factors")
    p.add_argument(
        "--spec",
        required=True,
        help='JSON like {"factors": [{"scale": "2", "power": -1}]}',
    )
    _finish_command(p, _cmd_series_product, timing=False)

    p = ssub.add_parser("character", help="specialized character of a partition")
    _add_partition_flags(p)
    _finish_command(p, _cmd_series_character, timing=False)

    p = ssub.add_parser("trace", help="trace-route series of a partition")
    _add_partition_flags(p)
    _finish_command(p, _cmd_series_trace, timing=False)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser main reads argv with, built once per process.

    Parsing leaves a parser as it was, so one tree serves every call, and
    build_parser still hands each caller a fresh one.
    """
    return build_parser()


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        # argparse already printed usage/help; fold its exit into our code
        return 0 if exc.code in (0, None) else int(exc.code)
    try:
        if args.command == "series" and args.order < 0:
            # the verify driver refuses these itself
            order = format_rational(args.order)
            raise ValueError(f"order must be nonnegative, got {order}")
        return args.func(args)
    except (ValueError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    """The console script: main's code, or 141 and no traceback on a closed pipe.

    stdout is pointed at devnull, as Python's signal documentation advises,
    so the interpreter's last flush cannot fail again.
    """
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 141
    raise SystemExit(code)
