"""Command-line front end.

Commands map one-to-one onto the library surface: ``minima``, ``check``,
``standardize``, ``reduce2d``, ``family``, ``nearest``.  Input is a small
JSON object ({"dim": n, "basis": [[...], ...], "norm": "l2"}) or plain text
(first line the dimension, then the rows); output is deterministic human
text, or full structured certificates with --json.

Exit codes: 0 success/Standard, 2 input error or output that cannot be
written, 3 NonStandard verdict, 4 resource ceiling, or memory or recursion
depth run out, 5 internal consistency failure.  A stdout pipe that the
reader closed exits 2 with no message; any other write error, such as a full
disk, exits 2 with one ``error:`` line.
An interrupt (Ctrl-C, SIGINT) exits 130, 128 + SIGINT as shells report it,
with one ``interrupted`` line on stderr.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from fractions import Fraction
from math import lcm
from pathlib import Path
from typing import TYPE_CHECKING

from .errors import InputError, InternalConsistencyError, LatticeError, ResourceLimitError
from .exactlin import (
    DEFAULT_MAX_CANDIDATES,
    DEFAULT_MAX_DIM,
    LatticeBasis,
    _check_dim,
    _check_positive_int,
)
from .norms import NormKind, measure

if TYPE_CHECKING:
    from .enumeration import SuccessiveMinima
    from .standardness import StandardnessCertificate


def _forward(name: str):
    """Stand-in for the public ``name``, resolved on the package at its
    first call, whose lazy ``__getattr__`` imports the home module, so each
    command loads only the modules it runs.  The stand-ins are module-level
    names, so a caller can still replace them here."""

    def call(*args, **kwargs):
        return getattr(sys.modules[__package__], name)(*args, **kwargs)

    call.__name__ = call.__qualname__ = name
    return call


check_standard = _forward("check_standard")
equality_case_analyze = _forward("equality_case_analyze")
nearest_plane = _forward("nearest_plane")
reduce_2d = _forward("reduce_2d")
standardize_low_dim = _forward("standardize_low_dim")
successive_minima = _forward("successive_minima")
verify_family = _forward("verify_family")

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_NON_STANDARD = 3
EXIT_RESOURCE = 4
EXIT_INTERNAL = 5
EXIT_INTERRUPTED = 130

_NORM_NAMES = {kind.value: kind for kind in NormKind}


def _parse_json_basis(data, max_dim: int) -> tuple[LatticeBasis, NormKind | None]:
    if not isinstance(data, dict):
        raise InputError("top-level JSON value must be an object")
    try:
        dim = data["dim"]
        rows = data["basis"]
    except KeyError as exc:
        raise InputError(f"missing required key {exc}") from exc
    _check_positive_int("'dim'", dim)
    _check_dim(dim, max_dim)
    if not isinstance(rows, list) or len(rows) != dim:
        raise InputError(f"'basis' must be a list of {dim} rows")
    kind = None
    if "norm" in data:
        name = data["norm"]
        if not isinstance(name, str) or name not in _NORM_NAMES:
            raise InputError(f"unknown norm {name!r}; expected one of l1, l2, linf")
        kind = _NORM_NAMES[name]
    return LatticeBasis(rows), kind


def _parse_text_basis(text: str, path: str, max_dim: int) -> tuple[LatticeBasis, NormKind | None]:
    tokens = text.split()
    if not tokens:
        raise InputError("empty basis file")
    values = []
    for t in tokens:
        try:
            values.append(int(t))
        except ValueError as exc:
            # int() refuses a well-formed integer only past the digit limit.
            limit = sys.get_int_max_str_digits()
            if re.fullmatch(r"[+-]?\d+(?:_\d+)*", t):
                raise InputError(
                    f"entry in {path} has more than {limit} digits, the interpreter's limit"
                ) from exc
            raise InputError(f"plain-text basis files contain integers only: {exc}") from exc
    dim = values[0]
    _check_positive_int("'dim'", dim)
    _check_dim(dim, max_dim)
    if len(values) != 1 + dim * dim:
        raise InputError(
            f"expected {dim * dim} entries after the dimension, got {len(values) - 1}"
        )
    rows = [values[1 + i * dim : 1 + (i + 1) * dim] for i in range(dim)]
    return LatticeBasis(rows), None


def load_basis_file(path: str, max_dim: int) -> tuple[LatticeBasis, NormKind | None]:
    """Parse a basis file (JSON object or plain text).

    The dimension is checked against ``max_dim`` before any arithmetic is
    spent on the entries."""
    try:
        # A leading byte-order mark is dropped after decoding, so the offsets
        # of the not-UTF-8 error below still count every byte of the file.
        text = Path(path).read_text(encoding="utf-8").removeprefix("\ufeff")
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise InputError(
            f"cannot read {path}: not UTF-8 text (byte {exc.object[exc.start]:#04x} at offset {exc.start})"
        ) from exc
    stripped = text.lstrip()
    if stripped.startswith("{"):
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise InputError(f"invalid JSON in {path}: {exc}") from exc
        except RecursionError as exc:
            raise InputError(f"invalid JSON in {path}: nested too deeply") from exc
        except ValueError as exc:
            # The decoder's only other refusal: an integer past the digit limit.
            raise InputError(
                f"invalid JSON in {path}: an integer has more than "
                f"{sys.get_int_max_str_digits()} digits, the interpreter's limit"
            ) from exc
        return _parse_json_basis(data, max_dim)
    return _parse_text_basis(text, path, max_dim)


def _resolve_kind(flag_value: str | None, file_kind: NormKind | None) -> NormKind:
    if flag_value is not None:
        return _NORM_NAMES[flag_value]
    if file_kind is not None:
        return file_kind
    return NormKind.L2


def _jnum(x):
    """Exact JSON rendering: integers stay integers, other rationals become
    'p/q' strings."""
    f = Fraction(x)
    if f.denominator == 1:
        return int(f)
    return f"{f.numerator}/{f.denominator}"


def _fmt(x) -> str:
    return str(_jnum(x))


def _minima_label(kind: NormKind) -> str:
    return "λ²" if kind is NormKind.L2 else "λ"


def _minima_json(sm: SuccessiveMinima) -> dict:
    return {
        "norm": sm.kind.value,
        "squared": sm.kind is NormKind.L2,
        "values": [_jnum(nv.value) for nv in sm.minima],
        "witnesses": [list(w) for w in sm.witnesses],
    }


def _certificate_json(cert: StandardnessCertificate) -> dict:
    return {
        "basis": [list(r) for r in cert.basis] if cert.basis is not None else None,
        "search_stats": {
            "level_candidates": list(cert.stats.level_candidates),
            "nodes_explored": cert.stats.nodes_explored,
        },
    }


def _minima_text(sm: SuccessiveMinima) -> list[str]:
    label = _minima_label(sm.kind)
    values = ", ".join(_fmt(nv.value) for nv in sm.minima)
    return [f"{label} = [{values}]"] + [
        f"witness {i + 1}: {list(w)}  {label} = {_fmt(sm.minima[i].value)}"
        for i, w in enumerate(sm.witnesses)
    ]


def _emit(args, payload: dict, text_lines) -> None:
    """Write the JSON payload or the text lines in one piece.  The whole
    output is rendered first, so a value that cannot be printed fails before
    anything reaches stdout: an answer is never cut short.  The write is
    flushed here, so a stdout that cannot be written fails inside the
    command, where ``run`` classifies it."""
    try:
        if args.json:
            out = json.dumps(payload, sort_keys=True, indent=2)
        else:
            out = "\n".join(text_lines())
    except ValueError as exc:
        # Rendering ints and Fractions raises ValueError only for an int past
        # the interpreter's int-to-str digit limit.
        raise InputError(
            f"the answer cannot be printed: it has an integer of more than "
            f"{sys.get_int_max_str_digits()} digits, the interpreter's print limit"
        ) from exc
    print(out, flush=True)


def cmd_minima(args) -> int:
    basis, file_kind = load_basis_file(args.file, args.max_dim)
    kind = _resolve_kind(args.norm, file_kind)
    sm = successive_minima(
        basis, kind, max_candidates=args.max_candidates, max_dim=args.max_dim
    )
    payload = {"command": "minima", "dim": basis.dim, "minima": _minima_json(sm)}

    def text():
        return [f"dim: {basis.dim}", f"norm: {kind.value}", *_minima_text(sm)]

    _emit(args, payload, text)
    return EXIT_OK


def cmd_check(args) -> int:
    basis, file_kind = load_basis_file(args.file, args.max_dim)
    kind = _resolve_kind(args.norm, file_kind)
    cert = check_standard(
        basis, kind, max_candidates=args.max_candidates, max_dim=args.max_dim
    )
    payload = {
        "command": "check",
        "dim": basis.dim,
        "verdict": cert.verdict.value,
        "minima": _minima_json(cert.minima),
        **_certificate_json(cert),
    }

    def text():
        return [
            f"dim: {basis.dim}",
            f"norm: {kind.value}",
            f"verdict: {cert.verdict.value}",
            *_minima_text(cert.minima),
            *(f"basis {i + 1}: {list(row)}" for i, row in enumerate(cert.basis or ())),
            f"search: candidates per level {list(cert.stats.level_candidates)}, "
            f"nodes {cert.stats.nodes_explored}",
        ]

    _emit(args, payload, text)
    return EXIT_OK if cert.standard else EXIT_NON_STANDARD


def cmd_standardize(args) -> int:
    basis, _ = load_basis_file(args.file, args.max_dim)
    rows = standardize_low_dim(basis, max_candidates=args.max_candidates)
    norms = [measure(r, NormKind.L2).value for r in rows]
    payload = {
        "command": "standardize",
        "dim": basis.dim,
        "basis": [list(r) for r in rows],
        "squared_norms": [_jnum(v) for v in norms],
        "determinant": basis.det,
    }

    def text():
        return [
            f"dim: {basis.dim}",
            *(f"basis {i + 1}: {list(row)}  λ² = {_fmt(norms[i])}" for i, row in enumerate(rows)),
            f"determinant: {basis.det}",
        ]

    _emit(args, payload, text)
    return EXIT_OK


def cmd_reduce2d(args) -> int:
    basis, file_kind = load_basis_file(args.file, args.max_dim)
    kind = _resolve_kind(args.norm, file_kind)
    red = reduce_2d(basis, kind)
    label = _minima_label(kind)
    payload = {
        "command": "reduce2d",
        "norm": kind.value,
        "squared": kind is NormKind.L2,
        "basis": [list(red.b1), list(red.b2)],
        "norms": [_jnum(red.norms[0].value), _jnum(red.norms[1].value)],
    }

    def text():
        return [
            f"norm: {kind.value}",
            f"b1: {list(red.b1)}  {label} = {_fmt(red.norms[0].value)}",
            f"b2: {list(red.b2)}  {label} = {_fmt(red.norms[1].value)}",
        ]

    _emit(args, payload, text)
    return EXIT_OK


def cmd_family(args) -> int:
    kind = _resolve_kind(args.norm, None)
    report = verify_family(
        args.n, kind, max_candidates=args.max_candidates, max_dim=args.max_dim
    )
    arg = report.parity_argument
    payload = {
        "command": "family",
        "n": report.n,
        "norm": kind.value,
        "verdict": report.verdict.value,
        "minima": _minima_json(report.minima),
        "parity_argument": {
            "odd_coset_min": _jnum(arg.odd_coset_min.value),
            "even_coset_min": _jnum(arg.even_coset_min.value),
            "covolume": arg.covolume,
            "even_tuple_divisor": arg.even_tuple_divisor,
            "forces_odd_vector": arg.forces_odd_vector,
            "consistent": arg.consistent,
        },
        "certificate": _certificate_json(report.certificate),
    }

    def text():
        label = _minima_label(kind)
        return [
            f"parity lattice n = {report.n}, norm: {kind.value}",
            f"verdict: {report.verdict.value}",
            *_minima_text(report.minima),
            f"odd-coset minimum  {label} = {_fmt(arg.odd_coset_min.value)}",
            f"even-coset minimum {label} = {_fmt(arg.even_coset_min.value)}",
            f"covolume {arg.covolume}; any all-even n-tuple has determinant divisible by "
            f"{arg.even_tuple_divisor}; forces an odd vector in every basis: "
            f"{arg.forces_odd_vector}",
            f"parity argument consistent with verdict: {arg.consistent}",
        ]

    _emit(args, payload, text)
    return EXIT_OK if report.certificate.standard else EXIT_NON_STANDARD


def _parse_rational(token: str) -> Fraction:
    """Exact value of a coordinate token.

    A nonzero mantissa of d digits times 10**e has a numerator (e > 0) or a
    reduced denominator (e < 0) of more than |e| - d digits, so a token with
    |e| above the interpreter's int print limit plus d could never be
    printed; it is rejected before the power of ten is built.  A zero
    mantissa is 0 whatever its exponent: its syntax is checked on a copy
    whose exponent digits are all 0, so no power of ten is built either.
    """
    limit = sys.get_int_max_str_digits()
    try:
        head, sep, exponent = token.strip().lower().partition("e")
        digits = head.lstrip("+-").replace(".", "").replace("_", "")
        if sep and digits.isdecimal():
            if not digits.strip("0"):
                zeroed = "".join("0" if c.isdecimal() else c for c in exponent)
                try:
                    return Fraction(f"{head}e{zeroed}")
                except ValueError:
                    pass  # malformed: Fraction(token) below reports it as typed
            elif limit and abs(int(exponent)) > limit + len(digits):
                raise InputError(
                    f"rational coordinate {token!r} is too large: its numerator or "
                    f"denominator has more than {limit} digits"
                )
        return Fraction(token)
    except InputError:
        raise
    except (ValueError, ZeroDivisionError) as exc:
        raise InputError(f"bad rational coordinate {token!r}: {exc}") from exc


def cmd_nearest(args) -> int:
    basis, _ = load_basis_file(args.file, args.max_dim)
    point = [_parse_rational(tok) for tok in args.point]
    # The target is printed, and dist² and bound² carry the square of the
    # common denominator, so a target with a numerator or squared denominator
    # that cannot be printed could only fail after the rounding; refuse it
    # first.
    limit = sys.get_int_max_str_digits()
    if limit:
        ceiling = 10**limit
        if any(abs(x.numerator) >= ceiling for x in point):
            raise InputError(
                f"target is too large: a coordinate's numerator has more than {limit} digits"
            )
        den = lcm(*(x.denominator for x in point))
        if den * den >= ceiling:
            raise InputError(
                f"target is too fine: the square of its coordinates' common denominator "
                f"has more than {limit} digits"
            )
    res = nearest_plane(basis, point)
    eq = equality_case_analyze(basis, point)
    payload = {
        "command": "nearest",
        "target": [_jnum(x) for x in point],
        "point": list(res.point),
        "coeffs": list(res.coeffs),
        "dist_sq": _jnum(res.dist_sq),
        "bound_sq": _jnum(res.bound_sq),
        "at_equality": res.at_equality,
        "equality_conditions": {
            "orthogonal": eq.orthogonal,
            "equal_norms": eq.equal_norms,
            "half_integer_coefficients": eq.half_integer_coefficients,
        },
    }

    def text():
        return [
            f"target: [{', '.join(_fmt(x) for x in point)}]",
            f"nearest point: {list(res.point)}",
            f"coefficients: {list(res.coeffs)}",
            f"dist² = {_fmt(res.dist_sq)}",
            f"bound² = {_fmt(res.bound_sq)}",
            f"at_equality: {res.at_equality}",
            f"equality conditions: orthogonal={eq.orthogonal}, "
            f"equal_norms={eq.equal_norms}, "
            f"half_integer_coefficients={eq.half_integer_coefficients}",
        ]

    _emit(args, payload, text)
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    """Reads every token that starts like a negative number (``-3``,
    ``-3/2``, ``-.5``) as a value, not as an option; no option of this CLI
    starts with a digit."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"-\.?\d")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="stdlattice",
        description="Exact successive minima, standardness certificates, and "
        "reduction for integer lattices.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, norm_flag: bool = True, enumerates: bool = True) -> None:
        if norm_flag:
            p.add_argument("--norm", choices=sorted(_NORM_NAMES), default=None)
        p.add_argument("--json", action="store_true")
        if enumerates:
            p.add_argument("--max-candidates", type=int, default=DEFAULT_MAX_CANDIDATES)
        p.add_argument("--max-dim", type=int, default=DEFAULT_MAX_DIM)

    p = sub.add_parser("minima", help="successive minima with witnesses")
    p.add_argument("file")
    common(p)
    p.set_defaults(func=cmd_minima)

    p = sub.add_parser("check", help="decide standardness with a certificate")
    p.add_argument("file")
    common(p)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("standardize", help="minima-achieving basis (dim <= 4, L2)")
    p.add_argument("file")
    common(p, norm_flag=False)
    p.set_defaults(func=cmd_standardize)

    p = sub.add_parser("reduce2d", help="reduce a 2D basis under any built-in norm")
    p.add_argument("file")
    common(p, enumerates=False)
    p.set_defaults(func=cmd_reduce2d)

    p = sub.add_parser("family", help="verify the dimension-n parity lattice")
    p.add_argument("n", type=int)
    common(p)
    p.set_defaults(func=cmd_family)

    p = sub.add_parser("nearest", help="nearest-plane point for a rational target")
    p.add_argument("file")
    p.add_argument("point", nargs="+", help="coordinates, integers or p/q")
    common(p, norm_flag=False, enumerates=False)
    p.set_defaults(func=cmd_nearest)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse already printed a usage message; fold into the input-error
        # exit class unless this was --help.
        return EXIT_OK if exc.code == 0 else EXIT_INPUT
    try:
        if "max_candidates" in args:
            _check_positive_int("--max-candidates", args.max_candidates)
        _check_positive_int("--max-dim", args.max_dim)
        return args.func(args)
    except ResourceLimitError as exc:
        print(f"resource limit: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except MemoryError:
        print("resource limit: out of memory", file=sys.stderr)
        return EXIT_RESOURCE
    except RecursionError:
        print("resource limit: maximum recursion depth exceeded", file=sys.stderr)
        return EXIT_RESOURCE
    except InternalConsistencyError as exc:
        print(f"internal consistency failure: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except (LatticeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


def run() -> None:
    """Process entry point: ``main``, plus the failures only a process meets.
    A stdout that cannot be written exits 2, silently when the reader closed
    the pipe, else with one ``error:`` line; stdout then points at devnull,
    so the flush at exit cannot fail again.  An interrupt exits 130 with one
    ``interrupted`` line on stderr."""
    try:
        code = main()
    except KeyboardInterrupt:
        print("interrupted", file=sys.stderr)
        code = EXIT_INTERRUPTED
    except OSError as exc:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        if not isinstance(exc, BrokenPipeError):
            print(f"error: cannot write the output: {exc}", file=sys.stderr)
        code = EXIT_INPUT
    sys.exit(code)


if __name__ == "__main__":
    run()
