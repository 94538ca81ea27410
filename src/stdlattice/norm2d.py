"""Two-dimensional reduction achieving both successive minima under any of
the built-in norms.

The loop is the generalized Gauss reduction (Kaib and Schnorr, "The
generalized Gauss reduction algorithm", J. Algorithms 21, 1996): translate
the longer vector by the best integer multiple of the shorter one, swap,
repeat until the longer norm stops improving.  It stops at a pair with
||b1|| <= ||b2|| <= min(||b2 + b1||, ||b2 - b1||), and under any norm such a
pair attains lambda_1 and lambda_2.  Both that criterion and a 2x2 covolume
check (the pair is a basis of the input lattice) are verified on the result
before it is returned, so the reduction is certified without enumerating.
"""

from __future__ import annotations

from typing import NamedTuple

from .errors import DimensionMismatchError, InternalConsistencyError, StructuralError
from .exactlin import IntVector, LatticeBasis, _as_int_row, _check_basis
from .norms import NormKind, NormValue, _L2, measure, require_kind


class Reduced2DBasis(NamedTuple):
    """A basis pair sorted by norm whose norms are the two minima."""

    b1: IntVector
    b2: IntVector
    norms: tuple[NormValue, NormValue]
    kind: NormKind


def min_translate(b2: IntVector, b1: IntVector, kind: NormKind) -> int:
    """The integer q minimizing f(q) = ||b2 + q b1|| under ``kind``.

    Under L2, f(q)^2 is a quadratic minimized at -<b2, b1> / <b1, b1>, so q is
    that value's floor or the integer above it, compared exactly.  Under L1
    and Linf, f is convex: q = 0 wins when neither neighbour is shorter than
    f(0), and otherwise one bisection on the shorter neighbour's side finds
    the minimizer nearest 0; each translate is measured at most once.  Ties
    resolve to the smallest |q|, then the nonnegative one.
    """
    require_kind(kind)
    b1 = _as_int_row(b1)
    b2 = _as_int_row(b2)
    if len(b1) != len(b2):
        raise DimensionMismatchError(f"vector lengths differ: {len(b2)} and {len(b1)}")
    if not any(b1):
        raise StructuralError("translation vector must be nonzero")

    if kind is _L2:
        dot = sum(v * u for v, u in zip(b2, b1))
        sq = sum(u * u for u in b1)
        q = -dot // sq
        # f(q + 1)^2 - f(q)^2; on a tie the smaller |q| is q when q >= 0.
        step = 2 * dot + (2 * q + 1) * sq
        return q + 1 if step < 0 or (step == 0 and q < 0) else q

    values = {}

    def f(q: int):
        # The bisection reads again translates that f(+-1) or its own earlier
        # steps have read; each is measured once per call.
        if q not in values:
            values[q] = measure(tuple(v + q * u for v, u in zip(b2, b1)), kind).value
        return values[q]

    f0, up, down = f(0), f(1), f(-1)
    if up >= f0 <= down:
        return 0
    # By convexity only one neighbour beats f(0), and every minimizer lies on
    # its side s.  Each has |q| <= 2||b2|| / ||b1||, so the least t >= 1 with
    # f(s(t + 1)) >= f(st), the minimizer nearest 0, is at most hi.
    s = 1 if up < f0 else -1
    lo, hi = 1, -((-2 * f0) // measure(b1, kind).value)
    while lo < hi:
        mid = (lo + hi) // 2
        if f(s * (mid + 1)) >= f(s * mid):
            hi = mid
        else:
            lo = mid + 1
    return s * lo


def _gauss_loop(
    b1: IntVector, b2: IntVector, kind: NormKind
) -> tuple[IntVector, IntVector, NormValue, NormValue]:
    """Translate the longer vector by its best multiple of the shorter one and
    swap until the best multiple is 0; returns (shorter, longer) and their
    norms.  The tie rule of ``min_translate`` makes a nonzero q strictly
    shorten b2, so each step measures only its new translate."""
    n1, n2 = measure(b1, kind), measure(b2, kind)
    if n1.value > n2.value:
        b1, b2, n1, n2 = b2, b1, n2, n1
    while q := min_translate(b2, b1, kind):
        b2 = tuple(v + q * u for v, u in zip(b2, b1))
        n2 = measure(b2, kind)
        if n2.value < n1.value:
            b1, b2, n1, n2 = b2, b1, n2, n1
    return b1, b2, n1, n2


def _cross(u: IntVector, v: IntVector) -> int:
    return u[0] * v[1] - u[1] * v[0]


def reduce_2d(basis: LatticeBasis, kind: NormKind) -> Reduced2DBasis:
    """Reduce a 2D basis until it achieves (lambda_1, lambda_2) under ``kind``.

    Each step replaces the longer vector by its best translate along the
    shorter one (a unimodular operation, so the pair stays a basis); the
    multiset of norms strictly decreases, hence termination.  The result is
    certified by the generalized Gauss criterion ||b1|| <= ||b2|| <=
    min(||b2 + b1||, ||b2 - b1||), which under any norm makes the pair's norms
    the two minima (Kaib and Schnorr 1996), and by a covolume check that the
    pair is a basis of the input lattice.  Failure of either check is a loud
    internal error, not a silent downgrade.
    """
    _check_basis(basis)
    require_kind(kind)
    if basis.dim != 2:
        raise StructuralError("reduce_2d requires dimension 2")
    b1, b2, n1, n2 = _gauss_loop(*basis.rows, kind)
    plus = measure(tuple(v + u for v, u in zip(b2, b1)), kind).value
    minus = measure(tuple(v - u for v, u in zip(b2, b1)), kind).value
    if not n1.value <= n2.value <= min(plus, minus):
        raise InternalConsistencyError(
            f"reduced pair misses the Gauss criterion: norms ({n1.value}, {n2.value}), "
            f"translates b2 + b1 {plus} and b2 - b1 {minus}"
        )
    # By Cramer's rule b = x r1 + y r2 with x = (b x r2) / det and
    # y = (r1 x b) / det, so integral quotients put b1 and b2 in the lattice,
    # and two lattice members spanning covolume |det| are a basis of it.
    r1, r2 = basis.rows
    det = basis.det
    members = all(_cross(b, r2) % det == 0 == _cross(r1, b) % det for b in (b1, b2))
    if not members or abs(_cross(b1, b2)) != abs(det):
        raise InternalConsistencyError("reduction steps lost the basis property")
    return Reduced2DBasis(b1=b1, b2=b2, norms=(n1, n2), kind=kind)
