"""Two-dimensional reduction achieving both successive minima under any of
the built-in norms.

The loop is the classical alternation: translate the longer vector by the
best integer multiple of the shorter one, swap, repeat until the longer norm
stops improving.  Because the L1 and Linf balls have flat facets, local
optimality is not taken on faith: the result is verified against a fresh
enumeration before it is returned, turning the heuristic loop into a
certified reduction.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .enumeration import DEFAULT_MAX_CANDIDATES, _minima_rows
from .errors import InternalConsistencyError, StructuralError
from .exactlin import IntVector, LatticeBasis, is_basis_of
from .norms import NormKind, NormValue, measure, require_kind
from .oracle import ceil_sqrt


@dataclass(frozen=True)
class Reduced2DBasis:
    """A basis pair sorted by norm whose norms are the two minima."""

    b1: IntVector
    b2: IntVector
    norms: tuple[NormValue, NormValue]
    kind: NormKind


def _bracket(b2: IntVector, b1: IntVector, kind: NormKind) -> int:
    """Every minimizer q of ||b2 + q b1|| satisfies |q| <= 2||b2|| / ||b1||."""
    m1 = measure(b1, kind).value
    m2 = measure(b2, kind).value
    if kind is NormKind.L2:
        return ceil_sqrt(Fraction(4 * m2, m1)) + 1
    return -((-2 * m2) // m1) + 1


def min_translate(b2: IntVector, b1: IntVector, kind: NormKind) -> int:
    """The integer q minimizing ||b2 + q b1|| under ``kind``.

    f(q) = ||b2 + q b1|| is convex, so its forward difference is
    nondecreasing; two bisections locate the full (possibly flat) minimizer
    interval, and ties resolve to the smallest |q|, then the nonnegative one.
    """
    require_kind(kind)
    b1 = tuple(b1)
    b2 = tuple(b2)
    if not any(b1):
        raise StructuralError("translation vector must be nonzero")

    def f(q: int):
        return measure(tuple(v + q * u for v, u in zip(b2, b1)), kind).value

    def diff_nonneg(q: int) -> bool:
        return f(q + 1) >= f(q)

    def diff_pos(q: int) -> bool:
        return f(q + 1) > f(q)

    span = _bracket(b2, b1, kind)

    def first_true(lo: int, hi: int, pred) -> int:
        while lo < hi:
            mid = (lo + hi) // 2
            if pred(mid):
                hi = mid
            else:
                lo = mid + 1
        return lo

    left = first_true(-span - 1, span, diff_nonneg)
    right = first_true(left, span, diff_pos)
    if left <= 0 <= right:
        return 0
    return left if left > 0 else right


def reduce_2d(
    basis: LatticeBasis,
    kind: NormKind,
    *,
    max_candidates: int = DEFAULT_MAX_CANDIDATES,
) -> Reduced2DBasis:
    """Reduce a 2D basis until it achieves (lambda_1, lambda_2) under ``kind``.

    Each step replaces the longer vector by its best translate along the
    shorter one (a unimodular operation, so the pair stays a basis); the
    multiset of norms strictly decreases, hence termination.  The claimed
    minima are then verified against enumeration; failure of that check is a
    loud internal error, not a silent downgrade.
    """
    require_kind(kind)
    if basis.dim != 2:
        raise StructuralError("reduce_2d requires dimension 2")
    b1, b2 = basis.rows
    if measure(b1, kind).value > measure(b2, kind).value:
        b1, b2 = b2, b1
    while True:
        q = min_translate(b2, b1, kind)
        cand = tuple(v + q * u for v, u in zip(b2, b1))
        if measure(cand, kind).value < measure(b2, kind).value:
            b2 = cand
        else:
            break
        if measure(b2, kind).value < measure(b1, kind).value:
            b1, b2 = b2, b1
    # The reduced pair bounds lambda_2, so the verification enumeration can
    # start there instead of at the (possibly enormous) input row norms.
    start = NormValue(kind, max(measure(b1, kind).value, measure(b2, kind).value))
    sm = _minima_rows(basis.rows, kind, start_bound=start, max_candidates=max_candidates)
    n1, n2 = measure(b1, kind), measure(b2, kind)
    if (n1.value, n2.value) != (sm.minima[0].value, sm.minima[1].value):
        raise InternalConsistencyError(
            f"reduced norms ({n1.value}, {n2.value}) do not match the minima "
            f"({sm.minima[0].value}, {sm.minima[1].value})"
        )
    if not is_basis_of((b1, b2), basis):
        raise InternalConsistencyError("reduction steps lost the basis property")
    return Reduced2DBasis(b1=b1, b2=b2, norms=(n1, n2), kind=kind)
