"""Nearest-plane rounding with the sqrt(n)/2 distance guarantee (L2 only).

Given a full-rank basis with rows of squared length at most L, the returned
lattice point u satisfies ||v - u||^2 <= (n/4) * L, and the result records
whether that bound is attained exactly.  The rounding is the recursive
project-and-round construction: the last basis coefficient is rounded to the
nearest integer (ties to the even integer) and the procedure recurses on the
hyperplane spanned by the remaining rows.

The rounding runs on integers (``exactlin._nearest_rows``): the target is
scaled by its common denominator and each coefficient is an exact quotient
of integers built from the integral Gram-Schmidt data of the rows
(``exactlin._integral_gso``), so no Gram-Schmidt vector or Fraction is formed
until the final distance.  The same rounding decides membership: a lattice
point comes back unchanged at distance zero, with its integer coefficients,
and every other point moves.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple, Sequence

from .errors import DimensionMismatchError
from .exactlin import IntVector, LatticeBasis, _coefficients, _dot, _nearest_rows
from .norms import NormKind, measure

Rational = int | Fraction


class NearestPointResult(NamedTuple):
    """A lattice point within the guaranteed distance of the target.

    ``dist_sq`` is the exact squared distance, ``bound_sq`` is
    (n/4) * max_i ||b_i||^2, and ``at_equality`` flags dist_sq == bound_sq.
    """

    point: IntVector
    coeffs: tuple[int, ...]
    dist_sq: Fraction
    bound_sq: Fraction
    at_equality: bool


class EqualityCaseReport(NamedTuple):
    """The three exact conditions under which the distance bound is tight:
    pairwise orthogonal rows, all row norms equal, and every basis
    coefficient of the target a half-odd integer."""

    orthogonal: bool
    equal_norms: bool
    half_integer_coefficients: bool

    @property
    def all_hold(self) -> bool:
        return self.orthogonal and self.equal_norms and self.half_integer_coefficients


def _as_rational_vector(target: Sequence[Rational], width: int) -> list[Fraction]:
    v = [Fraction(t) for t in target]
    if len(v) != width:
        raise DimensionMismatchError(f"target length {len(v)} does not match dimension {width}")
    return v


def nearest_plane(basis: LatticeBasis, target: Sequence[Rational]) -> NearestPointResult:
    """Lattice point within sqrt(n)/2 * (max row norm) of ``target``.

    Deterministic: rounding ties go to the even integer.  The returned point
    is not necessarily the true closest lattice point, but its distance never
    exceeds the bound, and the bound is met exactly only in the orthogonal
    half-integral configuration reported by :func:`equality_case_analyze`.
    """
    v = _as_rational_vector(target, basis.dim)
    coeffs, point, dist_sq = _nearest_rows(basis.rows, v)
    max_row_sq = max(measure(row, NormKind.L2).value for row in basis.rows)
    bound_sq = Fraction(basis.dim, 4) * max_row_sq
    return NearestPointResult(
        point=point,
        coeffs=tuple(coeffs),
        dist_sq=dist_sq,
        bound_sq=bound_sq,
        at_equality=dist_sq == bound_sq,
    )


def equality_case_analyze(basis: LatticeBasis, target: Sequence[Rational]) -> EqualityCaseReport:
    """Check each equality condition of the distance bound exactly."""
    v = _as_rational_vector(target, basis.dim)
    rows = basis.rows
    n = basis.dim
    orthogonal = all(
        _dot(rows[i], rows[j]) == 0 for i in range(n) for j in range(i + 1, n)
    )
    norms = [measure(row, NormKind.L2).value for row in rows]
    equal_norms = len(set(norms)) == 1
    # Every coefficient of v is half-odd iff 2v is a lattice point whose
    # coefficients are all odd.
    doubled = _coefficients(rows, [2 * t for t in v])
    half_odd = doubled is not None and all(c % 2 for c in doubled)
    return EqualityCaseReport(
        orthogonal=orthogonal,
        equal_norms=equal_norms,
        half_integer_coefficients=half_odd,
    )
