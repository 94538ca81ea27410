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
until the final distance.  The equality-case analysis reads membership off
the same walk (``exactlin._round_off``): a point is in the lattice iff it
lies in the span and the walk rounds no quotient.  Its half-odd test walks
the scaled target doubled, (q, 2W) for v = W / q, so no Fraction is built
per coordinate, and row norms and the bound are integer dot products.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple, Sequence

from .exactlin import (
    IntVector,
    LatticeBasis,
    Rational,
    _as_rational_row,
    _check_basis,
    _dot,
    _integral_gso,
    _nearest_rows,
    _pairwise_orthogonal,
    _round_off,
    _scaled,
)


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


def nearest_plane(basis: LatticeBasis, target: Sequence[Rational]) -> NearestPointResult:
    """Lattice point within sqrt(n)/2 * (max row norm) of ``target``.

    Deterministic: rounding ties go to the even integer.  The returned point
    is not necessarily the true closest lattice point, but its distance never
    exceeds the bound, and the bound is met exactly only in the orthogonal
    half-integral configuration reported by :func:`equality_case_analyze`.
    """
    _check_basis(basis)
    v = _as_rational_row(target, basis.dim)
    coeffs, point, dist_sq = _nearest_rows(basis.rows, v)
    max_row_sq = max(_dot(row, row) for row in basis.rows)
    bound_sq = Fraction(basis.dim * max_row_sq, 4)
    return NearestPointResult(
        point=point,
        coeffs=tuple(coeffs),
        dist_sq=dist_sq,
        bound_sq=bound_sq,
        at_equality=dist_sq == bound_sq,
    )


def equality_case_analyze(basis: LatticeBasis, target: Sequence[Rational]) -> EqualityCaseReport:
    """Check each equality condition of the distance bound exactly."""
    _check_basis(basis)
    v = _as_rational_row(target, basis.dim)
    rows = basis.rows
    orthogonal = _pairwise_orthogonal(rows)
    equal_norms = len({_dot(row, row) for row in rows}) == 1
    return EqualityCaseReport(
        orthogonal=orthogonal,
        equal_norms=equal_norms,
        half_integer_coefficients=_half_odd_coefficients(rows, v),
    )


def _half_odd_coefficients(rows: Sequence[IntVector], target: Sequence[Rational]) -> bool:
    """True iff ``target`` lies in the span of the independent ``rows`` with
    every coefficient a half-odd integer, that is iff 2 * target is a
    lattice point whose coefficients are all odd.  With target = W / q
    scaled to integers, 2 * target is 2W / q, which the rounding walk takes
    as it is."""
    q, big_w = _scaled(target)
    doubled, exact = _round_off(rows, q, [2 * w for w in big_w], _integral_gso(rows))
    return exact and all(c % 2 for c in doubled)
