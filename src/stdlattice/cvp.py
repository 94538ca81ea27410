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
until the final distance.  The equality-case analysis builds no Gram-Schmidt
data: half-odd coefficients make 2v a lattice point, so a target v = W / q
whose denominator q does not divide 2 fails at once, and any other passes
iff 2v - (b_1 + ... + b_n) lies in 2L, which exact division down one
echelon of the doubled rows decides (``exactlin._in_echelon``).  Row norms
and the bound are integer dot products.
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
    _echelon_of,
    _in_echelon,
    _nearest_rows,
    _pairwise_orthogonal,
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
    """True iff ``target`` lies in the span of the independent ``rows`` B with
    every coefficient a half-odd integer.  Such a target makes 2 * target a
    lattice point, so with target = W / q scaled to integers, q must divide
    2.  Then u = 2 * target - sum(rows) is integral; if target = c B it is
    (2c - 1) B, and c is half-odd iff 2c - 1 is even, that is iff u lies in
    the lattice of the doubled rows 2B.  Independent rows make this hold
    whether B is square or not, and a target off the span leaves u off it
    too.  Exact division down one echelon of 2B decides it."""
    q, big_w = _scaled(target)
    if 2 % q:
        return False
    u = [(2 // q) * w - sum(col) for w, col in zip(big_w, zip(*rows))]
    return _in_echelon(_echelon_of([[2 * a for a in row] for row in rows], len(u)), u)
