"""Brute-force ground truth for minima and closest points on small instances.

Everything here is a plain coefficient-box scan: no Gram-Schmidt pruning, no
recursive rounding, no shared search code with the fast paths.  Coefficients
are read through its own Fraction inverse (``invert_rational``), not through
the library's one rounding walk for membership, and the greedy witness scan
tests independence by its own elimination (``_independent_prefix``), not
through the library's rank tracker.  It exists to be compared against, so
it is deliberately dumb and allowed to be slow.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple, Sequence

from .enumeration import MeasuredVector, SuccessiveMinima, _canonical_sign
from .errors import ResourceLimitError, StructuralError
from .exactlin import (
    IntVector,
    LatticeBasis,
    _as_rational_row,
    _check_basis,
    _check_positive_int,
    hnf_nonzero_rows,
)
from .norms import (
    NormKind,
    NormValue,
    _require_bound,
    ceil_sqrt,
    enumeration_radius_in_l2,
    measure,
    require_kind,
)

ORACLE_MAX_DIM = 5
DEFAULT_MAX_POINTS = 100_000_000


class CoefficientBox(NamedTuple):
    """Provably sufficient coefficient range for a box scan.

    Every lattice vector with norm <= the target bound has coefficients
    |x_i| <= per_coeff_bound; the derivation fields record the L2 radius and
    inverse-matrix column norm that produced the bound.
    """

    per_coeff_bound: int
    l2_radius_sq: Fraction
    max_inverse_column_sq: Fraction


class BruteCvpResult(NamedTuple):
    point: IntVector
    coeffs: tuple[int, ...]
    dist_sq: Fraction


def invert_rational(rows: Sequence[Sequence[int]]) -> list[list[Fraction]]:
    """Exact inverse of a nonsingular square integer matrix."""
    n = len(rows)
    a = [[Fraction(x) for x in row] + [Fraction(1 if j == i else 0) for j in range(n)]
         for i, row in enumerate(rows)]
    for col in range(n):
        pr = next((i for i in range(col, n) if a[i][col] != 0), None)
        if pr is None:
            raise StructuralError("matrix is singular")
        a[col], a[pr] = a[pr], a[col]
        pv = a[col][col]
        a[col] = [x / pv for x in a[col]]
        for i in range(n):
            if i != col and a[i][col] != 0:
                f = a[i][col]
                a[i] = [x - f * y for x, y in zip(a[i], a[col])]
    return [row[n:] for row in a]


def _times_inverse(
    vec: Sequence[int | Fraction], inv: Sequence[Sequence[Fraction]]
) -> list[Fraction]:
    """Coordinates x with x . B = vec, read as vec . B^-1 from ``inv`` = B^-1."""
    n = len(inv)
    return [sum(vec[j] * inv[j][i] for j in range(n)) for i in range(n)]


def _inverse_column_sq(basis: LatticeBasis) -> list[Fraction]:
    inv = invert_rational(basis.rows)
    n = basis.dim
    return [sum(inv[j][i] * inv[j][i] for j in range(n)) for i in range(n)]


def coefficient_box(basis: LatticeBasis, kind: NormKind, bound: NormValue) -> CoefficientBox:
    """Coefficient range covering all lattice vectors within ``bound``.

    If x . B = v then x_i is the dot product of v with column i of B^-1, so
    |x_i| <= ||v||_2 * ||column_i(B^-1)||_2 <= R * max column norm.
    """
    _check_basis(basis)
    _require_bound(kind, bound)
    r2 = Fraction(enumeration_radius_in_l2(bound, basis.dim).value)
    colsq = max(_inverse_column_sq(basis))
    m = ceil_sqrt(r2 * colsq)
    return CoefficientBox(per_coeff_bound=max(m, 1), l2_radius_sq=r2, max_inverse_column_sq=colsq)


def _check_oracle_dim(basis: LatticeBasis) -> None:
    if basis.dim > ORACLE_MAX_DIM:
        raise StructuralError(f"the brute-force oracle is capped at dimension {ORACLE_MAX_DIM}")


def _scan_box(basis: LatticeBasis, kind: NormKind, bound: NormValue, max_points: int):
    """All sign-canonical nonzero lattice vectors with norm <= bound, by full
    coefficient-box scan (only x-vectors whose first nonzero entry is
    positive are walked; the mirror image is redundant).

    The scan uses the per-coordinate bounds |x_i| <= R * ||column_i(B^-1)||_2
    from the same covering argument as :func:`coefficient_box`; each is at
    most the published box constant, so this walks a subset of that box.
    """
    n = basis.dim
    r2 = Fraction(enumeration_radius_in_l2(bound, n).value)
    colsq = _inverse_column_sq(basis)
    ms = [ceil_sqrt(r2 * c) for c in colsq]
    volume = 1
    for m in ms:
        volume *= 2 * m + 1
    volume = (volume + 1) // 2
    if volume > max_points:
        raise ResourceLimitError(
            f"coefficient box holds about {volume} points, over the {max_points} ceiling"
        )
    rows = basis.rows
    limit = bound.value
    out = []

    def rec(level: int, partial: tuple[int, ...], zero_prefix: bool) -> None:
        row = rows[level]
        m = ms[level]
        rng = range(0, m + 1) if zero_prefix else range(-m, m + 1)
        if level == n - 1:
            for xi in rng:
                if zero_prefix and xi == 0:
                    continue
                vec = tuple(p + xi * r for p, r in zip(partial, row))
                nv = measure(vec, kind)
                if 0 < nv.value <= limit:
                    out.append(MeasuredVector(_canonical_sign(vec), nv))
        else:
            for xi in rng:
                rec(level + 1, tuple(p + xi * r for p, r in zip(partial, row)), zero_prefix and xi == 0)

    rec(0, (0,) * n, True)
    out.sort(key=lambda e: (e.norm.value, e.vector))
    return out


def double_radius(bound: NormValue) -> NormValue:
    """The bound whose underlying norm radius is doubled (factor 4 for the
    squared L2 representation)."""
    factor = 4 if bound.kind is NormKind.L2 else 2
    return NormValue(bound.kind, bound.value * factor)


def _independent_prefix(entries: Sequence[MeasuredVector], want: int) -> list[MeasuredVector]:
    """The entries, in order, that each lie outside the span of those kept
    before them, stopping at ``want``.  Each vector is cross-multiplied
    against the kept rows' pivots, which clears those columns; it is kept,
    with its first nonzero column as pivot, when something is left."""
    kept: list[tuple[int, list[int]]] = []
    out = []
    for entry in entries:
        v = list(entry.vector)
        for c, row in kept:
            if v[c]:
                v = [row[c] * a - v[c] * b for a, b in zip(v, row)]
        pivot = next((c for c, a in enumerate(v) if a), None)
        if pivot is not None:
            kept.append((pivot, v))
            out.append(entry)
            if len(out) == want:
                break
    return out


def brute_minima(
    basis: LatticeBasis, kind: NormKind, *, max_points: int = DEFAULT_MAX_POINTS
) -> SuccessiveMinima:
    """Successive minima by exhaustive box scan with a doubling bound.

    The scan runs over the coefficients of the canonical Hermite basis of the
    same lattice (its triangular, entry-reduced rows keep the coefficient box
    small even when the input basis is skew); the enumerated vector set, and
    hence the greedy witness extraction, does not depend on that choice, so
    agreement with the fast path is expected bit for bit.  The bound starts
    at 1 (no nonzero integer vector is smaller) and doubles until the
    witnesses span everything.
    """
    _check_basis(basis)
    require_kind(kind)
    _check_oracle_dim(basis)
    _check_positive_int("max_points", max_points)
    n = basis.dim
    scan_basis = LatticeBasis(hnf_nonzero_rows(basis.rows))
    bound = NormValue(kind, 1)
    while True:
        entries = _scan_box(scan_basis, kind, bound, max_points)
        found = _independent_prefix(entries, n)
        if len(found) == n:
            return SuccessiveMinima(
                kind, tuple(e.norm for e in found), tuple(e.vector for e in found)
            )
        bound = double_radius(bound)


def brute_cvp(
    basis: LatticeBasis,
    target: Sequence[int | Fraction],
    *,
    max_points: int = DEFAULT_MAX_POINTS,
) -> BruteCvpResult:
    """Exact closest lattice point under L2 by exhaustive coefficient scan.

    The scan runs over the box |x_i - c_i| <= r * ||column_i(B^-1)||_2 around
    the rational coordinates c of the target, where r starts from the
    distance of the nearest-plane point (recomputed here from the point
    itself) and shrinks as better points are found.  The widest coordinate is
    not scanned at all: with every other coefficient fixed, the distance is a
    convex quadratic in it, so only the two integers around its real
    minimizer can matter.  Every global minimizer is reached this way; ties
    at the final distance resolve to the lexicographically smallest
    coefficient vector over the canonical scan basis, a fixed deterministic
    rule.  The returned ``coeffs`` are relative to the caller's basis.
    """
    _check_basis(basis)
    _check_oracle_dim(basis)
    _check_positive_int("max_points", max_points)
    n = basis.dim
    t = _as_rational_row(target, n)
    # Scan in the canonical Hermite basis of the same lattice: the point set
    # is unchanged and the triangular reduced rows keep the box small.
    scan_basis = LatticeBasis(hnf_nonzero_rows(basis.rows))
    rows = scan_basis.rows
    inv = invert_rational(rows)
    center = _times_inverse(t, inv)
    colsq = _inverse_column_sq(scan_basis)

    def dist_sq_of(coeffs: Sequence[int]) -> Fraction:
        diff = [
            t[j] - sum(coeffs[i] * rows[i][j] for i in range(n)) for j in range(n)
        ]
        return Fraction(sum(d * d for d in diff))

    # Seed with the nearest-plane point; only the point is trusted, its
    # distance is recomputed locally so a wrong distance cannot mislead us.
    from .cvp import nearest_plane

    seed = nearest_plane(basis, t)
    seed_coeffs = tuple(int(c) for c in _times_inverse(seed.point, inv))
    best_sq = dist_sq_of(seed_coeffs)
    best: list[tuple[int, ...]] = [seed_coeffs]
    visited = 0
    coeffs = [0] * n
    # Scan narrow coordinates first and resolve the widest one analytically.
    order = sorted(range(n), key=lambda i: colsq[i])
    last = order[-1]
    row_last = rows[last]
    last_norm_sq = sum(x * x for x in row_last)

    def finish(residual: list[Fraction]) -> None:
        nonlocal best_sq, visited
        visited += 1
        if visited > max_points:
            raise ResourceLimitError(f"closest-point scan exceeded {max_points} points")
        c = Fraction(sum(r * x for r, x in zip(residual, row_last))) / last_norm_sq
        lo = c.numerator // c.denominator
        for xi in {lo, lo + 1}:
            coeffs[last] = xi
            dsq = Fraction(sum((r - xi * x) ** 2 for r, x in zip(residual, row_last)))
            if dsq < best_sq:
                best_sq = dsq
                best.clear()
                best.append(tuple(coeffs))
            elif dsq == best_sq:
                best.append(tuple(coeffs))

    def rec(pos: int, residual: list[Fraction]) -> None:
        if pos == n - 1:
            finish(residual)
            return
        level = order[pos]
        c = center[level]
        row = rows[level]
        start = round(c)

        def try_value(xi: int) -> bool:
            d = xi - c
            if d * d > best_sq * colsq[level]:
                return False
            coeffs[level] = xi
            rec(pos + 1, [r - xi * x for r, x in zip(residual, row)])
            return True

        xi = start
        while try_value(xi):
            xi += 1
        xi = start - 1
        while try_value(xi):
            xi -= 1

    rec(0, t)
    winner = min(best)
    point = tuple(sum(winner[i] * rows[i][j] for i in range(n)) for j in range(n))
    # Report coefficients with respect to the caller's basis.
    out_coeffs = tuple(int(c) for c in _times_inverse(point, invert_rational(basis.rows)))
    return BruteCvpResult(point=point, coeffs=out_coeffs, dist_sq=best_sq)
