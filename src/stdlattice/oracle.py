"""Brute-force ground truth for minima and closest points on small instances.

Both scans are one exact walk over the coordinates of the lattice's
canonical Hermite rows: no LLL, no Gram-Schmidt pruning, no rounding walk,
no shared search code with the fast paths.  The rows are upper triangular
with positive pivots, so coordinate j of a lattice vector depends on its
first j + 1 coefficients alone; each level of the walk fixes one coordinate
for good and takes exactly the coefficients that keep it within what the
fixed coordinates leave of the bound.  The greedy witness scan tests
independence by its own elimination (``_independent_prefix``), not through
the fast path's echelon insertion.  ``brute_cvp`` maps its coefficients x
over the Hermite rows H to the caller's basis B as x . U, U being the
unimodular transform of the same Hermite form (U . B = H), and checks that
they rebuild the point through B.  It exists to be compared against, so it
is deliberately dumb and allowed to be slow.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Callable, NamedTuple, Sequence

from .enumeration import MeasuredVector, SuccessiveMinima
from .errors import InternalConsistencyError, ResourceLimitError, StructuralError
from .exactlin import (
    HermiteForm,
    IntVector,
    LatticeBasis,
    _as_rational_row,
    _check_basis,
    _check_positive_int,
    hermite_form,
)
from .norms import NormKind, NormValue, require_kind

ORACLE_MAX_DIM = 5
DEFAULT_MAX_POINTS = 100_000_000


class BruteCvpResult(NamedTuple):
    point: IntVector
    coeffs: tuple[int, ...]
    dist_sq: Fraction


def _check_oracle_dim(basis: LatticeBasis) -> None:
    if basis.dim > ORACLE_MAX_DIM:
        raise StructuralError(f"the brute-force oracle is capped at dimension {ORACLE_MAX_DIM}")


def _hermite_rows(basis: LatticeBasis) -> HermiteForm:
    """The canonical Hermite form H of ``basis`` with its transform U (U . B
    = H), H checked to have the shape the walk relies on: n rows, upper
    triangular, each with a positive pivot."""
    form = hermite_form(basis.rows)
    rows = form.h
    if len(rows) != basis.dim or any(row[i] <= 0 or any(row[:i]) for i, row in enumerate(rows)):
        raise InternalConsistencyError(f"Hermite rows {rows}: not triangular with positive pivots")
    return form


def _combine(x: Sequence[int], rows: Sequence[Sequence[int]]) -> IntVector:
    """The integer combination x . rows."""
    return tuple(sum(c * row[j] for c, row in zip(x, rows)) for j in range(len(rows[0])))


def _walk(rows, kind: NormKind, limit: int, max_points: int, leaf: Callable, target=None) -> None:
    """Call ``leaf(x, point, cost)`` for each integer x whose point x . rows
    lies within ``limit`` of ``target`` (the origin when None); cost is the
    ``kind`` norm of point - target (squared under L2), and ``leaf`` returns
    the limit the walk goes on under.

    The rows are upper triangular with positive pivots, so coordinate j of
    the point depends on x_0..x_j alone, and level j fixes it for good: it
    takes the x_j that keep it within r of t_j, r being what the fixed
    coordinates leave of the limit (limit - cost under L1, isqrt(limit -
    cost) under L2, limit under Linf).  With no target only x whose first
    nonzero entry is positive are walked; that entry and the point's first
    nonzero coordinate share a sign, so each vector comes once,
    sign-canonical.  More than ``max_points`` coefficients tried raise
    ResourceLimitError.
    """
    n = len(rows)
    t = target or (0,) * n
    x = [0] * n
    tried = 0

    def rec(j: int, point: list[int], used: int, zero_prefix: bool) -> None:
        nonlocal limit, tried
        row = rows[j]
        h = row[j]
        a = point[j] - t[j]
        if kind is NormKind.L1:
            r = limit - used
        elif kind is NormKind.L2:
            r = math.isqrt(limit - used)
        else:
            r = limit
        lo, hi = -((r + a) // h), (r - a) // h
        if zero_prefix:
            lo = 1 if j == n - 1 else 0
        tried += max(hi - lo + 1, 0)
        if tried > max_points:
            raise ResourceLimitError(
                f"oracle scan tried more than {max_points} coefficients (max_points ceiling)"
            )
        for xj in range(lo, hi + 1):
            d = abs(a + xj * h)
            if kind is NormKind.L1:
                cost = used + d
            elif kind is NormKind.L2:
                cost = used + d * d
            else:
                cost = max(used, d)
            if cost > limit:  # the limit fell since this level's interval was taken
                continue
            x[j] = xj
            nxt = [p + xj * e for p, e in zip(point, row)]
            if j == n - 1:
                limit = leaf(tuple(x), nxt, cost)
            else:
                rec(j + 1, nxt, cost, zero_prefix and xj == 0)

    rec(0, [0] * n, 0, target is None)


def _scan_box(basis: LatticeBasis, kind: NormKind, bound: NormValue, max_points: int):
    """All sign-canonical nonzero lattice vectors with norm <= bound, sorted
    by (norm, vector), from one walk over the canonical Hermite rows of
    ``basis`` (see :func:`_walk`)."""
    limit = math.floor(bound.value)
    out = []

    def leaf(x: tuple[int, ...], point: list[int], cost: int) -> int:
        out.append(MeasuredVector(tuple(point), NormValue(kind, cost)))
        return limit

    _walk(_hermite_rows(basis).h, kind, limit, max_points, leaf)
    out.sort(key=lambda e: (e.norm.value, e.vector))
    return out


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
    """Successive minima by exhaustive scan with a doubling bound.

    Each scan walks the coordinates of the canonical Hermite rows of the same
    lattice and lists every vector within the bound; that set, and hence the
    greedy witness extraction, does not depend on the basis, so agreement
    with the fast path is expected bit for bit.  The bound starts at 1 (no
    nonzero integer vector is smaller) and doubles until the witnesses span
    everything.  ``max_points`` caps the coefficients each scan tries.
    """
    _check_basis(basis)
    require_kind(kind)
    _check_oracle_dim(basis)
    _check_positive_int("max_points", max_points)
    n = basis.dim
    bound = NormValue(kind, 1)
    while True:
        found = _independent_prefix(_scan_box(basis, kind, bound, max_points), n)
        if len(found) == n:
            return SuccessiveMinima(
                kind, tuple(e.norm for e in found), tuple(e.vector for e in found)
            )
        # Double the radius: its square under L2.
        bound = NormValue(kind, bound.value * (4 if kind is NormKind.L2 else 2))


def brute_cvp(
    basis: LatticeBasis,
    target: Sequence[int | Fraction],
    *,
    max_points: int = DEFAULT_MAX_POINTS,
) -> BruteCvpResult:
    """Exact closest lattice point under L2 by exhaustive coordinate walk.

    The walk runs over the canonical Hermite rows, in integers scaled by the
    target's common denominator q, under the squared distance to the target.
    Its limit is the best distance found so far, starting from the
    nearest-plane point: only the point is trusted, once mapped here to
    integer Hermite coefficients, and its distance is recomputed.  Ties at
    the final distance resolve to the lexicographically smallest coefficient
    vector over the Hermite rows, a fixed deterministic rule.  The returned
    ``coeffs`` are relative to the caller's basis: the winner's Hermite
    coefficients times U, unique since the basis is nonsingular, and checked
    to rebuild the point.  ``max_points`` caps the coefficients tried.
    """
    _check_basis(basis)
    _check_oracle_dim(basis)
    _check_positive_int("max_points", max_points)
    n = basis.dim
    t = _as_rational_row(target, n)
    rows, u = _hermite_rows(basis)
    q = math.lcm(*(c.denominator for c in t))
    scaled_t = [int(c * q) for c in t]
    from .cvp import nearest_plane

    seed = nearest_plane(basis, t).point
    seed_x: list[int] = []
    for j, row in enumerate(rows):  # substitution down the triangular rows
        xj, rest = divmod(seed[j] - sum(c * r[j] for c, r in zip(seed_x, rows)), row[j])
        if rest:
            raise InternalConsistencyError(f"nearest-plane point {seed} is not a lattice point")
        seed_x.append(xj)
    best = (sum((q * p - s) ** 2 for p, s in zip(seed, scaled_t)), tuple(seed_x))

    def leaf(x: tuple[int, ...], point: list[int], cost: int) -> int:
        nonlocal best
        best = min(best, (cost, x))
        return best[0]

    _walk([[q * e for e in row] for row in rows], NormKind.L2, best[0], max_points, leaf, scaled_t)
    cost, winner = best
    point = _combine(winner, rows)
    coeffs = _combine(winner, u)
    if _combine(coeffs, basis.rows) != point:
        raise InternalConsistencyError(f"coefficients {coeffs} do not rebuild the point {point}")
    return BruteCvpResult(point=point, coeffs=coeffs, dist_sq=Fraction(cost, q * q))
