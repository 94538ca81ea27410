"""Exhaustive short-vector enumeration and successive minima with witnesses.

The enumerator is one iterative depth-first loop over levels (Schnorr-Euchner
style) driven by the integral Gram-Schmidt data (d, lam) that LLL leaves
behind, so it builds no Gram-Schmidt vector and no Fraction: partial
squared-L2 sums prune against the L2 radius that dominates the requested
norm, and survivors are filtered by the exact target norm.  Each level keeps
its scaled center, partial sum, zero-prefix flag and ambient partial vector,
so a leaf costs O(n), one row added to its parent's vector.  Each level
sweeps upward from the integer nearest its center to the first failure, then
downward from one below it (only upward from 0 while every coefficient above
is zero), which fixes the visited set and hence the candidate count that the
ceiling limits.  Output lists are sign-canonical (first nonzero ambient
coordinate positive) and sorted by (norm, lexicographic coordinates), which
makes every downstream certificate deterministic.

Every search runs on an LLL-reduced basis of the input lattice.  The output
is a set of ambient vectors, so it does not depend on the basis it was found
from, while the reduced basis has short, nearly orthogonal rows and a far
smaller search tree.  The minima start from a bound that already covers
lambda_n: the largest row norm of the reduced basis, and under L1/Linf also
the largest norm of the L2 minima witnesses, whichever is smaller (any n
independent lattice vectors bound lambda_n from above).
"""

from __future__ import annotations

from math import lcm
from operator import mul
from typing import NamedTuple, Sequence

from .errors import InternalConsistencyError, ResourceLimitError
from .exactlin import IntVector, LatticeBasis, RankTracker, _lll_rows
from .norms import (
    NormKind,
    NormValue,
    enumeration_radius_in_l2,
    measure,
    require_kind,
)

DEFAULT_MAX_CANDIDATES = 10_000_000
DEFAULT_MAX_DIM = 12


class MeasuredVector(NamedTuple):
    vector: IntVector
    norm: NormValue


class ShortVectorList(NamedTuple):
    """Every nonzero lattice vector with norm <= bound, up to sign.

    Exactly one of v, -v appears; the kept representative has its first
    nonzero coordinate positive.  Entries are sorted by (norm, coordinates).
    """

    kind: NormKind
    bound: NormValue
    entries: tuple[MeasuredVector, ...]

    @property
    def vectors(self) -> tuple[IntVector, ...]:
        return tuple(e.vector for e in self.entries)


class SuccessiveMinima(NamedTuple):
    """The n sorted minima under ``kind`` with independent witness vectors."""

    kind: NormKind
    minima: tuple[NormValue, ...]
    witnesses: tuple[IntVector, ...]


class CheckResult(NamedTuple):
    ok: bool
    problems: tuple[str, ...]

    def __bool__(self) -> bool:
        return self.ok


def _check_dim(dim: int, max_dim: int) -> None:
    if dim > max_dim:
        raise ResourceLimitError(f"dimension {dim} exceeds the configured cap {max_dim}")


def _canonical_sign(vec: tuple[int, ...]) -> tuple[int, ...]:
    for x in vec:
        if x > 0:
            return vec
        if x < 0:
            return tuple(-y for y in vec)
    return vec


def _enumerate_rows(
    rows: Sequence[IntVector],
    d: Sequence[int],
    lam: Sequence[Sequence[int]],
    kind: NormKind,
    bound: NormValue,
    max_candidates: int,
) -> list[MeasuredVector]:
    """Every nonzero vector of norm at most ``bound`` in the lattice of
    ``rows``, given their integral Gram-Schmidt data (d, lam) from LLL."""
    m = len(rows)
    n = len(rows[0])
    r2 = enumeration_radius_in_l2(bound, n).value  # an int or a Fraction
    limit = bound.value

    # The pruning condition sum_l (x_l - c_l)^2 ||b*_l||^2 <= R^2 is evaluated
    # in scaled integers.  mu_ij = lam_ij / d_j+1 and ||b*_j||^2 = d_j+1 / d_j,
    # so D = lcm(d_1 .. d_m-1) clears every mu and E = lcm(d_0 .. d_m-1) every
    # squared star length: each term times D^2 E is an integer, and the
    # comparison is the same exact one for any common multiples D and E.
    den = lcm(*d[1:m])
    sq_den = lcm(*d[:m])
    # mu_cols[l] holds the scaled mu_il for i > l: the weights of l's center.
    mu_cols = [[lam[i][j] * (den // d[j + 1]) for i in range(j + 1, m)] for j in range(m)]
    bsq_scaled = [d[j + 1] * (sq_den // d[j]) for j in range(m)]
    # S_scaled <= R^2 * D^2 * E  <=>  S_scaled * rd <= rn * D^2 * E.
    cap = r2.numerator * den * den * sq_den
    rd = r2.denominator

    # One loop over levels, top (m-1) to leaf (0).  Per level: the current
    # coefficient, its sweep direction (+1 up, -1 down) and start, the scaled
    # center, the partial squared sum of the levels above, and whether every
    # coefficient above is zero (then only the upward sweep from 0 runs: the
    # negative branch mirrors it).  vecs[l] is the ambient vector
    # sum_{i>=l} x_i rows_i, so a leaf adds one row to vecs[1].
    found: list[MeasuredVector] = []
    xs = [0] * m
    steps = [1] * m
    starts = [0] * m
    centers = [0] * m
    partials = [0] * m
    zeros = [True] * m
    vecs = [None] * m + [(0,) * n]
    row0 = rows[0]
    level = m - 1
    work = 0
    while True:
        xi = xs[level]
        work += 1
        if work > max_candidates:
            raise ResourceLimitError(
                f"enumeration exceeded {max_candidates} candidate evaluations "
                f"({kind.value} pass, bound {limit})"
            )
        t = xi * den - centers[level]
        total = partials[level] + t * t * bsq_scaled[level]
        if total * rd <= cap:
            zero = zeros[level] and xi == 0
            if level:
                vecs[level] = [p + xi * r for p, r in zip(vecs[level + 1], rows[level])]
                level -= 1
                center = -sum(map(mul, xs[level + 1 :], mu_cols[level]))
                centers[level] = center
                partials[level] = total
                zeros[level] = zero
                steps[level] = 1
                if zero:
                    xs[level] = 0
                else:
                    # Nearest integer to center/den; a tie can fall either
                    # way, both tied values lie inside the interval whenever
                    # any integer does.
                    starts[level] = xs[level] = (2 * center + den) // (2 * den)
                continue
            if not zero:
                vec = tuple([p + xi * r for p, r in zip(vecs[1], row0)])
                nv = measure(vec, kind)
                if 0 < nv.value <= limit:
                    found.append(MeasuredVector(_canonical_sign(vec), nv))
            xs[0] = xi + steps[0]
            continue
        if steps[level] == 1 and not zeros[level]:
            steps[level] = -1
            xs[level] = starts[level] - 1
            continue
        level += 1
        if level == m:
            break
        xs[level] += steps[level]

    found.sort(key=lambda e: (e.norm.value, e.vector))
    return found


def enumerate_short(
    basis: LatticeBasis,
    kind: NormKind,
    bound: NormValue,
    *,
    max_candidates: int = DEFAULT_MAX_CANDIDATES,
    max_dim: int = DEFAULT_MAX_DIM,
) -> ShortVectorList:
    """All nonzero lattice vectors with norm at most ``bound``, up to sign."""
    require_kind(kind)
    if bound.kind is not kind:
        raise ValueError(f"bound kind {bound.kind.value} does not match requested {kind.value}")
    if bound.value <= 0:
        raise ValueError("enumeration bound must be positive")
    _check_dim(basis.dim, max_dim)
    entries = _enumerate_rows(*_lll_rows(basis.rows), kind, bound, max_candidates)
    return ShortVectorList(kind=kind, bound=bound, entries=tuple(entries))


def _greedy_minima(
    entries: Sequence[MeasuredVector], want: int
) -> tuple[list[NormValue], list[IntVector]]:
    """Scan a sorted enumeration, keeping each vector that grows the rank."""
    tracker = RankTracker()
    minima: list[NormValue] = []
    witnesses: list[IntVector] = []
    for vec, nv in entries:
        if tracker.add(vec):
            minima.append(nv)
            witnesses.append(vec)
            if len(witnesses) == want:
                break
    return minima, witnesses


def _row_bound(rows: Sequence[IntVector], kind: NormKind) -> NormValue:
    return NormValue(kind, max(measure(r, kind).value for r in rows))


def _scan_minima(
    reduced, kind: NormKind, bound: NormValue, max_candidates: int
) -> tuple[SuccessiveMinima, list[MeasuredVector]]:
    """Minima from ``reduced`` = (rows, d, lam) as returned by LLL, read off
    one enumeration pass.  Every caller's ``bound`` is the largest norm of n
    independent lattice vectors, so it covers lambda_n; a pass that finds
    fewer than n independent vectors is a bug, never a short answer."""
    m = len(reduced[0])
    entries = _enumerate_rows(*reduced, kind, bound, max_candidates)
    minima, witnesses = _greedy_minima(entries, m)
    if len(witnesses) < m:
        raise InternalConsistencyError(
            f"start bound {bound.value} lies below lambda_{m}: "
            f"{len(witnesses)} independent vectors found"
        )
    return SuccessiveMinima(kind, tuple(minima), tuple(witnesses)), entries


def _minima_with_entries(
    rows: Sequence[IntVector],
    kind: NormKind,
    *,
    start_bound: NormValue | None = None,
    max_candidates: int = DEFAULT_MAX_CANDIDATES,
) -> tuple[SuccessiveMinima, list[MeasuredVector]]:
    """The minima together with the enumeration pass they were read from:
    every vector of norm at most that pass's bound, which is >= lambda_n."""
    reduced = _lll_rows(rows)
    rows = reduced[0]
    if start_bound is None:
        start_bound = _row_bound(rows, kind)
        if kind is not NormKind.L2:
            # The L2 pass is cheap on the reduced rows, and its witnesses are
            # n independent vectors that are often much shorter in ``kind``.
            l2, _ = _scan_minima(reduced, NormKind.L2, _row_bound(rows, NormKind.L2), max_candidates)
            start_bound = min(start_bound, _row_bound(l2.witnesses, kind))
    return _scan_minima(reduced, kind, start_bound, max_candidates)


def _minima_rows(
    rows: Sequence[IntVector],
    kind: NormKind,
    *,
    start_bound: NormValue | None = None,
    max_candidates: int = DEFAULT_MAX_CANDIDATES,
) -> SuccessiveMinima:
    return _minima_with_entries(
        rows, kind, start_bound=start_bound, max_candidates=max_candidates
    )[0]


def successive_minima(
    basis: LatticeBasis,
    kind: NormKind,
    *,
    max_candidates: int = DEFAULT_MAX_CANDIDATES,
    max_dim: int = DEFAULT_MAX_DIM,
) -> SuccessiveMinima:
    """Exact successive minima with a deterministic greedy witness set.

    The witnesses are read off the sorted enumeration: a vector is kept iff
    it increases the rank of the kept set, so the i-th kept norm is the i-th
    minimum.  The enumeration runs on an LLL-reduced basis from a radius
    that already bounds lambda_n: the largest reduced row norm, and under
    L1/Linf the smaller of that and the largest norm of the L2 witnesses.
    """
    require_kind(kind)
    _check_dim(basis.dim, max_dim)
    return _minima_rows(basis.rows, kind, max_candidates=max_candidates)


def minima_witness_check(
    basis: LatticeBasis,
    sm: SuccessiveMinima,
    *,
    max_candidates: int = DEFAULT_MAX_CANDIDATES,
    max_dim: int = DEFAULT_MAX_DIM,
) -> CheckResult:
    """Independent verification of a SuccessiveMinima certificate.

    Re-checks membership, norms, independence, ordering, and minimality
    against a fresh enumeration; returns ok=False with diagnostics instead of
    raising.
    """
    from .exactlin import member, rank_of_rows

    problems: list[str] = []
    n = basis.dim
    if len(sm.minima) != n or len(sm.witnesses) != n:
        problems.append(f"expected {n} minima and witnesses, got {len(sm.minima)}/{len(sm.witnesses)}")
        return CheckResult(False, tuple(problems))
    for i, nv in enumerate(sm.minima):
        if nv.kind is not sm.kind:
            problems.append(f"minimum {i + 1} has kind {nv.kind.value}, expected {sm.kind.value}")
    for i in range(1, n):
        if sm.minima[i].value < sm.minima[i - 1].value:
            problems.append(f"minima are not nondecreasing at position {i + 1}")
    for i, w in enumerate(sm.witnesses):
        if len(w) != n:
            problems.append(f"witness {i + 1} has wrong length")
            return CheckResult(False, tuple(problems))
        if member(basis, w) is None:
            problems.append(f"witness {i + 1} is not a lattice point")
        got = measure(w, sm.kind)
        if got.value != sm.minima[i].value:
            problems.append(
                f"witness {i + 1} has norm {got.value}, certificate says {sm.minima[i].value}"
            )
    if rank_of_rows(sm.witnesses) != n:
        problems.append("witnesses are linearly dependent")
    if not problems:
        fresh = _minima_rows(basis.rows, sm.kind, max_candidates=max_candidates)
        for i in range(n):
            if fresh.minima[i].value != sm.minima[i].value:
                problems.append(
                    f"minimum {i + 1} should be {fresh.minima[i].value}, certificate says "
                    f"{sm.minima[i].value}"
                )
    return CheckResult(not problems, tuple(problems))
