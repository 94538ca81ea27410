"""Exhaustive short-vector enumeration and successive minima with witnesses.

The enumerator is one iterative depth-first loop over levels (Fincke-Pohst
style) driven by the integral Gram-Schmidt data (d, lam) that LLL leaves
behind, so it builds no Gram-Schmidt vector and no Fraction: partial
squared-L2 sums prune against the L2 radius that dominates the requested
norm, and survivors are filtered by the exact target norm.  Each level keeps
its scaled center, partial sum, zero-prefix flag and ambient partial vector,
so a leaf costs O(n), one row added to its parent's vector.  On entry a
level's admissible coefficients are one exact integer interval around its
center, from an integer square root of the radius the levels above leave
(starting at 0 while every coefficient above is zero: the negative branch
mirrors it).  Under L1/Linf, Hoelder's inequality on the level's star row
g = d_l b*_l clamps it to a box: ||v|| <= N keeps the coefficient within
N ||g||_dual / d_l+1 of the center.  The intervals fix the visited set,
and each coefficient in one is a candidate against the ceiling.  Output
lists are sign-canonical (first nonzero ambient coordinate positive) and
sorted by (norm, lexicographic coordinates), which makes every downstream
certificate deterministic.

Every search runs on an LLL-reduced basis of the input lattice.  The output
is a set of ambient vectors, so it does not depend on the basis it was found
from, while the reduced basis has short, nearly orthogonal rows and a far
smaller search tree.  One record, ``_ReducedSearch``, holds that basis and
everything its passes read that does not depend on a pass's bound, built
once per search.  ``_reduced_minima`` is the one place where the passes of
a minima search are decided, from that record and the norm kind alone, by
the plan below.  The minima are read off a pass whose bound already covers
lambda_n: the norms N_1 <= .. <= N_n of n independent lattice vectors
bound lambda_n by N_n.  One exact floor p/q <= lambda_n decides which
further passes can pay off.  Among n independent lattice vectors one, v,
has a nonzero integer coefficient x on the last reduced row.  With b* that
row's Gram-Schmidt vector, <v, b*> = x ||b*||^2, so by Hoelder's inequality
||v|| >= ||b*||^2 / ||b*||_dual, the dual norm being Linf for L1 and L1 for
Linf (||b*||^2 = d_n / d_n-1 itself under L2).  With the integer star row
g = d_n-1 b* that is d_n / ||g||_dual: the top level of the per-level box,
whose star rows the record builds once.  The bounding vectors are the
reduced rows; under L1/Linf an L2 minima search runs first only when the
floor leaves room below the rows' N_n (N_n - 1 >= p/q, norms being
integers there), and its witnesses replace the rows when their largest norm
is smaller.  Where the floor leaves no room the witnesses could not be
shorter, so skipping that search changes nothing.  When the norms have the
parity shape (N_1 < N_n-1 = N_n) and N_1 reaches the floor, one probe pass
at N_1 runs first; if it finds n independent vectors it covers lambda_n and
the minima are read off it, and otherwise the pass at N_n runs.  A probe
below the floor could not succeed, and its radius is below N_n, so its
search tree is a subset of that pass's.
"""

from __future__ import annotations

from math import isqrt, lcm
from operator import mul
from typing import NamedTuple, Sequence

from .errors import InputError, InternalConsistencyError, ResourceLimitError
from .exactlin import (
    DEFAULT_MAX_CANDIDATES,
    DEFAULT_MAX_DIM,
    IntVector,
    LatticeBasis,
    RankTracker,
    _as_int_row,
    _check_basis,
    _check_dim,
    _check_positive_int,
    _coefficients,
    _integral_gso,
    _lll_rows,
    _star_rows,
    rank_of_rows,
)
from .norms import (
    NormKind,
    NormValue,
    _require_bound,
    enumeration_radius_in_l2,
    measure,
    require_kind,
)

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


def _canonical_sign(vec: tuple[int, ...]) -> tuple[int, ...]:
    for x in vec:
        if x > 0:
            return vec
        if x < 0:
            return tuple(-y for y in vec)
    return vec


class _ReducedSearch:
    """One search's LLL-reduced basis and everything its enumeration passes
    read that does not depend on a pass's bound; built once per minima
    search or :func:`enumerate_short` call.

    ``rows``, ``d`` and ``lam`` are the reduced rows and their integral
    Gram-Schmidt data from :func:`_lll_rows`.  The passes prune with
    sum_l (x_l - c_l)^2 ||b*_l||^2 <= R^2 in scaled integers: mu_ij =
    lam_ij / d_j+1 and ||b*_j||^2 = d_j+1 / d_j, so D = lcm(d_1 .. d_m-1)
    (``den``) clears every mu and E = lcm(d_0 .. d_m-1) every squared star
    length.  ``mu_cols[l]`` holds D mu_il for i > l, the weights of level
    l's center, ``bsq[l]`` is ||b*_l||^2 D^2 E and ``scale`` is D^2 E; any
    common multiples D and E give the same exact comparison.

    Under ``kind`` = L1/Linf, ``duals[k]`` is ||g_k||_dual for the star row
    g_k = d_k b*_k (:func:`_star_rows`), the dual norm being Linf for L1
    and L1 for Linf; only passes under ``kind`` clamp their levels by them,
    and under L2 they are None.  :meth:`floor` is the floor p / q <=
    lambda_n from the last row, d_n / ||g_n-1||_dual, or d_n / d_n-1 for
    the squared L2 norm (derived in the module docstring).
    """

    __slots__ = ("rows", "d", "lam", "kind", "den", "mu_cols", "bsq", "scale", "duals")

    def __init__(self, rows: Sequence[IntVector], kind: NormKind) -> None:
        self.rows, self.d, self.lam = rows, d, lam = _lll_rows(rows)
        m = len(rows)
        self.kind = kind
        self.den = den = lcm(*d[1:m])
        sq_den = lcm(*d[:m])
        self.mu_cols = [[lam[i][j] * (den // d[j + 1]) for i in range(j + 1, m)] for j in range(m)]
        self.bsq = [d[j + 1] * (sq_den // d[j]) for j in range(m)]
        self.scale = den * den * sq_den
        self.duals = None
        if kind is not NormKind.L2:
            dual = max if kind is NormKind.L1 else sum
            self.duals = [dual(map(abs, g)) for g in _star_rows(rows, d, lam)]

    def floor(self, kind: NormKind) -> tuple[int, int]:
        return self.d[-1], self.d[-2] if kind is NormKind.L2 else self.duals[-1]


def _enumerate_rows(
    search: _ReducedSearch, bound: NormValue, max_candidates: int
) -> list[MeasuredVector]:
    """Every nonzero vector of norm at most ``bound`` in the lattice of the
    reduced rows of ``search``.  Only a pass under the record's own kind is
    clamped by its dual norms, which bound that norm alone."""
    rows, d, den, mu_cols = search.rows, search.d, search.den, search.mu_cols
    kind = bound.kind
    m = len(rows)
    n = len(rows[0])
    r2 = enumeration_radius_in_l2(bound, n).value  # an int or a Fraction
    limit = bound.value

    # S_scaled <= R^2 * D^2 * E  <=>  S_scaled * rd <= rn * D^2 * E = cap.
    cap = r2.numerator * search.scale
    rd = r2.denominator
    # bsq_rd[l] = ||b*_l||^2 D^2 E rd.  At level l, x_l is admissible iff
    # t = x_l D - C_l, an integer, has t^2 bsq_rd[l] <= rem, where
    # rem = cap - (scaled partial sum of the levels above) rd >= 0 is the
    # radius they leave (they passed the same test): |t| <= s =
    # isqrt(rem // bsq_rd[l]), an exact integer interval of x_l around the
    # center C_l / D.  A child's rem is its parent's minus t^2 bsq_rd[l].
    bsq_rd = search.bsq if rd == 1 else [b * rd for b in search.bsq]
    # Under L1/Linf, Hoelder on the star row g_l = d_l b*_l clamps s: every
    # v = sum x_i b_i has <v, g_l> = t d_l+1 / D, so ||v|| <= N gives
    # |t| <= N ||g_l||_dual D / d_l+1.
    duals = search.duals if kind is search.kind else None
    boxes = None if duals is None else [
        limit.numerator * g * den // (limit.denominator * d[l + 1]) for l, g in enumerate(duals)
    ]

    # One loop, top level (m-1) to leaf (0).  Per level: the current
    # coefficient and the top of its interval, the scaled center, the radius
    # rem that the levels above leave, and whether every coefficient above
    # is zero (then the interval starts at 0 at the lowest, as the negative
    # branch mirrors it).  vecs[l] is the ambient vector sum_{i>=l} x_i
    # rows_i, so a leaf adds one row to vecs[1].  xs[m] is a sentinel.
    found: list[MeasuredVector] = []
    xs = [0] * (m + 1)
    his = [0] * m
    centers = [0] * m
    rems = [0] * m
    zeros = [True] * m
    vecs = [None] * m + [(0,) * n]
    row0 = rows[0]
    level, center, rem, zero = m - 1, 0, cap, True
    work = 0
    while True:
        # Enter ``level`` below a prefix with this center, remaining radius
        # and zero flag: every coefficient of its interval is one candidate.
        s = isqrt(rem // bsq_rd[level])
        if boxes and boxes[level] < s:
            s = boxes[level]
        lo = (center - s + den - 1) // den
        hi = (center + s) // den
        if zero and lo < 0:
            lo = 0
        if lo <= hi:
            work += hi - lo + 1
            if work > max_candidates:
                raise ResourceLimitError(
                    f"enumeration exceeded {max_candidates} candidate evaluations "
                    f"({kind.value} pass, bound {limit})"
                )
        if level:
            xs[level] = lo
            his[level] = hi
            centers[level] = center
            rems[level] = rem
            zeros[level] = zero
        else:
            base = vecs[1]
            for xi in range(lo + (zero and lo == 0), hi + 1):
                vec = tuple([p + xi * r for p, r in zip(base, row0)])
                nv = measure(vec, kind)
                if nv.value <= limit:
                    found.append(MeasuredVector(_canonical_sign(vec), nv))
            level = 1
            xs[1] += 1
        # Climb past every spent interval, then descend from the next
        # coefficient.
        while level < m and xs[level] > his[level]:
            level += 1
            xs[level] += 1
        if level == m:
            break
        xi = xs[level]
        t = xi * den - centers[level]
        rem = rems[level] - t * t * bsq_rd[level]
        zero = zeros[level] and xi == 0
        vecs[level] = [p + xi * r for p, r in zip(vecs[level + 1], rows[level])]
        level -= 1
        center = -sum(map(mul, xs[level + 1 :], mu_cols[level]))

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
    _check_basis(basis)
    _require_bound(kind, bound)
    _check_dim(basis.dim, max_dim)
    _check_positive_int("max_candidates", max_candidates)
    entries = _enumerate_rows(_ReducedSearch(basis.rows, kind), bound, max_candidates)
    return ShortVectorList(kind=kind, bound=bound, entries=tuple(entries))


def _greedy_minima(
    entries: Sequence[MeasuredVector], want: int
) -> tuple[list[NormValue], list[IntVector], int]:
    """Scan a sorted enumeration, keeping each vector that grows the rank.
    Also returns the gcd of the maximal minors of the kept vectors, which is
    |det| of the witnesses once ``want`` of them are kept in dimension
    ``want``."""
    tracker = RankTracker()
    minima: list[NormValue] = []
    witnesses: list[IntVector] = []
    for vec, nv in entries:
        if tracker.add(vec):
            minima.append(nv)
            witnesses.append(vec)
            if len(witnesses) == want:
                break
    return minima, witnesses, tracker.divisor


def _sorted_norms(vectors: Sequence[IntVector], kind: NormKind) -> list:
    return sorted(measure(v, kind).value for v in vectors)


def _reduced_minima(
    search: _ReducedSearch, kind: NormKind, max_candidates: int
) -> tuple[SuccessiveMinima, list[MeasuredVector], int]:
    """Minima read off the passes over ``search``, together with the pass
    they were read from and |det| of the witnesses, which the greedy scan's
    rank tracker holds.  This is the one place where the passes of a minima
    search are decided: the floor on lambda_n, the L2 bounding search and
    the probe, as the module docstring derives them.  A pass at N_n that
    finds fewer than n independent vectors is a bug, never a short answer.
    """
    p, q = search.floor(kind)
    norms = _sorted_norms(search.rows, kind)
    if kind is not NormKind.L2 and (norms[-1] - 1) * q >= p:
        # The L2 search is cheap on the reduced rows, and its witnesses are
        # n independent vectors that are often much shorter in ``kind``.
        l2 = _reduced_minima(search, NormKind.L2, max_candidates)[0]
        witness_norms = _sorted_norms(l2.witnesses, kind)
        if witness_norms[-1] < norms[-1]:
            norms = witness_norms
    m = len(norms)
    low, top = norms[0], norms[-1]
    bounds = [top]
    if low < top == norms[-2] and low * q >= p:
        bounds.insert(0, low)
    for value in bounds:
        entries = _enumerate_rows(search, NormValue(kind, value), max_candidates)
        minima, witnesses, witness_det = _greedy_minima(entries, m)
        if len(witnesses) == m:
            return SuccessiveMinima(kind, tuple(minima), tuple(witnesses)), entries, witness_det
    raise InternalConsistencyError(
        f"bound {top} lies below lambda_{m}: {len(witnesses)} independent vectors found"
    )


def _minima_with_entries(
    rows: Sequence[IntVector],
    kind: NormKind,
    *,
    max_candidates: int = DEFAULT_MAX_CANDIDATES,
) -> tuple[SuccessiveMinima, list[MeasuredVector], int]:
    """The minima together with the enumeration pass they were read from:
    every vector of norm at most that pass's bound, which is >= lambda_n,
    and |det| of the witnesses (see :func:`_reduced_minima`)."""
    _check_positive_int("max_candidates", max_candidates)
    return _reduced_minima(_ReducedSearch(rows, kind), kind, max_candidates)


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
    minimum.  The enumeration runs on an LLL-reduced basis to a radius that
    covers lambda_n; the module docstring sets out how its passes are
    planned, and no part of the plan changes an answer.
    """
    _check_basis(basis)
    require_kind(kind)
    _check_dim(basis.dim, max_dim)
    return _minima_with_entries(basis.rows, kind, max_candidates=max_candidates)[0]


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
    raising.  A malformed certificate is refused with InputError.
    """
    _check_basis(basis)
    if not isinstance(sm, SuccessiveMinima):
        raise InputError(f"expected a SuccessiveMinima certificate, got {type(sm).__name__}")
    require_kind(sm.kind)
    try:
        minima, witnesses = tuple(sm.minima), tuple(map(tuple, sm.witnesses))
    except TypeError as exc:
        raise InputError("minima must be a sequence and witnesses a sequence of rows") from exc
    if not all(isinstance(nv, NormValue) for nv in minima):
        raise InputError("every minimum must be a NormValue")
    _check_dim(basis.dim, max_dim)
    _check_positive_int("max_candidates", max_candidates)
    problems: list[str] = []
    n = basis.dim
    if len(minima) != n or len(witnesses) != n:
        problems.append(f"expected {n} minima and witnesses, got {len(minima)}/{len(witnesses)}")
        return CheckResult(False, tuple(problems))
    for i, nv in enumerate(minima):
        if nv.kind is not sm.kind:
            problems.append(f"minimum {i + 1} has kind {nv.kind.value}, expected {sm.kind.value}")
    for i in range(1, n):
        if minima[i].value < minima[i - 1].value:
            problems.append(f"minima are not nondecreasing at position {i + 1}")
    gso = _integral_gso(basis.rows)
    for i, w in enumerate(witnesses):
        if len(w) != n:
            problems.append(f"witness {i + 1} has wrong length")
            return CheckResult(False, tuple(problems))
        if _coefficients(basis.rows, _as_int_row(w), gso) is None:
            problems.append(f"witness {i + 1} is not a lattice point")
        got = measure(w, sm.kind)
        if got.value != minima[i].value:
            problems.append(
                f"witness {i + 1} has norm {got.value}, certificate says {minima[i].value}"
            )
    if rank_of_rows(witnesses) != n:
        problems.append("witnesses are linearly dependent")
    if not problems:
        fresh = _minima_with_entries(basis.rows, sm.kind, max_candidates=max_candidates)[0]
        for i in range(n):
            if fresh.minima[i].value != minima[i].value:
                problems.append(
                    f"minimum {i + 1} should be {fresh.minima[i].value}, certificate says "
                    f"{minima[i].value}"
                )
    return CheckResult(not problems, tuple(problems))
