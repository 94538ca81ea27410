"""Exhaustive short-vector enumeration and successive minima with witnesses.

The enumerator is one iterative depth-first loop over levels (Fincke-Pohst
style) driven by the integral Gram-Schmidt data (d, lam) that LLL leaves
behind, so it builds no Gram-Schmidt vector and no Fraction: partial
squared-L2 sums prune against the L2 radius that dominates the requested
norm, and survivors are filtered by the exact target norm.  Each level keeps
its scaled center, the radius left to it and a zero-prefix flag.  Only leaves
read ambient vectors, so the partial vectors sum_{i>=l} x_i rows_i are built
when a leaf with a nonempty interval needs them, from the lowest one still
valid (a zero coefficient reuses its parent's); the leaf's first candidate
adds lo rows_0 to them, and each next one adds rows_0 once.  On entry a
level's admissible coefficients are one exact integer interval around its
center, from an integer square root of the radius the levels above leave
(starting at 0 while every coefficient above is zero: the negative branch
mirrors it).  A level entered with no radius left admits its center alone,
and so does every level below it, so from there the loop walks straight
down, one candidate a level and no square root, until a center is not an
integer coefficient or the leaf is reached.  Under L1/Linf, Hoelder's
inequality on the level's star row g = d_l b*_l clamps each interval to a
box: ||v|| <= N keeps the coefficient within N ||g||_dual / d_l+1 of the
center.  The intervals fix the visited set, and each coefficient in one
is a candidate against the ceiling.  Output lists are sign-canonical
(first nonzero ambient coordinate positive) and sorted by (norm,
lexicographic coordinates), which makes every downstream certificate
deterministic.

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
reduced rows.  Under L1/Linf norms are integers, so lambda_n >= c, the
least integer >= p/q, and the floor leaves room below the rows' N_n
exactly when c < N_n.  Only then does anything run before the pass at N_n,
and first a pass at c: if it finds n independent vectors, lambda_n = c and
the minima are read off it, since the sorted entries up to lambda_n are the
same in every pass whose bound covers lambda_n.  Otherwise lambda_n > c,
and while c + 1 < N_n an L2 minima search runs, whose witnesses replace the
rows when their largest norm is smaller; at c + 1 = N_n the raised floor
gives lambda_n = N_n, which no witnesses can lower.  Where the floor leaves
no room neither pass could lower the bound, so skipping them changes
nothing.  Then, when the norms have the parity shape (N_1 < N_n-1 = N_n)
and N_1 reaches the floor (above c under L1/Linf, as the pass at c failed),
one probe pass at N_1 runs; if it finds n independent vectors it covers
lambda_n and the minima are read off it, and otherwise the pass at N_n
runs.  A probe below the floor could not succeed.  The pass at c and the
probe lie below N_n, so their search trees are subsets of that pass's.
"""

from __future__ import annotations

from math import isqrt, lcm
from operator import add, mul, neg
from typing import NamedTuple, Sequence

from .errors import InputError, InternalConsistencyError, ResourceLimitError
from .exactlin import (
    DEFAULT_MAX_CANDIDATES,
    DEFAULT_MAX_DIM,
    IntVector,
    LatticeBasis,
    _as_int_row,
    _check_basis,
    _check_dim,
    _check_positive_int,
    _echelon_insert,
    _echelon_of,
    _in_echelon,
    _lll_rows,
    _star_rows,
)
from .norms import (
    NormKind,
    NormValue,
    _L1,
    _L2,
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
    # The first nonzero coordinate decides the lexicographic order of v and
    # -v, so the larger of the two is the one where it is positive.
    flipped = tuple(map(neg, vec))
    return vec if vec >= flipped else flipped


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
        if kind is not _L2:
            dual = max if kind is _L1 else sum
            self.duals = [dual(map(abs, g)) for g in _star_rows(rows, d, lam)]

    def floor(self, kind: NormKind) -> tuple[int, int]:
        return self.d[-1], self.d[-2] if kind is _L2 else self.duals[-1]


def _ceiling_error(max_candidates: int, kind: NormKind, limit) -> ResourceLimitError:
    return ResourceLimitError(
        f"enumeration exceeded {max_candidates} candidate evaluations "
        f"({kind.value} pass, bound {limit})"
    )


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
    # branch mirrors it).  Only a leaf reads the ambient vectors: vecs[l] is
    # sum_{i>=l} x_i rows_i for every l >= built, a leaf with a nonempty
    # interval first extends that down to vecs[1] (a zero x_l reuses
    # vecs[l+1]), and changing x_l makes vecs[l] and those below it stale.
    # The leaf's first candidate is vecs[1] + lo rows_0, and each next one
    # adds rows_0 once.  xs[m] is a sentinel, and vecs[m] the zero vector.
    #
    # A level entered with rem = 0 has the one-point interval {C_l / D}
    # when D divides C_l, and its child is entered with rem = 0 again.  So
    # from such a level ``top`` the loop walks straight down, one candidate
    # a level, with no square root and no interval stored, until a center
    # is not an integer, which the interval check below finds empty, or the
    # leaf; then the climb resumes at top + 1, as it would after climbing
    # through the walk's spent one-point intervals.  Only a nonzero
    # coefficient spends radius and the bound is positive, so a walk never
    # lies below a zero prefix and has no negative branch to skip.
    found: list[MeasuredVector] = []
    xs = [0] * (m + 1)
    his = [0] * m
    centers = [0] * m
    rems = [0] * m
    zeros = [True] * m
    vecs = [None] * m + [(0,) * n]
    built = m
    row0 = rows[0]
    level, center, rem, zero = m - 1, 0, cap, True
    work = 0
    while True:
        # Enter ``level`` below a prefix with this center, remaining radius
        # and zero flag: every coefficient of its interval is one candidate.
        top = level
        if rem:
            s = isqrt(rem // bsq_rd[level])
            if boxes and boxes[level] < s:
                s = boxes[level]
        else:
            s = 0
            while level and not center % den:
                work += 1
                if work > max_candidates:
                    raise _ceiling_error(max_candidates, kind, limit)
                xs[level] = center // den
                level -= 1
                center = -sum(map(mul, xs[level + 1 :], mu_cols[level]))
        lo = (center - s + den - 1) // den
        hi = (center + s) // den
        if zero and lo < 0:
            lo = 0
        if lo <= hi:
            work += hi - lo + 1
            if work > max_candidates:
                raise _ceiling_error(max_candidates, kind, limit)
        if level and rem:
            xs[level] = lo
            his[level] = hi
            centers[level] = center
            rems[level] = rem
            zeros[level] = zero
        else:
            # A leaf, or a level where a walk stopped, whose interval is
            # empty: only a leaf reaches the vectors.  Either way the climb
            # resumes above ``top``.
            if zero and lo == 0:
                lo = 1
            if lo <= hi:
                if built > 1:
                    vec = vecs[built]
                    for l in range(built - 1, 0, -1):
                        x = xs[l]
                        if x:
                            vec = [p + x * r for p, r in zip(vec, rows[l])]
                        vecs[l] = vec
                    built = 1
                vec = tuple([p + lo * r for p, r in zip(vecs[1], row0)])
                while True:
                    nv = measure(vec, kind)
                    if nv.value <= limit:
                        # Both fields are known good: skip the NamedTuple
                        # constructor, as norms.measure does for its values.
                        found.append(tuple.__new__(MeasuredVector, (_canonical_sign(vec), nv)))
                    if lo == hi:
                        break
                    lo += 1
                    vec = tuple(map(add, vec, row0))
            level = top + 1
            xs[level] += 1
        # Climb past every spent interval, then descend from the next
        # coefficient.
        while level < m and xs[level] > his[level]:
            level += 1
            xs[level] += 1
        if level == m:
            break
        if built <= level:
            built = level + 1
        xi = xs[level]
        t = xi * den - centers[level]
        rem = rems[level] - t * t * bsq_rd[level]
        zero = zeros[level] and xi == 0
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
) -> tuple[list[NormValue], list[IntVector], dict[int, Sequence[int]]]:
    """Scan a sorted enumeration, keeping each vector that grows the rank.
    Each vector is folded into a copy of the kept vectors' echelon form
    (``_echelon_insert``), and the copy is kept only when it opens a new
    pivot: an insertion rewrites the rows even when the vector turns out
    dependent, and the rows must span the witnesses alone.  Also returns
    that echelon form, whose pivots multiply to |det| of the witnesses once
    ``want`` of them are kept in dimension ``want``."""
    echelon: dict[int, Sequence[int]] = {}
    minima: list[NormValue] = []
    witnesses: list[IntVector] = []
    for vec, nv in entries:
        trial = dict(echelon)
        if _echelon_insert(trial, vec, want) is None:
            echelon = trial
            minima.append(nv)
            witnesses.append(vec)
            if len(witnesses) == want:
                break
    return minima, witnesses, echelon


def _sorted_norms(vectors: Sequence[IntVector], kind: NormKind) -> list:
    return sorted(measure(v, kind).value for v in vectors)


def _read_pass(
    search: _ReducedSearch, kind: NormKind, value, want: int, max_candidates: int
) -> tuple[SuccessiveMinima, list[MeasuredVector], dict[int, Sequence[int]]]:
    """One pass at ``value`` under ``kind`` and its greedy scan: fewer than
    ``want`` witnesses mean the pass lies below lambda_want."""
    entries = _enumerate_rows(search, NormValue(kind, value), max_candidates)
    minima, witnesses, echelon = _greedy_minima(entries, want)
    return SuccessiveMinima(kind, tuple(minima), tuple(witnesses)), entries, echelon


def _reduced_minima(
    search: _ReducedSearch, kind: NormKind, max_candidates: int
) -> tuple[SuccessiveMinima, list[MeasuredVector], dict[int, Sequence[int]]]:
    """Minima read off the passes over ``search``, together with the pass
    they were read from and the greedy scan's echelon form of the
    witnesses, whose pivots multiply to |det| of the witnesses.  This is
    the one place where the passes of a minima search are decided: the
    floor on lambda_n, the pass at that floor, the L2 bounding search and
    the probe, as the module docstring derives them.  A pass at N_n that finds fewer than n
    independent vectors is a bug, never a short answer.
    """
    p, q = search.floor(kind)
    norms = _sorted_norms(search.rows, kind)
    m = len(norms)
    if kind is not _L2 and (norms[-1] - 1) * q >= p:
        # Norms are integers here, so lambda_n >= c = ceil(p / q) < N_n.  A
        # pass at c that finds n independent vectors has lambda_n = c, and
        # one that does not raises the floor to c + 1.
        c = -(-p // q)
        found = _read_pass(search, kind, c, m, max_candidates)
        if len(found[0].witnesses) == m:
            return found
        p, q = c + 1, 1
        # The L2 search is cheap on the reduced rows, and its witnesses are
        # n independent vectors that are often much shorter in ``kind``.  At
        # N_n = c + 1 the floor already pins lambda_n = N_n, so no witnesses
        # can lower the bound and the search is skipped.
        if norms[-1] > p:
            l2 = _reduced_minima(search, _L2, max_candidates)[0]
            witness_norms = _sorted_norms(l2.witnesses, kind)
            if witness_norms[-1] < norms[-1]:
                norms = witness_norms
    low, top = norms[0], norms[-1]
    bounds = [top]
    if low < top == norms[-2] and low * q >= p:
        bounds.insert(0, low)
    for value in bounds:
        found = _read_pass(search, kind, value, m, max_candidates)
        if len(found[0].witnesses) == m:
            return found
    raise InternalConsistencyError(
        f"bound {top} lies below lambda_{m}: {len(found[0].witnesses)} independent vectors found"
    )


def _minima_with_entries(
    rows: Sequence[IntVector],
    kind: NormKind,
    *,
    max_candidates: int = DEFAULT_MAX_CANDIDATES,
) -> tuple[SuccessiveMinima, list[MeasuredVector], dict[int, Sequence[int]]]:
    """The minima together with the enumeration pass they were read from:
    every vector of norm at most that pass's bound, which is >= lambda_n,
    and the echelon form of the witnesses (see :func:`_reduced_minima`)."""
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
    raising.  Membership divides each witness down one echelon form of the
    basis rows, and independence counts the pivots of the witnesses' own
    fold (``exactlin._echelon_of``, ``_in_echelon``).  A malformed
    certificate is refused with InputError, and a witness entry that is not
    an int (``1.5``, ``True``, ``"a"``) with StructuralError, as every
    integer-row entry in the library is.
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
    echelon = _echelon_of(basis.rows, n)
    rows = []
    for i, w in enumerate(witnesses):
        if len(w) != n:
            problems.append(f"witness {i + 1} has wrong length")
            return CheckResult(False, tuple(problems))
        rows.append(_as_int_row(w))
        if not _in_echelon(echelon, rows[-1]):
            problems.append(f"witness {i + 1} is not a lattice point")
        got = measure(w, sm.kind)
        if got.value != minima[i].value:
            problems.append(
                f"witness {i + 1} has norm {got.value}, certificate says {minima[i].value}"
            )
    if len(_echelon_of(rows, n)) != n:
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
