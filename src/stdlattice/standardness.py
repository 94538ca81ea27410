"""Standardness decisions with certificates, and the constructive
minima-achieving basis for dimensions up to 4 under L2.

A lattice is standard when some basis b_1..b_n has ||b_i|| equal to the i-th
successive minimum for every i.  The decision procedure reuses the
enumeration behind the minima (every vector up to a bound >= lambda_n) and
restricts level i to vectors of norm exactly lambda_i.  It answers
NonStandard by one of two routes:

* generation: the union of the levels generates a proper sublattice (the
  product of the pivots of its Hermite form is not |det|), so no basis can
  be drawn from it.  This is the paper's argument for the parity lattices;
* exhaustion: the levels generate the lattice, but a backtrack with rank
  and determinant-divisor pruning finds no basis among them.

The search order is deterministic, so certificates are reproducible by
replay.

Both prunings come from one incremental column reduction of the chosen
vectors (``RankTracker``).  Unimodular column operations preserve the gcd of
the maximal minors (Cauchy-Binet), so the reduction yields that gcd as the
product of its pivots, updated in one step per added vector; a partial tuple
whose gcd does not divide |det| can never complete to a basis.
"""

from __future__ import annotations

import enum
import itertools
import math
from typing import Iterable, NamedTuple, Sequence

from .enumeration import (
    DEFAULT_MAX_CANDIDATES,
    DEFAULT_MAX_DIM,
    SuccessiveMinima,
    _check_dim,
    _minima_rows,
    _minima_with_entries,
)
from .errors import DimensionMismatchError, InternalConsistencyError, StructuralError
from .exactlin import (
    IntVector,
    LatticeBasis,
    RankTracker,
    _as_int_row,
    _coefficients,
    _dot,
    _nearest_rows,
    hermite_form,
    hnf_nonzero_rows,
    is_basis_of,
    rank_of_rows,
)
from .norms import NormKind, NormValue, measure, require_kind


class Verdict(enum.Enum):
    STANDARD = "Standard"
    NON_STANDARD = "NonStandard"


class SearchStats(NamedTuple):
    """Size of each candidate level and the number of search nodes tried.

    A backtrack counts one node per candidate it tries.  A decision made at
    the root, because the levels generate a proper sublattice, counts the
    root alone: ``nodes_explored == 1``.  Every certificate therefore
    reports at least one node.
    """

    level_candidates: tuple[int, ...]
    nodes_explored: int


class StandardnessCertificate(NamedTuple):
    verdict: Verdict
    basis: tuple[IntVector, ...] | None
    minima: SuccessiveMinima
    stats: SearchStats

    @property
    def standard(self) -> bool:
        return self.verdict is Verdict.STANDARD


def is_orthogonal_basis(basis: LatticeBasis) -> bool:
    """True iff all pairwise dot products of the rows vanish."""
    rows = basis.rows
    n = basis.dim
    return all(_dot(rows[i], rows[j]) == 0 for i in range(n) for j in range(i + 1, n))


def _generates(vectors: Iterable[IntVector], n: int, det: int) -> bool:
    """True iff lattice vectors of dimension ``n`` generate the lattice of
    covolume ``det`` that holds them.

    The Hermite form grows one vector at a time, so no reduction sees more
    than n + 1 rows.  A vector it already generates is skipped after one
    pass of echelon division, and the scan stops once the generated lattice
    has full rank and covolume ``det`` (the product of its diagonal pivots).
    """
    hnf: tuple[IntVector, ...] = ()
    for vec in vectors:
        rest = list(vec)
        for row in hnf:
            c = next(j for j, x in enumerate(row) if x)
            q, r = divmod(rest[c], row[c])
            if r or any(rest[:c]):
                break
            rest = [a - q * b for a, b in zip(rest, row)]
        if not any(rest):
            continue
        hnf = hnf_nonzero_rows(hnf + (vec,))
        if len(hnf) == n and math.prod(hnf[i][i] for i in range(n)) == det:
            return True
    return False


def check_standard(
    basis: LatticeBasis,
    kind: NormKind,
    *,
    max_candidates: int = DEFAULT_MAX_CANDIDATES,
    max_dim: int = DEFAULT_MAX_DIM,
) -> StandardnessCertificate:
    """Decide standardness and produce a re-checkable certificate.

    Standard: the first minima-achieving basis in deterministic search order.
    NonStandard, by one of two routes:

    * the vectors of norm equal to some lambda_i generate a proper
      sublattice, decided before any search by a Hermite form grown one
      vector at a time (``_generates``);
    * the search space (all sign-canonical tuples with ||b_i|| = lambda_i,
      nondecreasing candidate index inside equal-minima runs) was
      exhausted; re-running the deterministic search replays it.
    """
    require_kind(kind)
    _check_dim(basis.dim, max_dim)
    sm, entries = _minima_with_entries(basis.rows, kind, max_candidates=max_candidates)
    n = basis.dim
    # Entries longer than lambda_n match no level, so none need filtering.
    pool: dict[object, list[IntVector]] = {}
    for vec, nv in entries:
        pool.setdefault(nv.value, []).append(vec)
    levels = [pool.get(nv.value, []) for nv in sm.minima]
    level_candidates = tuple(len(c) for c in levels)
    target_det = abs(basis.det)
    # Root test: every level draws from this union, so if it generates a
    # proper sublattice no basis can be drawn from it.
    union = (v for value in dict.fromkeys(nv.value for nv in sm.minima) for v in pool[value])
    if not _generates(union, n, target_det):
        return StandardnessCertificate(
            Verdict.NON_STANDARD, None, sm, SearchStats(level_candidates, 1)
        )
    tracker = RankTracker()
    chosen: list[IntVector] = []
    nodes = 0

    def search(level: int, start: int) -> tuple[IntVector, ...] | None:
        nonlocal nodes
        cands = levels[level]
        for idx in range(start, len(cands)):
            vec = cands[idx]
            nodes += 1
            if not tracker.add(vec):
                continue
            chosen.append(vec)
            if level == n - 1:
                if tracker.divisor == target_det:
                    return tuple(chosen)
            elif target_det % tracker.divisor == 0:
                nxt = (
                    idx + 1
                    if sm.minima[level + 1].value == sm.minima[level].value
                    else 0
                )
                got = search(level + 1, nxt)
                if got is not None:
                    return got
            chosen.pop()
            tracker.pop()
        return None

    found = search(0, 0)
    stats = SearchStats(level_candidates, nodes)
    if found is None:
        return StandardnessCertificate(Verdict.NON_STANDARD, None, sm, stats)
    if not is_basis_of(found, basis):
        raise InternalConsistencyError("search returned a non-basis; this is a bug")
    for vec, nv in zip(found, sm.minima):
        if measure(vec, kind).value != nv.value:
            raise InternalConsistencyError("search returned a basis missing the minima")
    return StandardnessCertificate(Verdict.STANDARD, found, sm, stats)


def _section_rows(
    rows: Sequence[IntVector], spanning: Sequence[IntVector]
) -> tuple[IntVector, ...]:
    """Basis of span(spanning) intersected with the lattice of ``rows``.

    Works in coefficient space: the hyperplane condition becomes a single
    integer linear form on the coefficients, whose full integer kernel is cut
    out by the unimodular transform of a Hermite reduction.  The result is
    therefore the whole section, not a finite-index sublattice of it.
    """
    m = len(rows)
    coeff_rows = []
    for s in spanning:
        x = _coefficients(rows, s)
        if x is None:
            raise StructuralError(f"spanning vector {s} is not in the lattice")
        coeff_rows.append(x)
    if rank_of_rows(coeff_rows) != m - 1:
        raise StructuralError("spanning set is linearly dependent")
    # The coefficient rows have rank m - 1, so the Hermite form of their
    # transpose ends in one zero row, and the matching row of U spans the
    # integer kernel: the primitive normal g of the hyperplane, up to a sign
    # that the canonical Hermite rows of the section do not see.
    g = hermite_form(list(zip(*coeff_rows))).u[-1]
    hf = hermite_form([[gi] for gi in g])
    kernel = hf.u[1:]
    n = len(rows[0])
    section = [
        tuple(sum(k[i] * rows[i][j] for i in range(m)) for j in range(n)) for k in kernel
    ]
    return hnf_nonzero_rows(section)


def section_lattice(
    basis: LatticeBasis, spanning: Sequence[Sequence[int]]
) -> tuple[IntVector, ...]:
    """Basis (n-1 vectors, canonical Hermite rows) of H intersected with the
    lattice, where H is the hyperplane spanned by the given n-1 lattice
    members."""
    n = basis.dim
    span = [_as_int_row(s) for s in spanning]
    if len(span) != n - 1:
        raise StructuralError(f"expected {n - 1} spanning vectors, got {len(span)}")
    for s in span:
        if len(s) != n:
            raise DimensionMismatchError(f"vector length {len(s)} does not match dimension {n}")
    return _section_rows(basis.rows, span)


def _half_coset_completion(
    candidate: Sequence[IntVector], rows: Sequence[IntVector]
) -> tuple[IntVector, ...]:
    """Resolve the one configuration where the induction candidate fails.

    ``candidate`` must be four mutually orthogonal equal-norm vectors
    generating an index-2 sublattice K of the target lattice; every outside
    point then sits at half-integral coefficients, so translating one into
    the fundamental cell by nearest-plane rounding yields a vector of minimal
    norm that replaces the last candidate row.
    """
    k = len(candidate)
    if any(_dot(candidate[i], candidate[j]) != 0 for i in range(k) for j in range(i + 1, k)):
        raise InternalConsistencyError(
            "candidate completion failed outside the orthogonal configuration"
        )
    norms = {measure(c, NormKind.L2).value for c in candidate}
    if len(norms) != 1:
        raise InternalConsistencyError(
            "candidate completion failed outside the equal-norm configuration"
        )
    row_list = [tuple(r) for r in rows]
    sums = (tuple(a + b for a, b in zip(p, q)) for p, q in itertools.combinations(row_list, 2))
    outside = next(
        (v for v in itertools.chain(row_list, sums) if _coefficients(candidate, v) is None), None
    )
    if outside is None:
        raise InternalConsistencyError("no lattice point outside the candidate sublattice")
    _, point, _ = _nearest_rows(candidate, outside)
    short = tuple(o - p for o, p in zip(outside, point))
    return tuple(candidate[:-1]) + (short,)


def _standardize_rows(
    rows: Sequence[IntVector],
    *,
    start_bound: NormValue | None,
    max_candidates: int,
) -> tuple[tuple[IntVector, ...], SuccessiveMinima]:
    m = len(rows)
    sm = _minima_rows(rows, NormKind.L2, start_bound=start_bound, max_candidates=max_candidates)
    if m == 1:
        return tuple(rows), sm
    section = _section_rows(rows, sm.witnesses[: m - 1])
    sub, _ = _standardize_rows(
        section, start_bound=sm.minima[m - 2], max_candidates=max_candidates
    )
    candidate = sub + (sm.witnesses[m - 1],)
    if hnf_nonzero_rows(candidate) == hnf_nonzero_rows(rows):
        return candidate, sm
    if m < 4:
        raise InternalConsistencyError(
            f"induction candidate failed in dimension {m}; this should be impossible"
        )
    # Only the top-level call of a dimension-4 input gets here, and
    # standardize_low_dim verifies what it returns.
    return _half_coset_completion(candidate, rows), sm


def standardize_low_dim(
    basis: LatticeBasis,
    *,
    max_candidates: int = DEFAULT_MAX_CANDIDATES,
) -> tuple[IntVector, ...]:
    """Minima-achieving basis under L2 for dimension at most 4.

    Constructive induction: standardize the section through the first n-1
    minima witnesses, append the last witness, and repair the single possible
    failure (an orthogonal equal-norm index-2 configuration, dimension 4
    only) by the half-coset translate.  The output is verified before it is
    returned; rows come back sorted by norm.
    """
    if basis.dim > 4:
        raise StructuralError("constructive standardization is limited to dimension <= 4")
    result, sm = _standardize_rows(
        basis.rows, start_bound=None, max_candidates=max_candidates
    )
    if not is_basis_of(result, basis):
        raise InternalConsistencyError("standardization output is not a basis")
    for vec, nv in zip(result, sm.minima):
        if measure(vec, NormKind.L2).value != nv.value:
            raise InternalConsistencyError("standardization output misses the minima")
    return result
