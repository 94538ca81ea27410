"""Standardness decisions with certificates, and the minima-achieving basis
for dimensions up to 4 under L2.

A lattice is standard when some basis b_1..b_n has ||b_i|| equal to the i-th
successive minimum for every i.  The decision procedure reuses the
enumeration behind the minima (every vector up to a bound >= lambda_n) and
restricts level i to vectors of norm exactly lambda_i.  It answers
NonStandard by one of two routes:

* generation: the union of the levels generates a proper sublattice, so
  no basis can be drawn from it: folded one vector at a time into a single
  echelon form (``_echelon_insert``), it never reaches n pivots whose
  product is |det|.  This is the paper's argument for the parity lattices.
  The test is skipped when the greedy minima witnesses, which lie in that
  union, already have |det| equal to the lattice's: then they are a basis
  and the union generates the lattice.  The rank tracker of the greedy scan
  holds that determinant, so the skip costs nothing;
* exhaustion: the levels generate the lattice, but a backtrack with rank
  and determinant-divisor pruning finds no basis among them.

The search order is deterministic, so certificates are reproducible by
replay.

Both prunings come from ``RankTracker``, which keeps a unimodular column
transform of the chosen vectors and folds each new one into it by the same
row insertion (``_echelon_insert``).  Unimodular column operations preserve the
gcd of the maximal minors (Cauchy-Binet), so that gcd is the product of the
pivots, one per added vector; a partial tuple whose gcd does not divide
|det| can never complete to a basis.  The transform's columns past the
rank are a Z-basis of the integer kernel of the vectors added, and two such
kernels give ``section_lattice``.

By the paper's theorem every lattice of dimension n <= 4 is standard under
L2, so there the L2 certificate always carries a minima-achieving basis, and
``standardize_low_dim`` returns it.
"""

from __future__ import annotations

import enum
import math
from typing import Iterable, NamedTuple, Sequence

from .enumeration import SuccessiveMinima, _minima_with_entries
from .errors import InternalConsistencyError, ResourceLimitError, StructuralError
from .exactlin import (
    DEFAULT_MAX_CANDIDATES,
    DEFAULT_MAX_DIM,
    IntVector,
    LatticeBasis,
    RankTracker,
    _as_int_rows,
    _check_basis,
    _check_dim,
    _check_lengths,
    _coefficients,
    _dot,
    _echelon_insert,
    _integral_gso,
    _pairwise_orthogonal,
    hnf_nonzero_rows,
    is_basis_of,
)
from .norms import NormKind, measure, require_kind


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
    _check_basis(basis)
    return _pairwise_orthogonal(basis.rows)


def _generates(vectors: Iterable[IntVector], n: int, det: int) -> bool:
    """True iff lattice vectors of dimension ``n`` generate the lattice of
    covolume ``det`` that holds them: folded one at a time into an echelon
    form of at most n rows, they reach n pivots whose product is ``det``."""
    echelon: dict[int, Sequence[int]] = {}
    for vec in vectors:
        _echelon_insert(echelon, vec, n)
        if len(echelon) == n and math.prod(row[c] for c, row in echelon.items()) == det:
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
      sublattice, decided before any search by folding them one at a time
      into an echelon form (``_generates``).  This root test runs only when
      |det| of the greedy witnesses differs from |det| of the lattice:
      witnesses of full covolume are a basis drawn from those vectors, so
      they generate the lattice;
    * the search space (all sign-canonical tuples with ||b_i|| = lambda_i,
      nondecreasing candidate index inside equal-minima runs) was
      exhausted; re-running the deterministic search replays it.

    ``max_candidates`` bounds the enumeration's candidate evaluations and,
    separately, the backtrack's nodes; past either, ``ResourceLimitError``.
    """
    _check_basis(basis)
    require_kind(kind)
    _check_dim(basis.dim, max_dim)
    sm, entries, witness_det = _minima_with_entries(
        basis.rows, kind, max_candidates=max_candidates
    )
    n = basis.dim
    # Entries longer than lambda_n match no level, so none need filtering.
    pool: dict[object, list[IntVector]] = {}
    for vec, nv in entries:
        pool.setdefault(nv.value, []).append(vec)
    levels = [pool.get(nv.value, []) for nv in sm.minima]
    level_candidates = tuple(len(c) for c in levels)
    target_det = abs(basis.det)
    # Root test: every level draws from this union, so if it generates a
    # proper sublattice no basis can be drawn from it.  Witnesses of full
    # covolume already generate the lattice from inside the union.
    if witness_det != target_det:
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
            if nodes > max_candidates:
                raise ResourceLimitError(
                    f"standardness search exceeded {max_candidates} nodes "
                    f"({kind.value}, {len(chosen)} of {n} basis vectors chosen)"
                )
            if not tracker.add(vec):
                continue
            chosen.append(vec)
            # At full rank the divisor is a lattice |det|, a multiple of target_det.
            if target_det % tracker.divisor == 0:
                if level == n - 1:
                    return tuple(chosen)
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
    """Basis of span(spanning) intersected with the lattice of ``rows``, for
    k independent lattice members ``spanning`` (1 <= k < len(rows)).

    Works in coefficient space, with two rank trackers: the integer kernel
    of the spanning coefficient rows is the lattice of normals, and its own
    integer kernel is the saturation of their span, every integer
    coefficient vector in it.  The result is therefore the whole section,
    not a finite-index sublattice of it.
    """
    gso = _integral_gso(rows)
    spans = RankTracker()
    for s in spanning:
        x = _coefficients(rows, s, gso)
        if x is None:
            raise StructuralError(f"spanning vector {s} is not in the lattice")
        spans.add(x)
    if spans.rank != len(spanning):
        raise StructuralError("spanning set is linearly dependent")
    normals = RankTracker()
    for g in spans.kernel:
        normals.add(g)
    return hnf_nonzero_rows([[_dot(k, col) for col in zip(*rows)] for k in normals.kernel])


def section_lattice(
    basis: LatticeBasis, spanning: Sequence[Sequence[int]]
) -> tuple[IntVector, ...]:
    """Basis (n-1 vectors, canonical Hermite rows) of H intersected with the
    lattice, where H is the hyperplane spanned by the given n-1 lattice
    members.  In dimension 1, H = {0} and the basis is empty."""
    _check_basis(basis)
    n = basis.dim
    span = _as_int_rows(spanning)
    if len(span) != n - 1:
        raise StructuralError(f"expected {n - 1} spanning vectors, got {len(span)}")
    _check_lengths(span, n)
    return _section_rows(basis.rows, span) if span else ()


def standardize_low_dim(
    basis: LatticeBasis,
    *,
    max_candidates: int = DEFAULT_MAX_CANDIDATES,
) -> tuple[IntVector, ...]:
    """Minima-achieving basis under L2 for dimension at most 4.

    This is the basis of the L2 certificate, ``check_standard(basis, L2)``,
    which the theorem guarantees for n <= 4; that call makes one minima
    search and verifies the basis before returning it.  When the greedy
    minima witnesses form a basis, every prefix of them is primitive, so
    the backtrack's first basis is those witnesses.  Rows come back sorted
    by norm; in dimension 1 the input row is returned as it is.
    """
    _check_basis(basis)
    if basis.dim > 4:
        raise StructuralError("constructive standardization is limited to dimension <= 4")
    cert = check_standard(basis, NormKind.L2, max_candidates=max_candidates)
    if not cert.standard:
        raise InternalConsistencyError(
            f"dimension {basis.dim} lattice is NonStandard under L2, contradicting the theorem"
        )
    return basis.rows if basis.dim == 1 else cert.basis
