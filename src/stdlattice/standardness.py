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
  product is |det|.  This is the paper's argument for the parity lattices;
* exhaustion: the levels generate the lattice, but a backtrack with rank
  and determinant-divisor pruning finds no basis among them.

The search order is deterministic, so certificates are reproducible by
replay.

Two rank walks serve a check.  The greedy minima scan folds its witnesses
into an echelon form by the same row insertion and returns the product of
the pivots, |det| of the witnesses.  When that is |det| of the lattice the
witnesses are a basis drawn from the levels, so the union generates the
lattice, and they are the backtrack's first basis too: every prefix of a
basis has a minor gcd dividing |det|, and the scan passed over every
earlier candidate of a level as dependent on the witnesses before it.  The
certificate is then read off the witnesses, with the nodes the backtrack
would count.  Otherwise the root test runs, and after it the backtrack.

The backtrack's prunings come from ``_kernel_step``, a pure step that
takes a Z-basis of the integer kernel of the chosen vectors and a new
vector, and returns None when the vector adds no rank, else the kernel
with it added and the factor g by which it multiplies the gcd of the
maximal minors.  That gcd is the product of the g's along the path; a
partial tuple whose gcd does not divide |det| can never complete to a
basis.  Each node passes its kernel and gcd down, so siblings share their
parent's and nothing is undone.  Two folds of the same step give
``section_lattice``, with no Gram-Schmidt and no coefficients.

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
    _as_int_rows,
    _check_basis,
    _check_dim,
    _check_lengths,
    _dot,
    _echelon_insert,
    _echelon_of,
    _in_echelon,
    _is_basis,
    _kernel_step,
    _pairwise_orthogonal,
    hnf_nonzero_rows,
)
from .norms import NormKind, _L2, measure, require_kind


class Verdict(enum.Enum):
    STANDARD = "Standard"
    NON_STANDARD = "NonStandard"


# Bound once, as in ``norms``: a module global reads faster than an enum member.
_STANDARD, _NON_STANDARD = Verdict.STANDARD, Verdict.NON_STANDARD


class SearchStats(NamedTuple):
    """Size of each candidate level and the number of search nodes tried.

    A backtrack counts one node per candidate it tries.  A certificate read
    off greedy witnesses that are a basis counts the nodes the backtrack
    would try to reach them.  A decision made at the root, because the
    levels generate a proper sublattice, counts the root alone:
    ``nodes_explored == 1``.  Every certificate therefore reports at least
    one node.
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
        return self.verdict is _STANDARD


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


def _node_limit(max_candidates: int, sm: SuccessiveMinima, chosen: int) -> ResourceLimitError:
    n = len(sm.minima)
    return ResourceLimitError(
        f"standardness search exceeded {max_candidates} nodes "
        f"({sm.kind.value}, {chosen} of {n} basis vectors chosen)"
    )


def _backtrack(
    levels: Sequence[Sequence[IntVector]],
    sm: SuccessiveMinima,
    target_det: int,
    max_candidates: int,
) -> tuple[tuple[IntVector, ...] | None, int]:
    """The first basis in search order drawn from ``levels``, or None, and
    the nodes tried.  Each level holds the kernel of the vectors chosen
    before it and the gcd of their maximal minors, ``divisor``;
    ``_kernel_step`` prunes every candidate that adds no rank or whose
    tuple's minor gcd does not divide ``target_det``."""
    n = len(levels)
    chosen: list[IntVector] = []
    nodes = 0

    def search(
        level: int, start: int, kernel: Sequence[Sequence[int]], divisor: int
    ) -> tuple[IntVector, ...] | None:
        nonlocal nodes
        cands = levels[level]
        for idx in range(start, len(cands)):
            vec = cands[idx]
            nodes += 1
            if nodes > max_candidates:
                raise _node_limit(max_candidates, sm, len(chosen))
            step = _kernel_step(kernel, vec)
            if step is None:
                continue
            g, rest = step
            # At full rank divisor * g is a lattice |det|, a multiple of target_det.
            if target_det % (divisor * g):
                continue
            chosen.append(vec)
            if level == n - 1:
                return tuple(chosen)
            nxt = idx + 1 if sm.minima[level + 1].value == sm.minima[level].value else 0
            got = search(level + 1, nxt, rest, divisor * g)
            if got is not None:
                return got
            chosen.pop()
        return None

    return search(0, 0, [[int(i == j) for i in range(n)] for j in range(n)], 1), nodes


def _witness_nodes(
    levels: Sequence[Sequence[IntVector]], sm: SuccessiveMinima, max_candidates: int
) -> int:
    """The nodes :func:`_backtrack` tries before it returns the greedy
    witnesses, for witnesses that are a basis.  Every prefix of a basis has
    a minor gcd dividing |det|, and every candidate before w_i+1 in its
    level lies in span(w_1..w_i), as the greedy scan passed it over.  So
    level i tries the candidates from its start up to w_i and takes w_i,
    and the first basis is the witnesses."""
    nodes = start = 0
    for i, (cands, w) in enumerate(zip(levels, sm.witnesses)):
        if i and sm.minima[i].value != sm.minima[i - 1].value:
            start = 0
        idx = cands.index(w, start)
        nodes += idx - start + 1
        if nodes > max_candidates:
            raise _node_limit(max_candidates, sm, i)
        start = idx + 1
    return nodes


def check_standard(
    basis: LatticeBasis,
    kind: NormKind,
    *,
    max_candidates: int = DEFAULT_MAX_CANDIDATES,
    max_dim: int = DEFAULT_MAX_DIM,
) -> StandardnessCertificate:
    """Decide standardness and produce a re-checkable certificate.

    Standard: the first minima-achieving basis in deterministic search order.
    When |det| of the greedy witnesses is |det| of the lattice that basis
    is the witnesses, read off them without a backtrack (see the module
    docstring).  NonStandard, by one of two routes:

    * the vectors of norm equal to some lambda_i generate a proper
      sublattice, decided before any search by folding them one at a time
      into an echelon form (``_generates``).  This root test runs only when
      the witnesses are not a basis: a witness basis is drawn from those
      vectors, so they generate the lattice;
    * the search space (all sign-canonical tuples with ||b_i|| = lambda_i,
      nondecreasing candidate index inside equal-minima runs) was
      exhausted; re-running the deterministic search replays it.

    ``max_candidates`` bounds the enumeration's candidate evaluations and,
    separately, the backtrack's nodes, counted alike on a witness basis;
    past either, ``ResourceLimitError``.
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
    if witness_det == target_det:
        found = sm.witnesses
        nodes = _witness_nodes(levels, sm, max_candidates)
    else:
        # Root test: every level draws from this union, so if it generates
        # a proper sublattice no basis can be drawn from it.
        union = (v for value in dict.fromkeys(nv.value for nv in sm.minima) for v in pool[value])
        if not _generates(union, n, target_det):
            return StandardnessCertificate(
                _NON_STANDARD, None, sm, SearchStats(level_candidates, 1)
            )
        found, nodes = _backtrack(levels, sm, target_det, max_candidates)
    stats = SearchStats(level_candidates, nodes)
    if found is None:
        return StandardnessCertificate(_NON_STANDARD, None, sm, stats)
    # The self-check folds the answer itself (``_is_basis``), apart from
    # the greedy scan's echelon; the answer's rows are checked already.
    if not _is_basis(found, basis):
        raise InternalConsistencyError("search returned a non-basis; this is a bug")
    for vec, nv in zip(found, sm.minima):
        if measure(vec, kind).value != nv.value:
            raise InternalConsistencyError("search returned a basis missing the minima")
    return StandardnessCertificate(_STANDARD, found, sm, stats)


def _section_rows(
    rows: Sequence[IntVector], spanning: Sequence[IntVector]
) -> tuple[IntVector, ...]:
    """Basis of span(spanning) intersected with the lattice of ``rows``, for
    k independent lattice members ``spanning`` (1 <= k < len(rows)).

    Each spanning vector is divided down one echelon form of the rows, then
    two folds of ``_kernel_step`` from the unit columns: the spanning vectors
    fold to their integer normals g, and the images B g (entries <b_i, g>)
    to every integer x with x B orthogonal to the normals, that is in the
    span.  A kernel is saturated, so the result is the whole section, not a
    finite-index sublattice of it.
    """
    n = len(rows)
    echelon = _echelon_of(rows, n)
    for s in spanning:
        if not _in_echelon(echelon, s):
            raise StructuralError(f"spanning vector {s} is not in the lattice")
    unit = [[int(i == j) for i in range(n)] for j in range(n)]
    normals = unit
    for s in spanning:
        step = _kernel_step(normals, s)
        if step is None:
            raise StructuralError("spanning set is linearly dependent")
        normals = step[1]
    section = unit
    for g in normals:
        # B is nonsingular and the normals independent, so each image adds rank.
        section = _kernel_step(section, [_dot(b, g) for b in rows])[1]
    return hnf_nonzero_rows([[_dot(x, col) for col in zip(*rows)] for x in section])


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
    minima witnesses form a basis they are that basis, read off without a
    backtrack; otherwise the backtrack finds it.  Rows come back sorted by
    norm; in dimension 1 the input row is returned as it is.
    """
    _check_basis(basis)
    if basis.dim > 4:
        raise StructuralError("constructive standardization is limited to dimension <= 4")
    cert = check_standard(basis, _L2, max_candidates=max_candidates)
    if not cert.standard:
        raise InternalConsistencyError(
            f"dimension {basis.dim} lattice is NonStandard under L2, contradicting the theorem"
        )
    return basis.rows if basis.dim == 1 else cert.basis
