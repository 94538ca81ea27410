"""Shared helpers for the test suite: seeded random instances, every
Hermite form of a given index, and tiny independent oracles (an exhaustive
standardness decision over the oracle's Hermite coordinate walk, cofactor
determinants, a raw coefficient-box product scan that checks that walk, a
Fraction Gram-Schmidt and the nearest-plane rounding built on it, a
Fraction Gauss-Jordan solve, one forced minima pass and the start bounds
of a one-pass minima search, the greedy witness scan by rank tracker and
the backtrack on it, the two-Hermite-form section, and the basis test by
rounding walk and determinant)."""

from __future__ import annotations

import itertools
import math
import random
from fractions import Fraction
from typing import Sequence

from stdlattice import (
    LatticeBasis,
    NormKind,
    NormValue,
    SuccessiveMinima,
    Verdict,
    brute_minima,
    enumeration_radius_in_l2,
    measure,
)
from stdlattice.enumeration import (
    DEFAULT_MAX_CANDIDATES,
    _enumerate_rows,
    _greedy_minima,
    _ReducedSearch,
)
from stdlattice.errors import DimensionMismatchError, StructuralError
from stdlattice.exactlin import (
    IntVector,
    _as_int_rows,
    _bareiss_det,
    _check_basis,
    _check_lengths,
    _coefficients,
    _dot,
    _echelon_insert,
    _echelon_of,
    hermite_form,
    hnf_nonzero_rows,
)
from stdlattice.oracle import _scan_box
from stdlattice.standardness import _node_limit


def random_basis(rng: random.Random, n: int, lo: int, hi: int) -> LatticeBasis:
    """Uniform integer entries in [lo, hi], resampled until nonsingular."""
    while True:
        rows = [[rng.randint(lo, hi) for _ in range(n)] for _ in range(n)]
        try:
            return LatticeBasis(rows)
        except StructuralError:
            continue


def random_unimodular(rng: random.Random, n: int, steps: int = 12):
    """Product of elementary row operations applied to the identity."""
    m = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for _ in range(steps):
        op = rng.randrange(3)
        i = rng.randrange(n)
        j = rng.randrange(n)
        if op == 0 and i != j:
            c = rng.choice([-2, -1, 1, 2])
            m[i] = [a + c * b for a, b in zip(m[i], m[j])]
        elif op == 1:
            m[i], m[j] = m[j], m[i]
        else:
            m[i] = [-a for a in m[i]]
    return tuple(tuple(r) for r in m)


def mat_mul(a, b):
    rows = len(a)
    inner = len(b)
    cols = len(b[0])
    return tuple(
        tuple(sum(a[i][k] * b[k][j] for k in range(inner)) for j in range(cols))
        for i in range(rows)
    )


def apply_unimodular(u, basis: LatticeBasis) -> LatticeBasis:
    return LatticeBasis(mat_mul(u, basis.rows))


# Quaternions q with |q|^2 even, one per shape of D4-type lattice below.
D4_QUATERNIONS = [(2, 0, 0, 0), (1, 1, 0, 0), (1, 1, 1, 1), (2, 1, 1, 0), (3, 1, 2, 2)]


# The levels of these two generate the whole lattice, so check_standard
# cannot decide them at the root and must exhaust the backtrack; pinned
# with the number of nodes it tries.
NON_STANDARD_L1_4D_FULL_POOL = [
    (((0, 1, -2, 2), (-1, -3, -1, 1), (2, 3, -3, 2), (1, 3, -3, -1)), (4, 4, 4, 5), 13),
    (((-2, -1, -3, -3), (-1, -2, 2, 1), (3, 2, -2, -3), (-2, 3, -3, -3)), (4, 4, 4, 7), 7),
]


def deep_backtrack_l1_rows(k: int = 5) -> list[list[int]]:
    """Rows of A + 2*D_k in dimension 4 + k, A the first lattice above and
    2*D_k the lattice of 4e_1 and 2(e_i - e_(i-1)).  Its levels generate
    it, so under L1 check_standard answers NonStandard only by exhausting
    a backtrack: 1,331 nodes for k = 3, 22,188 for k = 4 and 498,332 for
    k = 5, while at k = 5 no enumeration pass needs more than 3,318
    candidate evaluations."""
    a = NON_STANDARD_L1_4D_FULL_POOL[0][0]
    dk = [[4] + [0] * (k - 1)]
    dk += [[2 * (j == i) - 2 * (j == i - 1) for j in range(k)] for i in range(1, k)]
    return [list(r) + [0] * k for r in a] + [[0] * 4 + r for r in dk]


def d4_type_bases(q, count: int = 8) -> list[LatticeBasis]:
    """Disguised bases of the D4-type lattice K + Z (sum f) / 2, where the
    rows of the left-multiplication matrix of the quaternion q are an
    orthogonal frame f of equal norms |q|^2 (even, so half their sum is
    integral) and K is the lattice of f.  Each basis applies a random signed
    permutation of coordinates and a random unimodular change of basis."""
    a, b, c, d = q
    frame = [[a, -b, -c, -d], [b, a, -d, c], [c, d, a, -b], [d, -c, b, a]]
    half = [sum(col) // 2 for col in zip(*frame)]
    rng = random.Random(sum(q))
    out = []
    for _ in range(count):
        perm = rng.sample(range(4), 4)
        signs = [rng.choice((1, -1)) for _ in range(4)]
        rows = [[s * r[p] for p, s in zip(perm, signs)] for r in frame[:3] + [half]]
        out.append(apply_unimodular(random_unimodular(rng, 4), LatticeBasis(rows)))
    return out


def _diagonals(n: int, index: int):
    """Every n-tuple of positive integers whose product is ``index``."""
    if n == 1:
        yield (index,)
        return
    for p in range(1, index + 1):
        if index % p == 0:
            for rest in _diagonals(n - 1, index // p):
                yield (p, *rest)


def hermite_forms(n: int, index: int):
    """Every row-style Hermite form of an n x n matrix with diagonal product
    ``index``, in exactlin's convention: upper triangular, positive
    diagonal, each entry above a pivot in [0, pivot).  Each sublattice of
    Z^n of that index is the row span of exactly one of them."""
    cells = [(i, j) for j in range(n) for i in range(j)]
    for diag in _diagonals(n, index):
        for above in itertools.product(*(range(diag[j]) for _, j in cells)):
            rows = [[0] * i + [diag[i]] + [0] * (n - i - 1) for i in range(n)]
            for (i, j), x in zip(cells, above):
                rows[i][j] = x
            yield tuple(map(tuple, rows))


def brute_standard(basis: LatticeBasis, kind: NormKind) -> Verdict:
    """Exhaustive standardness decision: every index-monotone tuple of
    vectors of norm lambda_i, from the oracle's minima and walk, tried
    for |det| by cofactor expansion, with no pruning."""
    sm = brute_minima(basis, kind)
    n = basis.dim
    entries = _scan_box(basis, kind, sm.minima[-1], max_points=10**8)
    levels = []
    for nv in sm.minima:
        levels.append([vec for vec, got in entries if got.value == nv.value])
    target = abs(basis.det)

    def tuples(level, start, chosen):
        if level == n:
            yield tuple(chosen)
            return
        same_as_prev = level > 0 and sm.minima[level].value == sm.minima[level - 1].value
        begin = start if same_as_prev else 0
        for idx in range(begin, len(levels[level])):
            chosen.append(levels[level][idx])
            yield from tuples(level + 1, idx + 1, chosen)
            chosen.pop()

    for cand in tuples(0, 0, []):
        if abs(cofactor_det(cand)) == target:
            return Verdict.STANDARD
    return Verdict.NON_STANDARD


def cofactor_det(mat) -> int:
    """Determinant by Laplace expansion along the first row (independent of
    the library's fraction-free elimination)."""
    n = len(mat)
    if n == 1:
        return mat[0][0]
    total = 0
    for j in range(n):
        if mat[0][j] == 0:
            continue
        minor = [[row[k] for k in range(n) if k != j] for row in mat[1:]]
        total += (-1) ** j * mat[0][j] * cofactor_det(minor)
    return total


def box_short_vectors(basis: LatticeBasis, kind: NormKind, bound):
    """Sign-canonical short vectors by raw coefficient-box product scan.

    Independent of both the pruned enumerator and the oracle's Hermite
    coordinate walk; exists purely to cross-check them.  Coefficient i ranges
    over |x_i| <= ceil(R * ||column_i(B^-1)||_2) (at least 1), R^2 being
    the L2 radius that covers the bound; B^-1 comes from the Fraction
    reference solve, and points are built one row at a time.
    """
    n = basis.dim
    r2 = enumeration_radius_in_l2(bound, n).value
    inverse = [reference_solve(basis.rows, [int(i == j) for i in range(n)]) for j in range(n)]
    ranges = []
    for i in range(n):
        need = r2 * sum(row[i] * row[i] for row in inverse)  # m_i^2 >= need
        m = math.isqrt(math.ceil(need))
        if m * m < need:
            m += 1
        ranges.append(range(-max(m, 1), max(m, 1) + 1))
    seen = set()
    out = []

    def scan(i, partial):
        if i == n:
            vec = tuple(partial)
            if not any(vec):
                return
            nv = measure(vec, kind)
            if nv.value > bound.value:
                return
            canon = vec
            for x in canon:
                if x < 0:
                    canon = tuple(-y for y in canon)
                    break
                if x > 0:
                    break
            if canon not in seen:
                seen.add(canon)
                out.append((canon, nv))
            return
        row = basis.rows[i]
        for c in ranges[i]:
            scan(i + 1, [p + c * r for p, r in zip(partial, row)])

    scan(0, [0] * n)
    out.sort(key=lambda e: (e[1].value, e[0]))
    return out


def random_rational_vector(rng: random.Random, n: int, span: int = 6, max_den: int = 4):
    return [
        Fraction(rng.randint(-span * max_den, span * max_den), rng.randint(1, max_den))
        for _ in range(n)
    ]


def unboxed_search(rows) -> _ReducedSearch:
    """The reduced-search record of ``rows`` built as for an L2 search: it
    holds no star-row dual norms, so no pass over it is clamped by the
    Hoelder box, whatever its norm."""
    return _ReducedSearch(rows, NormKind.L2)


def one_pass(search, kind: NormKind, value, max_candidates: int = DEFAULT_MAX_CANDIDATES):
    """One enumeration pass at bound ``value`` over ``search``, a record from
    :func:`unboxed_search`, so without the Hoelder box, and its greedy scan:
    (minima, pass entries, |det| of the witnesses) as a minima search
    returns them, with fewer than n minima when ``value`` lies below
    lambda_n."""
    assert search.duals is None
    entries = _enumerate_rows(search, NormValue(kind, value), max_candidates)
    minima, witnesses, witness_det = _greedy_minima(entries, len(search.rows))
    return SuccessiveMinima(kind, tuple(minima), tuple(witnesses)), entries, witness_det


def rank(rows, n: int) -> int:
    """Rank of integer rows of length ``n``: the pivots of one echelon fold."""
    return len(_echelon_of(rows, n))


class RankTracker:
    """Incremental rank and minor gcd of a growing set of integer vectors.

    Keeps a unimodular column transform U with A U = [H | 0] for the k rows
    A added so far, H lower triangular with a positive diagonal.  Unimodular
    column operations leave the gcd of the k x k minors unchanged
    (Cauchy-Binet), so ``divisor``, that gcd, is the product of the diagonal
    of H.  A new row v is independent iff z = v U[:, k:] is nonzero.  Each
    column c with <v, c> != 0 is inserted as the row [<v, c>, *c] into one
    echelon of width 1 (``_echelon_insert``): its row, headed by g = gcd(z),
    becomes column k and appends g to the diagonal, and the remainders are
    columns with <v, c> = 0.  ``pop`` removes the vector added last, which is
    what backtracking searches need.

    The columns of U after the first ``rank`` are a Z-basis of the integer
    kernel {x : A x = 0}: x = U y solves A x = 0 iff H y_1..k = 0, that is
    iff y vanishes on the first k places, and U is unimodular.  ``kernel``
    gives them, once at least one vector has been added.

    A test reference: ``exactlin._kernel_step`` is its ``add`` on the
    kernel columns alone, and the backtrack and greedy scan built on it are
    compared with ``reference_backtrack`` and ``reference_greedy_minima``.
    """

    __slots__ = ("_cols", "_undo", "divisor")

    def __init__(self):
        self._cols: list[list[int]] = []
        self._undo: list[tuple[list[list[int]], int]] = []
        self.divisor = 1

    @property
    def rank(self) -> int:
        return len(self._undo)

    @property
    def kernel(self) -> tuple[IntVector, ...]:
        """A Z-basis of the integer vectors orthogonal to every vector added."""
        return tuple(map(tuple, self._cols[len(self._undo):]))

    def add(self, vec: Sequence[int]) -> bool:
        """Add ``vec`` if it increases the rank; report whether it did."""
        cols = self._cols
        if not cols:
            n = len(vec)
            cols[:] = [[1 if i == j else 0 for i in range(n)] for j in range(n)]
        k = len(self._undo)
        echelon: dict[int, Sequence[int]] = {}
        rest = []
        for col in cols[k:]:
            z = _dot(vec, col)
            if not z:
                rest.append(col)
            elif (left := _echelon_insert(echelon, [z, *col], 1)) is not None:
                rest.append(left[1:])
        if not echelon:
            return False
        self._undo.append((cols[k:], self.divisor))
        g, *col = echelon[0]
        cols[k:] = [col, *rest]
        self.divisor *= g
        return True

    def pop(self) -> None:
        saved, self.divisor = self._undo.pop()
        self._cols[len(self._undo):] = saved


def reference_backtrack(levels, sm: SuccessiveMinima, target_det: int, max_candidates: int):
    """The standardness backtrack on one ``RankTracker``, undone by ``pop``:
    the first basis in search order drawn from ``levels``, or None, and the
    nodes tried, with the library's node-ceiling error."""
    n = len(levels)
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
                raise _node_limit(max_candidates, sm, len(chosen))
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

    return search(0, 0), nodes


def reference_greedy_minima(entries, want: int):
    """The greedy witness scan by ``RankTracker``: each vector of the sorted
    ``entries`` that grows the rank is kept, up to ``want`` of them.  Returns
    (minima, witnesses, gcd of the maximal minors of the witnesses), the
    last being |det| of the witnesses once ``want`` are kept in dimension
    ``want``."""
    tracker = RankTracker()
    minima = []
    witnesses = []
    for vec, nv in entries:
        if tracker.add(vec):
            minima.append(nv)
            witnesses.append(vec)
            if len(witnesses) == want:
                break
    return minima, witnesses, tracker.divisor


def reference_echelon_insert(echelon: dict, vec, width: int):
    """``exactlin._echelon_insert`` with the extended-gcd step taken at every
    pivot, a divisible one included: g = gcd(p, x), s = p'^-1 mod |x'| (or
    1) and t = (1 - s p') / x' for p' = p / g and x' = x / g.  Same contract:
    None when ``vec`` opens a pivot, else its remainder."""
    for c in range(width):
        x = vec[c]
        if not x:
            continue
        row = echelon.get(c)
        if row is None:
            echelon[c] = vec if x > 0 else [-a for a in vec]
            return None
        g = math.gcd(row[c], x)
        p, x = row[c] // g, x // g
        s = pow(p, -1, abs(x)) or 1
        t = (1 - s * p) // x
        if t:
            echelon[c] = [s * a + t * b for a, b in zip(row, vec)]
        vec = [p * b - x * a for a, b in zip(row, vec)]
    return vec


def reference_is_basis_of(vectors, basis: LatticeBasis) -> bool:
    """``is_basis_of`` by one rounding walk per vector over the input basis
    and a Bareiss determinant: every vector is a member and the covolumes
    agree.  Raises the same errors as the library."""
    _check_basis(basis)
    rows = _as_int_rows(vectors)
    if len(rows) != basis.dim:
        raise DimensionMismatchError(f"expected {basis.dim} vectors, got {len(rows)}")
    _check_lengths(rows, basis.dim)
    if any(_coefficients(basis.rows, v) is None for v in rows):
        return False
    return abs(_bareiss_det(rows)) == abs(basis.det)


def single_pass_bounds(rows, kind: NormKind) -> dict:
    """The bounds a minima search reads its minima off in one pass, per
    pass kind: the largest L2 norm of the LLL-reduced rows for the L2 pass,
    and under L1/Linf the smaller of the largest ``kind`` norm of those rows
    and of the L2 minima witnesses (found by one L2 pass) for the last."""
    search = unboxed_search(rows)

    def largest(vectors, k):
        return max(measure(v, k).value for v in vectors)

    bounds = {NormKind.L2: largest(search.rows, NormKind.L2)}
    if kind is not NormKind.L2:
        l2 = one_pass(search, NormKind.L2, bounds[NormKind.L2])[0]
        bounds[kind] = min(largest(search.rows, kind), largest(l2.witnesses, kind))
    return bounds


def identity_basis(n: int) -> LatticeBasis:
    return LatticeBasis([[1 if i == j else 0 for j in range(n)] for i in range(n)])


def random_orthogonal_rows_basis(rng: random.Random, n: int, max_entry: int = 5) -> LatticeBasis:
    """Diagonal matrix times a permutation times signs: orthogonal rows."""
    diag = [rng.randint(1, max_entry) for _ in range(n)]
    perm = list(range(n))
    rng.shuffle(perm)
    rows = []
    for i in range(n):
        sign = rng.choice([-1, 1])
        rows.append([sign * diag[i] if j == perm[i] else 0 for j in range(n)])
    return LatticeBasis(rows)


def reference_gso_rows(rows):
    """Exact Gram-Schmidt by Fraction arithmetic, independent of the
    library's integral recurrence: (mu, bstar, bstar_sq) as nested lists.
    Raises StructuralError when the rows are dependent."""
    m = len(rows)
    mu, bstar, bstar_sq = [], [], []
    for i in range(m):
        v = [Fraction(x) for x in rows[i]]
        murow = [Fraction(0)] * m
        for j in range(i):
            murow[j] = sum(a * b for a, b in zip(rows[i], bstar[j])) / bstar_sq[j]
            v = [a - murow[j] * b for a, b in zip(v, bstar[j])]
        murow[i] = Fraction(1)
        sq = sum(a * a for a in v)
        if sq == 0:
            raise StructuralError("rows are linearly dependent")
        mu.append(murow)
        bstar.append(v)
        bstar_sq.append(sq)
    return mu, bstar, bstar_sq


def reference_integral_gso(rows):
    """(d, lam) read off the Fraction reference: d[i] is the product of the
    first i squared star lengths and lam[k][j] = mu_kj * d[j + 1]."""
    mu, _, bstar_sq = reference_gso_rows(rows)
    d = [Fraction(1)]
    for sq in bstar_sq:
        d.append(d[-1] * sq)
    lam = [[mu[k][j] * d[j + 1] for j in range(k)] for k in range(len(rows))]
    return d, lam


def reference_nearest_rows(rows, target):
    """Nearest-plane rounding on the Fraction reference Gram-Schmidt, ties to
    the even integer: (coeffs, point, dist_sq)."""
    m = len(rows)
    _, bstar, bstar_sq = reference_gso_rows(rows)
    w = [Fraction(t) for t in target]
    coeffs = [0] * m
    for j in reversed(range(m)):
        a = round(sum(x * y for x, y in zip(w, bstar[j])) / bstar_sq[j])
        coeffs[j] = a
        w = [wi - a * bi for wi, bi in zip(w, rows[j])]
    point = tuple(sum(coeffs[i] * rows[i][k] for i in range(m)) for k in range(len(target)))
    return coeffs, point, sum(x * x for x in w)


def reference_solve(rows, target):
    """Solve ``x . rows = target`` over the rationals by Fraction
    Gauss-Jordan elimination, independent of the library's nearest-plane
    membership test.

    ``rows`` must be linearly independent (m rows of length n, m <= n).
    Returns the unique coefficient list, or None when the target lies outside
    the rational row span.  Raises StructuralError on dependent rows.
    """
    m = len(rows)
    n = len(rows[0])
    if len(target) != n:
        raise DimensionMismatchError(f"vector length {len(target)} does not match width {n}")
    # One equation per ambient coordinate, one unknown per row.
    aug = [[Fraction(rows[i][j]) for i in range(m)] + [Fraction(target[j])] for j in range(n)]
    used = [False] * n
    pivot_row_of = []
    for col in range(m):
        pr = next((j for j in range(n) if not used[j] and aug[j][col] != 0), None)
        if pr is None:
            raise StructuralError("rows are linearly dependent")
        used[pr] = True
        pivot_row_of.append(pr)
        pv = aug[pr][col]
        aug[pr] = [x / pv for x in aug[pr]]
        prow = aug[pr]
        for j in range(n):
            if j != pr and aug[j][col] != 0:
                f = aug[j][col]
                aug[j] = [a - f * b for a, b in zip(aug[j], prow)]
    for j in range(n):
        if not used[j] and aug[j][m] != 0:
            return None
    return [aug[pivot_row_of[col]][m] for col in range(m)]


def reference_section(rows, spanning):
    """The section of ``section_lattice`` by two Hermite forms: the
    transposed coefficient rows of the n - 1 spanning vectors end their
    Hermite form in one zero row, whose row of U is the primitive normal g,
    and the Hermite form of g as a column has the kernel of g as the rest of
    its U.  Raises the same StructuralError messages as the library."""
    m = len(rows)
    coeff_rows = []
    for s in spanning:
        x = _coefficients(rows, s)
        if x is None:
            raise StructuralError(f"spanning vector {s} is not in the lattice")
        coeff_rows.append(x)
    hf = hermite_form(list(zip(*coeff_rows)))
    if sum(map(any, hf.h)) != m - 1:
        raise StructuralError("spanning set is linearly dependent")
    kernel = hermite_form([[gi] for gi in hf.u[-1]]).u[1:]
    n = len(rows[0])
    return hnf_nonzero_rows(
        [tuple(sum(k[i] * rows[i][j] for i in range(m)) for j in range(n)) for k in kernel]
    )


def random_section_case(rng: random.Random):
    """A basis and n - 1 spanning vectors for ``section_lattice``: integer
    combinations of its rows, one in six times with a dependent last vector
    (an integer combination of the vectors before it, one multiplier per
    vector) and one in six with an entry moved off the lattice."""
    n = rng.randint(2, 5)
    basis = random_basis(rng, n, -4, 4)
    combos = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(n - 1)]
    if n > 2 and rng.randrange(6) == 0:
        ks = [rng.randint(-2, 2) for _ in combos[:-1]]
        combos[-1] = [sum(k * row[j] for k, row in zip(ks, combos)) for j in range(n)]
    spanning = [list(row) for row in mat_mul(combos, basis.rows)]
    if rng.randrange(6) == 0:
        spanning[rng.randrange(n - 1)][rng.randrange(n)] += 1
    return basis, spanning
