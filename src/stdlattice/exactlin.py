"""Exact integer/rational linear algebra shared by every other module.

All arithmetic is arbitrary precision and nothing here ever touches a
float, so every equality test downstream is decidable.  Matrices are Python
ints.  Gram-Schmidt data is integral too: the Gram determinants d_i and
lam_kj = mu_kj * d_j+1 (``_integral_gso``), which LLL keeps through its
reduction and hands to enumeration and nearest plane.  Nearest-plane
rounding (``_nearest_rows``) also decides membership: it leaves a lattice
point where it is and moves every other point, so no linear system is
solved.  Rational results (the public ``gso``, squared distances) are
``fractions.Fraction``.

Conventions:
  * basis vectors are ROWS of the matrix,
  * the Hermite normal form is row-style with positive pivots, pivot columns
    strictly increasing, entries above each pivot reduced into ``[0, pivot)``
    and zero rows collected at the bottom.  This form is unique, so equality
    of forms decides equality of row spans over the integers.
"""

from __future__ import annotations

import operator
from fractions import Fraction
from math import lcm
from typing import NamedTuple, Sequence

from .errors import DimensionMismatchError, StructuralError

IntVector = tuple[int, ...]
Rational = int | Fraction
RationalVector = tuple[Fraction, ...]


def _as_int_row(row: Sequence) -> tuple[int, ...]:
    try:
        return tuple(operator.index(x) for x in row)
    except TypeError as exc:
        raise StructuralError(f"matrix entries must be integers: {row!r}") from exc


class LatticeBasis:
    """Square integer matrix whose rows generate a full-rank lattice.

    The determinant is computed once at construction (fraction-free Bareiss
    elimination); a zero determinant is rejected as a structural error.
    Instances are immutable and safe to share between threads.
    """

    __slots__ = ("rows", "dim", "det")

    def __init__(self, rows: Sequence[Sequence[int]]):
        mat = tuple(_as_int_row(r) for r in rows)
        if not mat:
            raise StructuralError("a basis needs at least one row")
        n = len(mat)
        if any(len(r) != n for r in mat):
            raise StructuralError("basis matrix must be square")
        det = _bareiss_det(mat)
        if det == 0:
            raise StructuralError("rows are linearly dependent (determinant is zero)")
        self.rows = mat
        self.dim = n
        self.det = det

    def __setattr__(self, name, value):
        if name in self.__slots__ and hasattr(self, "det"):
            raise AttributeError("LatticeBasis is immutable")
        object.__setattr__(self, name, value)

    def __eq__(self, other):
        return isinstance(other, LatticeBasis) and self.rows == other.rows

    def __hash__(self):
        return hash(self.rows)

    def __repr__(self):
        return f"LatticeBasis({[list(r) for r in self.rows]})"


class HermiteForm(NamedTuple):
    h: tuple[IntVector, ...]
    u: tuple[IntVector, ...]


class GsoData(NamedTuple):
    """Exact Gram-Schmidt data for a row matrix.

    ``mu`` is square lower triangular with unit diagonal, ``bstar_sq`` holds
    the squared lengths of the orthogonalized rows, and ``bstar`` caches the
    orthogonalized rows themselves (rational coordinates).
    """

    mu: tuple[RationalVector, ...]
    bstar_sq: tuple[Fraction, ...]
    bstar: tuple[RationalVector, ...]


def _bareiss_det(mat: Sequence[Sequence[int]]) -> int:
    """Exact determinant by fraction-free (Bareiss) elimination."""
    n = len(mat)
    a = [list(row) for row in mat]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[-1][-1]


def _matrix_rows(mat) -> list[list[int]]:
    if isinstance(mat, LatticeBasis):
        return [list(r) for r in mat.rows]
    rows = [list(_as_int_row(r)) for r in mat]
    if not rows:
        raise StructuralError("empty matrix")
    width = len(rows[0])
    if any(len(r) != width for r in rows):
        raise StructuralError("ragged matrix")
    return rows


def hermite_form(mat) -> HermiteForm:
    """Canonical row Hermite normal form ``H`` with unimodular ``U`` such that
    ``U * M = H``.  Accepts any integer matrix, square or not."""
    rows = _matrix_rows(mat)
    m = len(rows)
    n = len(rows[0])
    u = [[1 if i == j else 0 for j in range(m)] for i in range(m)]

    def combine(i: int, q: int, r: int) -> None:
        if q == 0:
            return
        ri, rr = rows[i], rows[r]
        rows[i] = [a - q * b for a, b in zip(ri, rr)]
        ui, ur = u[i], u[r]
        u[i] = [a - q * b for a, b in zip(ui, ur)]

    r = 0
    for c in range(n):
        if r == m:
            break
        while True:
            nz = [i for i in range(r, m) if rows[i][c] != 0]
            if not nz:
                break
            i0 = min(nz, key=lambda i: (abs(rows[i][c]), i))
            if i0 != r:
                rows[r], rows[i0] = rows[i0], rows[r]
                u[r], u[i0] = u[i0], u[r]
            settled = True
            for i in range(r + 1, m):
                if rows[i][c] != 0:
                    combine(i, rows[i][c] // rows[r][c], r)
                    if rows[i][c] != 0:
                        settled = False
            if settled:
                break
        if rows[r][c] == 0:
            continue
        if rows[r][c] < 0:
            rows[r] = [-x for x in rows[r]]
            u[r] = [-x for x in u[r]]
        for i in range(r):
            combine(i, rows[i][c] // rows[r][c], r)
        r += 1
    return HermiteForm(
        tuple(tuple(row) for row in rows),
        tuple(tuple(row) for row in u),
    )


def hnf_nonzero_rows(mat) -> tuple[IntVector, ...]:
    """Nonzero rows of the canonical Hermite form; a canonical name for the
    integer row span of ``mat``."""
    return tuple(row for row in hermite_form(mat).h if any(row))


def same_lattice(b: LatticeBasis, c: LatticeBasis) -> bool:
    """True iff the two bases generate the same lattice (equal canonical
    Hermite forms)."""
    if b.dim != c.dim:
        raise DimensionMismatchError(f"dimensions differ: {b.dim} vs {c.dim}")
    return hermite_form(b.rows).h == hermite_form(c.rows).h


def member(basis: LatticeBasis, vector: Sequence[int]) -> IntVector | None:
    """Integer coefficients of ``vector`` in ``basis``, or None if the vector
    is not a lattice point."""
    v = _as_int_row(vector)
    if len(v) != basis.dim:
        raise DimensionMismatchError(f"vector length {len(v)} does not match dimension {basis.dim}")
    return _coefficients(basis.rows, v)


def is_basis_of(vectors: Sequence[Sequence[int]], basis: LatticeBasis) -> bool:
    """True iff ``vectors`` is a basis of the lattice generated by ``basis``:
    every vector is a member and the covolumes agree."""
    rows = [_as_int_row(v) for v in vectors]
    if len(rows) != basis.dim:
        raise DimensionMismatchError(
            f"expected {basis.dim} vectors, got {len(rows)}"
        )
    if any(member(basis, v) is None for v in rows):
        return False
    return abs(_bareiss_det(rows)) == abs(basis.det)


def _dot(a, b) -> Rational:
    return sum(x * y for x, y in zip(a, b))


def _gso_row(
    v: Sequence[int],
    rows: Sequence[Sequence[int]],
    d: Sequence[int],
    lam: Sequence[Sequence[int]],
) -> tuple[list[int], int]:
    """Integral Gram-Schmidt data of ``v`` set after independent ``rows``.

    ``d`` and ``lam`` are the integral data of ``rows``: d[i] is the Gram
    determinant of the first i rows (B_0 ... B_i-1 in squared star lengths)
    and lam[k][j] = mu_kj * d[j + 1] for j < k.  Returns the row
    [<v, d_j b*_j>]_j, which is v's lam row, and the Gram determinant of the
    rows with v appended, zero iff v lies in their span.  Every ``//`` in
    the recurrence (Erlingsson-Kaltofen-Musser) divides exactly.
    """
    lam_v: list[int] = []
    for j, row in enumerate(rows):
        u = _dot(v, row)
        for i in range(j):
            u = (d[i + 1] * u - lam_v[i] * lam[j][i]) // d[i]
        lam_v.append(u)
    gram = _dot(v, v)
    for i, x in enumerate(lam_v):
        gram = (d[i + 1] * gram - x * x) // d[i]
    return lam_v, gram


def _integral_gso(rows: Sequence[Sequence[int]]) -> tuple[list[int], list[list[int]]]:
    """Integral Gram-Schmidt data (d, lam) of independent integer rows, as
    described in :func:`_gso_row`: mu_kj = lam[k][j] / d[j + 1] and
    ||b*_k||^2 = d[k + 1] / d[k].  Raises StructuralError when the rows are
    dependent."""
    d = [1]
    lam: list[list[int]] = []
    for k, row in enumerate(rows):
        lam_k, gram = _gso_row(row, rows[:k], d, lam)
        if gram == 0:
            raise StructuralError("rows are linearly dependent")
        lam.append(lam_k)
        d.append(gram)
    return d, lam


def _nearest_rows(rows: Sequence[IntVector], target: Sequence[Rational]):
    """Round ``target`` onto the lattice of ``rows``; returns (coeffs, point,
    dist_sq).  Equivalent to recursing on orthogonal projections: rounding
    runs over the Gram-Schmidt directions from last row to first.

    All in integers: with q the common denominator of the target, W = q w
    and the integral data (d, lam) of the rows, the coefficient rounded at
    row j is c_j = <W, d_j b*_j> / (q d_j+1), and the numerators s_j form the
    lam row of W.  Subtracting a_j b_j from w lowers s_i by a_j q lam_ji for
    every i < j and leaves s_i for i > j alone.
    """
    m = len(rows)
    d, lam = _integral_gso(rows)
    q = lcm(*(t.denominator for t in target))
    big_w = [t.numerator * (q // t.denominator) for t in target]
    s, _ = _gso_row(big_w, rows, d, lam)
    coeffs = [0] * m
    for j in reversed(range(m)):
        den = q * d[j + 1]
        a, r = divmod(s[j], den)
        if 2 * r > den or (2 * r == den and a % 2):  # ties go to the even integer
            a += 1
        coeffs[j] = a
        if a != 0:
            for i in range(j):
                s[i] -= a * q * lam[j][i]
    point = tuple(
        sum(coeffs[i] * rows[i][j] for i in range(m)) for j in range(len(target))
    )
    residual = [x - q * p for x, p in zip(big_w, point)]
    return coeffs, point, Fraction(_dot(residual, residual), q * q)


def _coefficients(rows: Sequence[IntVector], target: Sequence[Rational]) -> IntVector | None:
    """Integer coefficients of ``target`` in independent ``rows``, or None
    when it is not in their lattice.  Nearest-plane rounding leaves a lattice
    point where it is and moves any other point, in the span or not."""
    coeffs, _, dist_sq = _nearest_rows(rows, target)
    return tuple(coeffs) if dist_sq == 0 else None


def _gso_rows(rows: Sequence[Sequence[int]]):
    """Exact Gram-Schmidt of independent integer rows.

    Returns (mu, bstar, bstar_sq) as nested lists of Fractions, read off the
    integral data: d_k b*_k is an integer vector, reached from b_k by the
    vector form of the recurrence in :func:`_gso_row`.  Raises
    StructuralError when the rows are dependent.
    """
    d, lam = _integral_gso(rows)
    m = len(rows)
    mu: list[list[Fraction]] = []
    bstar: list[list[Fraction]] = []
    scaled: list[list[int]] = []
    for k in range(m):
        u = list(rows[k])
        for j in range(k):
            u = [(d[j + 1] * a - lam[k][j] * b) // d[j] for a, b in zip(u, scaled[j])]
        scaled.append(u)
        bstar.append([Fraction(a, d[k]) for a in u])
        mu.append(
            [Fraction(lam[k][j], d[j + 1]) for j in range(k)]
            + [Fraction(1)]
            + [Fraction(0)] * (m - k - 1)
        )
    bstar_sq = [Fraction(d[k + 1], d[k]) for k in range(m)]
    return mu, bstar, bstar_sq


def _lll_rows(
    rows: Sequence[Sequence[int]],
) -> tuple[tuple[IntVector, ...], list[int], list[list[int]]]:
    """LLL-reduced basis (delta = 3/4) of the lattice of independent rows,
    with its integral Gram-Schmidt data: returns (rows, d, lam) as in
    :func:`_integral_gso`.

    All-integer LLL (Cohen, Alg. 2.6.7): d and lam stay integers under every
    size reduction and swap, so no Fraction is built.  The result has the
    same row span over the integers, |mu_kj| <= 1/2 and the Lovasz condition
    B_k >= (3/4 - mu_k,k-1^2) B_k-1.
    """
    b = [list(_as_int_row(r)) for r in rows]
    m = len(b)
    d = [1]
    lam: list[list[int]] = []

    def add_row(k: int) -> None:
        # Rows are met in order; row k is still an input row when it is.
        lam_k, gram = _gso_row(b[k], b[:k], d, lam)
        if gram == 0:
            raise StructuralError("rows are linearly dependent")
        lam.append(lam_k)
        d.append(gram)

    def reduce(k: int, j: int) -> None:
        # Size-reduce row k against row j: subtract round(mu_kj) times it.
        dj = d[j + 1]
        if 2 * abs(lam[k][j]) <= dj:
            return
        q = (2 * lam[k][j] + dj) // (2 * dj)
        b[k] = [x - q * y for x, y in zip(b[k], b[j])]
        lam[k][j] -= q * dj
        for i in range(j):
            lam[k][i] -= q * lam[j][i]

    add_row(0)
    k = 1
    while k < m:
        if k == len(lam):
            add_row(k)
        reduce(k, k - 1)
        lk = lam[k][k - 1]
        if 4 * d[k + 1] * d[k - 1] < 3 * d[k] * d[k] - 4 * lk * lk:
            # Lovasz condition fails: swap rows k-1 and k and update the
            # integral Gram-Schmidt data of the rows they touch.
            b[k], b[k - 1] = b[k - 1], b[k]
            for j in range(k - 1):
                lam[k][j], lam[k - 1][j] = lam[k - 1][j], lam[k][j]
            big = (d[k - 1] * d[k + 1] + lk * lk) // d[k]
            for i in range(k + 1, len(lam)):
                t = lam[i][k]
                lam[i][k] = (d[k + 1] * lam[i][k - 1] - lk * t) // d[k]
                lam[i][k - 1] = (big * t + lk * lam[i][k]) // d[k + 1]
            d[k] = big
            k = max(1, k - 1)
        else:
            for j in range(k - 2, -1, -1):
                reduce(k, j)
            k += 1
    return tuple(tuple(r) for r in b), d, lam


def gso(basis: LatticeBasis) -> GsoData:
    """Exact Gram-Schmidt orthogonalization of the basis rows."""
    mu, bstar, bstar_sq = _gso_rows(basis.rows)
    return GsoData(
        mu=tuple(tuple(r) for r in mu),
        bstar_sq=tuple(bstar_sq),
        bstar=tuple(tuple(r) for r in bstar),
    )


class RankTracker:
    """Incremental rank and minor gcd of a growing set of integer vectors.

    Keeps a unimodular column transform U with A U = [H | 0] for the k rows
    A added so far, H lower triangular.  Unimodular column operations leave
    the gcd of the k x k minors unchanged (Cauchy-Binet), so ``divisor``, that
    gcd, is the product of the absolute diagonal entries of H.  A new row v
    is independent iff z = v U[:, k:] is nonzero; folding z to (g, 0, ...) by
    Euclidean column steps appends |g| to the diagonal.  ``pop`` removes the
    vector added last, which is what backtracking searches need.
    """

    __slots__ = ("_cols", "_undo", "divisor")

    def __init__(self):
        self._cols: list[list[int]] = []
        self._undo: list[tuple[list[list[int]], int]] = []
        self.divisor = 1

    @property
    def rank(self) -> int:
        return len(self._undo)

    def add(self, vec: Sequence[int]) -> bool:
        """Add ``vec`` if it increases the rank; report whether it did."""
        cols = self._cols
        if not cols:
            n = len(vec)
            cols[:] = [[1 if i == j else 0 for i in range(n)] for j in range(n)]
        k = len(self._undo)
        z = {j: _dot(vec, cols[j]) for j in range(k, len(cols))}
        live = [j for j, x in z.items() if x]
        if not live:
            return False
        self._undo.append((cols[k:], self.divisor))
        while len(live) > 1:
            p = min(live, key=lambda j: abs(z[j]))
            zp, cp = z[p], cols[p]
            for j in live:
                if j != p:
                    q = z[j] // zp
                    cols[j] = [a - q * b for a, b in zip(cols[j], cp)]
                    z[j] -= q * zp
            live = [j for j in live if z[j]]
        p = live[0]
        cols[k], cols[p] = cols[p], cols[k]
        self.divisor *= abs(z[p])
        return True

    def pop(self) -> None:
        saved, self.divisor = self._undo.pop()
        self._cols[len(self._undo):] = saved


def rank_of_rows(rows: Sequence[Sequence[int]]) -> int:
    """Rank over the rationals of a list of integer vectors."""
    tracker = RankTracker()
    for row in rows:
        tracker.add(row)
    return tracker.rank
