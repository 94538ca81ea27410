"""Exact integer/rational linear algebra shared by every other module.

All arithmetic is arbitrary precision and nothing here ever touches a
float, so every equality test downstream is decidable.  Matrices are Python
ints.  Gram-Schmidt data is integral too: the Gram determinants d_i and
lam_kj = mu_kj * d_j+1 (``_integral_gso``), which LLL keeps through its
reduction and hands to enumeration and nearest plane, and the integer star
rows d_k b*_k (``_star_rows``), which the public ``gso`` reads and from
which enumeration's reduced-search record (``_ReducedSearch``) takes the
dual norms behind its Hoelder box and its floor on lambda_n.  Nearest plane
and membership are one walk over that data (``_round_off``): the scaled
target's lam row gives each coefficient, from the last row to the first,
as a rounded quotient that a lattice point leaves exact, so no linear
system is solved and one Gram-Schmidt of a basis serves every vector
tested against it.  The walk takes any integer pair (q, W) with target
W / q, so the half-odd test in ``cvp`` walks the doubled target as (q, 2W)
and builds no Fraction.  Rational results (the public ``gso``, squared
distances) are ``fractions.Fraction``.  Every integer reduction, the
Hermite form, the generation test in ``standardness`` and the rank and
minor gcd of ``RankTracker``, comes from one row insertion,
``_echelon_insert``, and so from one extended-gcd step.

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
from math import gcd, lcm
from typing import NamedTuple, Sequence

from .errors import DimensionMismatchError, InputError, ResourceLimitError, StructuralError

IntVector = tuple[int, ...]
Rational = int | Fraction
RationalVector = tuple[Fraction, ...]


def _as_int_row(row: Sequence) -> tuple[int, ...]:
    """The entries of ``row`` as ints; a ``bool`` is refused, not read as 0/1."""
    try:
        entries = tuple(row)
        if bool in map(type, entries):
            raise TypeError("bool entry")
        return tuple(map(operator.index, entries))
    except TypeError as exc:
        raise StructuralError(f"matrix entries must be integers: {row!r}") from exc


def _as_int_rows(rows) -> tuple[IntVector, ...]:
    """The rows of an integer matrix, each read by :func:`_as_int_row`; a
    value that is not a sequence of rows is refused too."""
    try:
        return tuple(map(_as_int_row, rows))
    except TypeError as exc:
        raise StructuralError(f"a matrix must be a sequence of rows: {rows!r}") from exc


def _as_rational_row(target, width: int) -> tuple[Rational, ...]:
    """The coordinates of a target of length ``width``, each an exact ``int``
    (not a ``bool``) or a ``Fraction``: a float is refused, so no binary
    rounding of a decimal can decide an answer."""
    try:
        entries = tuple(target)
        if not all(type(t) is int or isinstance(t, Fraction) for t in entries):
            raise TypeError("inexact coordinate")
    except TypeError as exc:
        raise InputError(f"target coordinates must be ints or Fractions: {target!r}") from exc
    if len(entries) != width:
        raise DimensionMismatchError(
            f"target length {len(entries)} does not match dimension {width}"
        )
    return entries


# Default ceilings: candidate evaluations per enumeration pass (and nodes of
# the standardness search), and the dimension of an input.  They live beside
# the checks that apply them, so the CLI's option defaults load no search code.
DEFAULT_MAX_CANDIDATES = 10_000_000
DEFAULT_MAX_DIM = 12


def _check_positive_int(name: str, value) -> None:
    """Refuse a ceiling or dimension that is not a positive ``int`` (a
    ``bool`` is not one) before any work is spent under it."""
    if isinstance(value, bool) or not isinstance(value, int) or value < 1:
        raise InputError(f"{name} must be a positive integer, got {value!r}")


def _check_dim(dim: int, max_dim: int) -> None:
    """Refuse a bad ``max_dim``, then a dimension over it."""
    _check_positive_int("max_dim", max_dim)
    if dim > max_dim:
        raise ResourceLimitError(f"dimension {dim} exceeds the configured cap {max_dim}")


def _check_basis(basis) -> None:
    """Refuse anything but a :class:`LatticeBasis`; nothing is converted."""
    if not isinstance(basis, LatticeBasis):
        raise InputError(f"expected a LatticeBasis, got {type(basis).__name__}")


class LatticeBasis:
    """Square integer matrix whose rows generate a full-rank lattice.

    The determinant is computed once at construction (fraction-free Bareiss
    elimination); a zero determinant is rejected as a structural error.
    Instances are immutable and safe to share between threads.
    """

    __slots__ = ("rows", "dim", "det")

    def __init__(self, rows: Sequence[Sequence[int]]):
        mat = _as_int_rows(rows)
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
    rows = list(map(list, _as_int_rows(mat)))
    if not rows:
        raise StructuralError("empty matrix")
    width = len(rows[0])
    if any(len(r) != width for r in rows):
        raise StructuralError("ragged matrix")
    return rows


def _echelon_insert(
    echelon: dict[int, Sequence[int]], vec: Sequence[int], width: int
) -> Sequence[int] | None:
    """Fold the integer row ``vec`` into ``echelon`` (rows keyed by pivot
    column, pivots positive and within the first ``width`` entries), keeping
    the span.  Where vec meets a pivot p with entry x, one unimodular step
    [[s, t], [-x/g, p/g]] with g = gcd(p, x) makes g the pivot and clears x.
    Returns None when vec opens a new pivot (the rank grew), else what is
    left of it, zero in its first ``width`` entries."""
    for c in range(width):
        x = vec[c]
        if not x:
            continue
        row = echelon.get(c)
        if row is None:
            echelon[c] = vec if x > 0 else [-a for a in vec]
            return None
        g = gcd(row[c], x)
        p, x = row[c] // g, x // g
        s = pow(p, -1, abs(x)) or 1
        t = (1 - s * p) // x
        if t:
            echelon[c] = [s * a + t * b for a, b in zip(row, vec)]
        vec = [p * b - x * a for a, b in zip(row, vec)]
    return vec


def hermite_form(mat) -> HermiteForm:
    """Canonical row Hermite normal form ``H`` with unimodular ``U`` such that
    ``U * M = H``.  Accepts any integer matrix, square or not.  Each row is
    inserted with its identity row appended, so the tails record U, and the
    rows that reduce to zero, the kernel rows of U, come last.  H is unique;
    U is unique only when M is square and nonsingular."""
    rows = _matrix_rows(mat)
    m, n = len(rows), len(rows[0])
    echelon: dict[int, Sequence[int]] = {}
    kernel = []
    for i, row in enumerate(rows):
        rest = _echelon_insert(echelon, row + [int(i == j) for j in range(m)], n)
        if rest is not None:
            kernel.append(rest)
    cols = sorted(echelon)
    out = [echelon[c] for c in cols]
    for r, c in enumerate(cols):
        for i in range(r):
            q = out[i][c] // out[r][c]
            out[i] = [a - q * b for a, b in zip(out[i], out[r])]
    out += kernel
    return HermiteForm(tuple(tuple(r[:n]) for r in out), tuple(tuple(r[n:]) for r in out))


def hnf_nonzero_rows(mat) -> tuple[IntVector, ...]:
    """Nonzero rows of the canonical Hermite form; a canonical name for the
    integer row span of ``mat``."""
    return tuple(row for row in hermite_form(mat).h if any(row))


def same_lattice(b: LatticeBasis, c: LatticeBasis) -> bool:
    """True iff the two bases generate the same lattice (equal canonical
    Hermite forms)."""
    _check_basis(b)
    _check_basis(c)
    if b.dim != c.dim:
        raise DimensionMismatchError(f"dimensions differ: {b.dim} vs {c.dim}")
    return hermite_form(b.rows).h == hermite_form(c.rows).h


def _check_lengths(vectors: Sequence[IntVector], dim: int) -> None:
    for v in vectors:
        if len(v) != dim:
            raise DimensionMismatchError(f"vector length {len(v)} does not match dimension {dim}")


def member(basis: LatticeBasis, vector: Sequence[int]) -> IntVector | None:
    """Integer coefficients of ``vector`` in ``basis``, or None if the vector
    is not a lattice point."""
    _check_basis(basis)
    v = _as_int_row(vector)
    _check_lengths([v], basis.dim)
    return _coefficients(basis.rows, v)


def is_basis_of(vectors: Sequence[Sequence[int]], basis: LatticeBasis) -> bool:
    """True iff ``vectors`` is a basis of the lattice generated by ``basis``:
    every vector is a member and the covolumes agree.  Every length is
    checked before any membership test."""
    _check_basis(basis)
    rows = _as_int_rows(vectors)
    if len(rows) != basis.dim:
        raise DimensionMismatchError(
            f"expected {basis.dim} vectors, got {len(rows)}"
        )
    _check_lengths(rows, basis.dim)
    gso = _integral_gso(basis.rows)
    if any(_coefficients(basis.rows, v, gso) is None for v in rows):
        return False
    return abs(_bareiss_det(rows)) == abs(basis.det)


def _dot(a, b) -> Rational:
    return sum(map(operator.mul, a, b))


def _pairwise_orthogonal(rows: Sequence[Sequence[int]]) -> bool:
    """True iff the dot product of every two distinct rows vanishes."""
    return all(_dot(a, b) == 0 for i, a in enumerate(rows) for b in rows[i + 1 :])


def _gso_row(
    v: Sequence[int],
    rows: Sequence[Sequence[int]],
    d: Sequence[int],
    lam: Sequence[Sequence[int]],
) -> tuple[list[int], int]:
    """Integral Gram-Schmidt data of ``v`` set after independent rows.

    ``d`` and ``lam`` are the integral data of the first len(lam) ``rows``
    (the rows after them are not read): d[i] is the Gram determinant of the
    first i rows (B_0 ... B_i-1 in squared star lengths) and lam[k][j] =
    mu_kj * d[j + 1] for j < k.  Returns the row [<v, d_j b*_j>]_j, which is
    v's lam row, and the Gram determinant of those rows with v appended,
    zero iff v lies in their span.  Every ``//`` in the recurrence
    (Erlingsson-Kaltofen-Musser) divides exactly.
    """
    lam_v: list[int] = []
    for row, lam_j in zip(rows, lam):
        u = sum(map(operator.mul, v, row))
        for i, x in enumerate(lam_v):
            u = (d[i + 1] * u - x * lam_j[i]) // d[i]
        lam_v.append(u)
    gram = sum(map(operator.mul, v, v))
    for i, x in enumerate(lam_v):
        gram = (d[i + 1] * gram - x * x) // d[i]
    return lam_v, gram


def _extend_gso(
    rows: Sequence[Sequence[int]], d: list[int], lam: list[list[int]], stop: int
) -> None:
    """Extend the integral data (d, lam) of rows[:len(lam)] to rows[:stop].
    Raises StructuralError when a row lies in the span of the rows before it."""
    for k in range(len(lam), stop):
        lam_k, gram = _gso_row(rows[k], rows, d, lam)
        if gram == 0:
            raise StructuralError("rows are linearly dependent")
        lam.append(lam_k)
        d.append(gram)


def _integral_gso(rows: Sequence[Sequence[int]]) -> tuple[list[int], list[list[int]]]:
    """Integral Gram-Schmidt data (d, lam) of independent integer rows, as
    described in :func:`_gso_row`: mu_kj = lam[k][j] / d[j + 1] and
    ||b*_k||^2 = d[k + 1] / d[k].  Raises StructuralError when the rows are
    dependent."""
    d = [1]
    lam: list[list[int]] = []
    _extend_gso(rows, d, lam, len(rows))
    return d, lam


def _scaled(target: Sequence[Rational]) -> tuple[int, list[int]]:
    """(q, q * target) for q the common denominator of a rational vector."""
    q = lcm(*[t.denominator for t in target])
    if q == 1:
        return 1, list(map(int, target))
    return q, [t.numerator * (q // t.denominator) for t in target]


def _round_off(
    rows: Sequence[IntVector], q: int, big_w: Sequence[int], gso
) -> tuple[list[int], bool]:
    """Nearest-plane rounding of w = W / q onto the lattice of independent
    ``rows`` with integral data ``gso`` = (d, lam): (coeffs, exact), exact
    when W has Gram value zero (w in the span) and no quotient a remainder.
    Any q > 0 with W = q w integral gives the same answer.

    From the last row to the first, s_j = <W, d_j b*_j> less the terms of
    the rows after j is x_j q d_j+1 for w's rational coefficient x_j, so
    a_j is s_j / (q d_j+1) rounded, ties to even.  Subtracting a_j b_j
    lowers s_i by a_j q lam_ji for i < j.  A lattice point stays put.
    """
    d, lam = gso
    s, gram = _gso_row(big_w, rows, d, lam)
    exact = gram == 0
    coeffs = [0] * len(rows)
    for j in reversed(range(len(rows))):
        den = q * d[j + 1]
        a, r = divmod(s[j], den)
        if r:
            exact = False
            if 2 * r > den or (2 * r == den and a % 2):
                a += 1
        coeffs[j] = a
        if a:
            for i in range(j):
                s[i] -= a * q * lam[j][i]
    return coeffs, exact


def _nearest_rows(rows: Sequence[IntVector], target: Sequence[Rational]):
    """Round ``target`` onto the lattice of ``rows``; returns (coeffs, point,
    dist_sq).  Equivalent to recursing on orthogonal projections: rounding
    runs over the Gram-Schmidt directions from last row to first, in
    integers (:func:`_round_off`)."""
    q, big_w = _scaled(target)
    coeffs, _ = _round_off(rows, q, big_w, _integral_gso(rows))
    point = [0] * len(big_w)
    for a, row in zip(coeffs, rows):
        if a:
            point = [p + a * b for p, b in zip(point, row)]
    residual = [x - q * p for x, p in zip(big_w, point)]
    return coeffs, tuple(point), Fraction(_dot(residual, residual), q * q)


def _coefficients(
    rows: Sequence[IntVector], target: Sequence[Rational], gso=None
) -> IntVector | None:
    """Integer coefficients of ``target`` in independent ``rows``, or None
    when it is not in their lattice.  ``gso`` is the integral data (d, lam)
    of ``rows`` when the caller already has it.  The rounding walk of
    :func:`_round_off` answers it: it leaves a lattice point where it is and
    reports any other target as inexact, so no point is built."""
    q, big_w = _scaled(target)
    coeffs, exact = _round_off(rows, q, big_w, _integral_gso(rows) if gso is None else gso)
    return tuple(coeffs) if exact else None


def _star_rows(
    rows: Sequence[Sequence[int]], d: Sequence[int], lam: Sequence[Sequence[int]]
) -> list[list[int]]:
    """The integer vectors d_k b*_k of independent ``rows`` with integral
    data (d, lam), each reached from b_k by the vector form of the
    recurrence in :func:`_gso_row`; every ``//`` divides exactly."""
    scaled: list[list[int]] = []
    for k, row in enumerate(rows):
        u = list(row)
        for j in range(k):
            u = [(d[j + 1] * a - lam[k][j] * b) // d[j] for a, b in zip(u, scaled[j])]
        scaled.append(u)
    return scaled


def _gso_rows(rows: Sequence[Sequence[int]]):
    """Exact Gram-Schmidt of independent integer rows.

    Returns (mu, bstar, bstar_sq) as nested lists of Fractions, read off the
    integral data and the integer star rows of :func:`_star_rows`.  Raises
    StructuralError when the rows are dependent.
    """
    d, lam = _integral_gso(rows)
    m = len(rows)
    bstar = [[Fraction(a, d[k]) for a in u] for k, u in enumerate(_star_rows(rows, d, lam))]
    mu = [
        [Fraction(lam[k][j], d[j + 1]) for j in range(k)]
        + [Fraction(1)]
        + [Fraction(0)] * (m - k - 1)
        for k in range(m)
    ]
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
    b = list(map(list, _as_int_rows(rows)))
    m = len(b)
    d = [1]
    lam: list[list[int]] = []

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

    _extend_gso(b, d, lam, 1)
    k = 1
    while k < m:
        if k == len(lam):
            # Rows are met in order; row k is still an input row here.
            _extend_gso(b, d, lam, k + 1)
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
    _check_basis(basis)
    mu, bstar, bstar_sq = _gso_rows(basis.rows)
    return GsoData(
        mu=tuple(tuple(r) for r in mu),
        bstar_sq=tuple(bstar_sq),
        bstar=tuple(tuple(r) for r in bstar),
    )


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


def rank_of_rows(rows: Sequence[Sequence[int]]) -> int:
    """Rank over the rationals of a list of integer vectors."""
    tracker = RankTracker()
    for row in rows:
        tracker.add(row)
    return tracker.rank
