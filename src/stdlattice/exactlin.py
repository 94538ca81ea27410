"""Exact integer/rational linear algebra shared by every other module.

All arithmetic is arbitrary precision and nothing here ever touches a
float, so every equality test downstream is decidable.  Matrices are Python
ints.  Gram-Schmidt data is integral too: the Gram determinants d_i and
lam_kj = mu_kj * d_j+1 (``_integral_gso``), which LLL keeps through its
reduction and hands to enumeration and nearest plane, and the integer star
rows d_k b*_k (``_star_rows``), which the public ``gso`` reads and from
which enumeration's reduced-search record (``_ReducedSearch``) takes the
dual norms behind its Hoelder box and its floor on lambda_n.  Nearest plane
and integer coefficients (``member``) are one walk over that data
(``_round_off``): the scaled target's lam row gives each coefficient, from
the last row to the first, as a rounded quotient that a lattice point
leaves exact, so no linear system is solved; the walk takes the
Gram-Schmidt data as an argument, so one build can serve many vectors.
Rational results (the public ``gso``, squared distances) are
``fractions.Fraction``.  Every integer reduction, the Hermite form, the
generation test in ``standardness`` and the integer kernel and minor gcd of
``_kernel_step``, comes from one row insertion, ``_echelon_insert``, and so
from one extended-gcd step, which is a plain row subtraction when the pivot
divides the entry.  The yes/no tests (``is_basis_of``, ``same_lattice``,
the membership and independence checks of
``enumeration.minima_witness_check``, and the half-odd test of
``cvp.equality_case_analyze``, which refuses a target whose common
denominator does not divide 2 and otherwise divides 2v - (b_1 + ... + b_n)
down the echelon of the doubled rows) and the section of
``standardness.section_lattice`` run on the same insertion and build no
Gram-Schmidt data: rows are folded into one echelon form (``_echelon_of``),
whose pivots give the rank and |det|, and a vector is divided down its
triangle by exact division (``_in_echelon``).

Entries and lengths are checked once, at the public call.  Internal paths
take checked rows: ``_lll_rows`` those of a ``LatticeBasis``, and
``_is_basis``, the core of ``is_basis_of``, those of ``same_lattice`` and
of the self-check of ``standardness.check_standard``.

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
from math import gcd, lcm, prod
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
    When p divides x that step is s = 1, t = 0: the row stays, and vec
    loses (x // p) times it.  Returns None when vec opens a new pivot (the
    rank grew), else what is left of it, zero in its first ``width``
    entries."""
    for c in range(width):
        x = vec[c]
        if not x:
            continue
        row = echelon.get(c)
        if row is None:
            echelon[c] = vec if x > 0 else [-a for a in vec]
            return None
        if not x % row[c]:
            q = x // row[c]
            vec = [b - q * a for a, b in zip(row, vec)]
            continue
        g = gcd(row[c], x)
        p, x = row[c] // g, x // g
        s = pow(p, -1, abs(x)) or 1
        t = (1 - s * p) // x
        if t:
            echelon[c] = [s * a + t * b for a, b in zip(row, vec)]
        vec = [p * b - x * a for a, b in zip(row, vec)]
    return vec


def _kernel_step(
    kernel: Sequence[Sequence[int]], vec: Sequence[int]
) -> tuple[int, list[Sequence[int]]] | None:
    """One vector added to a set A of integer vectors, by its integer
    kernel alone.  ``kernel`` is a Z-basis of {x : A x = 0} (the unit
    columns when A is empty).  Returns None when ``vec`` is orthogonal to
    every column, that is when it lies in the span of A; otherwise (g, rest)
    with g > 0 the gcd of the products <vec, c> and ``rest`` a Z-basis of
    the kernel of A with vec added.

    Each column c with <vec, c> != 0 is inserted as the row [<vec, c>, *c]
    into one echelon of width 1 (``_echelon_insert``).  The steps are
    unimodular, so the echelon's one row, headed by g, and the remainders
    span what those columns span; the remainders, like the columns with
    <vec, c> = 0, are orthogonal to vec, and together they are the new
    kernel.  A kernel is saturated, so its basis extends to a unimodular U
    with A U = [H | 0], and unimodular column operations keep the gcd of the
    maximal minors (Cauchy-Binet): adding vec multiplies that gcd by g, and
    the product of the g's of a fold is the gcd of the maximal minors of
    the vectors folded.  Neither ``kernel`` nor its columns are changed, so
    one kernel serves every sibling of a search."""
    echelon: dict[int, Sequence[int]] = {}
    rest = []
    for col in kernel:
        z = _dot(vec, col)
        if not z:
            rest.append(col)
        elif (left := _echelon_insert(echelon, [z, *col], 1)) is not None:
            rest.append(left[1:])
    if not echelon:
        return None
    return echelon[0][0], rest


def _echelon_of(rows: Sequence[Sequence[int]], width: int) -> dict[int, Sequence[int]]:
    """One echelon form of the integer span of ``rows``, each folded in by
    :func:`_echelon_insert`: one row per pivot, so as many rows as the rank.
    When ``width`` rows of length ``width`` all open a pivot, the product of
    the pivots is |det| of those rows, since every step is unimodular."""
    echelon: dict[int, Sequence[int]] = {}
    for row in rows:
        _echelon_insert(echelon, row, width)
    return echelon


def _in_echelon(echelon: dict[int, Sequence[int]], vec: Sequence[int]) -> bool:
    """True iff the integer row ``vec`` lies in the integer span of
    ``echelon`` (from :func:`_echelon_of`).  vec is divided down the
    triangle column by column: a remainder, or a nonzero entry in a column
    where no row has its pivot, means it does not.  A row is zero before its
    pivot, so each step only updates the entries after it."""
    vec = list(vec)
    n = len(vec)
    for c in range(n):
        x = vec[c]
        if x:
            row = echelon.get(c)
            if row is None or x % row[c]:
                return False
            a = x // row[c]
            for j in range(c + 1, n):
                vec[j] -= a * row[j]
    return True


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
    """True iff the two bases generate the same lattice, that is iff the
    rows of ``c`` are a basis of the lattice of ``b`` (:func:`is_basis_of`)."""
    _check_basis(b)
    _check_basis(c)
    if b.dim != c.dim:
        raise DimensionMismatchError(f"dimensions differ: {b.dim} vs {c.dim}")
    return _is_basis(c.rows, b)


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
    """True iff ``vectors`` is a basis of the lattice generated by ``basis``.
    Every entry and length is checked before any arithmetic; the answer is
    :func:`_is_basis`'s."""
    _check_basis(basis)
    rows = _as_int_rows(vectors)
    n = basis.dim
    if len(rows) != n:
        raise DimensionMismatchError(f"expected {n} vectors, got {len(rows)}")
    _check_lengths(rows, n)
    return _is_basis(rows, basis)


def _is_basis(rows: Sequence[IntVector], basis: LatticeBasis) -> bool:
    """:func:`is_basis_of` for checked rows: ``basis.dim`` integer rows of
    length ``basis.dim``.  The rows F are folded into one echelon form
    (:func:`_echelon_of`); they are a basis iff they are independent, the
    product of the pivots, |det F|, equals |det| of ``basis``, and every
    input row divides down the echelon (:func:`_in_echelon`): the input
    lattice then lies in L(F) with the same covolume, so the two are equal.
    The answer is checked against the input basis, and no Gram-Schmidt or
    determinant is computed."""
    n = basis.dim
    echelon = _echelon_of(rows, n)
    return (
        len(echelon) == n
        and prod(row[c] for c, row in echelon.items()) == abs(basis.det)
        and all(_in_echelon(echelon, row) for row in basis.rows)
    )


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


def _coefficients(rows: Sequence[IntVector], target: Sequence[Rational]) -> IntVector | None:
    """Integer coefficients of ``target`` in independent ``rows``, or None
    when it is not in their lattice.  The rounding walk of :func:`_round_off`
    answers it: it leaves a lattice point where it is and reports any other
    target as inexact, so no point is built."""
    q, big_w = _scaled(target)
    coeffs, exact = _round_off(rows, q, big_w, _integral_gso(rows))
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


def _lll_rows(
    rows: Sequence[Sequence[int]],
) -> tuple[tuple[IntVector, ...], list[int], list[list[int]]]:
    """LLL-reduced basis (delta = 3/4) of the lattice of independent rows,
    with its integral Gram-Schmidt data: returns (rows, d, lam) as in
    :func:`_integral_gso`.  The rows are read as they are, so they must be
    rows of ints already checked by the public gate, such as the rows of a
    :class:`LatticeBasis`.

    All-integer LLL (Cohen, Alg. 2.6.7): d and lam stay integers under every
    size reduction and swap, so no Fraction is built.  The result has the
    same row span over the integers, |mu_kj| <= 1/2 and the Lovasz condition
    B_k >= (3/4 - mu_k,k-1^2) B_k-1.
    """
    b = list(map(list, rows))
    m = len(b)
    d = [1]
    lam: list[list[int]] = []
    _extend_gso(b, d, lam, 1)
    k = 1
    while k < m:
        if k == len(lam):
            # Rows are met in order; row k is still an input row here.
            _extend_gso(b, d, lam, k + 1)
        # Size-reduce row k against row j = k-1 here, and against rows k-2
        # down to 0 once the Lovasz condition holds: where 2 |lam_kj| >
        # d_j+1, subtract round(mu_kj) times row j, and its lam row from
        # row k's.
        lam_k = lam[k]
        lk, dj = lam_k[k - 1], d[k]
        if 2 * abs(lk) > dj:
            q = (2 * lk + dj) // (2 * dj)
            b[k] = [x - q * y for x, y in zip(b[k], b[k - 1])]
            lam_k[k - 1] = lk = lk - q * dj
            lam_j = lam[k - 1]
            for i in range(k - 1):
                lam_k[i] -= q * lam_j[i]
        if 4 * d[k + 1] * d[k - 1] < 3 * dj * dj - 4 * lk * lk:
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
                lkj, dj = lam_k[j], d[j + 1]
                if 2 * abs(lkj) > dj:
                    q = (2 * lkj + dj) // (2 * dj)
                    b[k] = [x - q * y for x, y in zip(b[k], b[j])]
                    lam_k[j] = lkj - q * dj
                    lam_j = lam[j]
                    for i in range(j):
                        lam_k[i] -= q * lam_j[i]
            k += 1
    return tuple(tuple(r) for r in b), d, lam


def gso(basis: LatticeBasis) -> GsoData:
    """Exact Gram-Schmidt orthogonalization of the basis rows, read off the
    integral data and the integer star rows of :func:`_star_rows`."""
    _check_basis(basis)
    rows = basis.rows
    d, lam = _integral_gso(rows)
    m = len(rows)
    return GsoData(
        mu=tuple(
            tuple(Fraction(lam[k][j], d[j + 1]) for j in range(k))
            + (Fraction(1),)
            + (Fraction(0),) * (m - k - 1)
            for k in range(m)
        ),
        bstar_sq=tuple(Fraction(d[k + 1], d[k]) for k in range(m)),
        bstar=tuple(
            tuple(Fraction(a, d[k]) for a in u) for k, u in enumerate(_star_rows(rows, d, lam))
        ),
    )
