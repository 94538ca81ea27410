"""Two-dimensional reduction achieving both successive minima under any of
the built-in norms.

The loop is the generalized Gauss reduction (Kaib and Schnorr, "The
generalized Gauss reduction algorithm", J. Algorithms 21, 1996): translate
the longer vector by the best integer multiple of the shorter one, swap,
repeat until the longer norm stops improving: until the best multiple is
0, or a translate leaves the longer vector no shorter than the shorter one
(then the best multiple for the new longer vector is 0, as that translate
already minimized its norm, so it is not computed).  It stops at a pair with
||b1|| <= ||b2|| <= min(||b2 + b1||, ||b2 - b1||), and under any norm such a
pair attains lambda_1 and lambda_2.  Both that criterion and a 2x2 covolume
check (the pair is a basis of the input lattice) are verified on the result
before it is returned, so the reduction is certified without enumerating.

Each step's best multiple is found in closed form (see ``min_translate``).
Under L2 it is the rounded projection.  Under L1 and Linf, ||b2 + q b1|| is
convex and piecewise linear in q, and its real minimizers are exact
rationals: the weighted median of the breakpoints -b2_i / b1_i under L1,
the points within the largest pair bound of every breakpoint under Linf.
An integer among them is the answer; otherwise the answer is one of the
two integers around them, and two norm evaluations decide which.

``reduce_2d`` checks its input once, and the loop steps on the unchecked
core of ``min_translate``, ``_translate``, reusing the norms a step already
holds: the norm of b2 stands in for the translate at q = 0, and a translate
measured while choosing q is not measured again as the new b2.  So no step
measures b2 or any vector twice.  The criterion measures b2 + b1 and
b2 - b1 again on purpose, as a check independent of the loop.
"""

from __future__ import annotations

from math import lcm
from operator import add, mul, sub
from typing import NamedTuple

from .errors import DimensionMismatchError, InternalConsistencyError, StructuralError
from .exactlin import IntVector, LatticeBasis, _as_int_row, _check_basis
from .norms import NormKind, NormValue, _L1, _L2, measure, require_kind


class Reduced2DBasis(NamedTuple):
    """A basis pair sorted by norm whose norms are the two minima."""

    b1: IntVector
    b2: IntVector
    norms: tuple[NormValue, NormValue]
    kind: NormKind


def min_translate(b2: IntVector, b1: IntVector, kind: NormKind) -> int:
    """The integer q minimizing f(q) = ||b2 + q b1|| under ``kind``; ties
    resolve to the smallest |q|, then the nonnegative one.

    Under L2, f(q)^2 is a quadratic minimized at -<b2, b1> / <b1, b1>, so q is
    that value's floor or the integer above it, compared exactly.

    Under L1 and Linf, f is convex and piecewise linear: each coordinate with
    b1_i != 0 contributes w_i |q - r_i| with weight w_i = |b1_i| and
    breakpoint r_i = -b2_i / b1_i = p_i / w_i, the others a constant.  The
    real minimizers form an interval [lo, hi], found in closed form with
    integer arithmetic:

    * L1: between breakpoints the slope of f is the weight of the r_i left
      of q minus the weight of those right of it, so the minimizers are the
      weighted medians of the r_i.  With the breakpoints sorted, r_k is the
      first at which twice the weight up to it reaches the total; on
      equality the slope is 0 up to the next breakpoint, which ends the
      interval.
    * Linf: f is the largest of convex functions of one variable, so by
      Helly's theorem in dimension 1 its least value t is the largest least
      value of any two of them.  For coordinates i and j that is
      |b2_i b1_j - b2_j b1_i| / (|b1_i| + |b1_j|), where the two legs cross;
      a pair with one b1 entry zero gives that coordinate's constant, a pair
      with both zero adds nothing, and one coordinate alone gives t = 0.
      The minimizers are the q with w_i |q - r_i| <= t for every i.  The
      largest pair bound is reached without visiting every pair: t starts
      at the constants, and while that set is empty at t, the leg with the
      highest low end and the one with the lowest high end cross above t,
      so t rises to their pair bound (``_linf_ends``).  Each step raises t
      strictly and never past the least value, so it stops there.

    Every integer in [ceil(lo), floor(hi)] is a minimizer, and 0 clamped into
    that range is the one nearest 0.  When the range is empty, lo and hi lie
    between b = floor(hi) and b + 1, and by convexity one of the two is the
    integer minimizer: two measures decide, a tie going to the one of
    smaller absolute value.

    This function checks its arguments and runs ``_translate``, which the
    reduction loop calls directly on rows it has already checked.
    """
    require_kind(kind)
    b1 = _as_int_row(b1)
    b2 = _as_int_row(b2)
    if len(b1) != len(b2):
        raise DimensionMismatchError(f"vector lengths differ: {len(b2)} and {len(b1)}")
    if not any(b1):
        raise StructuralError("translation vector must be nonzero")
    return _translate(b2, b1, kind, None)[0]


def _translate(
    b2: IntVector, b1: IntVector, kind: NormKind, at_zero: NormValue | None
) -> tuple[int, NormValue | None]:
    """The body of ``min_translate`` on checked rows (equal lengths, b1
    nonzero): the best q, and the norm of b2 + q b1 when choosing q measured
    it, else None.  ``at_zero`` is the norm of b2 when the caller holds it
    (else None), and stands in for a measure of the translate at q = 0."""
    if kind is _L2:
        dot = sum(map(mul, b2, b1))
        sq = sum(map(mul, b1, b1))
        q = -dot // sq
        # f(q + 1)^2 - f(q)^2; on a tie the smaller |q| is q when q >= 0.
        step = 2 * dot + (2 * q + 1) * sq
        return (q + 1 if step < 0 or (step == 0 and q < 0) else q), None

    # (p_i, w_i) with r_i = p_i / w_i and w_i > 0, for each b1_i != 0.
    legs = [(-v, u) if u > 0 else (v, -u) for v, u in zip(b2, b1) if u]
    if kind is _L1:
        # Sort by r_i through the exact integer keys p_i * (m / w_i), where m
        # is the lcm of the weights.
        m = lcm(*[w for _, w in legs])
        legs.sort(key=lambda leg: leg[0] * (m // leg[1]))
        total = sum(w for _, w in legs)
        below = 0
        for k, (p, w) in enumerate(legs):
            below += 2 * w
            if below >= total:
                break
        p_hi, w_hi = legs[k + 1] if below == total else legs[k]
        a, b = -(-p // w), p_hi // w_hi
    else:
        # t = num / den starts at the constants |b2_i| where b1_i = 0 and
        # climbs pair bounds until the minimizers' interval is nonempty.
        num, den = 0, 1
        if len(legs) < len(b1):
            num = max([abs(v) for v, u in zip(b2, b1) if not u])
        while True:
            (lo_p, lo_w), (hi_p, hi_w) = _linf_ends(legs, num, den)
            # The interval's ends r_i -+ t / w_i = (p_i den -+ num) / (w_i den).
            lo_x, hi_x = lo_p * den - num, hi_p * den + num
            if lo_x * hi_w <= hi_x * lo_w:
                break
            num, den = lo_p * hi_w - hi_p * lo_w, lo_w + hi_w
        a, b = -(-lo_x // (lo_w * den)), hi_x // (hi_w * den)

    if a <= b:
        return (a if a > 0 else b if b < 0 else 0), None
    # Here a = b + 1, so when one of them is 0 its translate is b2 itself,
    # whose norm the caller may hold.
    at_b = at_a = at_zero
    if b or at_zero is None:
        at_b = measure(tuple(v + b * u for v, u in zip(b2, b1)), kind)
    if a or at_zero is None:
        at_a = measure(tuple(v + a * u for v, u in zip(b2, b1)), kind)
    if at_b.value < at_a.value or (at_b.value == at_a.value and b >= 0):
        return b, at_b
    return a, at_a


def _linf_ends(legs, num: int, den: int):
    """The legs at the two ends of {q : w_i |q - r_i| <= t for every i} at
    t = num / den: the one with the largest r_i - t / w_i = (p_i den - num)
    / (w_i den) and the one with the smallest r_j + t / w_j, compared by
    cross multiplication.  When the first end passes the second, the two
    legs cross at their pair bound (p_i w_j - p_j w_i) / (w_i + w_j), which
    exceeds t and is at most the least value of ||b2 + q b1||."""
    lo = hi = legs[0]
    lo_x = lo[0] * den - num
    hi_x = lo_x + 2 * num
    for leg in legs:
        p, w = leg
        x = p * den - num
        if x * lo[1] > lo_x * w:
            lo, lo_x = leg, x
        x += 2 * num
        if x * hi[1] < hi_x * w:
            hi, hi_x = leg, x
    return lo, hi


def _gauss_loop(
    b1: IntVector, b2: IntVector, kind: NormKind
) -> tuple[IntVector, IntVector, NormValue, NormValue]:
    """Translate the longer vector by its best multiple of the shorter one and
    swap, until the best multiple is 0 or a translate leaves the longer
    vector longer; returns (shorter, longer) and their norms.  After such a
    step q minimizes ||b2 + q b1|| for the old b2, so the best multiple for
    the new b2 is 0 (the tie rule takes the smallest |q|), and the loop stops
    without asking.  The rows are checked once, by ``reduce_2d``, so each
    step runs ``_translate`` on them directly and hands it the norm of b2
    it holds.  The tie rule makes a nonzero q strictly shorten b2, so each
    step measures only its new translate, and not even that when
    ``_translate`` measured it while choosing q."""
    n1, n2 = measure(b1, kind), measure(b2, kind)
    if n1.value > n2.value:
        b1, b2, n1, n2 = b2, b1, n2, n1
    while True:
        q, nv = _translate(b2, b1, kind, n2)
        if not q:
            return b1, b2, n1, n2
        b2 = tuple(v + q * u for v, u in zip(b2, b1))
        n2 = measure(b2, kind) if nv is None else nv
        if n2.value >= n1.value:
            return b1, b2, n1, n2
        b1, b2, n1, n2 = b2, b1, n2, n1


def reduce_2d(basis: LatticeBasis, kind: NormKind) -> Reduced2DBasis:
    """Reduce a 2D basis until it achieves (lambda_1, lambda_2) under ``kind``.

    Each step replaces the longer vector by its best translate along the
    shorter one (a unimodular operation, so the pair stays a basis); the
    multiset of norms strictly decreases, hence termination.  The result is
    certified by the generalized Gauss criterion ||b1|| <= ||b2|| <=
    min(||b2 + b1||, ||b2 - b1||), which under any norm makes the pair's norms
    the two minima (Kaib and Schnorr 1996), and by a covolume check that the
    pair is a basis of the input lattice.  Failure of either check is a loud
    internal error, not a silent downgrade.
    """
    _check_basis(basis)
    require_kind(kind)
    if basis.dim != 2:
        raise StructuralError("reduce_2d requires dimension 2")
    b1, b2, n1, n2 = _gauss_loop(*basis.rows, kind)
    plus = measure(tuple(map(add, b2, b1)), kind).value
    minus = measure(tuple(map(sub, b2, b1)), kind).value
    if not n1.value <= n2.value <= min(plus, minus):
        raise InternalConsistencyError(
            f"reduced pair misses the Gauss criterion: norms ({n1.value}, {n2.value}), "
            f"translates b2 + b1 {plus} and b2 - b1 {minus}"
        )
    # By Cramer's rule b = x r1 + y r2 with x = (b x r2) / det and
    # y = (r1 x b) / det, so integral quotients put b1 and b2 in the lattice,
    # and two lattice members spanning covolume |det| are a basis of it.
    (r11, r12), (r21, r22) = basis.rows
    (x1, y1), (x2, y2) = b1, b2
    det = basis.det
    if (
        (x1 * r22 - y1 * r21) % det
        or (r11 * y1 - r12 * x1) % det
        or (x2 * r22 - y2 * r21) % det
        or (r11 * y2 - r12 * x2) % det
        or abs(x1 * y2 - y1 * x2) != abs(det)
    ):
        raise InternalConsistencyError("reduction steps lost the basis property")
    return Reduced2DBasis(b1, b2, (n1, n2), kind)
