"""Two-dimensional reduction achieving both successive minima under any of
the built-in norms.

The loop is the generalized Gauss reduction (Kaib and Schnorr, "The
generalized Gauss reduction algorithm", J. Algorithms 21, 1996): translate
the longer vector by the best integer multiple of the shorter one, swap,
repeat until the longer norm stops improving.  It stops at a pair with
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
"""

from __future__ import annotations

from itertools import combinations
from math import lcm
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
      The minimizers are the q with w_i |q - r_i| <= t for every i.

    Every integer in [ceil(lo), floor(hi)] is a minimizer, and 0 clamped into
    that range is the one nearest 0.  When the range is empty, lo and hi lie
    between b = floor(hi) and b + 1, and by convexity one of the two is the
    integer minimizer: two measures decide, a tie going to the one of
    smaller absolute value.
    """
    require_kind(kind)
    b1 = _as_int_row(b1)
    b2 = _as_int_row(b2)
    if len(b1) != len(b2):
        raise DimensionMismatchError(f"vector lengths differ: {len(b2)} and {len(b1)}")
    if not any(b1):
        raise StructuralError("translation vector must be nonzero")

    if kind is _L2:
        dot = sum(v * u for v, u in zip(b2, b1))
        sq = sum(u * u for u in b1)
        q = -dot // sq
        # f(q + 1)^2 - f(q)^2; on a tie the smaller |q| is q when q >= 0.
        step = 2 * dot + (2 * q + 1) * sq
        return q + 1 if step < 0 or (step == 0 and q < 0) else q

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
        # t = num / den, the largest pair bound: the constants |b2_i| where
        # b1_i = 0, then |p_i w_j - p_j w_i| = |b2_i b1_j - b2_j b1_i| over
        # pairs of legs.
        num, den = 0, 1
        if len(legs) < len(b1):
            num = max([abs(v) for v, u in zip(b2, b1) if not u])
        for (p, w), (p2, w2) in combinations(legs, 2):
            c, d = abs(p * w2 - p2 * w), w + w2
            if c * den > num * d:
                num, den = c, d
        # ceil and floor of r_i -+ t / w_i = (p_i den -+ num) / (w_i den).
        a = max([-((num - p * den) // (w * den)) for p, w in legs])
        b = min([(p * den + num) // (w * den) for p, w in legs])

    if a <= b:
        return a if a > 0 else b if b < 0 else 0
    at_b = measure(tuple(v + b * u for v, u in zip(b2, b1)), kind).value
    at_a = measure(tuple(v + a * u for v, u in zip(b2, b1)), kind).value
    return b if at_b < at_a or (at_b == at_a and b >= 0) else a


def _gauss_loop(
    b1: IntVector, b2: IntVector, kind: NormKind
) -> tuple[IntVector, IntVector, NormValue, NormValue]:
    """Translate the longer vector by its best multiple of the shorter one and
    swap until the best multiple is 0; returns (shorter, longer) and their
    norms.  The tie rule of ``min_translate`` makes a nonzero q strictly
    shorten b2, so each step measures only its new translate."""
    n1, n2 = measure(b1, kind), measure(b2, kind)
    if n1.value > n2.value:
        b1, b2, n1, n2 = b2, b1, n2, n1
    while q := min_translate(b2, b1, kind):
        b2 = tuple(v + q * u for v, u in zip(b2, b1))
        n2 = measure(b2, kind)
        if n2.value < n1.value:
            b1, b2, n1, n2 = b2, b1, n2, n1
    return b1, b2, n1, n2


def _cross(u: IntVector, v: IntVector) -> int:
    return u[0] * v[1] - u[1] * v[0]


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
    plus = measure(tuple(v + u for v, u in zip(b2, b1)), kind).value
    minus = measure(tuple(v - u for v, u in zip(b2, b1)), kind).value
    if not n1.value <= n2.value <= min(plus, minus):
        raise InternalConsistencyError(
            f"reduced pair misses the Gauss criterion: norms ({n1.value}, {n2.value}), "
            f"translates b2 + b1 {plus} and b2 - b1 {minus}"
        )
    # By Cramer's rule b = x r1 + y r2 with x = (b x r2) / det and
    # y = (r1 x b) / det, so integral quotients put b1 and b2 in the lattice,
    # and two lattice members spanning covolume |det| are a basis of it.
    r1, r2 = basis.rows
    det = basis.det
    members = all(_cross(b, r2) % det == 0 == _cross(r1, b) % det for b in (b1, b2))
    if not members or abs(_cross(b1, b2)) != abs(det):
        raise InternalConsistencyError("reduction steps lost the basis property")
    return Reduced2DBasis(b1=b1, b2=b2, norms=(n1, n2), kind=kind)
