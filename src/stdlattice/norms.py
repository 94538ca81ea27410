"""Exact evaluation and comparison of the three built-in vector norms.

The Euclidean norm is represented exclusively by its SQUARE so that every
value stays rational; squaring is monotone on nonnegative reals, so all
comparisons, minima and argmins are preserved.  Human-facing output marks
squared values explicitly (the CLI prints them under a "squared" label).
"""

from __future__ import annotations

import enum
from fractions import Fraction
from operator import mul
from typing import NamedTuple, Sequence

from .errors import InputError
from .exactlin import _check_positive_int

Rational = int | Fraction


class NormKind(enum.Enum):
    L1 = "l1"
    L2 = "l2"
    LINF = "linf"


# The members bound once.  Under CPython 3.11 reading one off the class goes
# through the enum metaclass's __getattr__, about 15 times slower than a
# module global, and the per-leaf and per-call paths compare against them.
_L1, _L2, _LINF = NormKind.L1, NormKind.L2, NormKind.LINF


class _NormFields(NamedTuple):
    kind: NormKind
    value: Rational


class NormValue(_NormFields):
    """Exact comparable size of a vector under a fixed norm.

    For L1/Linf this is the norm itself; for L2 it is the squared norm.
    The kind must be a ``NormKind`` member, and the value a nonnegative
    ``int`` (exactly: not a ``bool``) or ``Fraction``, so no float, nan or
    infinity can decide a comparison.  Comparisons are only defined between
    values of the same kind; any other comparison raises InputError.
    """

    __slots__ = ()

    def __new__(cls, kind: NormKind, value: Rational):
        # One type test: a NormValue is built for every enumeration leaf.
        if type(kind) is not NormKind:
            raise _unknown_kind(kind)
        if not (type(value) is int or isinstance(value, Fraction)) or value < 0:
            raise InputError(f"norm values are nonnegative ints or Fractions, got {value!r}")
        return tuple.__new__(cls, (kind, value))

    @classmethod
    def _make(cls, iterable) -> "NormValue":
        # _replace builds through _make; route it through the check above.
        return cls(*iterable)

    def _check_kind(self, other: "NormValue") -> None:
        if not isinstance(other, NormValue):
            raise InputError(f"cannot compare NormValue with {type(other).__name__}")
        if self.kind is not other.kind:
            raise InputError(f"norm kinds differ: {self.kind.value} vs {other.kind.value}")

    def __lt__(self, other):
        self._check_kind(other)
        return self.value < other.value

    def __le__(self, other):
        self._check_kind(other)
        return self.value <= other.value

    def __gt__(self, other):
        self._check_kind(other)
        return self.value > other.value

    def __ge__(self, other):
        self._check_kind(other)
        return self.value >= other.value

    def __str__(self):
        return str(self.value)

    @property
    def is_squared(self) -> bool:
        return self.kind is _L2


def _unknown_kind(kind: object) -> InputError:
    return InputError(f"unknown norm kind {kind!r}; expected a NormKind member")


def require_kind(kind: object) -> None:
    """Reject anything but a NormKind member, e.g. the string "l1"."""
    if not isinstance(kind, NormKind):
        raise _unknown_kind(kind)


def _require_bound(kind: object, bound: object) -> None:
    """Reject a search bound that is not a positive NormValue of ``kind``."""
    require_kind(kind)
    if not isinstance(bound, NormValue) or bound.kind is not kind or bound.value <= 0:
        raise InputError(f"bound {bound!r} is not a positive {kind.value} NormValue")


def measure(coords: Sequence[Rational], kind: NormKind) -> NormValue:
    """Exact norm of a vector: sum of |coords| for L1, max |coord| for Linf,
    sum of squares (the squared Euclidean norm) for L2.  Coordinates that
    are not numbers are refused with InputError, and so, through NormValue,
    is a norm that is not an int or a Fraction (a float coordinate; under
    Linf also one that is not the largest)."""
    try:
        if kind is _L1:
            value = sum(map(abs, coords))
        elif kind is _LINF:
            coords = tuple(coords)  # read twice; a tuple is not copied
            value = max(map(abs, coords)) if coords else 0
            if type(sum(coords)) is not int:
                # A float that is not the largest coordinate never reaches
                # the max: refuse what L1 refuses, through NormValue.
                NormValue(kind, sum(map(abs, coords)))
        elif kind is _L2:
            coords = tuple(coords)  # read twice; a tuple is not copied
            value = sum(map(mul, coords, coords))
        else:
            raise _unknown_kind(kind)
    except TypeError as exc:
        raise InputError(f"coordinates must be numbers: {coords!r}") from exc
    if type(value) is int and value >= 0:
        # A branch above matched, so kind is a NormKind member, and value
        # passes NormValue's checks: build it without running them again.
        return tuple.__new__(NormValue, (kind, value))
    return NormValue(kind, value)


def enumeration_radius_in_l2(bound: NormValue, dim: int) -> NormValue:
    """Squared L2 radius R^2 such that every vector within ``bound`` under
    its own norm satisfies ||v||_2^2 <= R^2.

    Uses ||v||_2 <= ||v||_1 and ||v||_2^2 <= dim * ||v||_inf^2; for L2 the
    bound already is the squared radius.
    """
    if not isinstance(bound, NormValue):
        raise InputError(f"bound must be a NormValue, got {type(bound).__name__}")
    _check_positive_int("dimension", dim)
    value = bound.value
    if bound.kind is _L1:
        value = value * value
    elif bound.kind is _LINF:
        value = dim * value * value
    # A checked bound's value times a positive int is still a valid value.
    return tuple.__new__(NormValue, (_L2, value))
