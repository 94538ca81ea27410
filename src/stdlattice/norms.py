"""Exact evaluation and comparison of the three built-in vector norms.

The Euclidean norm is represented exclusively by its SQUARE so that every
value stays rational; squaring is monotone on nonnegative reals, so all
comparisons, minima and argmins are preserved.  Human-facing output marks
squared values explicitly (the CLI prints them under a "squared" label).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .errors import InputError

Rational = int | Fraction


class NormKind(enum.Enum):
    L1 = "l1"
    L2 = "l2"
    LINF = "linf"


@dataclass(frozen=True)
class NormValue:
    """Exact comparable size of a vector under a fixed norm.

    For L1/Linf this is the norm itself; for L2 it is the squared norm.
    Comparisons are only defined between values of the same kind.
    """

    kind: NormKind
    value: Rational

    def __post_init__(self):
        if self.value < 0:
            raise ValueError("norm values are nonnegative")

    def _check_kind(self, other: "NormValue") -> None:
        if not isinstance(other, NormValue):
            raise TypeError(f"cannot compare NormValue with {type(other).__name__}")
        if self.kind is not other.kind:
            raise ValueError(f"norm kinds differ: {self.kind.value} vs {other.kind.value}")

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
        return self.kind is NormKind.L2


def _unknown_kind(kind: object) -> InputError:
    return InputError(f"unknown norm kind {kind!r}; expected a NormKind member")


def require_kind(kind: object) -> None:
    """Reject anything but a NormKind member, e.g. the string "l1"."""
    if not isinstance(kind, NormKind):
        raise _unknown_kind(kind)


def measure(coords: Sequence[Rational], kind: NormKind) -> NormValue:
    """Exact norm of a vector: sum of |coords| for L1, max |coord| for Linf,
    sum of squares (the squared Euclidean norm) for L2."""
    if kind is NormKind.L1:
        value = sum(map(abs, coords))
    elif kind is NormKind.LINF:
        value = max(map(abs, coords), default=0)
    elif kind is NormKind.L2:
        value = sum(x * x for x in coords)
    else:
        raise _unknown_kind(kind)
    return NormValue(kind, value)


def enumeration_radius_in_l2(bound: NormValue, dim: int) -> NormValue:
    """Squared L2 radius R^2 such that every vector within ``bound`` under
    its own norm satisfies ||v||_2^2 <= R^2.

    Uses ||v||_2 <= ||v||_1 and ||v||_2^2 <= dim * ||v||_inf^2; for L2 the
    bound already is the squared radius.
    """
    if bound.kind is NormKind.L1:
        return NormValue(NormKind.L2, bound.value * bound.value)
    if bound.kind is NormKind.LINF:
        return NormValue(NormKind.L2, dim * bound.value * bound.value)
    if bound.kind is NormKind.L2:
        return NormValue(NormKind.L2, bound.value)
    raise _unknown_kind(bound.kind)
