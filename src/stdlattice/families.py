"""The parity-lattice family: generators and two-sided verification.

The parity lattice in dimension n consists of the integer vectors whose
coordinates all share one parity.  It is the classical source of
non-standard examples: under L2 it stops being standard at n = 5, under L1
already at n = 3.  ``verify_family`` decides standardness generically and
then replays the paper's direct parity argument, so the two proofs guard each
other.  That argument needs no search: every coordinate of an all-odd vector
has |x_i| >= 1, so the odd-coset minimum is the norm of (1, ..., 1); every
nonzero all-even vector has some |x_i| >= 2, so the even-coset minimum is the
norm of 2e_1.  A determinant obstruction then forces an odd vector into every
basis.
"""

from __future__ import annotations

from typing import NamedTuple

from .enumeration import SuccessiveMinima
from .exactlin import (
    DEFAULT_MAX_CANDIDATES,
    DEFAULT_MAX_DIM,
    LatticeBasis,
    _check_dim,
    _check_positive_int,
)
from .norms import NormKind, NormValue, measure, require_kind
from .standardness import StandardnessCertificate, Verdict, check_standard


class ParityArgument(NamedTuple):
    """Replay of the direct non-standardness argument.

    The coset minima are read off the parity argument, not searched for:
    ``odd_coset_min`` is the norm of (1, ..., 1) (n under L1 and squared L2,
    1 under Linf) and ``even_coset_min`` the norm of 2e_1 (2, 4 and 2).
    ``forces_odd_vector``: any n all-even vectors have determinant divisible
    by 2^n, which exceeds the covolume 2^(n-1), so every basis contains an
    all-odd vector.  The verdict must then be NonStandard exactly when the
    odd-coset minimum exceeds the largest successive minimum.
    """

    odd_coset_min: NormValue
    even_coset_min: NormValue
    covolume: int
    even_tuple_divisor: int
    forces_odd_vector: bool
    consistent: bool


class FamilyReport(NamedTuple):
    n: int
    kind: NormKind
    minima: SuccessiveMinima
    verdict: Verdict
    parity_argument: ParityArgument
    certificate: StandardnessCertificate


def parity_lattice(n: int, *, max_dim: int = DEFAULT_MAX_DIM) -> LatticeBasis:
    """Basis of the rank-n parity lattice: 2e_1, ..., 2e_(n-1), (1, ..., 1).
    A dimension over ``max_dim`` is refused before any row is built."""
    _check_positive_int("dimension", n)
    _check_dim(n, max_dim)
    rows = [[2 if j == i else 0 for j in range(n)] for i in range(n - 1)]
    rows.append([1] * n)
    return LatticeBasis(rows)


def verify_family(
    n: int,
    kind: NormKind,
    *,
    max_candidates: int = DEFAULT_MAX_CANDIDATES,
    max_dim: int = DEFAULT_MAX_DIM,
) -> FamilyReport:
    """Full report on the dimension-n parity lattice under ``kind``."""
    require_kind(kind)
    basis = parity_lattice(n, max_dim=max_dim)
    cert = check_standard(basis, kind, max_candidates=max_candidates, max_dim=max_dim)
    sm = cert.minima

    odd_min = measure((1,) * n, kind)
    even_min = measure((2,) + (0,) * (n - 1), kind)
    covolume = abs(basis.det)
    divisor = 2**n
    forces_odd = divisor > covolume
    non_standard_by_parity = forces_odd and odd_min.value > sm.minima[-1].value
    consistent = (cert.verdict is Verdict.NON_STANDARD) == non_standard_by_parity
    argument = ParityArgument(
        odd_coset_min=odd_min,
        even_coset_min=even_min,
        covolume=covolume,
        even_tuple_divisor=divisor,
        forces_odd_vector=forces_odd,
        consistent=consistent,
    )
    return FamilyReport(
        n=n,
        kind=kind,
        minima=sm,
        verdict=cert.verdict,
        parity_argument=argument,
        certificate=cert,
    )
