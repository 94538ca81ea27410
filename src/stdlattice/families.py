"""The parity-lattice family: generators and two-sided verification.

The parity lattice in dimension n consists of the integer vectors whose
coordinates all share one parity.  It is the classical source of
non-standard examples: under L2 it stops being standard at n = 5, under L1
already at n = 3.  ``verify_family`` decides standardness generically and
then replays the direct parity argument (coset minima plus the determinant
obstruction forcing an odd vector into every basis), so the two proofs guard
each other.
"""

from __future__ import annotations

from dataclasses import dataclass

from .enumeration import (
    DEFAULT_MAX_CANDIDATES,
    DEFAULT_MAX_DIM,
    SuccessiveMinima,
    _check_dim,
    enumerate_short,
)
from .exactlin import IntVector, LatticeBasis
from .norms import NormKind, NormValue, measure, require_kind
from .standardness import StandardnessCertificate, Verdict, check_standard


@dataclass(frozen=True)
class ParityArgument:
    """Replay of the direct non-standardness argument.

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


@dataclass(frozen=True)
class FamilyReport:
    n: int
    kind: NormKind
    minima: SuccessiveMinima
    verdict: Verdict
    parity_argument: ParityArgument
    certificate: StandardnessCertificate


def parity_lattice(n: int) -> LatticeBasis:
    """Basis of the rank-n parity lattice: 2e_1, ..., 2e_(n-1), (1, ..., 1)."""
    if n < 1:
        raise ValueError(f"dimension must be at least 1, got {n}")
    rows = [[2 if j == i else 0 for j in range(n)] for i in range(n - 1)]
    rows.append([1] * n)
    return LatticeBasis(rows)


def _coset_minimum(entries, want_odd: bool) -> NormValue:
    for vec, nv in entries:
        odd = all(x % 2 != 0 for x in vec)
        if odd == want_odd:
            return nv
    raise AssertionError("coset witness missing from enumeration")


def verify_family(
    n: int,
    kind: NormKind,
    *,
    max_candidates: int = DEFAULT_MAX_CANDIDATES,
    max_dim: int = DEFAULT_MAX_DIM,
) -> FamilyReport:
    """Full report on the dimension-n parity lattice under ``kind``."""
    require_kind(kind)
    _check_dim(n, max_dim)
    basis = parity_lattice(n)
    cert = check_standard(basis, kind, max_candidates=max_candidates, max_dim=max_dim)
    sm = cert.minima

    # Both coset witnesses (2e_1 all-even, the all-ones vector all-odd) fit
    # under this bound, so each coset minimum is visible in one enumeration.
    two_e1: IntVector = tuple(2 if j == 0 else 0 for j in range(n))
    ones: IntVector = (1,) * n
    bound_value = max(measure(two_e1, kind).value, measure(ones, kind).value)
    entries = enumerate_short(
        basis,
        kind,
        NormValue(kind, bound_value),
        max_candidates=max_candidates,
        max_dim=max_dim,
    ).entries

    odd_min = _coset_minimum(entries, want_odd=True)
    even_min = _coset_minimum(entries, want_odd=False)
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
