"""The paper's theorems on every lattice of small index.

Every sublattice of Z^n of index D is the row span of exactly one Hermite
form (``util.hermite_forms``), so listing the forms of each D lists every
integer lattice of dimension n and covolume D, the only lattices the
library accepts.  Under L2 every lattice of dimension n <= 4 is standard,
and in dimension 2 so is every lattice under every norm; the first
NonStandard lattices are L1 ones from dimension 3 on.  Each NonStandard
verdict below is confirmed by the exhaustive ``brute_standard``, and the
minima of every lattice of the small slices, with the norms of the basis
that ``standardize_low_dim`` returns, by ``brute_minima``.
"""

from collections import Counter

import pytest

from stdlattice import (
    LatticeBasis,
    NormKind,
    Verdict,
    brute_minima,
    check_standard,
    hnf_nonzero_rows,
    measure,
    standardize_low_dim,
    successive_minima,
)
from util import brute_standard, hermite_forms

# Dimension and index range of the census slices that every norm runs.
SMALL = {3: range(1, 13), 4: range(1, 7)}
# The indices of the dimension-5 slice.
FIVE = range(1, 5)


def census(n, indices):
    return [LatticeBasis(rows) for index in indices for rows in hermite_forms(n, index)]


def non_standard_nodes(bases, kind):
    """Nodes explored by each NonStandard verdict, confirmed by the oracle."""
    nodes = []
    for b in bases:
        cert = check_standard(b, kind)
        if not cert.standard:
            assert brute_standard(b, kind) is Verdict.NON_STANDARD, b
            nodes.append(cert.stats.nodes_explored)
    return nodes


def test_each_sublattice_appears_once_as_its_own_hermite_form():
    # Z^2 has sigma(D), the sum of the divisors of D, sublattices of index D.
    for index in range(1, 61):
        sigma = sum(d for d in range(1, index + 1) if index % d == 0)
        assert len(list(hermite_forms(2, index))) == sigma
    for n, indices in SMALL.items():
        forms = [rows for index in indices for rows in hermite_forms(n, index)]
        assert len(set(forms)) == len(forms)
        assert all(hnf_nonzero_rows(rows) == rows for rows in forms)
    assert [len(census(n, indices)) for n, indices in SMALL.items()] == [1325, 967]


@pytest.mark.parametrize("kind", list(NormKind))
def test_dimension_2_is_standard_under_every_norm(kind):
    bases = census(2, range(1, 61))
    assert len(bases) == 3014
    assert all(check_standard(b, kind).standard for b in bases)


@pytest.mark.parametrize("n", sorted(SMALL))
def test_small_census_is_standard_under_l2(n):
    assert all(check_standard(b, NormKind.L2).standard for b in census(n, SMALL[n]))


@pytest.mark.parametrize("n, count", [(3, 1), (4, 10)])
def test_small_census_under_l1_is_decided_at_the_root(n, count):
    assert non_standard_nodes(census(n, SMALL[n]), NormKind.L1) == [1] * count


@pytest.mark.parametrize("n", sorted(SMALL))
def test_small_census_has_no_non_standard_lattice_under_linf(n):
    assert non_standard_nodes(census(n, SMALL[n]), NormKind.LINF) == []


def test_index_8_in_dimension_4_under_l1_reaches_the_exhaustion_route():
    # The levels of 12 of these generate the lattice, so only exhausting
    # the backtrack answers NonStandard.
    bases = census(4, [8])
    assert len(bases) == 1395
    nodes = non_standard_nodes(bases, NormKind.L1)
    assert Counter(nodes) == {1: 5, 13: 12}


@pytest.mark.parametrize("kind, count", [(NormKind.L1, 65), (NormKind.L2, 0), (NormKind.LINF, 0)])
def test_dimension_5_is_non_standard_only_under_l1_and_only_at_index_4(kind, count):
    # Every such L1 verdict is decided at the root: the levels generate a
    # proper sublattice.
    assert len(census(5, FIVE)) == 804
    nodes = {index: non_standard_nodes(census(5, [index]), kind) for index in FIVE}
    assert nodes == {1: [], 2: [], 3: [], 4: [1] * count}


@pytest.mark.parametrize("kind", list(NormKind))
@pytest.mark.parametrize("n", sorted(SMALL))
def test_minima_agree_with_the_oracle_on_a_slice(n, kind):
    for b in census(n, SMALL[n]):
        minima = brute_minima(b, kind).minima
        assert successive_minima(b, kind).minima == minima, b
        if kind is NormKind.L2:
            norms = [measure(r, kind) for r in standardize_low_dim(b)]
            assert tuple(norms) == minima, b
