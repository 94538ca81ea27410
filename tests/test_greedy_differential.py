"""Differential tests of the greedy witness scan.

``enumeration._greedy_minima`` folds each vector into a copy of the kept
vectors' echelon form and returns that form, whose pivots multiply to |det|
of the witnesses.  The reference, ``util.reference_greedy_minima``, keeps a
``RankTracker`` and reads the gcd of the witnesses' maximal minors.  Both
must keep the same witnesses, so the same minima, and give the same |det|
once the witnesses are full, on real enumeration passes and on integer
lists full of repeated and dependent vectors.  The echelon form must span
exactly the witnesses, since the root generation test continues it.
"""

import math
import random

from hypothesis import given, settings
from hypothesis import strategies as st

from stdlattice import NormKind, enumeration, exactlin, hnf_nonzero_rows, measure
from stdlattice.enumeration import MeasuredVector, _greedy_minima
from util import random_basis, reference_greedy_minima


def pivot_product(echelon):
    return math.prod(row[c] for c, row in echelon.items())


def assert_same_scan(entries, want):
    got = _greedy_minima(entries, want)
    expected = reference_greedy_minima(entries, want)
    assert got[:2] == expected[:2]
    witnesses, echelon = got[1:]
    assert len(echelon) == len(witnesses)
    if witnesses:
        assert hnf_nonzero_rows(list(echelon.values())) == hnf_nonzero_rows(witnesses)
    if len(witnesses) == want:
        assert pivot_product(echelon) == expected[2]


def measured(vectors):
    return [MeasuredVector(tuple(v), measure(tuple(v), NormKind.L2)) for v in vectors]


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 7), st.sampled_from(list(NormKind)), st.integers(0, 2**32 - 1))
def test_scan_agrees_with_the_rank_tracker_on_enumeration_passes(n, kind, seed):
    rng = random.Random(seed)
    basis = random_basis(rng, n, -3, 3)
    _, entries, echelon = enumeration._minima_with_entries(basis.rows, kind)
    assert_same_scan(entries, n)
    assert pivot_product(echelon) == reference_greedy_minima(entries, n)[2]
    # A prefix of the pass stops short of full rank: the witnesses so far
    # must still agree.
    assert_same_scan(entries[: len(entries) // 2], n)


@st.composite
def dependent_lists(draw):
    """(vectors, n): integer combinations, coefficients in [-2, 2], of at
    most n generators in Z^n, with some vectors repeated, so most of the
    list is dependent on what comes before it."""
    n = draw(st.integers(1, 5))
    entries = st.integers(-4, 4)
    gens = draw(st.lists(st.lists(entries, min_size=n, max_size=n), min_size=1, max_size=n))
    coeffs = st.lists(st.integers(-2, 2), min_size=len(gens), max_size=len(gens))
    combos = [
        [sum(c * g[j] for c, g in zip(cs, gens)) for j in range(n)]
        for cs in draw(st.lists(coeffs, min_size=1, max_size=3 * n + 3))
    ]
    picks = draw(st.lists(st.integers(0, len(combos) - 1), max_size=2 * n))
    vectors = combos + [combos[i] for i in picks]
    order = draw(st.permutations(range(len(vectors))))
    return [vectors[i] for i in order], n


@settings(max_examples=300, deadline=None)
@given(dependent_lists())
def test_scan_agrees_with_the_rank_tracker_on_dependent_lists(case):
    vectors, n = case
    assert_same_scan(measured(vectors), n)


def test_dependent_vector_leaves_the_witness_echelon_alone():
    # (1, 0) is dependent on (2, 0), but folding it into the echelon would
    # make 1 the first pivot: the pivots would describe the lattice of every
    # vector scanned, not of the witnesses.
    entries = measured([(2, 0), (1, 0), (0, 1)])
    minima, witnesses, echelon = _greedy_minima(entries, 2)
    assert witnesses == [(2, 0), (0, 1)]
    assert [nv.value for nv in minima] == [4, 1]
    assert pivot_product(echelon) == 2 == reference_greedy_minima(entries, 2)[2]
    in_place: dict = {}
    for vec, _ in entries:
        exactlin._echelon_insert(in_place, vec, 2)
    assert in_place[0][0] * in_place[1][1] == 1
