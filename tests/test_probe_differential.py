"""Differential tests: the probe pass and the floor's gates of a minima
search change no answer.

A minima search may first enumerate at the smallest norm of its n bounding
vectors and stop there when that pass holds n independent vectors.  Its
minima, witnesses and standardness certificates must equal those read off
one forced pass at the largest of those norms, the bound a one-pass search
starts from.  For dimensions <= 5 the brute-force
oracle pins the minima independently.

Under L1/Linf the L2 bounding search runs, and the probe runs, only when the
floor on lambda_n says they can lower the bound.  The whole result (minima,
witnesses, the entries of the pass and |det| of the witnesses) must equal
that of a forced path that always runs the L2 search and every probe the
norms' shape allows.
"""

import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from stdlattice import (
    LatticeBasis,
    NormKind,
    brute_minima,
    check_standard,
    parity_lattice,
    standardness,
    successive_minima,
)
from stdlattice.enumeration import DEFAULT_MAX_CANDIDATES, _minima_with_entries, _sorted_norms
from stdlattice.exactlin import rank_of_rows
from util import (
    apply_unimodular,
    one_pass,
    random_basis,
    random_unimodular,
    single_pass_bounds,
    unboxed_search,
)


def forced_single_pass(rows, kind, max_candidates=DEFAULT_MAX_CANDIDATES):
    # One pass at the one-pass bound, without the Hoelder box, so the box is
    # checked here too.
    return one_pass(unboxed_search(rows), kind, single_pass_bounds(rows, kind)[kind], max_candidates)


def assert_probe_changes_nothing(basis, kind):
    sm = successive_minima(basis, kind)
    cert = check_standard(basis, kind)
    assert sm == forced_single_pass(basis.rows, kind)[0]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(standardness, "_minima_with_entries", forced_single_pass)
        assert check_standard(basis, kind) == cert
    if basis.dim <= 5:
        assert brute_minima(basis, kind) == sm


@pytest.mark.parametrize("kind", list(NormKind))
@pytest.mark.parametrize("n", range(2, 11))
def test_parity_probe_agrees_with_one_pass(n, kind):
    assert_probe_changes_nothing(parity_lattice(n), kind)


@st.composite
def skewed_bases(draw):
    """A random basis, or one of a congruence lattice {x : a.x = 0 mod q},
    whose reduced rows often share their top norm as the parity lattice's
    do; then skewed by elementary row operations."""
    n = draw(st.integers(2, 6))
    if draw(st.booleans()):
        entries = st.lists(st.integers(-3, 3), min_size=n, max_size=n)
        rows = [list(r) for r in draw(st.lists(entries, min_size=n, max_size=n))]
        assume(rank_of_rows(rows) == n)
    else:
        q = draw(st.integers(2, 4))
        a = [1] + draw(st.lists(st.integers(0, q - 1), min_size=n - 1, max_size=n - 1))
        rows = [[q] + [0] * (n - 1)]
        rows += [[-a[i]] + [int(j == i) for j in range(1, n)] for i in range(1, n)]
    for _ in range(draw(st.integers(0, 8))):
        i = draw(st.integers(0, n - 1))
        j = draw(st.integers(0, n - 1))
        if i != j:
            c = draw(st.sampled_from([-3, -2, -1, 1, 2, 3]))
            rows[i] = [x + c * y for x, y in zip(rows[i], rows[j])]
    return LatticeBasis(rows)


@settings(max_examples=80, deadline=None)
@given(skewed_bases(), st.sampled_from(list(NormKind)))
def test_skewed_probe_agrees_with_one_pass(basis, kind):
    assert_probe_changes_nothing(basis, kind)


def ungated_minima(search, kind, norms):
    # A probe at N_1 whenever the norms' shape allows, then the pass at N_n.
    probe = [norms[0]] if norms[0] < norms[-1] == norms[-2] else []
    for value in probe + [norms[-1]]:
        result = one_pass(search, kind, value)
        if len(result[0].minima) == len(norms):
            return result


def always_l2_search(rows, kind):
    # No floor gates anything: the L2 search always runs and every probe the
    # shape allows is made, each pass without the Hoelder box.
    search = unboxed_search(rows)
    norms = _sorted_norms(search.rows, kind)
    l2 = ungated_minima(search, NormKind.L2, _sorted_norms(search.rows, NormKind.L2))[0]
    witness_norms = _sorted_norms(l2.witnesses, kind)
    if witness_norms[-1] < norms[-1]:
        norms = witness_norms
    return ungated_minima(search, kind, norms)


def assert_floor_changes_nothing(basis, kind):
    assert _minima_with_entries(basis.rows, kind) == always_l2_search(basis.rows, kind)


@pytest.mark.parametrize("kind", [NormKind.L1, NormKind.LINF])
@pytest.mark.parametrize("n", range(1, 11))
def test_parity_floor_agrees_with_the_always_run_path(n, kind):
    assert_floor_changes_nothing(parity_lattice(n), kind)


@pytest.mark.parametrize("kind", [NormKind.L1, NormKind.LINF])
def test_seeded_floor_agrees_with_the_always_run_path(kind, passes):
    # Both gates are exercised: some bases skip the L2 search, some run it.
    rng = random.Random(20 + (kind is NormKind.LINF))
    ran = set()
    for n in range(1, 7):
        for _ in range(6):
            basis = apply_unimodular(random_unimodular(rng, n), random_basis(rng, n, -3, 3))
            passes.clear()
            got = _minima_with_entries(basis.rows, kind)
            ran.add(passes[0][0] is NormKind.L2)
            assert got == always_l2_search(basis.rows, kind)
    assert ran == {False, True}


@settings(max_examples=60, deadline=None)
@given(skewed_bases(), st.sampled_from([NormKind.L1, NormKind.LINF]))
def test_skewed_floor_agrees_with_the_always_run_path(basis, kind):
    assert_floor_changes_nothing(basis, kind)
