"""Differential tests: the probe pass and the floor's gates of a minima
search change no answer.

A minima search may first enumerate at the smallest norm of its n bounding
vectors and stop there when that pass holds n independent vectors.  Its
minima, witnesses and standardness certificates must equal those read off
one forced pass at the largest of those norms, the bound a one-pass search
starts from.  For dimensions <= 5 the brute-force
oracle pins the minima independently.

Under L1/Linf a pass at the least integer above the floor on lambda_n runs
first when that floor leaves room below the reduced rows' bound, and answers
when it holds n independent vectors; only otherwise do the L2 bounding
search, unless the raised floor meets that bound, and the probe run.  The whole result (minima, witnesses, the entries
of the pass and |det| of the witnesses) must equal that of a forced path
that makes the floor pass ungated, then always runs the L2 search and every
probe the norms' shape allows.  Against the same forced path without the
floor pass, the minima, witnesses and |det| of the witnesses must be equal,
and the entries must be the forced path's entries up to lambda_n.
"""

import random
from collections import Counter
from math import ceil

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from stdlattice import (
    LatticeBasis,
    NormKind,
    brute_minima,
    check_standard,
    enumeration,
    parity_lattice,
    standardness,
    successive_minima,
)
from stdlattice.enumeration import (
    DEFAULT_MAX_CANDIDATES,
    _minima_with_entries,
    _reduced_minima,
    _ReducedSearch,
    _sorted_norms,
)
from util import (
    apply_unimodular,
    minima_without_floor_pass,
    one_pass,
    pass_leaves,
    random_basis,
    random_unimodular,
    rank,
    reference_gso_rows,
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
        assume(rank(rows, n) == n)
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


def reference_floor_value(rows, kind):
    # The least integer >= ||b*||^2 / ||b*||_dual for the last Fraction
    # Gram-Schmidt vector of ``rows``, the dual norm being Linf for L1 and
    # L1 for Linf.
    _, bstar, bstar_sq = reference_gso_rows(rows)
    last = [abs(x) for x in bstar[-1]]
    return ceil(bstar_sq[-1] / (max(last) if kind is NormKind.L1 else sum(last)))


def always_l2_search(rows, kind, floor_pass=False):
    # No floor gates anything: the L2 search always runs and every probe the
    # shape allows is made, each pass without the Hoelder box.  With
    # ``floor_pass`` a pass at the least integer above the floor on lambda_n
    # comes first, and answers when it holds n independent vectors.
    search = unboxed_search(rows)
    if floor_pass:
        result = one_pass(search, kind, reference_floor_value(search.rows, kind))
        if len(result[0].minima) == len(rows):
            return result
    norms = _sorted_norms(search.rows, kind)
    l2 = ungated_minima(search, NormKind.L2, _sorted_norms(search.rows, NormKind.L2))[0]
    witness_norms = _sorted_norms(l2.witnesses, kind)
    if witness_norms[-1] < norms[-1]:
        norms = witness_norms
    return ungated_minima(search, kind, norms)


def assert_floor_changes_nothing(basis, kind):
    got = _minima_with_entries(basis.rows, kind)
    assert got == always_l2_search(basis.rows, kind, floor_pass=True)
    # Against the path without the floor pass, what callers read is equal,
    # and the entries are the reference's up to lambda_n.
    sm, entries, echelon = got
    ref_sm, ref_entries, ref_echelon = always_l2_search(basis.rows, kind)
    assert (sm, echelon) == (ref_sm, ref_echelon)
    assert entries == ref_entries[: len(entries)]
    assert all(e.norm.value > sm.minima[-1].value for e in ref_entries[len(entries) :])


@pytest.mark.parametrize("kind", [NormKind.L1, NormKind.LINF])
@pytest.mark.parametrize("n", range(1, 11))
def test_parity_floor_agrees_with_the_always_run_path(n, kind):
    assert_floor_changes_nothing(parity_lattice(n), kind)


@pytest.mark.parametrize(
    "kind, gates",
    [
        (NormKind.L1, {"no room": 12, "floor pass answered": 5, "L2 search ran": 11, "L2 search skipped": 8}),
        (NormKind.LINF, {"no room": 20, "floor pass answered": 8, "L2 search ran": 1, "L2 search skipped": 7}),
    ],
)
def test_seeded_floor_agrees_with_the_always_run_path(kind, gates, passes):
    # Every gate is exercised: some bases leave no room below N_n, and of
    # the rest the floor pass answers for some; when it does not, the L2
    # search runs for some and is skipped for others, whose raised floor
    # already meets N_n.
    rng = random.Random(20 + (kind is NormKind.LINF))
    seen = Counter()
    for n in range(1, 7):
        for _ in range(6):
            basis = apply_unimodular(random_unimodular(rng, n), random_basis(rng, n, -3, 3))
            passes.clear()
            _minima_with_entries(basis.rows, kind)
            top = max(_sorted_norms(unboxed_search(basis.rows).rows, kind))
            if passes[0][1] == top:
                seen["no room"] += 1
            elif len(passes) == 1:
                seen["floor pass answered"] += 1
            elif any(k is NormKind.L2 for k, _ in passes):
                seen["L2 search ran"] += 1
            else:
                seen["L2 search skipped"] += 1
            assert_floor_changes_nothing(basis, kind)
    assert seen == gates


@settings(max_examples=60, deadline=None)
@given(skewed_bases(), st.sampled_from([NormKind.L1, NormKind.LINF]))
def test_skewed_floor_agrees_with_the_always_run_path(basis, kind):
    assert_floor_changes_nothing(basis, kind)


@st.composite
def small_bases(draw):
    n = draw(st.integers(1, 7))
    entries = st.lists(st.integers(-3, 3), min_size=n, max_size=n)
    rows = draw(st.lists(entries, min_size=n, max_size=n))
    assume(rank(rows, n) == n)
    return LatticeBasis(rows)


@settings(max_examples=80, deadline=None)
@given(small_bases(), st.sampled_from([NormKind.L1, NormKind.LINF]))
def test_floor_pass_changes_no_answer(basis, kind):
    # The search starts with the pass at the least integer above the floor,
    # which is N_n itself when the floor leaves no room below it; the forced
    # path without that pass gives the same minima and certificates.
    made = []
    inner = enumeration._enumerate_rows
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(
            enumeration,
            "_enumerate_rows",
            lambda search, bound, k: made.append((bound.kind, bound.value)) or inner(search, bound, k),
        )
        sm = successive_minima(basis, kind)
    assert made[0] == (kind, reference_floor_value(unboxed_search(basis.rows).rows, kind))
    cert = check_standard(basis, kind) if basis.dim <= 5 else None
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(enumeration, "_reduced_minima", minima_without_floor_pass)
        assert successive_minima(basis, kind) == sm
        if cert is not None:
            assert check_standard(basis, kind) == cert


def floor_corpus():
    # 1,500 seeded bases of dims 2-7, uniform entries and skewed ones in
    # turn, the norm kind rotating.
    rng = random.Random(11)
    for i in range(1500):
        n = 2 + i % 6
        if i % 2:
            basis = apply_unimodular(random_unimodular(rng, n), random_basis(rng, n, -2, 2))
        else:
            basis = random_basis(rng, n, -3, 3)
        yield basis, list(NormKind)[i % 3]


def test_floor_pass_never_enlarges_the_largest_pass():
    # The floor pass lies below lambda_n, so its tree is a subset of the
    # last pass the search made without it; the leaf totals are pinned.
    totals = Counter()
    for basis, kind in floor_corpus():
        search = _ReducedSearch(basis.rows, kind)
        got, leaves = pass_leaves(lambda: _reduced_minima(search, kind, DEFAULT_MAX_CANDIDATES))
        ref, ref_leaves = pass_leaves(lambda: minima_without_floor_pass(search, kind))
        assert (got[0], got[2]) == (ref[0], ref[2])
        assert max(leaves) <= max(ref_leaves), (basis.rows, kind, leaves, ref_leaves)
        totals["leaves"] += sum(leaves)
        totals["passes"] += len(leaves)
        totals["largest pass fell"] += max(leaves) < max(ref_leaves)
        totals["reference leaves"] += sum(ref_leaves)
        totals["reference passes"] += len(ref_leaves)
    assert totals == {
        "leaves": 406_126,
        "passes": 1_917,
        "largest pass fell": 118,
        "reference leaves": 651_153,
        "reference passes": 2_102,
    }
