"""Differential tests of the standardness decision.

Against a from-scratch tuple search over oracle-enumerated candidates:
check_standard prunes with kernel steps and determinant divisors; this
oracle does none of that, it just tries every index-monotone tuple of
minimum-norm vectors and asks whether any has the right determinant.  The
verdicts must agree on every instance, and when both say Standard the
certified basis must have exactly the minima norms.

Against itself with the root generation test always run, on the whole
union of the levels folded from an empty echelon form: skipping that test
when the greedy witnesses are a basis, and reading the certificate off them
in place of the backtrack, must change no certificate and no ceiling
message; and where the test runs, continuing the greedy scan's echelon form
with the level vectors that are not witnesses must decide as the whole
union does.

The root generation test itself, on vectors drawn from a lattice of known
covolume, some of them folded into an echelon form first, against the
Hermite form of all of them at once.

The backtrack, forced on a lattice's own levels, against the reference
backtrack on one ``util.RankTracker`` undone by ``pop``: the same first
basis or None, the same nodes and the same ceiling message.
"""

import math
import random

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from stdlattice import (
    LatticeBasis,
    NormKind,
    ResourceLimitError,
    SearchStats,
    StandardnessCertificate,
    Verdict,
    check_standard,
    enumeration,
    exactlin,
    hnf_nonzero_rows,
    measure,
    parity_lattice,
    standardness,
)
from util import (
    D4_QUATERNIONS,
    NON_STANDARD_L1_4D_FULL_POOL,
    apply_unimodular,
    brute_standard,
    d4_type_bases,
    deep_backtrack_l1_rows,
    identity_basis,
    mat_mul,
    random_basis,
    random_unimodular,
    rank,
    reference_backtrack,
)


# Random integer lattices are almost always standard; these L1 instances
# (found by sweep, frozen here) are genuinely non-standard and lie outside
# the parity family.
NON_STANDARD_L1_3D = [
    ((0, -4, -4), (-1, -4, 1), (-3, -2, -2)),
    ((-2, 4, 3), (2, 3, -4), (2, -3, 4)),
]


def test_verdicts_agree_on_random_small_lattices():
    rng = random.Random(777)
    standard_seen = 0
    for _ in range(60):
        n = rng.randint(2, 3)
        b = random_basis(rng, n, -4, 4)
        kind = rng.choice(list(NormKind))
        cert = check_standard(b, kind)
        expected = brute_standard(b, kind)
        assert cert.verdict is expected, (b.rows, kind)
        if cert.verdict is Verdict.STANDARD:
            standard_seen += 1
            got = [measure(r, kind).value for r in cert.basis]
            assert got == [nv.value for nv in cert.minima.minima]
    assert standard_seen > 0


def test_frozen_non_standard_instances():
    for rows in NON_STANDARD_L1_3D:
        b = LatticeBasis(rows)
        assert check_standard(b, NormKind.L1).verdict is Verdict.NON_STANDARD
        assert brute_standard(b, NormKind.L1) is Verdict.NON_STANDARD


def test_non_standard_instances_with_a_generating_pool_exhaust_the_backtrack():
    for rows, minima, nodes in NON_STANDARD_L1_4D_FULL_POOL:
        b = LatticeBasis(rows)
        cert = check_standard(b, NormKind.L1)
        assert cert.verdict is Verdict.NON_STANDARD
        assert [nv.value for nv in cert.minima.minima] == list(minima)
        assert cert.stats.nodes_explored == nodes
        assert brute_standard(b, NormKind.L1) is Verdict.NON_STANDARD


def test_non_standardness_is_presentation_independent():
    rng = random.Random(31337)
    targets = [
        LatticeBasis(NON_STANDARD_L1_3D[0]),
        parity_lattice(3),
        LatticeBasis(NON_STANDARD_L1_4D_FULL_POOL[0][0]),
    ]
    for base in targets:
        for _ in range(5):
            disguised = apply_unimodular(random_unimodular(rng, base.dim), base)
            cert = check_standard(disguised, NormKind.L1)
            assert cert.verdict is Verdict.NON_STANDARD
            assert brute_standard(disguised, NormKind.L1) is Verdict.NON_STANDARD


def forced_root_test(basis, kind, max_candidates=enumeration.DEFAULT_MAX_CANDIDATES):
    """(certificate, root decision) of ``check_standard`` with the root
    generation test always run, on the whole union of the levels folded from
    an empty echelon form, and the backtrack after it exactly when the union
    generates the lattice.  The enumeration keeps its default ceiling, so
    only the backtrack's nodes meet ``max_candidates``."""
    sm, entries, _ = enumeration._minima_with_entries(basis.rows, kind)
    pool = {}
    for vec, nv in entries:
        pool.setdefault(nv.value, []).append(vec)
    levels = [pool.get(nv.value, []) for nv in sm.minima]
    sizes = tuple(map(len, levels))
    union = [v for value in dict.fromkeys(nv.value for nv in sm.minima) for v in pool[value]]
    if not standardness._generates({}, union, basis.dim, abs(basis.det)):
        return StandardnessCertificate(Verdict.NON_STANDARD, None, sm, SearchStats(sizes, 1)), False
    found, nodes = standardness._backtrack(levels, sm, abs(basis.det), max_candidates)
    verdict = Verdict.NON_STANDARD if found is None else Verdict.STANDARD
    return StandardnessCertificate(verdict, found, sm, SearchStats(sizes, nodes)), True


def assert_skip_changes_nothing(basis, kind):
    """The certificate with the root test skipped on a witness basis equals
    the one with the root test forced, nodes included, and the skip happens
    exactly when the witnesses have the lattice's |det|.  A skipped check
    reads its certificate off the witnesses and runs no backtrack; a check
    that runs the root test, on the greedy scan's echelon form, decides as
    the forced test on the whole union does and runs the backtrack exactly
    when it passes."""
    roots = []
    backtracks = []
    inner = standardness._generates
    inner_backtrack = standardness._backtrack

    def counted(echelon, vectors, n, det):
        roots.append((n, inner(echelon, vectors, n, det)))
        return roots[-1][1]

    def counted_backtrack(*args):
        backtracks.append(args)
        return inner_backtrack(*args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(standardness, "_generates", counted)
        mp.setattr(standardness, "_backtrack", counted_backtrack)
        cert = check_standard(basis, kind)
        skipped = not roots
        assert len(backtracks) == sum(generated for _, generated in roots)
    forced, generated = forced_root_test(basis, kind)
    assert roots in ([], [(basis.dim, generated)])
    assert cert == forced
    witnesses = LatticeBasis(cert.minima.witnesses)
    assert skipped == (abs(witnesses.det) == abs(basis.det))
    if skipped:
        assert cert.verdict is Verdict.STANDARD


@settings(max_examples=60, deadline=None)
@given(st.data(), st.sampled_from(list(NormKind)))
def test_skipping_the_root_test_changes_no_certificate(data, kind):
    n = data.draw(st.integers(2, 6))
    entries = st.lists(st.integers(-3, 3), min_size=n, max_size=n)
    rows = data.draw(st.lists(entries, min_size=n, max_size=n))
    assume(rank(rows, n) == n)
    assert_skip_changes_nothing(LatticeBasis(rows), kind)


@pytest.mark.parametrize("kind", list(NormKind))
@pytest.mark.parametrize("n", range(2, 11))
def test_skipping_the_root_test_changes_no_parity_certificate(n, kind):
    assert_skip_changes_nothing(parity_lattice(n), kind)


@pytest.mark.parametrize("q", D4_QUATERNIONS)
def test_skipping_the_root_test_changes_no_d4_type_certificate(q):
    for basis in d4_type_bases(q):
        assert_skip_changes_nothing(basis, NormKind.L2)


def minima_at_the_default_ceiling(rows, kind, max_candidates):
    # The enumeration keeps its default ceiling, so only the standardness
    # nodes meet ``max_candidates``.
    return enumeration._minima_with_entries(rows, kind)


def witness_basis_cases():
    """Z^3..Z^5 under Linf and the first eight random lattices whose greedy
    witnesses are a basis that the backtrack reaches only after passing
    over candidates, so more nodes than basis vectors."""
    cases = [(identity_basis(n), NormKind.LINF) for n in (3, 4, 5)]
    rng = random.Random(4242)
    while len(cases) < 11:
        n = rng.randint(2, 5)
        kind = rng.choice(list(NormKind))
        b = random_basis(rng, n, -3, 3)
        cert = check_standard(b, kind)
        if abs(LatticeBasis(cert.minima.witnesses).det) == abs(b.det):
            if cert.stats.nodes_explored > n:
                cases.append((b, kind))
    return cases


@pytest.mark.parametrize("basis, kind", witness_basis_cases())
def test_witness_certificates_stop_where_the_backtrack_stops(basis, kind):
    # Below the backtrack's node count both routes raise the same message,
    # naming the same number of chosen basis vectors; at it both answer.
    nodes = check_standard(basis, kind).stats.nodes_explored
    assert nodes > basis.dim
    for ceiling in range(1, nodes + 1):
        outcomes = []
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(standardness, "_minima_with_entries", minima_at_the_default_ceiling)
            try:
                outcomes.append(check_standard(basis, kind, max_candidates=ceiling))
            except ResourceLimitError as exc:
                outcomes.append(str(exc))
        try:
            outcomes.append(forced_root_test(basis, kind, ceiling)[0])
        except ResourceLimitError as exc:
            outcomes.append(str(exc))
        assert outcomes[0] == outcomes[1], ceiling
        assert isinstance(outcomes[0], str) == (ceiling < nodes)


PRIME_FACTORS = {1: [], 2: [2], 3: [3], 4: [2, 2], 6: [2, 3], 8: [2, 2, 2]}


@st.composite
def vectors_in_a_lattice(draw):
    """(vectors, n, det, k): 1 to 2n + 2 integer combinations, coefficients
    in [-3, 3], of the rows of an upper triangular basis of covolume det, so
    the vectors lie in a lattice of covolume det, as ``_generates`` asks,
    and how many of them to fold into an echelon form first."""
    n = draw(st.integers(1, 6))
    det = draw(st.sampled_from(sorted(PRIME_FACTORS)))
    diagonal = [1] * n
    for p in PRIME_FACTORS[det]:
        diagonal[draw(st.integers(0, n - 1))] *= p
    entries = st.integers(-3, 3)
    basis = [
        [0] * i + [diagonal[i]] + draw(st.lists(entries, min_size=n - i - 1, max_size=n - i - 1))
        for i in range(n)
    ]
    coeffs = draw(
        st.lists(st.lists(entries, min_size=n, max_size=n), min_size=1, max_size=2 * n + 2)
    )
    vectors = list(mat_mul(coeffs, basis))
    return vectors, n, det, draw(st.integers(0, len(vectors)))


@settings(max_examples=300, deadline=None)
@given(vectors_in_a_lattice())
def test_generation_test_agrees_with_the_hermite_form(case):
    # The reference takes the Hermite form of all the vectors at once: they
    # generate the lattice iff it has n rows whose pivots multiply to det.
    # The test decides the same from an empty echelon form and from the
    # echelon form of the first k vectors, continued with the rest.
    vectors, n, det, k = case
    h = hnf_nonzero_rows(vectors)
    expected = len(h) == n and math.prod(h[i][i] for i in range(n)) == det
    assert standardness._generates({}, vectors, n, det) is expected
    echelon = exactlin._echelon_of(vectors[:k], n)
    assert standardness._generates(echelon, vectors[k:], n, det) is expected


@st.composite
def hermite_form_lattices(draw):
    """A lattice given by its row Hermite form: dimension 2..5, diagonal
    entries 1..6, each entry above a pivot in [0, pivot)."""
    n = draw(st.integers(2, 5))
    diag = draw(st.lists(st.integers(1, 6), min_size=n, max_size=n))
    rows = [[0] * i + [diag[i]] + [0] * (n - i - 1) for i in range(n)]
    for j in range(1, n):
        for i in range(j):
            rows[i][j] = draw(st.integers(0, diag[j] - 1))
    return LatticeBasis(rows)


def backtrack_outcome(backtrack, *args):
    try:
        return backtrack(*args)
    except ResourceLimitError as exc:
        return str(exc)


# Random Hermite forms are nearly always Standard; the examples exhaust it.
@settings(max_examples=200, deadline=None)
@given(hermite_form_lattices(), st.sampled_from(list(NormKind)))
@example(LatticeBasis(NON_STANDARD_L1_4D_FULL_POOL[0][0]), NormKind.L1)
@example(LatticeBasis(NON_STANDARD_L1_4D_FULL_POOL[1][0]), NormKind.L1)
@example(LatticeBasis(deep_backtrack_l1_rows(3)), NormKind.L1)
def test_backtrack_matches_the_rank_tracker_reference(basis, kind):
    sm, entries, _ = enumeration._minima_with_entries(basis.rows, kind)
    pool = {}
    for vec, nv in entries:
        pool.setdefault(nv.value, []).append(vec)
    levels = [pool.get(nv.value, []) for nv in sm.minima]
    for ceiling in (enumeration.DEFAULT_MAX_CANDIDATES, 3):
        args = (levels, sm, abs(basis.det), ceiling)
        got = backtrack_outcome(standardness._backtrack, *args)
        assert got == backtrack_outcome(reference_backtrack, *args)
