"""Differential tests of the yes/no tests on the echelon core.

``is_basis_of`` folds the candidate vectors into one echelon form, compares
the product of its pivots with |det| of the input basis, and divides every
input row down it.  The reference, ``util.reference_is_basis_of``, tests
each vector by a rounding walk over one Gram-Schmidt of the input and
compares a Bareiss determinant.  ``same_lattice`` and the membership and
independence checks of ``minima_witness_check`` run on the same fold; they
are compared with equality of Hermite forms, the rank of a
``util.RankTracker`` and ``member`` (a rounding walk).
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stdlattice import (
    DimensionMismatchError,
    LatticeBasis,
    NormKind,
    StructuralError,
    exactlin,
    hermite_form,
    is_basis_of,
    member,
    minima_witness_check,
    parity_lattice,
    same_lattice,
    successive_minima,
)
from stdlattice.enumeration import CheckResult, SuccessiveMinima
from util import (
    RankTracker,
    apply_unimodular,
    mat_mul,
    random_basis,
    random_unimodular,
    reference_is_basis_of,
)

# (name, expected answer or None where only the reference decides)
VARIANTS = [
    ("unimodular image", True),
    ("permuted and negated", True),
    ("one row doubled", False),
    ("one entry moved", None),
    ("column shear", None),
    ("repeated row", False),
    ("dependent row", False),
    ("zero row", False),
    ("another basis", None),
]


def variant(rng: random.Random, basis: LatticeBasis, name: str) -> list[list[int]]:
    n = basis.dim
    rows = [list(r) for r in apply_unimodular(random_unimodular(rng, n), basis).rows]
    i, j = rng.randrange(n), rng.randrange(n)
    if name == "permuted and negated":
        rows = [[-x for x in r] if rng.randrange(2) else list(r) for r in basis.rows]
        rng.shuffle(rows)
    elif name == "one row doubled":
        rows[i] = [2 * x for x in rows[i]]
    elif name == "one entry moved":
        rows[i][j] += rng.choice([-1, 1])
    elif name == "column shear":
        # Same |det|, and usually another lattice.
        shear = [[int(a == b) for b in range(n)] for a in range(n)]
        shear[i][j] += 0 if i == j else rng.choice([-1, 1])
        rows = [list(r) for r in mat_mul(rows, shear)]
    elif name == "repeated row":
        # In dimension 1 the only row repeats as the zero row.
        rows[i] = list(rows[(i + 1) % n]) if n > 1 else [0]
    elif name == "dependent row":
        cs = [rng.randint(-2, 2) for _ in range(n)]
        cs[i] = 0
        rows[i] = [sum(c * r[k] for c, r in zip(cs, rows)) for k in range(n)]
    elif name == "zero row":
        rows[i] = [0] * n
    elif name == "another basis":
        rows = [list(r) for r in random_basis(rng, n, -4, 4).rows]
    return rows


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 6), st.sampled_from(VARIANTS), st.booleans(), st.integers(0, 2**32 - 1))
def test_is_basis_of_agrees_with_the_rounding_walk(n, named, big, seed):
    name, expected = named
    rng = random.Random(seed)
    # Large entries make each insertion and division take several steps.
    basis = random_basis(rng, n, -(10**20), 10**20) if big else random_basis(rng, n, -4, 4)
    rows = variant(rng, basis, name)
    got = is_basis_of(rows, basis)
    assert got == reference_is_basis_of(rows, basis)
    if expected is not None:
        assert got is expected


@pytest.mark.parametrize(
    "vectors, rows, expected",
    [
        ([(1, 0), (0, 2)], [(2, 0), (0, 1)], False),
        ([(2, 0), (0, 1)], [(1, 0), (0, 2)], False),
        ([(1, 1), (0, 2)], [(1, 0), (0, 2)], False),
        ([(1, 0), (1, 2)], [(1, 0), (0, 2)], True),
        ([(0, 2), (1, 0)], [(1, 0), (0, 2)], True),
        ([(1, 0), (1, 0)], [(1, 0), (0, 1)], False),
        ([(0, 0), (0, 1)], [(1, 0), (0, 1)], False),
        ([(2, 0, 0), (0, 2, 0), (0, 0, 2)], [(2, 0, 0), (0, 2, 0), (1, 1, 1)], False),
    ],
)
def test_same_determinant_is_not_enough(vectors, rows, expected):
    basis = LatticeBasis(rows)
    assert is_basis_of(vectors, basis) is expected
    assert reference_is_basis_of(vectors, basis) is expected


@pytest.mark.parametrize(
    "vectors, error",
    [
        ([(1, 0)], DimensionMismatchError),
        ([(1, 0), (0, 1), (1, 1)], DimensionMismatchError),
        ([(1, 0), (0, 1, 0)], DimensionMismatchError),
        ([(1, 0), (True, 1)], StructuralError),
        ([(1, 0), (0.5, 1)], StructuralError),
        (5, StructuralError),
    ],
)
def test_is_basis_of_raises_what_the_reference_raises(vectors, error):
    basis = LatticeBasis([[1, 0], [0, 1]])
    with pytest.raises(error) as got:
        is_basis_of(vectors, basis)
    with pytest.raises(error) as expected:
        reference_is_basis_of(vectors, basis)
    assert str(got.value) == str(expected.value)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 6), st.sampled_from(VARIANTS), st.integers(0, 2**32 - 1))
def test_same_lattice_is_equality_of_hermite_forms(n, named, seed):
    rng = random.Random(seed)
    b = random_basis(rng, n, -4, 4)
    rows = variant(rng, b, named[0])
    try:
        c = LatticeBasis(rows)
    except StructuralError:
        return
    expected = hermite_form(b.rows).h == hermite_form(c.rows).h
    assert same_lattice(b, c) is expected
    assert same_lattice(c, b) is expected


P4 = parity_lattice(4)
L2_WITNESSES = ((0, 0, 0, 2), (0, 0, 2, 0), (0, 2, 0, 0), (1, -1, -1, -1))


@pytest.mark.parametrize(
    "witnesses, problems",
    [
        (L2_WITNESSES, ()),
        (
            ((1, 0, 0, 1),) + L2_WITNESSES[1:],
            ("witness 1 is not a lattice point", "witness 1 has norm 2, certificate says 4"),
        ),
        (
            ((3, 1, 0, 0),) + L2_WITNESSES[1:],
            ("witness 1 is not a lattice point", "witness 1 has norm 10, certificate says 4"),
        ),
        (
            L2_WITNESSES[:1] + ((0, 0, 4, 0),) + L2_WITNESSES[2:],
            ("witness 2 has norm 16, certificate says 4",),
        ),
        (
            L2_WITNESSES[:1] * 2 + L2_WITNESSES[2:],
            ("witnesses are linearly dependent",),
        ),
        (
            L2_WITNESSES[:3] + ((0, 0, 2, 2),),
            ("witness 4 has norm 8, certificate says 4", "witnesses are linearly dependent"),
        ),
        (
            L2_WITNESSES[:3] + ((0, 0, 0, 0),),
            ("witness 4 has norm 0, certificate says 4", "witnesses are linearly dependent"),
        ),
    ],
)
def test_witness_check_on_tampered_certificates(witnesses, problems):
    sm = successive_minima(P4, NormKind.L2)
    assert sm.witnesses == L2_WITNESSES
    got = minima_witness_check(P4, SuccessiveMinima(NormKind.L2, sm.minima, witnesses))
    assert got == CheckResult(not problems, problems)


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 5), st.sampled_from(VARIANTS), st.integers(0, 2**32 - 1))
def test_witness_check_membership_and_rank_match_the_rounding_walk(n, named, seed):
    rng = random.Random(seed)
    basis = random_basis(rng, n, -3, 3)
    sm = successive_minima(basis, NormKind.L2)
    witnesses = tuple(map(tuple, variant(rng, basis, named[0])))
    problems = minima_witness_check(basis, SuccessiveMinima(NormKind.L2, sm.minima, witnesses)).problems
    for i, w in enumerate(witnesses):
        assert (f"witness {i + 1} is not a lattice point" in problems) is (member(basis, w) is None)
    tracker = RankTracker()
    independent = all(tracker.add(w) for w in witnesses)
    assert ("witnesses are linearly dependent" in problems) is not independent


def test_witness_check_keeps_refusing_a_non_int_entry():
    sm = successive_minima(P4, NormKind.L2)
    bad = SuccessiveMinima(NormKind.L2, sm.minima, ((0, 0, 0, 2.0),) + sm.witnesses[1:])
    with pytest.raises(StructuralError, match="matrix entries must be integers"):
        minima_witness_check(P4, bad)


def test_echelon_helpers_divide_exactly():
    echelon = exactlin._echelon_of([(2, 0, 0), (0, 2, 0), (1, 1, 1)], 3)
    assert sorted(echelon) == [0, 1, 2]
    assert exactlin._in_echelon(echelon, (3, 1, 1))
    assert not exactlin._in_echelon(echelon, (1, 0, 0))
    # A nonzero entry under a column with no pivot.
    assert not exactlin._in_echelon(exactlin._echelon_of([(1, 0, 0)], 3), (0, 0, 1))
