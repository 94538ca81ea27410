"""Edge cases: arbitrary-precision inputs, empty enumerations, degenerate
arguments, and family dimensions beyond the default table."""

import random
from fractions import Fraction

import pytest

from stdlattice import (
    InputError,
    LatticeBasis,
    StructuralError,
    NormKind,
    NormValue,
    Verdict,
    check_standard,
    enumerate_short,
    enumeration,
    gso,
    is_basis_of,
    hermite_form,
    measure,
    member,
    min_translate,
    minima_witness_check,
    nearest_plane,
    parity_lattice,
    reduce_2d,
    same_lattice,
    section_lattice,
    standardize_low_dim,
    successive_minima,
    verify_family,
)
from util import cofactor_det, mat_mul, random_basis, reference_solve


BIG = 10**30


class TestArbitraryPrecision:
    def test_determinant_of_huge_entries(self):
        b = LatticeBasis([[BIG, 1], [1, BIG]])
        assert b.det == BIG * BIG - 1
        assert cofactor_det(b.rows) == BIG * BIG - 1

    def test_hermite_round_trip_huge(self):
        m = [[BIG, BIG + 1], [2 * BIG, BIG - 1]]
        h, u = hermite_form(m)
        assert mat_mul(u, m) == h
        assert abs(cofactor_det(u)) == 1

    def test_minima_of_huge_diagonal(self):
        b = LatticeBasis([[BIG, 0], [0, 2 * BIG]])
        sm = successive_minima(b, NormKind.L2)
        assert [nv.value for nv in sm.minima] == [BIG * BIG, 4 * BIG * BIG]
        sm1 = successive_minima(b, NormKind.L1)
        assert [nv.value for nv in sm1.minima] == [BIG, 2 * BIG]

    def test_member_with_huge_coefficients(self):
        b = LatticeBasis([[2, 1], [0, 3]])
        coeffs = (BIG, -(BIG + 7))
        v = tuple(coeffs[0] * b.rows[0][j] + coeffs[1] * b.rows[1][j] for j in range(2))
        assert member(b, v) == coeffs

    def test_nearest_plane_huge_scale(self):
        b = LatticeBasis([[BIG, 0], [0, BIG]])
        res = nearest_plane(b, [Fraction(BIG, 2), Fraction(BIG, 2)])
        assert res.dist_sq == Fraction(BIG * BIG, 2)
        assert res.at_equality

    def test_gso_gram_identity_huge(self):
        b = LatticeBasis([[BIG, 1, 0], [3, BIG, 2], [0, 5, BIG]])
        data = gso(b)
        prod = 1
        for sq in data.bstar_sq:
            prod *= sq
        assert prod == b.det ** 2


class TestDegenerateArguments:
    def test_enumeration_below_lambda1_is_empty(self):
        b = LatticeBasis([[3, 0], [0, 3]])
        out = enumerate_short(b, NormKind.L2, NormValue(NormKind.L2, 8))
        assert out.entries == ()

    def test_enumeration_bound_exactly_lambda1(self):
        b = LatticeBasis([[3, 0], [0, 3]])
        out = enumerate_short(b, NormKind.L2, NormValue(NormKind.L2, 9))
        assert out.vectors == ((0, 3), (3, 0))

    def test_min_translate_zero_candidate(self):
        assert min_translate((0, 0), (4, 1), NormKind.L1) == 0

    def test_min_translate_collinear(self):
        # candidate is a multiple of the translator: exact cancellation
        assert min_translate((6, 3), (2, 1), NormKind.L2) == -3

    def test_dimension_one_everything(self):
        b = LatticeBasis([[-9]])
        assert b.det == -9
        sm = successive_minima(b, NormKind.LINF)
        assert [nv.value for nv in sm.minima] == [9]
        cert = check_standard(b, NormKind.L2)
        assert cert.verdict is Verdict.STANDARD
        assert cert.basis == ((9,),)

    def test_section_of_2d_lattice_is_saturated(self):
        rng = random.Random(2024)
        for _ in range(20):
            b = random_basis(rng, 3, -4, 4)
            sm = successive_minima(b, NormKind.L2)
            sec = section_lattice(b, sm.witnesses[:2])
            sec_basis_3 = list(sec)
            # every small lattice point lying on the witness plane must be an
            # integer combination of the section rows (saturation)
            normal = None
            for vec, _ in enumerate_short(b, NormKind.LINF, NormValue(NormKind.LINF, 3)).entries:
                x = reference_solve(sm.witnesses[:2], vec)
                on_plane = x is not None
                if on_plane:
                    y = reference_solve(sec_basis_3, vec)
                    assert y is not None and all(c.denominator == 1 for c in y)


class TestBeyondDefaultTable:
    def test_parity_family_dimension_nine_l2(self):
        cert = check_standard(parity_lattice(9), NormKind.L2)
        assert cert.verdict is Verdict.NON_STANDARD

    def test_same_lattice_after_row_shuffles_high_dim(self):
        b = parity_lattice(7)
        rows = list(b.rows)
        rows[0], rows[5] = rows[5], rows[0]
        rows[2] = tuple(a + 2 * c for a, c in zip(rows[2], rows[3]))
        assert same_lattice(b, LatticeBasis(rows))

    def test_reduce_2d_huge_shear(self):
        b = LatticeBasis([[1, 0], [BIG, 1]])
        red = reduce_2d(b, NormKind.L2)
        assert [nv.value for nv in red.norms] == [1, 1]
        red1 = reduce_2d(b, NormKind.L1)
        assert [nv.value for nv in red1.norms] == [1, 1]


P3_MINIMA = successive_minima(parity_lattice(3), NormKind.L2)

CEILING_CALLS = {
    "successive_minima": lambda **kw: successive_minima(parity_lattice(3), NormKind.L2, **kw),
    "check_standard": lambda **kw: check_standard(parity_lattice(3), NormKind.L1, **kw),
    "standardize_low_dim": lambda **kw: standardize_low_dim(parity_lattice(3), **kw),
    "enumerate_short": lambda **kw: enumerate_short(
        parity_lattice(3), NormKind.L2, NormValue(NormKind.L2, 4), **kw
    ),
    "verify_family": lambda **kw: verify_family(3, NormKind.L2, **kw),
    "minima_witness_check": lambda **kw: minima_witness_check(parity_lattice(3), P3_MINIMA, **kw),
}


class TestHostileScalars:
    @pytest.mark.parametrize("value", [0, -5, True, 2.5])
    @pytest.mark.parametrize(
        "call, ceiling",
        [(c, "max_candidates") for c in CEILING_CALLS]
        + [(c, "max_dim") for c in CEILING_CALLS if c != "standardize_low_dim"],
    )
    def test_bad_ceiling_is_an_input_error_before_lll(self, monkeypatch, call, ceiling, value):
        # These used to raise ResourceLimitError ("enumeration exceeded -5
        # candidate evaluations", "configured cap True") as if a real
        # ceiling had been reached.
        def no_lll(rows):
            raise AssertionError("LLL ran under a bad ceiling")

        monkeypatch.setattr(enumeration, "_lll_rows", no_lll)
        with pytest.raises(InputError, match=f"{ceiling} must be a positive integer, got {value!r}"):
            CEILING_CALLS[call](**{ceiling: value})

    def test_boolean_entries_are_refused(self):
        # True and False are ints to Python, but not lattice coordinates:
        # [[True, False], [False, True]] used to be read as the identity.
        identity = LatticeBasis([[1, 0], [0, 1]])
        refusals = [
            lambda: LatticeBasis([[True, False], [False, True]]),
            lambda: LatticeBasis([[2, 0], [1, True]]),
            lambda: member(identity, (True, 0)),
            lambda: is_basis_of([(1, 0), (False, 1)], identity),
            lambda: section_lattice(identity, [(True, 0)]),
        ]
        for refuse in refusals:
            with pytest.raises(StructuralError, match="matrix entries must be integers"):
                refuse()
