"""Behaviour every public result record keeps: its exact repr (which the
benchmark digest hashes), read-only fields, equal instances hashing alike,
and the few rules some records add (nonnegative and same-kind NormValue,
falsy failed CheckResult)."""

from fractions import Fraction

import pytest

from stdlattice import (
    CheckResult,
    LatticeBasis,
    NormKind,
    NormValue,
    brute_cvp,
    check_standard,
    coefficient_box,
    enumerate_short,
    equality_case_analyze,
    gso,
    hermite_form,
    minima_witness_check,
    nearest_plane,
    reduce_2d,
    successive_minima,
    verify_family,
)

L1, L2 = NormKind.L1, NormKind.L2
B = LatticeBasis([[2, 0], [1, 3]])
TARGET = [Fraction(1, 2), Fraction(5, 3)]


def nv(kind, value):
    return f"NormValue(kind=<NormKind.{kind}: '{kind.lower()}'>, value={value})"


# (record name, function that makes one instance, field names in order, exact repr)
RECORDS = [
    ("NormValue", lambda: NormValue(L2, 5), ("kind", "value"), nv("L2", 5)),
    (
        "MeasuredVector",
        lambda: enumerate_short(B, L2, NormValue(L2, 4)).entries[0],
        ("vector", "norm"),
        f"MeasuredVector(vector=(2, 0), norm={nv('L2', 4)})",
    ),
    (
        "ShortVectorList",
        lambda: enumerate_short(B, L2, NormValue(L2, 5)),
        ("kind", "bound", "entries"),
        f"ShortVectorList(kind=<NormKind.L2: 'l2'>, bound={nv('L2', 5)}, "
        f"entries=(MeasuredVector(vector=(2, 0), norm={nv('L2', 4)}),))",
    ),
    (
        "SuccessiveMinima",
        lambda: successive_minima(B, L1),
        ("kind", "minima", "witnesses"),
        f"SuccessiveMinima(kind=<NormKind.L1: 'l1'>, minima=({nv('L1', 2)}, {nv('L1', 4)}), "
        "witnesses=((2, 0), (1, -3)))",
    ),
    (
        "CheckResult",
        lambda: minima_witness_check(B, successive_minima(B, L1)),
        ("ok", "problems"),
        "CheckResult(ok=True, problems=())",
    ),
    (
        "GsoData",
        lambda: gso(B),
        ("mu", "bstar_sq", "bstar"),
        "GsoData(mu=((Fraction(1, 1), Fraction(0, 1)), (Fraction(1, 2), Fraction(1, 1))), "
        "bstar_sq=(Fraction(4, 1), Fraction(9, 1)), "
        "bstar=((Fraction(2, 1), Fraction(0, 1)), (Fraction(0, 1), Fraction(3, 1))))",
    ),
    (
        "HermiteForm",
        lambda: hermite_form(B),
        ("h", "u"),
        "HermiteForm(h=((1, 3), (0, 6)), u=((0, 1), (-1, 2)))",
    ),
    (
        "SearchStats",
        lambda: check_standard(B, L2).stats,
        ("level_candidates", "nodes_explored"),
        "SearchStats(level_candidates=(1, 2), nodes_explored=2)",
    ),
    (
        "StandardnessCertificate",
        lambda: check_standard(B, L2),
        ("verdict", "basis", "minima", "stats"),
        "StandardnessCertificate(verdict=<Verdict.STANDARD: 'Standard'>, basis=((2, 0), (1, -3)), "
        f"minima=SuccessiveMinima(kind=<NormKind.L2: 'l2'>, minima=({nv('L2', 4)}, {nv('L2', 10)}), "
        "witnesses=((2, 0), (1, -3))), "
        "stats=SearchStats(level_candidates=(1, 2), nodes_explored=2))",
    ),
    (
        "NearestPointResult",
        lambda: nearest_plane(B, TARGET),
        ("point", "coeffs", "dist_sq", "bound_sq", "at_equality"),
        "NearestPointResult(point=(1, 3), coeffs=(0, 1), dist_sq=Fraction(73, 36), "
        "bound_sq=Fraction(5, 1), at_equality=False)",
    ),
    (
        "EqualityCaseReport",
        lambda: equality_case_analyze(B, [1, 1]),
        ("orthogonal", "equal_norms", "half_integer_coefficients"),
        "EqualityCaseReport(orthogonal=False, equal_norms=False, half_integer_coefficients=False)",
    ),
    (
        "Reduced2DBasis",
        lambda: reduce_2d(LatticeBasis([[1, 0], [5, 1]]), L1),
        ("b1", "b2", "norms", "kind"),
        f"Reduced2DBasis(b1=(1, 0), b2=(0, 1), norms=({nv('L1', 1)}, {nv('L1', 1)}), "
        "kind=<NormKind.L1: 'l1'>)",
    ),
    (
        "ParityArgument",
        lambda: verify_family(2, L1).parity_argument,
        (
            "odd_coset_min",
            "even_coset_min",
            "covolume",
            "even_tuple_divisor",
            "forces_odd_vector",
            "consistent",
        ),
        f"ParityArgument(odd_coset_min={nv('L1', 2)}, even_coset_min={nv('L1', 2)}, "
        "covolume=2, even_tuple_divisor=4, forces_odd_vector=True, consistent=True)",
    ),
    (
        "FamilyReport",
        lambda: verify_family(2, L1),
        ("n", "kind", "minima", "verdict", "parity_argument", "certificate"),
        "FamilyReport(n=2, kind=<NormKind.L1: 'l1'>, "
        f"minima=SuccessiveMinima(kind=<NormKind.L1: 'l1'>, minima=({nv('L1', 2)}, {nv('L1', 2)}), "
        "witnesses=((0, 2), (1, -1))), verdict=<Verdict.STANDARD: 'Standard'>, "
        f"parity_argument=ParityArgument(odd_coset_min={nv('L1', 2)}, "
        f"even_coset_min={nv('L1', 2)}, covolume=2, even_tuple_divisor=4, "
        "forces_odd_vector=True, consistent=True), "
        "certificate=StandardnessCertificate(verdict=<Verdict.STANDARD: 'Standard'>, "
        "basis=((0, 2), (1, -1)), "
        f"minima=SuccessiveMinima(kind=<NormKind.L1: 'l1'>, minima=({nv('L1', 2)}, {nv('L1', 2)}), "
        "witnesses=((0, 2), (1, -1))), "
        "stats=SearchStats(level_candidates=(4, 4), nodes_explored=2)))",
    ),
    (
        "CoefficientBox",
        lambda: coefficient_box(B, L2, NormValue(L2, 4)),
        ("per_coeff_bound", "l2_radius_sq", "max_inverse_column_sq"),
        "CoefficientBox(per_coeff_bound=2, l2_radius_sq=Fraction(4, 1), "
        "max_inverse_column_sq=Fraction(5, 18))",
    ),
    (
        "BruteCvpResult",
        lambda: brute_cvp(B, TARGET),
        ("point", "coeffs", "dist_sq"),
        "BruteCvpResult(point=(1, 3), coeffs=(0, 1), dist_sq=Fraction(73, 36))",
    ),
]
IDS = [name for name, *_ in RECORDS]


@pytest.mark.parametrize("name, build, fields, text", RECORDS, ids=IDS)
def test_repr_is_pinned(name, build, fields, text):
    record = build()
    assert type(record).__name__ == name
    assert repr(record) == text


@pytest.mark.parametrize("name, build, fields, text", RECORDS, ids=IDS)
def test_fields_are_read_only(name, build, fields, text):
    record = build()
    for field in fields:
        value = getattr(record, field)
        with pytest.raises(AttributeError):
            setattr(record, field, value)
        assert getattr(record, field) is value


@pytest.mark.parametrize("name, build, fields, text", RECORDS, ids=IDS)
def test_equal_instances_hash_alike(name, build, fields, text):
    a, b = build(), build()
    assert a is not b
    assert a == b
    assert hash(a) == hash(b)


def test_norm_value_rejects_negative_values():
    with pytest.raises(ValueError, match="nonnegative"):
        NormValue(L2, -1)
    with pytest.raises(ValueError, match="nonnegative"):
        NormValue(L1, Fraction(-1, 3))


def test_norm_value_replace_is_checked_too():
    # As a tuple, NormValue gains _make and _replace; they must not bypass
    # the check.
    with pytest.raises(ValueError, match="nonnegative"):
        NormValue(L2, 1)._replace(value=-1)
    with pytest.raises(ValueError, match="nonnegative"):
        NormValue._make((L2, -1))
    assert NormValue(L2, 1)._replace(value=4) == NormValue(L2, 4)


def test_norm_value_ordering_across_kinds_raises():
    a, b = NormValue(L1, 1), NormValue(L2, 1)
    for compare in (
        lambda: a < b,
        lambda: a <= b,
        lambda: a > b,
        lambda: a >= b,
    ):
        with pytest.raises(ValueError, match="norm kinds differ"):
            compare()
    with pytest.raises(TypeError):
        a < 1
    assert a != b


def test_norm_value_properties_and_str():
    assert NormValue(L2, 4).is_squared
    assert not NormValue(L1, 4).is_squared
    assert str(NormValue(L2, Fraction(9, 4))) == "9/4"


def test_failed_check_result_is_falsy():
    assert not bool(CheckResult(False, ("witness 1 is not a lattice vector",)))
    assert not bool(CheckResult(False, ()))
    assert bool(CheckResult(True, ()))
