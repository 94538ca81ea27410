import enum
import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stdlattice import (
    InputError,
    LatticeBasis,
    NormKind,
    NormValue,
    brute_minima,
    check_standard,
    enumerate_short,
    enumeration,
    enumeration_radius_in_l2,
    measure,
    min_translate,
    reduce_2d,
    successive_minima,
    verify_family,
)
from stdlattice import norm2d, norms, standardness

vectors = st.lists(st.integers(-50, 50), min_size=1, max_size=6)
kinds = st.sampled_from([NormKind.L1, NormKind.L2, NormKind.LINF])


def test_measure_examples():
    assert measure((1, 1, 1, 1, 1), NormKind.L2).value == 5
    assert measure((0, 0, 0), NormKind.L1).value == 0
    assert measure((0, 0, 0), NormKind.L2).value == 0
    assert measure((0, 0, 0), NormKind.LINF).value == 0
    assert measure((1, 1, 1), NormKind.L1).value == 3
    assert measure((-2, 3), NormKind.LINF).value == 3


def test_norm_le():
    assert NormValue(NormKind.L2, 4) <= NormValue(NormKind.L2, 5)
    assert NormValue(NormKind.L1, 2) <= NormValue(NormKind.L1, 2)
    assert not NormValue(NormKind.L2, 5) <= NormValue(NormKind.L2, 4)


def test_norm_le_kind_mismatch():
    with pytest.raises(ValueError):
        NormValue(NormKind.L1, 1) <= NormValue(NormKind.L2, 1)


def test_norm_value_rejects_negative():
    with pytest.raises(ValueError):
        NormValue(NormKind.L1, -1)


def test_zero_iff_zero_vector():
    assert measure((0, 0), NormKind.L1).value == 0
    for kind in NormKind:
        assert measure((0, 3, 0), kind).value > 0


@given(vectors, st.integers(-9, 9), kinds)
@settings(max_examples=150, deadline=None)
def test_homogeneity(v, k, kind):
    scaled = [k * x for x in v]
    base = measure(v, kind).value
    got = measure(scaled, kind).value
    if kind is NormKind.L2:
        assert got == k * k * base
    else:
        assert got == abs(k) * base


@given(vectors, st.data(), kinds)
@settings(max_examples=150, deadline=None)
def test_triangle_inequality(u, data, kind):
    v = data.draw(st.lists(st.integers(-50, 50), min_size=len(u), max_size=len(u)))
    s = [a + b for a, b in zip(u, v)]
    mu, mv, ms = (measure(x, kind).value for x in (u, v, s))
    if kind is NormKind.L2:
        # ||u+v|| <= ||u|| + ||v|| in squared form:
        # ms <= mu + mv + 2 sqrt(mu mv), checked by cross-multiplication.
        rem = ms - mu - mv
        assert rem <= 0 or rem * rem <= 4 * mu * mv
    else:
        assert ms <= mu + mv


def test_enumeration_radius_examples():
    assert enumeration_radius_in_l2(NormValue(NormKind.L1, 2), 3).value == 4
    assert enumeration_radius_in_l2(NormValue(NormKind.LINF, 2), 3).value == 12
    assert enumeration_radius_in_l2(NormValue(NormKind.L2, 9), 3).value == 9
    assert enumeration_radius_in_l2(NormValue(NormKind.L1, 2), 3).kind is NormKind.L2


@pytest.mark.parametrize("kind", list(NormKind))
def test_enumeration_radius_soundness(kind):
    bound = NormValue(kind, 3 if kind is not NormKind.L2 else 9)
    for dim in (1, 2, 3):
        r2 = enumeration_radius_in_l2(bound, dim).value
        for v in itertools.product(range(-4, 5), repeat=dim):
            if measure(v, kind).value <= bound.value:
                assert measure(v, NormKind.L2).value <= r2


SKEW_2D = LatticeBasis([[2, 1], [0, 3]])
# The last is a member named L1 of an enum other than NormKind.
NOT_A_KIND = ["l1", "L2", None, 1, enum.Enum("Other", "L1").L1]

# Each public entry point that takes a kind, called with ``kind`` in its place.
ENTRY_POINTS = {
    "measure": lambda kind: measure((1, 2), kind),
    "successive_minima": lambda kind: successive_minima(SKEW_2D, kind),
    "enumerate_short": lambda kind: enumerate_short(SKEW_2D, kind, NormValue(kind, 5)),
    "check_standard": lambda kind: check_standard(SKEW_2D, kind),
    "reduce_2d": lambda kind: reduce_2d(SKEW_2D, kind),
    "verify_family": lambda kind: verify_family(3, kind),
    "brute_minima": lambda kind: brute_minima(SKEW_2D, kind),
    "min_translate": lambda kind: min_translate((0, 3), (2, 1), kind),
    "enumeration_radius_in_l2": lambda kind: enumeration_radius_in_l2(NormValue(kind, 5), 2),
}


@pytest.mark.parametrize("name", sorted(ENTRY_POINTS))
@pytest.mark.parametrize("kind", NOT_A_KIND, ids=repr)
def test_unknown_kind_is_rejected_before_any_arithmetic(name, kind, monkeypatch):
    # A string kind used to fall through to the L2 branch: the "l1" minima of
    # SKEW_2D came back as (5, 8), squared-L2 values labelled l1.
    def no_reduction(rows):
        raise AssertionError("lattice reduction ran on an unknown kind")

    monkeypatch.setattr(enumeration, "_lll_rows", no_reduction)
    with pytest.raises(InputError, match="unknown norm kind"):
        ENTRY_POINTS[name](kind)


def test_l1_minima_of_the_regression_basis():
    assert [nv.value for nv in successive_minima(SKEW_2D, NormKind.L1).minima] == [3, 3]


@pytest.mark.parametrize("kind", list(NormKind))
def test_measure_builds_the_validated_norm_value(kind):
    # measure builds an int value's NormValue without the constructor's
    # checks; it must equal, in value and type, what the constructor builds.
    value_of = {
        NormKind.L1: lambda v: sum(map(abs, v)),
        NormKind.L2: lambda v: sum(x * x for x in v),
        NormKind.LINF: lambda v: max(map(abs, v), default=0),
    }[kind]
    for v in [(), (0,), (3, -4), (-(10**40), 7, 0), (Fraction(-3, 2), 1)]:
        got, want = measure(v, kind), NormValue(kind, value_of(v))
        assert type(got) is NormValue and got == want
        assert type(got.kind) is NormKind and type(got.value) is type(want.value)
    for coords in [(0.5, 0), (1.0,), (2, -2.5), (1j, 0), (0, 2 + 0j), ("a", 1), ("",)]:
        with pytest.raises(InputError):
            measure(coords, kind)


def test_per_call_paths_read_enum_members_from_module_globals():
    # Reading a member off an enum class (NormKind.L2) goes through the enum
    # metaclass, about 15 times slower than a module global, and these
    # functions run once per enumeration leaf or once per public call.
    functions = [
        norms.measure,
        norms.enumeration_radius_in_l2,
        enumeration._ReducedSearch.__init__,
        enumeration._ReducedSearch.floor,
        enumeration._reduced_minima,
        norm2d.min_translate,
        standardness.standardize_low_dim,
        standardness.check_standard,
        standardness.StandardnessCertificate.standard.fget,
    ]
    for function in functions:
        names = function.__code__.co_names
        assert "NormKind" not in names and "Verdict" not in names, function.__qualname__
