"""One input gate: every public call refuses hostile input with a LatticeError.

Integer entries, rational targets, ceilings and dimensions are checked in
``exactlin``, norm values in ``NormValue``.  The table below puts a hostile
scalar into each scalar slot of each public call, and a guard makes every
new public callable join the table or state why it is exempt.
"""

import enum
import math
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import stdlattice
from stdlattice import (
    DimensionMismatchError,
    InputError,
    LatticeBasis,
    LatticeError,
    NormKind,
    NormValue,
    ResourceLimitError,
    StructuralError,
    SuccessiveMinima,
    brute_cvp,
    brute_minima,
    check_standard,
    coefficient_box,
    enumerate_short,
    enumeration_radius_in_l2,
    equality_case_analyze,
    gso,
    hermite_form,
    hnf_nonzero_rows,
    is_basis_of,
    is_orthogonal_basis,
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

L1, L2, LINF = NormKind.L1, NormKind.L2, NormKind.LINF
B2 = LatticeBasis([[2, 1], [0, 3]])
P3 = parity_lattice(3)
P3_MINIMA = successive_minima(P3, L2)


def basis_with(x):
    return LatticeBasis([[x, 0], [1, 3]])


def minima_with(**fields):
    return SuccessiveMinima(**{**P3_MINIMA._asdict(), **fields})


# Every scalar slot of every public call, as a call with the scalar x in it.
SLOTS = {
    "LatticeBasis": {
        "entry": basis_with,
        "row": lambda x: LatticeBasis([x, [0, 1]]),
        "matrix": LatticeBasis,
    },
    "NormValue": {"value": lambda x: NormValue(L2, x), "kind": lambda x: NormValue(x, 1)},
    "measure": {
        "entry": lambda x: measure((x, 1), L1),
        "l2 entry": lambda x: measure((x, 1), L2),
        "linf entry": lambda x: measure((x, 1), LINF),
        "vector": lambda x: measure(x, L1),
        "kind": lambda x: measure((1, 2), x),
    },
    "enumeration_radius_in_l2": {
        "bound": lambda x: enumeration_radius_in_l2(x, 2),
        "value": lambda x: enumeration_radius_in_l2(NormValue(LINF, x), 2),
        "dimension": lambda x: enumeration_radius_in_l2(NormValue(LINF, 1), x),
        "kind": lambda x: enumeration_radius_in_l2(NormValue(x, 1), 2),
    },
    "successive_minima": {
        "basis": lambda x: successive_minima(x, L2),
        "entry": lambda x: successive_minima(basis_with(x), L1),
        "kind": lambda x: successive_minima(B2, x),
        "max_candidates": lambda x: successive_minima(B2, L2, max_candidates=x),
        "max_dim": lambda x: successive_minima(B2, L2, max_dim=x),
    },
    "check_standard": {
        "basis": lambda x: check_standard(x, L2),
        "entry": lambda x: check_standard(basis_with(x), LINF),
        "kind": lambda x: check_standard(B2, x),
        "max_candidates": lambda x: check_standard(B2, L2, max_candidates=x),
        "max_dim": lambda x: check_standard(B2, L2, max_dim=x),
    },
    "standardize_low_dim": {
        "basis": standardize_low_dim,
        "entry": lambda x: standardize_low_dim(basis_with(x)),
        "max_candidates": lambda x: standardize_low_dim(B2, max_candidates=x),
    },
    "enumerate_short": {
        "basis": lambda x: enumerate_short(x, L2, NormValue(L2, 4)),
        "bound": lambda x: enumerate_short(B2, L2, x),
        "value": lambda x: enumerate_short(B2, L2, NormValue(L2, x)),
        "kind": lambda x: enumerate_short(B2, x, NormValue(L2, 4)),
        "max_candidates": lambda x: enumerate_short(B2, L2, NormValue(L2, 4), max_candidates=x),
        "max_dim": lambda x: enumerate_short(B2, L2, NormValue(L2, 4), max_dim=x),
    },
    "minima_witness_check": {
        "basis": lambda x: minima_witness_check(x, P3_MINIMA),
        "witness entry": lambda x: minima_witness_check(
            P3, minima_with(witnesses=((x, 0, 0),) + P3_MINIMA.witnesses[1:])
        ),
        "minimum": lambda x: minima_witness_check(
            P3, minima_with(minima=(NormValue(L2, x),) + P3_MINIMA.minima[1:])
        ),
        "kind": lambda x: minima_witness_check(P3, minima_with(kind=x)),
        "certificate": lambda x: minima_witness_check(P3, x),
        "minima": lambda x: minima_witness_check(P3, minima_with(minima=x)),
        "bare minimum": lambda x: minima_witness_check(
            P3, minima_with(minima=(x,) + P3_MINIMA.minima[1:])
        ),
        "witnesses": lambda x: minima_witness_check(P3, minima_with(witnesses=x)),
        "witness row": lambda x: minima_witness_check(
            P3, minima_with(witnesses=(x,) + P3_MINIMA.witnesses[1:])
        ),
        "max_candidates": lambda x: minima_witness_check(P3, P3_MINIMA, max_candidates=x),
        "max_dim": lambda x: minima_witness_check(P3, P3_MINIMA, max_dim=x),
    },
    "verify_family": {
        "dimension": lambda x: verify_family(x, L2),
        "kind": lambda x: verify_family(3, x),
        "max_candidates": lambda x: verify_family(3, L2, max_candidates=x),
        "max_dim": lambda x: verify_family(3, L2, max_dim=x),
    },
    "parity_lattice": {"dimension": parity_lattice},
    "reduce_2d": {
        "basis": lambda x: reduce_2d(x, L2),
        "entry": lambda x: reduce_2d(basis_with(x), L1),
        "kind": lambda x: reduce_2d(B2, x),
    },
    "min_translate": {
        "b2 entry": lambda x: min_translate((x, 1), (2, 1), L1),
        "b1 entry": lambda x: min_translate((0, 3), (x, 1), L2),
        "b2": lambda x: min_translate(x, (2, 1), LINF),
        "kind": lambda x: min_translate((0, 3), (2, 1), x),
    },
    "nearest_plane": {
        "basis": lambda x: nearest_plane(x, [1, Fraction(1, 2)]),
        "coordinate": lambda x: nearest_plane(B2, [x, Fraction(1, 2)]),
        "target": lambda x: nearest_plane(B2, x),
    },
    "equality_case_analyze": {
        "basis": lambda x: equality_case_analyze(x, [1, 1]),
        "coordinate": lambda x: equality_case_analyze(B2, [1, x]),
        "target": lambda x: equality_case_analyze(B2, x),
    },
    "gso": {"entry": lambda x: gso(basis_with(x)), "basis": gso},
    "hermite_form": {"entry": lambda x: hermite_form([[x, 2, 1]]), "matrix": hermite_form},
    "hnf_nonzero_rows": {"entry": lambda x: hnf_nonzero_rows([[1, 2], [x, 4]])},
    "is_basis_of": {
        "basis": lambda x: is_basis_of([(2, 1), (0, 3)], x),
        "entry": lambda x: is_basis_of([(x, 0), (1, 3)], B2),
        "vectors": lambda x: is_basis_of(x, B2),
    },
    "member": {
        "entry": lambda x: member(B2, (x, 3)),
        "vector": lambda x: member(B2, x),
        "basis": lambda x: member(x, (2, 1)),
    },
    "same_lattice": {
        "entry": lambda x: same_lattice(B2, basis_with(x)),
        "first basis": lambda x: same_lattice(x, B2),
        "second basis": lambda x: same_lattice(B2, x),
    },
    "is_orthogonal_basis": {
        "entry": lambda x: is_orthogonal_basis(basis_with(x)),
        "basis": is_orthogonal_basis,
    },
    "section_lattice": {
        "basis": lambda x: section_lattice(x, [(2, 0, 0), (0, 2, 0)]),
        "entry": lambda x: section_lattice(P3, [(2, 0, 0), (x, 1, 1)]),
        "spanning": lambda x: section_lattice(P3, x),
    },
    "brute_minima": {
        "basis": lambda x: brute_minima(x, L2),
        "kind": lambda x: brute_minima(B2, x),
        "max_points": lambda x: brute_minima(B2, L2, max_points=x),
    },
    "brute_cvp": {
        "basis": lambda x: brute_cvp(x, [1, 1]),
        "coordinate": lambda x: brute_cvp(B2, [x, 1]),
        "max_points": lambda x: brute_cvp(B2, [1, 1], max_points=x),
    },
    "coefficient_box": {
        "basis": lambda x: coefficient_box(x, L2, NormValue(L2, 4)),
        "bound": lambda x: coefficient_box(B2, L2, x),
        "value": lambda x: coefficient_box(B2, L1, NormValue(L1, x)),
        "kind": lambda x: coefficient_box(B2, x, NormValue(L2, 4)),
    },
}

# Public names that take no input through the gate: records, enums and
# errors are built by the library, or are plain data the caller inspects.
EXEMPT = {
    "BruteCvpResult": "record returned by brute_cvp",
    "CheckResult": "record returned by minima_witness_check",
    "CoefficientBox": "record returned by coefficient_box",
    "EqualityCaseReport": "record returned by equality_case_analyze",
    "FamilyReport": "record returned by verify_family",
    "GsoData": "record returned by gso",
    "HermiteForm": "record returned by hermite_form",
    "MeasuredVector": "record inside ShortVectorList",
    "NearestPointResult": "record returned by nearest_plane",
    "ParityArgument": "record inside FamilyReport",
    "Reduced2DBasis": "record returned by reduce_2d",
    "SearchStats": "record inside StandardnessCertificate",
    "ShortVectorList": "record returned by enumerate_short",
    "StandardnessCertificate": "record returned by check_standard",
    "SuccessiveMinima": "record returned by successive_minima; minima_witness_check "
    "refuses one whose fields are not NormValues and integer rows",
    "NormKind": "enum of the three norms; every call checks its kind argument",
    "Verdict": "enum of the two verdicts",
    "LatticeError": "error class",
    "InputError": "error class",
    "StructuralError": "error class",
    "DimensionMismatchError": "error class",
    "ResourceLimitError": "error class",
    "InternalConsistencyError": "error class",
}

HOSTILE = [True, False, 0.5, 2.0, math.nan, math.inf, -math.inf, -1, -7, 0, "3", "l2", None]
SCALARS = st.one_of(
    st.sampled_from(HOSTILE), st.floats(), st.integers(-60, 0), st.text(max_size=3)
)
SLOT_IDS = [(call, slot) for call, slots in SLOTS.items() for slot in slots]


def with_hostile_examples(test):
    for value in HOSTILE:
        test = example(value=value)(test)
    return test


@pytest.mark.parametrize("call, slot", SLOT_IDS, ids=[f"{c}-{s}" for c, s in SLOT_IDS])
@settings(max_examples=15, deadline=None)
@with_hostile_examples
@given(value=SCALARS)
def test_hostile_scalar_gets_an_answer_or_a_lattice_error(call, slot, value):
    try:
        SLOTS[call][slot](value)
    except LatticeError:
        pass


def test_every_public_callable_passes_through_the_gate():
    public = {name for name in stdlattice.__all__ if callable(getattr(stdlattice, name))}
    assert public - set(SLOTS) - set(EXEMPT) == set(), "add the new call to SLOTS or EXEMPT"
    assert (set(SLOTS) | set(EXEMPT)) - public == set()
    assert set(SLOTS).isdisjoint(EXEMPT)
    for name in EXEMPT:
        # Only records, enums and errors may be exempt, never a function.
        assert issubclass(getattr(stdlattice, name), (tuple, enum.Enum, Exception)), name


REFUSALS = {
    "float target": (lambda: nearest_plane(B2, [0.1, 0]), InputError),
    "nan target": (lambda: nearest_plane(B2, [math.nan, 0]), InputError),
    "inf target": (lambda: nearest_plane(B2, [math.inf, 0]), InputError),
    "str target": (lambda: nearest_plane(B2, ["1/2", 0]), InputError),
    "bool target": (lambda: equality_case_analyze(B2, [True, 0]), InputError),
    "target that is no sequence": (lambda: nearest_plane(B2, 5), InputError),
    "oracle float target": (lambda: brute_cvp(B2, [0.5, 0]), InputError),
    "oracle target length": (lambda: brute_cvp(B2, [1]), DimensionMismatchError),
    "float translate": (lambda: min_translate((1.5, 0), (1, 0), L2), StructuralError),
    "translates of unequal length": (
        lambda: min_translate((1, 0, 3), (1, 0), L1),
        DimensionMismatchError,
    ),
    "nan norm value": (lambda: NormValue(L2, math.nan), InputError),
    "float norm value": (lambda: NormValue(L2, 2.5), InputError),
    "float norm bound": (lambda: enumerate_short(B2, L2, NormValue(L2, 2.5)), InputError),
    "float coordinates measured": (lambda: measure((0.5, 1), L2), InputError),
    "None coordinate measured": (lambda: measure((None, 1), L1), InputError),
    # Under Linf a float below the largest coordinate used to be measured:
    # the max was the int 1.
    "float Linf coordinate measured": (lambda: measure((0.5, 1), LINF), InputError),
    "Decimal Linf coordinate measured": (lambda: measure((Decimal("0.5"), 1), LINF), InputError),
    "None dimension of a radius": (
        lambda: enumeration_radius_in_l2(NormValue(LINF, 1), None),
        InputError,
    ),
    "basis that is no matrix": (lambda: LatticeBasis(5), StructuralError),
    "vectors that are no matrix": (lambda: is_basis_of(5, B2), StructuralError),
    "Hermite form of no matrix": (lambda: hermite_form(5), StructuralError),
    # A basis given as its plain rows used to raise a bare AttributeError
    # in every call that takes a basis.
    "basis given as plain rows": (
        lambda: successive_minima([[2, 1], [0, 3]], L2),
        InputError,
    ),
    # NormValue(None, 1) used to be built, and its comparisons raised a
    # bare ValueError across kinds and a TypeError against a number.
    "None norm kind": (lambda: NormValue(None, 1), InputError),
    "string norm kind": (lambda: NormValue("l2", 1), InputError),
    "norm kind replaced": (lambda: NormValue(L2, 1)._replace(kind="l2"), InputError),
    "norm values of two kinds compared": (lambda: NormValue(L1, 1) < NormValue(L2, 1), InputError),
    "norm value compared with a number": (lambda: NormValue(L1, 1) < 1, InputError),
    # These used to raise a bare ValueError; InputError still is one.
    "negative norm value": (lambda: NormValue(L2, -1), InputError),
    "bound of another kind": (lambda: enumerate_short(B2, L1, NormValue(L2, 4)), InputError),
    "zero bound": (lambda: enumerate_short(B2, L2, NormValue(L2, 0)), InputError),
    "parity lattice of dimension 0": (lambda: parity_lattice(0), InputError),
    "zero box bound": (lambda: coefficient_box(B2, L2, NormValue(L2, 0)), InputError),
    # These used to raise a bare AttributeError or TypeError.
    "radius of a bound that is no NormValue": (lambda: enumeration_radius_in_l2(5, 2), InputError),
    "certificate that is a number": (lambda: minima_witness_check(P3, 5), InputError),
    "certificate that is None": (lambda: minima_witness_check(P3, None), InputError),
    "certificate that is a plain tuple": (
        lambda: minima_witness_check(P3, tuple(P3_MINIMA)),
        InputError,
    ),
    "certificate without minima": (
        lambda: minima_witness_check(P3, minima_with(minima=None)),
        InputError,
    ),
    "certificate without witnesses": (
        lambda: minima_witness_check(P3, minima_with(witnesses=None)),
        InputError,
    ),
    "minima that are numbers": (
        lambda: minima_witness_check(P3, minima_with(minima=(1, 2, 3))),
        InputError,
    ),
    "witness row that is None": (
        lambda: minima_witness_check(P3, minima_with(witnesses=(None,) + P3_MINIMA.witnesses[1:])),
        InputError,
    ),
}


@pytest.mark.parametrize("case", sorted(REFUSALS))
def test_hostile_input_is_refused_with_its_class(case):
    call, error = REFUSALS[case]
    with pytest.raises(error):
        call()


def test_input_error_is_still_a_value_error():
    assert issubclass(InputError, ValueError)


def test_minima_witness_check_honours_max_dim():
    # It used to check only that max_dim is a positive int and then ran a
    # full dimension-4 enumeration, answering ok=True.
    p4 = parity_lattice(4)
    sm = successive_minima(p4, L2)
    assert minima_witness_check(p4, sm, max_dim=4)
    with pytest.raises(ResourceLimitError, match="dimension 4 exceeds the configured cap 2"):
        minima_witness_check(p4, sm, max_dim=2)
