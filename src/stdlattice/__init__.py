"""stdlattice: exact-arithmetic toolkit for full-rank integer lattices.

Computes successive minima under L1/L2/Linf with independent witnesses,
decides and certifies whether a lattice has a basis achieving those minima,
constructs such a basis in dimension at most 4 under L2, reduces 2D bases
under any built-in norm, and generates the parity-lattice counterexample
family.  Everything runs on arbitrary-precision integers and rationals; no
floating point anywhere.
"""

from .cvp import EqualityCaseReport, NearestPointResult, equality_case_analyze, nearest_plane
from .enumeration import (
    DEFAULT_MAX_CANDIDATES,
    DEFAULT_MAX_DIM,
    CheckResult,
    MeasuredVector,
    ShortVectorList,
    SuccessiveMinima,
    enumerate_short,
    minima_witness_check,
    successive_minima,
)
from .errors import (
    DimensionMismatchError,
    InputError,
    InternalConsistencyError,
    LatticeError,
    ResourceLimitError,
    StructuralError,
)
from .exactlin import (
    GsoData,
    HermiteForm,
    LatticeBasis,
    gso,
    hermite_form,
    hnf_nonzero_rows,
    is_basis_of,
    member,
    same_lattice,
)
from .families import FamilyReport, ParityArgument, parity_lattice, verify_family
from .norm2d import Reduced2DBasis, min_translate, reduce_2d
from .norms import NormKind, NormValue, enumeration_radius_in_l2, measure
from .oracle import (
    BruteCvpResult,
    CoefficientBox,
    brute_cvp,
    brute_minima,
    coefficient_box,
)
from .standardness import (
    SearchStats,
    StandardnessCertificate,
    Verdict,
    check_standard,
    is_orthogonal_basis,
    section_lattice,
    standardize_low_dim,
)

__version__ = "0.1.0"

__all__ = [
    "BruteCvpResult",
    "CheckResult",
    "CoefficientBox",
    "DEFAULT_MAX_CANDIDATES",
    "DEFAULT_MAX_DIM",
    "DimensionMismatchError",
    "EqualityCaseReport",
    "FamilyReport",
    "GsoData",
    "HermiteForm",
    "InputError",
    "InternalConsistencyError",
    "LatticeBasis",
    "LatticeError",
    "MeasuredVector",
    "NearestPointResult",
    "NormKind",
    "NormValue",
    "ParityArgument",
    "Reduced2DBasis",
    "ResourceLimitError",
    "SearchStats",
    "ShortVectorList",
    "StandardnessCertificate",
    "StructuralError",
    "SuccessiveMinima",
    "Verdict",
    "brute_cvp",
    "brute_minima",
    "check_standard",
    "coefficient_box",
    "enumerate_short",
    "enumeration_radius_in_l2",
    "equality_case_analyze",
    "gso",
    "hermite_form",
    "hnf_nonzero_rows",
    "is_basis_of",
    "is_orthogonal_basis",
    "measure",
    "member",
    "min_translate",
    "minima_witness_check",
    "nearest_plane",
    "parity_lattice",
    "reduce_2d",
    "same_lattice",
    "section_lattice",
    "standardize_low_dim",
    "successive_minima",
    "verify_family",
]
