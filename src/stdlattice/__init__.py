"""stdlattice: exact-arithmetic toolkit for full-rank integer lattices.

Computes successive minima under L1/L2/Linf with independent witnesses,
decides and certifies whether a lattice has a basis achieving those minima,
constructs such a basis in dimension at most 4 under L2, reduces 2D bases
under any built-in norm, and generates the parity-lattice counterexample
family.  Everything runs on arbitrary-precision integers and rationals; no
floating point anywhere.

Every public name, and every submodule that holds one, loads on first
access and is then cached in the package namespace (PEP 562).  So
``import stdlattice`` loads no submodule, the brute-force oracle
(``brute_minima``, ``brute_cvp`` and its record) loads only when it is
used, and each CLI command loads only the modules it runs.
"""

from importlib import import_module as _import_module

# Each public name under its home module.
_EXPORTS = {
    "cvp": ("EqualityCaseReport", "NearestPointResult", "equality_case_analyze", "nearest_plane"),
    "enumeration": (
        "CheckResult",
        "MeasuredVector",
        "ShortVectorList",
        "SuccessiveMinima",
        "enumerate_short",
        "minima_witness_check",
        "successive_minima",
    ),
    "errors": (
        "DimensionMismatchError",
        "InputError",
        "InternalConsistencyError",
        "LatticeError",
        "ResourceLimitError",
        "StructuralError",
    ),
    "exactlin": (
        "DEFAULT_MAX_CANDIDATES",
        "DEFAULT_MAX_DIM",
        "GsoData",
        "HermiteForm",
        "LatticeBasis",
        "gso",
        "hermite_form",
        "hnf_nonzero_rows",
        "is_basis_of",
        "member",
        "same_lattice",
    ),
    "families": ("FamilyReport", "ParityArgument", "parity_lattice", "verify_family"),
    "norm2d": ("Reduced2DBasis", "min_translate", "reduce_2d"),
    "norms": ("NormKind", "NormValue", "enumeration_radius_in_l2", "measure"),
    "oracle": ("BruteCvpResult", "brute_cvp", "brute_minima"),
    "standardness": (
        "SearchStats",
        "StandardnessCertificate",
        "Verdict",
        "check_standard",
        "is_orthogonal_basis",
        "section_lattice",
        "standardize_low_dim",
    ),
}

# Name -> home module, for the public names and the submodules that hold them;
# a submodule is its own home.
_HOMES = {name: home for home, names in _EXPORTS.items() for name in (home, *names)}

__version__ = "0.1.0"

__all__ = sorted(name for names in _EXPORTS.values() for name in names)


def __getattr__(name: str):
    home = _HOMES.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = _import_module(f"{__name__}.{home}")
    value = globals()[name] = module if name == home else getattr(module, name)
    return value


def __dir__():
    return sorted(set(globals()) | set(_HOMES))
