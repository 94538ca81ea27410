"""Exception hierarchy shared by all stdlattice modules."""


class LatticeError(Exception):
    """Base class for every error raised by this package."""


class InputError(LatticeError, ValueError):
    """Malformed user input: an unparseable file, a float target, a ceiling
    or dimension that is not a positive int, a negative norm value, ...  It
    is also a ``ValueError``, which some of these refusals used to raise."""


class StructuralError(LatticeError):
    """Input violates a structural requirement (singular matrix, wrong shape,
    dependent spanning set, dimension outside an operation's domain)."""


class DimensionMismatchError(LatticeError):
    """Operands have incompatible dimensions."""


class ResourceLimitError(LatticeError):
    """A configured search ceiling (candidate count, box volume, dimension cap)
    was exceeded.  The computation is reported as infeasible, never truncated."""


class InternalConsistencyError(LatticeError):
    """A mandatory self-check failed.  This is a bug indicator, not a user
    error; it is surfaced loudly and never swallowed."""
