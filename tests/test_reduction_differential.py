"""Differential property test: minima and standardness certificates do not
depend on how the basis of a lattice is presented.

The searches run on an LLL-reduced basis and read ambient vectors off a
sorted, sign-canonical enumeration.  So a heavily skewed presentation and an
already reduced one must give equal results under every norm: the same
minima and witnesses, and the same verdict, certified basis and search
statistics.  The brute-force oracle, which scans the Hermite basis, pins the
minima independently.
"""

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from stdlattice import LatticeBasis, NormKind, brute_minima, check_standard, successive_minima
from stdlattice.exactlin import _lll_rows
from util import rank


@st.composite
def presentations(draw):
    """(basis, skewed presentation, LLL-reduced presentation)."""
    n = draw(st.integers(2, 4))
    entries = st.lists(st.integers(-4, 4), min_size=n, max_size=n)
    rows = [list(r) for r in draw(st.lists(entries, min_size=n, max_size=n))]
    assume(rank(rows, n) == n)
    base = LatticeBasis(rows)
    for _ in range(draw(st.integers(4, 16))):
        i = draw(st.integers(0, n - 1))
        j = draw(st.integers(0, n - 1))
        if i != j:
            c = draw(st.sampled_from([-5, -3, -2, 2, 3, 5]))
            rows[i] = [a + c * b for a, b in zip(rows[i], rows[j])]
    return base, LatticeBasis(rows), LatticeBasis(_lll_rows(base.rows)[0])


@settings(max_examples=60, deadline=None)
@given(presentations(), st.sampled_from(list(NormKind)))
def test_skewed_and_reduced_presentations_agree(pres, kind):
    base, skewed, reduced = pres
    sm = successive_minima(reduced, kind)
    assert successive_minima(skewed, kind) == sm
    assert successive_minima(base, kind) == sm
    assert brute_minima(base, kind) == sm
    cert = check_standard(reduced, kind)
    assert check_standard(skewed, kind) == cert
    assert check_standard(base, kind) == cert
