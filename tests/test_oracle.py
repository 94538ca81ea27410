import itertools
import math
import random
from fractions import Fraction

import pytest

from stdlattice import (
    HermiteForm,
    InputError,
    InternalConsistencyError,
    LatticeBasis,
    NormKind,
    NormValue,
    ResourceLimitError,
    StructuralError,
    brute_cvp,
    brute_minima,
    equality_case_analyze,
    is_basis_of,
    member,
    nearest_plane,
    parity_lattice,
    section_lattice,
    standardize_low_dim,
    successive_minima,
)
from stdlattice import oracle
from util import (
    apply_unimodular,
    box_short_vectors,
    identity_basis,
    random_basis,
    random_rational_vector,
    random_unimodular,
    reference_solve,
)


def scaled_identity(n, k):
    return LatticeBasis([[k if i == j else 0 for j in range(n)] for i in range(n)])


class TestBruteMinima:
    def test_identity_3(self):
        sm = brute_minima(identity_basis(3), NormKind.L2)
        assert [nv.value for nv in sm.minima] == [1, 1, 1]

    def test_parity_5(self):
        sm = brute_minima(parity_lattice(5), NormKind.L2)
        assert [nv.value for nv in sm.minima] == [4, 4, 4, 4, 4]

    def test_rejects_large_dimension(self):
        with pytest.raises(StructuralError):
            brute_minima(identity_basis(6), NormKind.L2)

    def test_agrees_with_fast_path_bit_for_bit(self):
        rng = random.Random(109)
        for _ in range(40):
            n = rng.randint(1, 3)
            b = random_basis(rng, n, -4, 4)
            kind = rng.choice(list(NormKind))
            fast = successive_minima(b, kind)
            slow = brute_minima(b, kind)
            assert fast == slow


class TestScanBox:
    """The Hermite coordinate walk lists what the raw product scan lists."""

    def test_matches_the_raw_product_scan(self):
        rng = random.Random(1131)
        # Hermite pivots (1, 1, 23): the last level spans the widest range.
        skewed = apply_unimodular(
            random_unimodular(rng, 3), LatticeBasis([[1, 0, 5], [0, 1, 7], [0, 0, 23]])
        )
        assert oracle.hermite_form(skewed.rows).h[-1][-1] == 23
        bases = [skewed] + [random_basis(rng, rng.randint(1, 3), -3, 3) for _ in range(25)]
        cases = 0
        for i, b in enumerate(bases):
            for kind in NormKind:
                value = 9 if kind is NormKind.L2 else 3
                bound = NormValue(kind, Fraction(4 * value + 1, 4) if i % 2 else value)
                walk = [(e.vector, e.norm.value) for e in oracle._scan_box(b, kind, bound, 10**6)]
                raw = [(v, nv.value) for v, nv in box_short_vectors(b, kind, bound)]
                assert walk == raw, (b.rows, kind, bound)
                cases += 1
        assert cases == 78

    def test_refuses_hermite_rows_that_are_not_triangular(self, monkeypatch):
        # The walk fixes coordinate j from the first j + 1 coefficients; it
        # checks that shape instead of trusting it.
        monkeypatch.setattr(
            oracle, "hermite_form", lambda rows: HermiteForm(((2, 1), (1, 3)), ((1, 0), (0, 1)))
        )
        b = LatticeBasis([[2, 1], [1, 3]])
        with pytest.raises(InternalConsistencyError, match="not triangular"):
            brute_minima(b, NormKind.L2)
        with pytest.raises(InternalConsistencyError, match="not triangular"):
            brute_cvp(b, [Fraction(1, 2), 0])


def test_a_small_ceiling_stops_both_scans():
    # max_points counts the coefficients tried, not an up-front box volume.
    with pytest.raises(ResourceLimitError, match=r"more than 10 coefficients \(max_points"):
        brute_minima(parity_lattice(5), NormKind.L2, max_points=10)
    with pytest.raises(ResourceLimitError, match=r"more than 5 coefficients \(max_points"):
        brute_cvp(parity_lattice(5), [Fraction(1, 2)] * 5, max_points=5)


def raw_cvp_scan(basis, target):
    """Closest squared distance by the dumbest possible full product scan."""
    n = basis.dim
    t = [Fraction(v) for v in target]
    # Row j of the inverse solves x . B = e_j.
    inv = [reference_solve(basis.rows, [int(i == j) for i in range(n)]) for j in range(n)]
    centers = [sum(t[j] * inv[j][i] for j in range(n)) for i in range(n)]
    colsq = [sum(inv[j][i] ** 2 for j in range(n)) for i in range(n)]

    def dist(x):
        diff = [t[j] - sum(x[i] * basis.rows[i][j] for i in range(n)) for j in range(n)]
        return sum(d * d for d in diff)

    best = dist([round(c) for c in centers])
    axes = []
    for i in range(n):
        need = best * colsq[i]  # the least w with w * w >= need, plus one
        w = math.isqrt(math.ceil(need))
        if w * w < need:
            w += 1
        w += 1
        mid = round(centers[i])
        axes.append(range(mid - w, mid + w + 1))
    for x in itertools.product(*axes):
        best = min(best, dist(x))
    return best


@pytest.mark.parametrize("bad", [0, -5, True, 2.5])
def test_max_points_is_refused_before_any_scan(bad):
    # A ceiling that is not a positive int is an input error, not a search
    # that runs out or answers under it.
    with pytest.raises(InputError, match="max_points"):
        brute_minima(parity_lattice(3), NormKind.L2, max_points=bad)
    with pytest.raises(InputError, match="max_points"):
        brute_cvp(parity_lattice(3), [0, 0, 0], max_points=bad)


class TestBruteCvp:
    def test_lattice_point(self):
        b = LatticeBasis([[2, 1], [0, 3]])
        res = brute_cvp(b, (2, 4))
        assert res.dist_sq == 0
        assert res.point == (2, 4)

    def test_matches_raw_product_scan(self):
        rng = random.Random(271828)
        for _ in range(30):
            n = rng.randint(1, 3)
            b = random_basis(rng, n, -4, 4)
            den = rng.randint(1, 5)
            v = [Fraction(rng.randint(-12, 12), den) for _ in range(n)]
            res = brute_cvp(b, v)
            assert res.dist_sq == raw_cvp_scan(b, v), (b.rows, v)
            diff = [Fraction(t) - p for t, p in zip(v, res.point)]
            assert sum(d * d for d in diff) == res.dist_sq

    def test_sixteen_way_tie_resolves_lexicographically(self):
        res = brute_cvp(scaled_identity(4, 2), (1, 1, 1, 1))
        assert res.dist_sq == 4
        assert res.coeffs == (0, 0, 0, 0)
        assert res.point == (0, 0, 0, 0)

    def test_a_tie_below_the_seed_wins(self):
        # Nearest plane rounds -1/2 to 0; the least tied coefficients win.
        assert nearest_plane(scaled_identity(3, 2), (-1, -1, -1)).point == (0, 0, 0)
        res = brute_cvp(scaled_identity(3, 2), (-1, -1, -1))
        assert res.dist_sq == 3
        assert res.coeffs == (-1, -1, -1)
        assert res.point == (-2, -2, -2)

    def test_coefficients_rebuild_the_point_over_the_callers_basis(self):
        # The coefficients come from the Hermite transform, not a solve;
        # they must be the unique rational solution of x . B = point.
        rng = random.Random(3301)
        bases = [scaled_identity(4, 2)] + [
            random_basis(rng, n, -4, 4) for n in range(1, 6) for _ in range(12)
        ]
        for b in bases:
            for _ in range(3):
                den = rng.randint(1, 4)
                v = [Fraction(rng.randint(-9, 9), den) for _ in range(b.dim)]
                res = brute_cvp(b, v)
                rebuilt = tuple(
                    sum(c * row[j] for c, row in zip(res.coeffs, b.rows)) for j in range(b.dim)
                )
                assert rebuilt == res.point, (b.rows, v)
                assert list(res.coeffs) == reference_solve(b.rows, res.point), (b.rows, v)
        tie = brute_cvp(scaled_identity(4, 2), (1, 1, 1, 1))
        assert list(tie.coeffs) == reference_solve(scaled_identity(4, 2).rows, tie.point)

    def test_refuses_coefficients_that_do_not_rebuild_the_point(self, monkeypatch):
        # A transform that does not map H back to B is caught, not returned.
        inner = oracle.hermite_form

        def swapped(rows):
            form = inner(rows)
            return HermiteForm(form.h, form.u[::-1])

        monkeypatch.setattr(oracle, "hermite_form", swapped)
        with pytest.raises(InternalConsistencyError, match="do not rebuild the point"):
            brute_cvp(LatticeBasis([[2, 1], [0, 3]]), (5, 4))

    def test_refuses_a_nearest_plane_seed_off_the_lattice(self, monkeypatch):
        # The seed's point is mapped down the Hermite rows, not trusted: a
        # point with no integer coefficients is caught before the walk.
        from stdlattice import cvp

        b = LatticeBasis([[2, 1], [0, 3]])
        seed = cvp.nearest_plane(b, (1, 0))
        monkeypatch.setattr(cvp, "nearest_plane", lambda basis, t: seed._replace(point=(1, 0)))
        with pytest.raises(InternalConsistencyError, match=r"\(1, 0\) is not a lattice point"):
            brute_cvp(b, (1, 0))

    def test_dominated_by_nearest_plane(self):
        rng = random.Random(113)
        for _ in range(40):
            n = rng.randint(1, 4)
            b = random_basis(rng, n, -3, 3)
            v = random_rational_vector(rng, n)
            np_res = nearest_plane(b, v)
            exact = brute_cvp(b, v)
            assert exact.dist_sq <= np_res.dist_sq
            diff = [Fraction(t) - p for t, p in zip(v, exact.point)]
            assert sum(d * d for d in diff) == exact.dist_sq


def test_library_paths_never_use_the_oracle_walk(monkeypatch):
    """The oracle's walk is its one search, and its own: no library path
    calls it."""
    def refuse(*args, **kwargs):
        raise AssertionError("the oracle walk called outside the oracle")

    monkeypatch.setattr(oracle, "_walk", refuse)
    half = [Fraction(1, 2), Fraction(-3, 2), Fraction(1, 2), Fraction(5, 2)]
    skewed = LatticeBasis([[2, 1, 0, 0], [0, 3, 1, 0], [1, 0, 4, 1], [0, 1, 0, 5]])
    for b in (parity_lattice(4), skewed):
        assert member(b, b.rows[0]) == (1, 0, 0, 0)
        assert is_basis_of(b.rows, b)
        sm = successive_minima(b, NormKind.L2)
        assert len(section_lattice(b, sm.witnesses[:3])) == 3
        assert is_basis_of(standardize_low_dim(b), b)
        assert member(b, nearest_plane(b, half).point) is not None
        equality_case_analyze(b, half)
    # The patch is live: the oracle itself still reaches it.
    with pytest.raises(AssertionError, match="outside the oracle"):
        brute_cvp(parity_lattice(4), half)


def test_oracle_minima_never_use_the_library_rank_scan(monkeypatch):
    """The oracle's greedy scan is its own: it answers with the library's
    kernel step, the greedy witness scan and its echelon insertion patched
    to raise.  The insertion is patched where the scan reads it, not in
    ``exactlin``: the oracle's Hermite rows share that algebra, which is not
    search code."""
    from stdlattice import enumeration, exactlin, standardness

    skewed = LatticeBasis([[2, 1, 0, 0], [0, 3, 1, 0], [1, 0, 4, 1], [0, 1, 0, 5]])
    cases = [(b, kind) for b in (parity_lattice(4), skewed) for kind in NormKind]
    expected = [successive_minima(b, kind) for b, kind in cases]

    def refuse(*args):
        raise AssertionError("patched helper called from the oracle minima")

    for module, name in [
        (exactlin, "_kernel_step"),
        (standardness, "_kernel_step"),
        (enumeration, "_echelon_insert"),
        (enumeration, "_greedy_minima"),
    ]:
        monkeypatch.setattr(module, name, refuse)
    assert [brute_minima(b, kind) for b, kind in cases] == expected
    # The patch is live: the fast path still reaches it, and a section
    # still takes the kernel step.
    with pytest.raises(AssertionError, match="patched helper"):
        successive_minima(skewed, NormKind.L2)
    with pytest.raises(AssertionError, match="patched helper"):
        section_lattice(skewed, skewed.rows[:3])
