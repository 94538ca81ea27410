import random
from collections import Counter
from fractions import Fraction
from math import lcm

from hypothesis import given, settings
from hypothesis import strategies as st

from stdlattice import (
    LatticeBasis,
    NormKind,
    StructuralError,
    brute_cvp,
    equality_case_analyze,
    measure,
    member,
    nearest_plane,
)
from stdlattice import cvp, exactlin
from stdlattice.cvp import _half_odd_coefficients
from stdlattice.exactlin import _nearest_rows
from util import (
    identity_basis,
    random_basis,
    random_orthogonal_rows_basis,
    random_rational_vector,
    reference_nearest_rows,
    reference_solve,
)


def scaled_identity(n, k):
    return LatticeBasis([[k if i == j else 0 for j in range(n)] for i in range(n)])


def independent(rows):
    """True iff the rows are linearly independent, by the Fraction solve."""
    try:
        reference_solve(rows, rows[0])
    except StructuralError:
        return False
    return True


HADAMARD_4 = ((1, 1, 1, 1), (1, -1, 1, -1), (1, 1, -1, -1), (1, -1, -1, 1))


def orthogonal_equal_norm_basis(rng, n):
    """Pairwise orthogonal rows of one common norm: a signed permutation
    times k, a rotation-like 2 x 2 block, or a scaled 4 x 4 Hadamard."""
    k = rng.randint(1, 3)
    if n == 2 and rng.random() < 0.5:
        a, c = rng.randint(1, 3), rng.randint(1, 3)
        return LatticeBasis([[a, c], [-c, a]])
    if n == 4 and rng.random() < 0.5:
        return LatticeBasis([[k * x for x in row] for row in HADAMARD_4])
    perm = rng.sample(range(n), n)
    return LatticeBasis(
        [[rng.choice([-k, k]) if j == perm[i] else 0 for j in range(n)] for i in range(n)]
    )


class TestNearestPlane:
    def test_equality_configuration(self):
        res = nearest_plane(scaled_identity(4, 2), [1, 1, 1, 1])
        assert res.dist_sq == 4
        assert res.bound_sq == 4
        assert res.at_equality

    def test_lattice_point_maps_to_itself(self):
        rng = random.Random(31)
        for _ in range(20):
            b = random_basis(rng, rng.randint(1, 4), -4, 4)
            coeffs = [rng.randint(-3, 3) for _ in range(b.dim)]
            v = tuple(
                sum(coeffs[i] * b.rows[i][j] for i in range(b.dim)) for j in range(b.dim)
            )
            res = nearest_plane(b, v)
            assert res.dist_sq == 0
            assert res.point == v
            assert res.coeffs == tuple(coeffs)

    def test_ties_round_to_even(self):
        res = nearest_plane(identity_basis(1), [Fraction(1, 2)])
        assert res.coeffs == (0,)
        res = nearest_plane(identity_basis(1), [Fraction(3, 2)])
        assert res.coeffs == (2,)

    def test_bound_holds_and_dominates_exact_distance(self):
        rng = random.Random(37)
        for _ in range(40):
            n = rng.randint(2, 4)
            b = random_basis(rng, n, -3, 3)
            v = random_rational_vector(rng, n)
            res = nearest_plane(b, v)
            max_sq = max(measure(row, NormKind.L2).value for row in b.rows)
            assert res.dist_sq <= Fraction(n, 4) * max_sq
            exact = brute_cvp(b, v)
            assert exact.dist_sq <= res.dist_sq
            assert member(b, res.point) is not None

    def test_translation_equivariance(self):
        rng = random.Random(41)
        for _ in range(20):
            n = rng.randint(1, 4)
            b = random_basis(rng, n, -3, 3)
            v = random_rational_vector(rng, n)
            coeffs = [rng.randint(-3, 3) for _ in range(n)]
            w = tuple(sum(coeffs[i] * b.rows[i][j] for i in range(n)) for j in range(n))
            base = nearest_plane(b, v)
            shifted = nearest_plane(b, [a + c for a, c in zip(v, w)])
            assert shifted.point == tuple(p + c for p, c in zip(base.point, w))
            assert shifted.dist_sq == base.dist_sq

    def test_exact_on_orthogonal_bases(self):
        from util import random_orthogonal_rows_basis

        rng = random.Random(43)
        for _ in range(15):
            n = rng.randint(1, 4)
            b = random_orthogonal_rows_basis(rng, n, max_entry=4)
            v = random_rational_vector(rng, n)
            res = nearest_plane(b, v)
            assert res.dist_sq == brute_cvp(b, v).dist_sq


class TestIntegralRounding:
    """The integer rounding against the Fraction Gram-Schmidt reference."""

    def test_agrees_with_the_fraction_reference(self):
        rng = random.Random(43)
        for _ in range(300):
            n = rng.randint(1, 6)
            b = random_basis(rng, n, -5, 5)
            v = random_rational_vector(rng, n, span=8, max_den=rng.choice([1, 2, 3, 6, 7]))
            coeffs, point, dist_sq = _nearest_rows(b.rows, v)
            assert (coeffs, point, dist_sq) == reference_nearest_rows(b.rows, v)
            res = nearest_plane(b, v)
            assert (list(res.coeffs), res.point, res.dist_sq) == (coeffs, point, dist_sq)

    def test_exact_ties_on_orthogonal_bases(self):
        # Half-odd coefficients put every rounding exactly on a tie.
        rng = random.Random(47)
        for _ in range(100):
            n = rng.randint(1, 6)
            b = random_orthogonal_rows_basis(rng, n)
            half_odd = [Fraction(2 * rng.randint(-4, 4) + 1, 2) for _ in range(n)]
            v = [sum(c * row[k] for c, row in zip(half_odd, b.rows)) for k in range(n)]
            coeffs, point, dist_sq = _nearest_rows(b.rows, v)
            assert (coeffs, point, dist_sq) == reference_nearest_rows(b.rows, v)
            assert all(a % 2 == 0 for a in coeffs)

    def test_coefficient_vectors_with_zeros(self):
        # The point sums a * row over the nonzero coefficients only: targets
        # near lattice points with zero coefficients, the origin included.
        rng = random.Random(67)
        with_zeros = 0
        for _ in range(200):
            n = rng.randint(1, 6)
            b = random_basis(rng, n, -4, 4)
            cs = [rng.choice([0, 0, rng.randint(-3, 3)]) for _ in range(n)]
            v = [sum(c * row[k] for c, row in zip(cs, b.rows)) + Fraction(rng.randint(-1, 1), 5) for k in range(n)]
            coeffs, point, dist_sq = _nearest_rows(b.rows, v)
            assert (coeffs, point, dist_sq) == reference_nearest_rows(b.rows, v)
            with_zeros += 0 in coeffs
        assert with_zeros >= 100
        assert _nearest_rows(((2, 0), (1, 3)), [Fraction(1, 3), 0]) == ([0, 0], (0, 0), Fraction(1, 9))

    def test_skewed_rows_with_a_large_common_denominator(self):
        rows = ((3, 1, 4), (1, 5, 9), (2, 6, 5))
        v = [Fraction(7, 11), Fraction(-13, 17), Fraction(5, 3)]
        assert _nearest_rows(rows, v) == reference_nearest_rows(rows, v)


class TestEqualityCaseAnalyze:
    def test_all_three_conditions(self):
        rep = equality_case_analyze(scaled_identity(4, 2), [1, 1, 1, 1])
        assert rep.orthogonal and rep.equal_norms and rep.half_integer_coefficients
        assert rep.all_hold

    def test_half_integer_fails_on_second_coordinate(self):
        rep = equality_case_analyze(identity_basis(2), [Fraction(1, 2), 0])
        assert rep.orthogonal and rep.equal_norms
        assert not rep.half_integer_coefficients
        assert not rep.all_hold

    def test_non_orthogonal_deep_hole(self):
        b = LatticeBasis([[1, 0], [1, 1]])
        rep = equality_case_analyze(b, [Fraction(1, 2), Fraction(1, 2)])
        assert not rep.orthogonal
        exact = brute_cvp(b, [Fraction(1, 2), Fraction(1, 2)])
        max_sq = max(measure(row, NormKind.L2).value for row in b.rows)
        assert exact.dist_sq < Fraction(2, 4) * max_sq

    def test_half_odd_coefficients_match_the_fraction_solve(self):
        # Coefficients k + 1/2, k and k + 1/4 mixed: all-half-odd targets,
        # targets with an integer coefficient and quarter targets all occur.
        rng = random.Random(59)
        seen = {"half-odd": 0, "integer": 0, "quarter": 0}
        for i in range(300):
            n = rng.randint(1, 5)
            if i % 2:
                b = random_basis(rng, n, -4, 4)
            else:
                b = orthogonal_equal_norm_basis(rng, n)
            offsets = rng.choices(
                [Fraction(1, 2), Fraction(0), Fraction(1, 4)], weights=[8, 1, 1], k=n
            )
            cs = [rng.randint(-3, 3) + off for off in offsets]
            v = [sum(c * row[j] for c, row in zip(cs, b.rows)) for j in range(n)]
            x = reference_solve(b.rows, v)
            assert x == cs
            expected = all((2 * c).denominator == 1 and (2 * c).numerator % 2 for c in x)
            assert equality_case_analyze(b, v).half_integer_coefficients == expected
            if expected:
                seen["half-odd"] += 1
            elif Fraction(1, 4) in offsets:
                seen["quarter"] += 1
            else:
                seen["integer"] += 1
        assert all(count >= 20 for count in seen.values()), seen

    def test_half_odd_walk_matches_the_fraction_solve(self):
        # Only a common denominator q dividing 2 can pass; the rest is the
        # division in 2L.  Cases: odd and even q, non-members, targets off
        # the span of fewer rows than coordinates, and dimension 1.
        rng = random.Random(61)
        seen = Counter()
        for i in range(600):
            n = 1 + i % 5
            m = rng.randint(1, n)
            while True:
                rows = [tuple(rng.randint(-3, 3) for _ in range(n)) for _ in range(m)]
                try:
                    reference_solve(rows, rows[0])
                    break
                except StructuralError:
                    pass
            offsets = [Fraction(1, 2), Fraction(1, 2), Fraction(1, 2), Fraction(0), Fraction(1, 3), Fraction(3, 4)]
            cs = [rng.randint(-3, 3) + rng.choice(offsets) for _ in range(m)]
            v = [sum(c * row[k] for c, row in zip(cs, rows)) for k in range(n)]
            if m < n and rng.random() < 0.3:
                v[rng.randrange(n)] += Fraction(1, rng.randint(1, 2))
            x = reference_solve(rows, v)
            expected = x is not None and all((2 * c).denominator == 1 and (2 * c).numerator % 2 for c in x)
            assert _half_odd_coefficients(rows, v) == expected
            q = lcm(*(Fraction(t).denominator for t in v))
            seen["off the span" if x is None else ("half-odd" if expected else "not half-odd", q % 2)] += 1
            if n == 1:
                seen["dimension 1", expected] += 1
        assert len(seen) == 7 and min(seen.values()) >= 10, seen
        full_rank = LatticeBasis([[2, 0], [1, 3]])
        assert equality_case_analyze(full_rank, [Fraction(3, 2), Fraction(3, 2)]).half_integer_coefficients
        assert not equality_case_analyze(full_rank, [Fraction(1, 2), Fraction(3, 2)]).half_integer_coefficients

    def test_answers_without_gram_schmidt_or_rounding(self, monkeypatch):
        # Every binding of the Gram-Schmidt build and the rounding walk is
        # refused.  The bases (LatticeBasis computes a determinant) and the
        # Fraction-solve answers are made before the patches.
        rng = random.Random(67)
        cases = []
        for i in range(240):
            n = rng.randint(1, 5)
            b = orthogonal_equal_norm_basis(rng, n) if i % 2 else random_basis(rng, n, -4, 4)
            offsets = [Fraction(1, 2)] * 4 + [Fraction(0)] * 2 + [Fraction(1, 3), Fraction(1, 4)]
            if i % 3:
                cs = [rng.randint(-3, 3) + Fraction(1, 2) for _ in range(n)]
            else:
                cs = [rng.randint(-3, 3) + rng.choice(offsets) for _ in range(n)]
            v = [sum(c * row[j] for c, row in zip(cs, b.rows)) for j in range(n)]
            if i % 5 == 0:
                v[rng.randrange(n)] += Fraction(1, rng.choice([1, 2, 3]))
            x = reference_solve(b.rows, v)
            expected = all((2 * c).denominator == 1 and (2 * c).numerator % 2 for c in x)
            cases.append((b, v, expected))

        def refuse(*args):
            raise AssertionError("Gram-Schmidt data or the rounding walk was used")

        for module in (exactlin, cvp):
            for name in ("_integral_gso", "_round_off"):
                monkeypatch.setattr(module, name, refuse, raising=False)
        seen = Counter()
        for b, v, expected in cases:
            assert equality_case_analyze(b, v).half_integer_coefficients == expected
            q = lcm(*(Fraction(t).denominator for t in v))
            seen[min(q, 3), expected] += 1
        assert set(seen) == {(1, True), (1, False), (2, True), (2, False), (3, False)}, seen
        assert min(seen.values()) >= 10, seen

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_half_odd_differential_against_the_fraction_solve(self, data):
        # Dimensions 1-6, square and non-square independent rows, targets
        # that are half-odd combinations of them or mix in other offsets,
        # each with or without a perturbation that may leave the span.
        n = data.draw(st.integers(1, 6), label="n")
        m = data.draw(st.integers(1, n), label="m")
        rows = data.draw(
            st.lists(
                st.tuples(*[st.integers(-4, 4)] * n), min_size=m, max_size=m
            ).filter(independent),
            label="rows",
        )
        ks = data.draw(st.lists(st.integers(-3, 3), min_size=m, max_size=m), label="ks")
        if data.draw(st.booleans(), label="all half-odd"):
            offsets = [Fraction(1, 2)] * m
        else:
            offsets = data.draw(
                st.lists(
                    st.sampled_from([Fraction(1, 2), Fraction(0), Fraction(1, 4), Fraction(1, 3)]),
                    min_size=m,
                    max_size=m,
                ),
                label="offsets",
            )
        cs = [k + off for k, off in zip(ks, offsets)]
        v = [sum(c * row[j] for c, row in zip(cs, rows)) for j in range(n)]
        if data.draw(st.booleans(), label="perturbed"):
            j = data.draw(st.integers(0, n - 1), label="coordinate")
            v[j] += data.draw(st.sampled_from([Fraction(1), Fraction(1, 2), Fraction(1, 3), Fraction(-1, 2)]))
        x = reference_solve(rows, v)
        expected = x is not None and all((2 * c).denominator == 1 and (2 * c).numerator % 2 for c in x)
        assert _half_odd_coefficients(rows, v) == expected
        if m == n:
            assert equality_case_analyze(LatticeBasis(rows), v).half_integer_coefficients == expected

    def test_characterization_implies_exact_equality(self):
        rng = random.Random(47)
        hit = 0
        for _ in range(60):
            n = rng.randint(1, 4)
            k = rng.randint(1, 3)
            b = scaled_identity(n, k)
            ints = [rng.randint(-2, 2) for _ in range(n)]
            v = [k * (a + Fraction(1, 2)) for a in ints]
            rep = equality_case_analyze(b, v)
            assert rep.all_hold
            hit += 1
            exact = brute_cvp(b, v)
            assert exact.dist_sq == Fraction(n, 4) * k * k
        assert hit == 60

    def test_at_equality_implies_conditions_and_true_distance(self):
        rng = random.Random(53)
        flagged = 0
        for _ in range(300):
            n = rng.randint(1, 4)
            b = random_basis(rng, n, -3, 3)
            den = rng.randint(1, 6)
            v = [Fraction(rng.randint(-12, 12), den) for _ in range(n)]
            res = nearest_plane(b, v)
            if res.at_equality:
                flagged += 1
                rep = equality_case_analyze(b, v)
                assert rep.all_hold
                assert brute_cvp(b, v).dist_sq == res.bound_sq
        # generic instances almost never sit on the knife edge; add one that does
        res = nearest_plane(scaled_identity(3, 2), [1, 1, 1])
        assert res.at_equality
        assert equality_case_analyze(scaled_identity(3, 2), [1, 1, 1]).all_hold
        assert brute_cvp(scaled_identity(3, 2), [1, 1, 1]).dist_sq == res.bound_sq
