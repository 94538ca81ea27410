import itertools
import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from stdlattice import (
    DimensionMismatchError,
    LatticeBasis,
    NormKind,
    StructuralError,
    check_standard,
    gso,
    hermite_form,
    hnf_nonzero_rows,
    is_basis_of,
    member,
    parity_lattice,
    same_lattice,
)
from stdlattice import exactlin, section_lattice, standardness
from stdlattice.exactlin import (
    _coefficients,
    _dot,
    _integral_gso,
    _kernel_step,
    _lll_rows,
    _nearest_rows,
)
from util import (
    apply_unimodular,
    cofactor_det,
    identity_basis,
    mat_mul,
    random_basis,
    random_section_case,
    random_unimodular,
    rank,
    reference_gso_rows,
    reference_echelon_insert,
    reference_integral_gso,
    reference_section,
    reference_solve,
)

def int_matrix(m, n):
    return st.lists(
        st.lists(st.integers(-6, 6), min_size=n, max_size=n), min_size=m, max_size=m
    )


def low_rank_matrix(shape):
    """An m x n product (m x k)(k x n) with k below both sides."""
    m, n = shape
    return st.integers(1, min(m, n) - 1).flatmap(
        lambda k: st.tuples(int_matrix(m, k), int_matrix(k, n)).map(lambda f: mat_mul(*f))
    )


# Square, non-square and rank-deficient, so U has kernel rows as well as
# rows of H.
small_matrix = st.one_of(
    st.integers(2, 4).flatmap(lambda n: int_matrix(n, n)),
    st.tuples(st.integers(1, 5), st.integers(1, 5)).flatmap(lambda s: int_matrix(*s)),
    st.tuples(st.integers(2, 5), st.integers(2, 5)).flatmap(low_rank_matrix),
)


class TestLatticeBasis:
    def test_rejects_singular(self):
        with pytest.raises(StructuralError):
            LatticeBasis([[1, 1], [2, 2]])

    def test_rejects_non_square(self):
        with pytest.raises(StructuralError):
            LatticeBasis([[1, 0, 0], [0, 1, 0]])

    def test_rejects_non_integer_entries(self):
        with pytest.raises(StructuralError):
            LatticeBasis([[1.5, 0], [0, 1]])

    def test_immutability(self):
        b = identity_basis(2)
        with pytest.raises(AttributeError):
            b.rows = ((2, 0), (0, 2))


class TestDeterminant:
    def test_identity(self):
        assert identity_basis(3).det == 1

    def test_parity_lattice_5(self):
        b = parity_lattice(5)
        assert b.det == 16
        assert cofactor_det(b.rows) == 16

    def test_triangular(self):
        assert LatticeBasis([[2, 0], [1, 2]]).det == 4

    def test_matches_cofactor_expansion(self):
        rng = random.Random(101)
        for _ in range(50):
            n = rng.randint(1, 4)
            b = random_basis(rng, n, -5, 5)
            assert b.det == cofactor_det(b.rows)

    def test_unimodular_invariance(self):
        rng = random.Random(7)
        for _ in range(30):
            b = random_basis(rng, rng.randint(1, 4), -4, 4)
            u = random_unimodular(rng, b.dim)
            assert abs(apply_unimodular(u, b).det) == abs(b.det)


class TestHermiteForm:
    def test_identity(self):
        h, u = hermite_form(identity_basis(3))
        assert h == identity_basis(3).rows
        assert u == identity_basis(3).rows

    def test_round_trip_2x2(self):
        m = [[2, 0], [3, 1]]
        h, u = hermite_form(m)
        assert mat_mul(u, m) == h
        assert abs(cofactor_det(u)) == 1
        assert same_lattice(LatticeBasis(m), LatticeBasis(h))

    def test_three_rows_spanning_2d_parity(self):
        m = [(2, 0), (0, 2), (1, 1)]
        h, u = hermite_form(m)
        assert mat_mul(u, m) == h
        assert h == ((1, 1), (0, 2), (0, 0))
        # The nonzero rows generate the same points as the original three:
        # every small integer combination of one lives in the other.
        span = set()
        for a in range(-6, 7):
            for b in range(-6, 7):
                for c in range(-6, 7):
                    span.add(tuple(a * m[0][k] + b * m[1][k] + c * m[2][k] for k in range(2)))
        hnf_span = set()
        for a in range(-9, 10):
            for b in range(-9, 10):
                hnf_span.add(tuple(a * h[0][k] + b * h[1][k] for k in range(2)))
        window = {p for p in span if all(abs(x) <= 4 for x in p)}
        assert window == {p for p in hnf_span if all(abs(x) <= 4 for x in p)}

    @given(small_matrix)
    @settings(max_examples=60, deadline=None)
    def test_idempotent_and_unimodular(self, m):
        h, u = hermite_form(m)
        assert mat_mul(u, m) == h
        assert abs(cofactor_det(u)) == 1
        h2, _ = hermite_form(h)
        assert h2 == h

    def test_echelon_insert_takes_one_gcd_step(self):
        # (3, 1) meets the pivot 2 with gcd 1: [[2, -1], [-3, 2]] turns the
        # pair into the pivot row (1, -1) and the rest (0, 2), a new pivot.
        echelon = {0: [2, 0]}
        assert exactlin._echelon_insert(echelon, [3, 1], 2) is None
        assert echelon == {0: [1, -1], 1: [0, 2]}
        # A vector the rows already generate leaves them alone and reduces
        # to zero.
        assert exactlin._echelon_insert(echelon, [5, -1], 2) == [0, 0]
        assert echelon == {0: [1, -1], 1: [0, 2]}

    def test_canonical_shape(self):
        rng = random.Random(5)
        for _ in range(40):
            rows = [[rng.randint(-9, 9) for _ in range(4)] for _ in range(rng.randint(1, 5))]
            h, _ = hermite_form(rows)
            pivots = []
            for row in h:
                nz = [j for j, x in enumerate(row) if x]
                if not nz:
                    continue
                assert row[nz[0]] > 0
                pivots.append((nz[0], row[nz[0]]))
            cols = [c for c, _ in pivots]
            assert cols == sorted(cols) and len(set(cols)) == len(cols)
            for r, (c, p) in enumerate(pivots):
                for above in range(r):
                    assert 0 <= h[above][c] < p
            # zero rows trail
            nonzero = [any(row) for row in h]
            assert nonzero == sorted(nonzero, reverse=True)


class TestDivisiblePivot:
    # A pivot that divides the entry is taken as a plain subtraction; it must
    # leave the echelon and the remainder that the extended-gcd step gives
    # (util.reference_echelon_insert).  The rows are drawn with integer
    # combinations of the rows before them, whose entries the pivots often
    # divide.
    @staticmethod
    def corpus():
        rng = random.Random(35)
        cases = []
        for _ in range(500):
            n = rng.randint(1, 8)
            rows = []
            for _ in range(rng.randint(1, n + 3)):
                if rows and rng.randrange(2):
                    ks = [rng.randint(-3, 3) for _ in rows]
                    rows.append([sum(k * r[j] for k, r in zip(ks, rows)) for j in range(n)])
                else:
                    rows.append([rng.randint(-4, 4) for _ in range(n)])
            cases.append(rows)
        return cases

    def test_same_echelon_and_remainder_as_the_gcd_step(self):
        divisible = 0
        for rows in self.corpus():
            n = len(rows[0])
            got: dict = {}
            want: dict = {}
            for row in rows:
                lead = next((c for c, x in enumerate(row) if x), None)
                if lead in want and row[lead] % want[lead][lead] == 0:
                    divisible += 1
                assert exactlin._echelon_insert(got, list(row), n) == reference_echelon_insert(
                    want, list(row), n
                )
                assert got == want
        # The first step alone meets a divisible pivot this often.
        assert divisible > 1000

    def test_hermite_form_and_is_basis_of_agree_with_the_gcd_step(self, monkeypatch):
        rng = random.Random(35)
        cases = []
        for rows in self.corpus()[:200]:
            n = len(rows[0])
            basis = random_basis(rng, n, -4, 4)
            vectors = [list(r) for r in apply_unimodular(random_unimodular(rng, n), basis).rows]
            if rng.randrange(2):
                vectors[rng.randrange(n)] = [2 * x for x in vectors[rng.randrange(n)]]
            cases.append((rows, basis, vectors))
        got = [(hermite_form(rows), is_basis_of(vectors, basis)) for rows, basis, vectors in cases]
        monkeypatch.setattr(exactlin, "_echelon_insert", reference_echelon_insert)
        want = [(hermite_form(rows), is_basis_of(vectors, basis)) for rows, basis, vectors in cases]
        assert got == want
        assert {answer for _, answer in got} == {True, False}


class TestSameLattice:
    def test_unimodular_pair(self):
        assert same_lattice(identity_basis(2), LatticeBasis([[1, 0], [1, 1]]))

    def test_index_four_sublattice(self):
        assert not same_lattice(identity_basis(2), LatticeBasis([[2, 0], [0, 2]]))

    def test_parity_lattice_row_replacement(self):
        b = parity_lattice(5)
        rows = [list(r) for r in b.rows]
        rows[4] = [3, 1, 1, 1, 1]
        c = LatticeBasis(rows)
        assert same_lattice(b, c)
        # independent membership check both ways
        assert all(member(b, r) is not None for r in c.rows)
        assert all(member(c, r) is not None for r in b.rows)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            same_lattice(identity_basis(2), identity_basis(3))

    def test_equivalence_relation_on_unimodular_orbit(self):
        rng = random.Random(23)
        for _ in range(20):
            b = random_basis(rng, rng.randint(2, 4), -4, 4)
            c = apply_unimodular(random_unimodular(rng, b.dim), b)
            d = apply_unimodular(random_unimodular(rng, b.dim), c)
            assert same_lattice(b, b)
            assert same_lattice(b, c) and same_lattice(c, b)
            assert same_lattice(b, c) and same_lattice(c, d) and same_lattice(b, d)


class TestMember:
    def test_identity(self):
        assert member(identity_basis(3), (1, 2, 3)) == (1, 2, 3)

    def test_scaled_identity_rejects(self):
        assert member(LatticeBasis([[2, 0, 0], [0, 2, 0], [0, 0, 2]]), (1, 0, 0)) is None

    def test_all_ones_in_parity_lattice(self):
        assert member(parity_lattice(5), (1, 1, 1, 1, 1)) is not None

    def test_coefficients_reconstruct(self):
        rng = random.Random(11)
        for _ in range(40):
            b = random_basis(rng, rng.randint(1, 4), -5, 5)
            coeffs = [rng.randint(-4, 4) for _ in range(b.dim)]
            v = tuple(
                sum(coeffs[i] * b.rows[i][j] for i in range(b.dim)) for j in range(b.dim)
            )
            assert member(b, v) == tuple(coeffs)


class TestIsBasisOf:
    def test_own_rows(self):
        b = parity_lattice(4)
        assert is_basis_of(b.rows, b)

    def test_witnesses_need_not_generate(self):
        b = parity_lattice(5)
        doubled = [[2 if j == i else 0 for j in range(5)] for i in range(5)]
        assert all(member(b, v) is not None for v in doubled)
        assert not is_basis_of(doubled, b)

    def test_half_sum_combination_generates(self):
        b = parity_lattice(4)
        vectors = [(2, 0, 0, 0), (0, 2, 0, 0), (0, 0, 2, 0), (1, 1, 1, 1)]
        assert is_basis_of(vectors, b)

    def test_vectors_are_checked_in_order_with_an_early_exit(self):
        b = parity_lattice(2)
        # Every length is checked before any membership test, so a vector of
        # the wrong length is refused whether a non-member precedes it or not.
        for first in [(1, 0), (1, 1)]:
            with pytest.raises(DimensionMismatchError, match="vector length 3 does not match"):
                is_basis_of([first, (1, 0, 0)], b)

    def test_basis_and_section_build_no_gram_schmidt(self, monkeypatch):
        # Patching exactlin alone reaches every caller, since no other module
        # holds its own name for the Gram-Schmidt or the rounding walk.
        for name in ("_integral_gso", "_round_off", "_coefficients"):
            assert not hasattr(standardness, name)
        calls = []
        inner = exactlin._integral_gso

        def counted(rows):
            calls.append(rows)
            return inner(rows)

        monkeypatch.setattr(exactlin, "_integral_gso", counted)
        b = parity_lattice(4)
        assert is_basis_of(b.rows, b)
        assert len(section_lattice(b, b.rows[:3])) == 3
        assert calls == []

    def test_answers_on_the_echelon_core_alone(self, monkeypatch):
        # No Gram-Schmidt, rounding walk or determinant: the bases are built
        # before the patches, since LatticeBasis computes its determinant,
        # and so are the reference sections, which walk coefficients.
        b = parity_lattice(4)
        c = LatticeBasis([[3, 1, 0], [1, 4, 1], [0, 2, 5]])
        cert = check_standard(c, NormKind.L2)
        assert cert.standard
        rng = random.Random(34)
        sections = []
        for _ in range(300):
            basis, spanning = random_section_case(rng)
            try:
                want = reference_section(basis.rows, [tuple(s) for s in spanning])
            except StructuralError as exc:
                want = str(exc)
            sections.append((basis, spanning, want))

        def refuse(*args):
            raise AssertionError("the echelon core was left")

        for name in ("_integral_gso", "_round_off", "_bareiss_det"):
            monkeypatch.setattr(exactlin, name, refuse)
        assert is_basis_of(b.rows, b)
        assert not is_basis_of([(2, 0, 0, 0), (0, 2, 0, 0), (0, 0, 2, 0), (0, 0, 0, 2)], b)
        assert is_basis_of(cert.basis, c)
        assert not is_basis_of(cert.basis[:2] + ((0, 0, 1),), c)
        outcomes = set()
        for basis, spanning, want in sections:
            if isinstance(want, str):
                with pytest.raises(StructuralError) as got:
                    section_lattice(basis, spanning)
                assert str(got.value) == want
                outcomes.add(want.split()[-1])
            else:
                assert section_lattice(basis, spanning) == want
                outcomes.add("section")
        assert outcomes == {"section", "lattice", "dependent"}


class TestGso:
    def test_identity(self):
        data = gso(identity_basis(3))
        assert data.bstar_sq == (1, 1, 1)
        assert all(data.mu[i][i] == 1 for i in range(3))

    def test_hand_computed_2x2(self):
        from fractions import Fraction

        data = gso(LatticeBasis([[2, 0], [1, 2]]))
        assert data.mu[1][0] == Fraction(1, 2)
        assert data.bstar_sq == (4, 4)

    def test_orthogonality_reconstruction_and_gram_identity(self):
        rng = random.Random(3)
        for _ in range(30):
            b = random_basis(rng, rng.randint(1, 4), -5, 5)
            data = gso(b)
            n = b.dim
            for i in range(n):
                for j in range(i + 1, n):
                    assert sum(x * y for x, y in zip(data.bstar[i], data.bstar[j])) == 0
            for i in range(n):
                recon = [
                    sum(data.mu[i][j] * data.bstar[j][k] for j in range(n))
                    for k in range(n)
                ]
                assert recon == [x for x in b.rows[i]]
            prod = 1
            for sq in data.bstar_sq:
                prod *= sq
            assert prod == b.det ** 2


def test_hnf_nonzero_rows_drops_padding():
    assert hnf_nonzero_rows([(2, 0), (0, 2), (1, 1)]) == ((1, 1), (0, 2))


@pytest.mark.parametrize("call", [hermite_form, hnf_nonzero_rows])
@pytest.mark.parametrize("mat", [[[1, 2], [3]], [[1], [2, 3]], [(4, 0, 1), (2, 1), (0, 0, 1)]])
def test_a_ragged_matrix_is_refused(call, mat):
    with pytest.raises(StructuralError, match="ragged matrix"):
        call(mat)


def maximal_minor_gcd(rows, n):
    """gcd of every k x k minor of the k x n matrix ``rows`` by cofactor
    expansion; 1 for no rows, 0 exactly when the rows are dependent."""
    if not rows:
        return 1
    g = 0
    for cols in itertools.combinations(range(n), len(rows)):
        g = gcd(g, cofactor_det([[r[c] for c in cols] for r in rows]))
    return g


def unit_columns(n):
    return [[int(i == j) for i in range(n)] for j in range(n)]


def left_kernel(rows, n):
    """Canonical Hermite rows of {x : rows x = 0}, read off the unimodular
    matrix of the Hermite form of the transpose: its rows past the rank."""
    hf = hermite_form([[r[j] for r in rows] for j in range(n)])
    kernel = hf.u[sum(map(any, hf.h)):]
    return hnf_nonzero_rows(kernel) if kernel else ()


class TestKernelStep:
    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_fold_gives_the_minor_gcd_and_the_kernel(self, data):
        n = data.draw(st.integers(1, 7))
        kernel = unit_columns(n)
        chosen = []
        divisor = 1
        for _ in range(data.draw(st.integers(1, 10))):
            if chosen and data.draw(st.booleans()):
                cs = data.draw(st.lists(st.integers(-2, 2), min_size=len(chosen), max_size=len(chosen)))
                vec = tuple(sum(c * r[j] for c, r in zip(cs, chosen)) for j in range(n))
            else:
                # Large entries make each step take several gcd steps.
                bound = 10**30 if data.draw(st.integers(1, 20)) == 20 else 10**6
                vec = tuple(data.draw(st.lists(st.integers(-bound, bound), min_size=n, max_size=n)))
            before = [list(col) for col in kernel]
            step = _kernel_step(kernel, vec)
            # The step is pure: a second call on the same kernel gives the
            # same answer, and the kernel is left as it was.
            assert _kernel_step(kernel, vec) == step
            assert [list(col) for col in kernel] == before
            assert (step is None) is (maximal_minor_gcd(chosen + [vec], n) == 0)
            if step is None:
                continue
            g, kernel = step
            chosen.append(vec)
            divisor *= g
            assert divisor == maximal_minor_gcd(chosen, n)
            assert all(_dot(v, col) == 0 for v in chosen for col in kernel)
            assert len(kernel) == n - len(chosen)
            assert (hnf_nonzero_rows(kernel) if kernel else ()) == left_kernel(chosen, n)

    def test_full_rank_product_is_the_covolume(self):
        rng = random.Random(83)
        for _ in range(30):
            b = random_basis(rng, rng.randint(1, 6), -9, 9)
            kernel, divisor = unit_columns(b.dim), 1
            for row in b.rows:
                g, kernel = _kernel_step(kernel, row)
                divisor *= g
            assert divisor == abs(b.det)
            assert kernel == []
            assert _kernel_step(kernel, b.rows[0]) is None


def independent_rows(data, m, n, lo=-9, hi=9):
    entries = st.lists(st.integers(lo, hi), min_size=n, max_size=n)
    rows = [list(r) for r in data.draw(st.lists(entries, min_size=m, max_size=m))]
    assume(rank(rows, n) == m)
    return rows


class TestIntegralGso:
    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_matches_the_fraction_reference(self, data):
        n = data.draw(st.integers(1, 7))
        m = data.draw(st.integers(1, n))
        rows = independent_rows(data, m, n)
        d, lam = _integral_gso(rows)
        assert all(isinstance(x, int) for x in d)
        assert all(isinstance(x, int) for row in lam for x in row)
        assert (d, lam) == reference_integral_gso(rows)

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_dependent_rows_are_rejected(self, data):
        n = data.draw(st.integers(1, 6))
        m = data.draw(st.integers(1, n))
        rows = independent_rows(data, m, n, -5, 5)
        cs = data.draw(st.lists(st.integers(-2, 2), min_size=m, max_size=m))
        combo = [sum(c * r[j] for c, r in zip(cs, rows)) for j in range(n)]
        at = data.draw(st.integers(0, m))
        rows.insert(at, combo)
        with pytest.raises(StructuralError):
            reference_gso_rows(rows)
        with pytest.raises(StructuralError):
            _integral_gso(rows)
        with pytest.raises(StructuralError):
            _lll_rows(rows)

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_gso_matches_the_fraction_reference(self, data):
        n = data.draw(st.integers(1, 6))
        rows = independent_rows(data, n, n)
        mu, bstar, bstar_sq = reference_gso_rows(rows)
        assert gso(LatticeBasis(rows)) == (
            tuple(map(tuple, mu)),
            tuple(bstar_sq),
            tuple(map(tuple, bstar)),
        )


def combination(cs, rows):
    return tuple(sum(c * r[j] for c, r in zip(cs, rows)) for j in range(len(rows[0])))


def fraction_coefficients(rows, target):
    """Integer coefficients by an independent Fraction solve, or None."""
    x = reference_solve(rows, target)
    if x is None or any(c.denominator != 1 for c in x):
        return None
    return tuple(int(c) for c in x)


def rounding_coefficients(rows, target):
    """Membership as nearest-plane rounding defines it: a lattice point is
    left where it is, at distance zero, and every other point moves."""
    coeffs, _, dist_sq = _nearest_rows(rows, target)
    return tuple(coeffs) if dist_sq == 0 else None


class TestCoefficients:
    """Membership by exact division against a Fraction solve and against
    nearest-plane rounding."""

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_exact_division_matches_rounding_and_the_fraction_solve(self, data):
        n = data.draw(st.integers(1, 6))
        m = data.draw(st.integers(1, n))
        rows = independent_rows(data, m, n, -6, 6)
        den = data.draw(st.integers(1, 4))
        shape = data.draw(st.sampled_from(["combination", "ambient"]))
        if shape == "combination":
            # In the span; on the lattice iff every coefficient is integral.
            nums = data.draw(st.lists(st.integers(-12, 12), min_size=m, max_size=m))
            target = combination([Fraction(a, den) for a in nums], rows)
        else:
            # Anywhere: off the span whenever m < n but for a measure-zero
            # set of targets.
            nums = data.draw(st.lists(st.integers(-12, 12), min_size=n, max_size=n))
            target = tuple(Fraction(a, den) for a in nums)
        expected = fraction_coefficients(rows, target)
        assert rounding_coefficients(rows, target) == expected
        assert _coefficients(rows, target) == expected
        if all(t.denominator == 1 for t in target):
            ints = tuple(int(t) for t in target)
            assert _coefficients(rows, ints) == expected

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_targets_off_the_span_of_fewer_rows(self, data):
        n = data.draw(st.integers(2, 6))
        m = data.draw(st.integers(1, n - 1))
        rows = independent_rows(data, m, n, -6, 6)
        unit = [[int(i == k) for i in range(n)] for k in range(n)]
        off = next(e for e in unit if rank(rows + [e], n) == m + 1)
        cs = data.draw(st.lists(st.integers(-5, 5), min_size=m, max_size=m))
        step = Fraction(data.draw(st.sampled_from([-3, -1, 1, 2])), data.draw(st.integers(1, 3)))
        target = [c + step * e for c, e in zip(combination(cs, rows), off)]
        assert reference_solve(rows, target) is None
        assert rounding_coefficients(rows, target) is None
        assert _coefficients(rows, target) is None

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_matches_the_fraction_solve(self, data):
        n = data.draw(st.integers(1, 6))
        m = data.draw(st.integers(1, n))
        rows = independent_rows(data, m, n, -6, 6)
        basis = LatticeBasis(rows) if m == n else None
        # Integer combinations are members with exactly those coefficients.
        cs = tuple(data.draw(st.lists(st.integers(-5, 5), min_size=m, max_size=m)))
        v = combination(cs, rows)
        assert _coefficients(rows, v) == cs
        assert tuple(reference_solve(rows, v)) == cs
        if basis is not None:
            assert member(basis, v) == cs
        # A rational combination with a non-integer coefficient stays in the
        # span but leaves the lattice.
        dens = data.draw(st.lists(st.integers(1, 4), min_size=m, max_size=m))
        nums = data.draw(st.lists(st.integers(-12, 12), min_size=m, max_size=m))
        fr = [Fraction(a, den) for a, den in zip(nums, dens)]
        assume(any(f.denominator > 1 for f in fr))
        w = combination(fr, rows)
        assert reference_solve(rows, w) == fr
        assert _coefficients(rows, w) is None
        # An arbitrary integer point: off the span when m < n, and for
        # m == n a member exactly when its rational solution is integral.
        u = tuple(data.draw(st.lists(st.integers(-6, 6), min_size=n, max_size=n)))
        x = reference_solve(rows, u)
        expected = None
        if x is not None and all(c.denominator == 1 for c in x):
            expected = tuple(int(c) for c in x)
        assert _coefficients(rows, u) == expected
        if basis is not None:
            assert member(basis, u) == expected

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_dependent_rows_are_rejected(self, data):
        n = data.draw(st.integers(1, 6))
        m = data.draw(st.integers(1, n))
        rows = independent_rows(data, m, n, -5, 5)
        cs = data.draw(st.lists(st.integers(-2, 2), min_size=m, max_size=m))
        rows.insert(data.draw(st.integers(0, m)), list(combination(cs, rows)))
        v = data.draw(st.lists(st.integers(-6, 6), min_size=n, max_size=n))
        with pytest.raises(StructuralError):
            reference_solve(rows, v)
        with pytest.raises(StructuralError):
            _coefficients(rows, v)


def assert_lll_reduced(rows):
    """Size reduction and the Lovasz condition at delta = 3/4, both checked
    on the Fraction reference Gram-Schmidt data."""
    mu, _, bstar_sq = reference_gso_rows(rows)
    for k in range(1, len(rows)):
        assert all(abs(mu[k][j]) <= Fraction(1, 2) for j in range(k))
        assert bstar_sq[k] >= (Fraction(3, 4) - mu[k][k - 1] ** 2) * bstar_sq[k - 1]


class TestLll:
    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_skewed_rows_come_back_reduced_with_the_same_span(self, data):
        n = data.draw(st.integers(2, 7))
        m = data.draw(st.integers(1, n))
        rows = independent_rows(data, m, n)
        # Skew by unimodular row operations: the lattice stays the same.
        for _ in range(data.draw(st.integers(0, 12))):
            i = data.draw(st.integers(0, m - 1))
            j = data.draw(st.integers(0, m - 1))
            if i != j:
                c = data.draw(st.integers(-4, 4))
                rows[i] = [a + c * b for a, b in zip(rows[i], rows[j])]
        out, d, lam = _lll_rows(rows)
        assert all(isinstance(x, int) for row in out for x in row)
        assert hnf_nonzero_rows(out) == hnf_nonzero_rows(rows)
        assert_lll_reduced(out)
        # The Gram-Schmidt data LLL hands on is that of the rows it returns.
        assert (d, lam) == reference_integral_gso(out)
        assert _lll_rows(out)[0] == out

    @pytest.mark.parametrize("n", range(1, 8))
    def test_identity_is_unchanged(self, n):
        rows = identity_basis(n).rows
        assert _lll_rows(rows) == (rows, [1] * (n + 1), [[0] * k for k in range(n)])

    def test_skewed_z4_reduces_to_unit_vectors(self):
        out, d, _ = _lll_rows([[1, 1, 2, 1], [2, 3, 7, 4], [0, 0, 2, 1], [1, 2, 8, 5]])
        assert sorted(tuple(abs(x) for x in r) for r in out) == sorted(identity_basis(4).rows)
        assert d == [1] * 5

    def test_dependent_rows_are_rejected(self):
        with pytest.raises(StructuralError):
            _lll_rows([[1, 2, 3], [2, 4, 6]])
