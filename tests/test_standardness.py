import random
import time

import pytest

from stdlattice import (
    DimensionMismatchError,
    InternalConsistencyError,
    LatticeBasis,
    NormKind,
    ResourceLimitError,
    StructuralError,
    Verdict,
    brute_minima,
    check_standard,
    enumeration,
    exactlin,
    is_basis_of,
    is_orthogonal_basis,
    measure,
    member,
    parity_lattice,
    section_lattice,
    standardize_low_dim,
    successive_minima,
)
from stdlattice import cvp, standardness
from util import (
    D4_QUATERNIONS,
    NON_STANDARD_L1_4D_FULL_POOL,
    apply_unimodular,
    d4_type_bases,
    deep_backtrack_l1_rows,
    identity_basis,
    random_basis,
    random_orthogonal_rows_basis,
    random_section_case,
    random_unimodular,
    reference_section,
    reference_solve,
)


def verify_achieving_basis(rows, basis, kind):
    sm = successive_minima(basis, kind)
    assert is_basis_of(rows, basis)
    assert [measure(r, kind).value for r in rows] == [nv.value for nv in sm.minima]


class TestCheckStandard:
    def test_identity_5(self):
        cert = check_standard(identity_basis(5), NormKind.L2)
        assert cert.verdict is Verdict.STANDARD
        assert cert.basis == tuple(sorted(identity_basis(5).rows))

    def test_parity_5_l2_non_standard(self):
        cert = check_standard(parity_lattice(5), NormKind.L2)
        assert cert.verdict is Verdict.NON_STANDARD
        assert cert.basis is None
        assert cert.stats.nodes_explored > 0

    def test_parity_3_l1_non_standard(self):
        assert check_standard(parity_lattice(3), NormKind.L1).verdict is Verdict.NON_STANDARD

    def test_a_non_basis_from_the_search_is_an_internal_error(self, monkeypatch):
        monkeypatch.setattr(standardness, "_is_basis", lambda rows, basis: False)
        with pytest.raises(InternalConsistencyError, match="search returned a non-basis"):
            check_standard(identity_basis(3), NormKind.L2)

    def test_a_basis_off_the_minima_is_an_internal_error(self, monkeypatch):
        def off_by_one(vec, kind):
            nv = measure(vec, kind)
            return nv._replace(value=nv.value + 1)

        monkeypatch.setattr(standardness, "measure", off_by_one)
        with pytest.raises(InternalConsistencyError, match="basis missing the minima"):
            check_standard(identity_basis(3), NormKind.L1)

    def test_parity_4_l2_standard(self):
        cert = check_standard(parity_lattice(4), NormKind.L2)
        assert cert.verdict is Verdict.STANDARD
        verify_achieving_basis(cert.basis, parity_lattice(4), NormKind.L2)

    def test_certificate_is_sound(self):
        rng = random.Random(61)
        for _ in range(25):
            n = rng.randint(1, 3)
            b = random_basis(rng, n, -4, 4)
            kind = rng.choice(list(NormKind))
            cert = check_standard(b, kind)
            if cert.verdict is Verdict.STANDARD:
                verify_achieving_basis(cert.basis, b, kind)
                norms = [measure(r, kind).value for r in cert.basis]
                assert norms == sorted(norms)

    def test_family_law(self):
        for n in range(1, 9):
            cert = check_standard(parity_lattice(n), NormKind.L2)
            expected = Verdict.STANDARD if n <= 4 else Verdict.NON_STANDARD
            assert cert.verdict is expected, f"L2 verdict wrong at n={n}"
        for n in range(1, 9):
            cert = check_standard(parity_lattice(n), NormKind.L1)
            expected = Verdict.STANDARD if n <= 2 else Verdict.NON_STANDARD
            assert cert.verdict is expected, f"L1 verdict wrong at n={n}"

    def test_orthogonal_rows_are_standard_with_sorted_row_norms(self):
        rng = random.Random(67)
        for _ in range(25):
            n = rng.randint(1, 4)
            b = random_orthogonal_rows_basis(rng, n)
            assert is_orthogonal_basis(b)
            cert = check_standard(b, NormKind.L2)
            assert cert.verdict is Verdict.STANDARD
            row_norms = sorted(measure(r, NormKind.L2).value for r in b.rows)
            assert [nv.value for nv in cert.minima.minima] == row_norms


class TestSearchWork:
    @pytest.mark.parametrize("n", range(5, 11))
    def test_parity_l2_search_size_is_pinned(self, n):
        # The levels are the n vectors 2e_i up to sign, which generate 2Z^n
        # at index 2, so the root test decides and counts the root only.
        cert = check_standard(parity_lattice(n), NormKind.L2)
        assert cert.verdict is Verdict.NON_STANDARD
        assert cert.stats.nodes_explored == 1
        assert cert.stats.level_candidates == (n,) * n

    def test_parity_non_standardness_is_decided_without_the_backtrack(self, monkeypatch):
        def no_backtrack(kernel, vec):
            raise AssertionError("backtrack started on a parity lattice")

        monkeypatch.setattr(standardness, "_kernel_step", no_backtrack)
        cases = [(n, NormKind.L2) for n in range(5, 11)]
        cases += [(n, NormKind.L1) for n in range(3, 9)]
        for n, kind in cases:
            cert = check_standard(parity_lattice(n), kind)
            assert cert.verdict is Verdict.NON_STANDARD, (n, kind)
        # The patch is live: the exhaustion route still takes a step.
        with pytest.raises(AssertionError, match="backtrack started"):
            check_standard(LatticeBasis(NON_STANDARD_L1_4D_FULL_POOL[0][0]), NormKind.L1)

    def test_generation_test_keeps_at_most_n_rows(self, monkeypatch):
        # Z^8 under Linf has one level of (3^8 - 1) / 2 = 3280 vectors; the
        # generation test must hold no more than 8 echelon rows, take no
        # Hermite form and stop before it has inserted all of them.  The check's unit-vector
        # witnesses are a basis, so it skips the test; here it runs directly
        # on that level.
        basis = identity_basis(8)
        cert = check_standard(basis, NormKind.LINF)
        assert cert.verdict is Verdict.STANDARD
        assert cert.stats.level_candidates == (3280,) * 8
        _, entries, _ = enumeration._minima_with_entries(basis.rows, NormKind.LINF)
        level = [vec for vec, nv in entries if nv.value == 1]
        assert len(level) == 3280
        sizes = []
        insert = exactlin._echelon_insert

        def counted(echelon, vec, width):
            rest = insert(echelon, vec, width)
            sizes.append(len(echelon))
            return rest

        def no_hermite_form(mat):
            raise AssertionError("the generation test took a Hermite form")

        monkeypatch.setattr(standardness, "_echelon_insert", counted)
        for module, name in ((exactlin, "hermite_form"), (standardness, "hnf_nonzero_rows")):
            monkeypatch.setattr(module, name, no_hermite_form)
        # standardness no longer imports hermite_form; any binding of it that
        # comes back is covered too.
        monkeypatch.setattr(standardness, "hermite_form", no_hermite_form, raising=False)
        assert standardness._generates(level, 8, 1)
        assert max(sizes) == 8
        assert len(sizes) < len(level)

    def test_witness_basis_checks_skip_the_generation_test(self, monkeypatch):
        # When the greedy witnesses are a basis the root generation test is
        # skipped: a Standard check then never calls it.
        rng = random.Random(2024)
        cases = [(identity_basis(8), NormKind.LINF)]
        cases += [(random_basis(rng, rng.randint(2, 4), -5, 5), NormKind.L2) for _ in range(40)]
        cases = [
            (b, kind) for b, kind in cases if is_basis_of(successive_minima(b, kind).witnesses, b)
        ]
        assert len(cases) > 30
        calls = []
        inner = standardness._generates

        def counted(vectors, n, det):
            calls.append(n)
            return inner(vectors, n, det)

        monkeypatch.setattr(standardness, "_generates", counted)
        for b, kind in cases:
            cert = check_standard(b, kind)
            assert cert.verdict is Verdict.STANDARD
            assert cert.basis == successive_minima(b, kind).witnesses
        assert calls == []

    def test_minima_and_witness_basis_checks_build_no_rank_tracker(self, monkeypatch):
        # The greedy scan's echelon form is the one rank walk of a minima
        # search, and of a check whose witnesses are a basis.  With every
        # binding of the backtrack's kernel step patched to raise, the
        # criterion-3 bases (500 per dimension 1..4, entries in [-5, 5])
        # still get their minima and their minima-achieving bases.
        def no_step(kernel, vec):
            raise AssertionError("a kernel step was taken")

        monkeypatch.setattr(exactlin, "_kernel_step", no_step)
        monkeypatch.setattr(standardness, "_kernel_step", no_step)
        monkeypatch.setattr(enumeration, "_kernel_step", no_step, raising=False)
        rng = random.Random(20260808)
        for n in (1, 2, 3, 4):
            for _ in range(500):
                b = random_basis(rng, n, -5, 5)
                sm = successive_minima(b, NormKind.L2)
                rows = standardize_low_dim(b)
                got = [measure(r, NormKind.L2).value for r in rows]
                assert got == [nv.value for nv in sm.minima]
        # The patch is live: the exhaustion route still takes one.
        with pytest.raises(AssertionError, match="kernel step was taken"):
            check_standard(LatticeBasis(NON_STANDARD_L1_4D_FULL_POOL[0][0]), NormKind.L1)

    def test_one_enumeration_and_no_determinant_per_check(self, passes, monkeypatch):
        # The reduced rows have norms 4 and 6 (the two odd rows); the probe
        # at 4 already holds the minima, so norm 6 is never enumerated.
        basis = parity_lattice(6)
        dets = []
        inner = exactlin._bareiss_det

        def counted(mat):
            dets.append(mat)
            return inner(mat)

        monkeypatch.setattr(exactlin, "_bareiss_det", counted)
        cert = check_standard(basis, NormKind.L2)
        assert cert.verdict is Verdict.NON_STANDARD
        assert passes == [(NormKind.L2, 4)]
        assert dets == []

    def test_no_fraction_gram_schmidt_on_the_search_paths(self, monkeypatch):
        # Enumeration prunes on the integral data LLL hands over, so neither
        # the minima nor a check build the Fraction Gram-Schmidt.
        calls = []
        inner = exactlin.gso

        def counted(basis):
            calls.append(basis)
            return inner(basis)

        # Every module's binding, so that a re-import by name is caught too.
        for module in (exactlin, enumeration, cvp, standardness):
            monkeypatch.setattr(module, "gso", counted, raising=False)
        for kind in NormKind:
            successive_minima(parity_lattice(5), kind)
            check_standard(parity_lattice(5), kind)
        assert calls == []

    def test_l1_check_enumerates_in_l2_then_l1(self, passes):
        # The L1 start bound comes from the L2 witnesses, so an L1 check makes
        # exactly two enumerations: the L2 pass (the probe at 4) and the L1
        # pass at the witnesses' L1 norm.
        cert = check_standard(parity_lattice(6), NormKind.L1)
        assert cert.verdict is Verdict.NON_STANDARD
        assert passes == [(NormKind.L2, 4), (NormKind.L1, 2)]

    def test_linf_parity_10_within_a_small_ceiling(self, passes):
        # The reduced rows have Linf norm 2, except the two odd rows with 1;
        # the probe at 1 holds the 2^9 odd vectors, of full rank, so the pass
        # to bound 2 (64,224 candidate evaluations) is never made.
        cert = check_standard(parity_lattice(10), NormKind.LINF, max_candidates=10_000)
        assert cert.verdict is Verdict.STANDARD
        assert [nv.value for nv in cert.minima.minima] == [1] * 10
        assert passes == [(NormKind.L2, 4), (NormKind.LINF, 1)]

    @pytest.mark.parametrize(
        "k, level_candidates, nodes",
        [(3, (12,) * 6 + (6,), 1331), (4, (19,) * 7 + (6,), 22188)],
    )
    def test_exhaustion_route_is_pinned(self, k, level_candidates, nodes):
        # The levels of A + 2*D_k generate it, so only an exhausted
        # backtrack answers NonStandard.
        cert = check_standard(LatticeBasis(deep_backtrack_l1_rows(k)), NormKind.L1)
        assert cert.verdict is Verdict.NON_STANDARD
        assert cert.stats == standardness.SearchStats(level_candidates, nodes)

    def test_backtrack_stops_at_the_ceiling(self):
        # Each enumeration pass fits under 10,000 candidate evaluations, but
        # the backtrack that would prove this lattice NonStandard tries
        # 498,332 nodes (3.5 s); the same ceiling bounds its nodes.  A
        # backtrack pruned by the sublattices it has built would still need
        # about 13,000 nodes here, so the ceiling stays below that.
        basis = LatticeBasis(deep_backtrack_l1_rows())
        start = time.perf_counter()
        with pytest.raises(ResourceLimitError) as info:
            check_standard(basis, NormKind.L1, max_candidates=10_000)
        assert time.perf_counter() - start < 1
        assert str(info.value) == (
            "standardness search exceeded 10000 nodes (l1, 6 of 9 basis vectors chosen)"
        )


class TestIsOrthogonalBasis:
    def test_diagonal(self):
        assert is_orthogonal_basis(LatticeBasis([[1, 0, 0], [0, 2, 0], [0, 0, 3]]))

    def test_shear_is_not(self):
        assert not is_orthogonal_basis(LatticeBasis([[1, 0], [1, 1]]))

    def test_scaled_identity_5(self):
        b = LatticeBasis([[2 if i == j else 0 for j in range(5)] for i in range(5)])
        assert is_orthogonal_basis(b)
        cert = check_standard(b, NormKind.L2)
        assert cert.verdict is Verdict.STANDARD
        assert cert.basis == tuple(sorted(b.rows))


class TestSectionLattice:
    def test_identity_3(self):
        sec = section_lattice(identity_basis(3), [(1, 0, 0), (0, 1, 0)])
        assert sec == ((1, 0, 0), (0, 1, 0))

    def test_parity_4_axis_section_is_all_even(self):
        sec = section_lattice(parity_lattice(4), [(2, 0, 0, 0), (0, 2, 0, 0), (0, 0, 2, 0)])
        assert sec == ((2, 0, 0, 0), (0, 2, 0, 0), (0, 0, 2, 0))
        # double inclusion on a small window: members of the lattice with
        # last coordinate zero are exactly the even points of that window
        b = parity_lattice(4)
        for a in range(-3, 4):
            for c in range(-3, 4):
                for d in range(-3, 4):
                    v = (a, c, d, 0)
                    in_lattice = member(b, v) is not None
                    in_section = all(x % 2 == 0 for x in (a, c, d))
                    assert in_lattice == in_section

    def test_dimension_1_section_is_empty(self):
        # The hyperplane spanned by no vectors is {0}; this used to raise
        # "empty matrix" about a matrix built inside the call.
        assert section_lattice(LatticeBasis([[3]]), []) == ()

    def test_skew_2d_section(self):
        sec = section_lattice(LatticeBasis([[2, 0], [1, 1]]), [(2, 0)])
        assert sec == ((2, 0),)

    def test_section_is_saturated_not_just_the_spanning_sublattice(self):
        # (2,0,0),(0,1,0) spans the z = 0 plane but generates only an
        # index-2 sublattice of it; the section must be the whole plane.
        sec = section_lattice(identity_basis(3), [(2, 0, 0), (0, 1, 0)])
        assert sec == ((1, 0, 0), (0, 1, 0))
        # same plane spanned by a checkerboard pair of index 2
        sec = section_lattice(identity_basis(3), [(1, 1, 0), (1, -1, 0)])
        assert sec == ((1, 0, 0), (0, 1, 0))

    def test_section_saturation_under_random_unimodular_disguise(self):
        from util import apply_unimodular, random_unimodular

        rng = random.Random(4242)
        for _ in range(10):
            b = apply_unimodular(random_unimodular(rng, 3), identity_basis(3))
            # multiples of plane vectors still span the plane; the section
            # must come back as the full plane lattice either way
            sec_a = section_lattice(b, [(2, 0, 0), (0, 3, 0)])
            sec_b = section_lattice(b, [(1, 0, 0), (0, 1, 0)])
            assert sec_a == sec_b == ((1, 0, 0), (0, 1, 0))

    def test_rejects_non_member_spanning(self):
        with pytest.raises(StructuralError, match=r"spanning vector \(1, 0\) is not in the lattice"):
            section_lattice(LatticeBasis([[2, 0], [0, 2]]), [(1, 0)])

    def test_rejects_wrong_length_spanning(self):
        # The echelon division and the kernel step's dot products run over the
        # vector's own length, so a short vector would pass as if zero-padded.
        with pytest.raises(DimensionMismatchError, match="vector length 2 does not match dimension 3"):
            section_lattice(identity_basis(3), [(1, 0, 0), (0, 1)])
        with pytest.raises(DimensionMismatchError, match="vector length 4 does not match dimension 3"):
            section_lattice(identity_basis(3), [(1, 0, 0, 0), (0, 1, 0)])

    def test_rejects_non_integer_spanning_entries(self):
        with pytest.raises(StructuralError):
            section_lattice(LatticeBasis([[1, 0], [0, 1]]), [(1.5, 0)])
        with pytest.raises(StructuralError):
            section_lattice(identity_basis(3), [(1, 0, 0), (0, 1.0, 0)])

    def test_rejects_dependent_spanning(self):
        with pytest.raises(StructuralError):
            section_lattice(identity_basis(3), [(1, 0, 0), (2, 0, 0)])

    def test_seeded_sections_match_the_two_hermite_form_reference(self):
        # Both StructuralErrors included: a non-member and a dependent set.
        rng = random.Random(24)
        outcomes = set()
        for _ in range(2000):
            basis, spanning = random_section_case(rng)
            try:
                want = reference_section(basis.rows, [tuple(s) for s in spanning])
            except StructuralError as exc:
                with pytest.raises(StructuralError) as got:
                    section_lattice(basis, spanning)
                assert str(got.value) == str(exc)
                outcomes.add(str(exc).split()[-1])
            else:
                assert section_lattice(basis, spanning) == want
                outcomes.add("section")
        assert outcomes == {"section", "lattice", "dependent"}

    def test_section_members_lie_on_hyperplane(self):
        rng = random.Random(71)
        for _ in range(15):
            n = rng.randint(2, 4)
            b = random_basis(rng, n, -3, 3)
            sm = successive_minima(b, NormKind.L2)
            spanning = sm.witnesses[: n - 1]
            sec = section_lattice(b, spanning)
            assert len(sec) == n - 1
            for v in sec:
                assert member(b, v) is not None
            # spanning vectors belong to the section lattice
            for s in spanning:
                x = reference_solve(sec, s)
                assert x is not None and all(c.denominator == 1 for c in x)


class TestStandardizeLowDim:
    def test_1d_echoes_input(self):
        assert standardize_low_dim(LatticeBasis([[-7]])) == ((-7,),)

    def test_parity_4_has_three_axis_vectors_and_an_odd_one(self):
        b = parity_lattice(4)
        rows = standardize_low_dim(b)
        assert [measure(r, NormKind.L2).value for r in rows] == [4, 4, 4, 4]
        verify_achieving_basis(rows, b, NormKind.L2)

    def test_random_low_dims_verified(self):
        rng = random.Random(73)
        for _ in range(60):
            n = rng.randint(2, 4)
            b = random_basis(rng, n, -5, 5)
            rows = standardize_low_dim(b)
            verify_achieving_basis(rows, b, NormKind.L2)
            norms = [measure(r, NormKind.L2).value for r in rows]
            assert norms == sorted(norms)
            # When the greedy witnesses form a basis, the backtrack's first
            # basis is those witnesses, in their order.
            assert rows == successive_minima(b, NormKind.L2).witnesses

    def test_agreement_with_brute_minima(self):
        rng = random.Random(79)
        for _ in range(25):
            n = rng.randint(1, 4)
            b = random_basis(rng, n, -4, 4)
            rows = standardize_low_dim(b)
            assert [measure(r, NormKind.L2).value for r in rows] == [
                nv.value for nv in brute_minima(b, NormKind.L2).minima
            ]

    def test_non_standard_verdict_is_an_internal_error(self, monkeypatch):
        # The theorem makes every lattice of dimension <= 4 standard under
        # L2, so a NonStandard certificate there is a bug, never an answer.
        def non_standard(basis, kind, **kwargs):
            sm = successive_minima(basis, kind)
            stats = standardness.SearchStats((1,) * basis.dim, 1)
            return standardness.StandardnessCertificate(Verdict.NON_STANDARD, None, sm, stats)

        monkeypatch.setattr(standardness, "check_standard", non_standard)
        for b in (parity_lattice(4), identity_basis(3), LatticeBasis([[-7]])):
            with pytest.raises(InternalConsistencyError, match="contradicting the theorem"):
                standardize_low_dim(b)

    def test_rejects_dimension_5(self):
        with pytest.raises(StructuralError):
            standardize_low_dim(identity_basis(5))

    def test_makes_the_passes_of_one_minima_search(self, passes):
        # Every section is standardized from the lattice's own witnesses, so
        # the only enumeration is the L2 minima search of the whole lattice.
        rng = random.Random(83)
        bases = [parity_lattice(4), identity_basis(3)]
        bases += [random_basis(rng, rng.randint(1, 4), -5, 5) for _ in range(20)]
        for b in bases:
            successive_minima(b, NormKind.L2)
            expected = passes[:]
            passes.clear()
            standardize_low_dim(b)
            assert passes == expected
            passes.clear()

    @pytest.mark.parametrize("q", D4_QUATERNIONS)
    def test_d4_type_lattices(self, q):
        # The rows of a quaternion's left-multiplication matrix are an
        # orthogonal frame f of equal norms N = |q|^2; with |q|^2 even, half
        # their sum is integral and K + Z (sum f) / 2 is a scaled D4 with 24
        # vectors of norm N, three orthogonal frames among them.  This is
        # the one configuration in dimension 4 where minima witnesses can
        # fail to be a basis: four from one frame generate K, of index 2.
        # Signed permutations and a unimodular change of basis disguise it.
        norm = sum(x * x for x in q)
        for basis in d4_type_bases(q):
            assert abs(basis.det) * 2 == norm * norm
            out = standardize_low_dim(basis)
            verify_achieving_basis(out, basis, NormKind.L2)
            assert [measure(r, NormKind.L2).value for r in out] == [norm] * 4
            assert out == successive_minima(basis, NormKind.L2).witnesses

