import random
from fractions import Fraction

import pytest

from stdlattice import (
    InternalConsistencyError,
    LatticeBasis,
    NormKind,
    NormValue,
    ResourceLimitError,
    brute_minima,
    check_standard,
    enumerate_short,
    enumeration,
    is_basis_of,
    minima_witness_check,
    parity_lattice,
    successive_minima,
)
from stdlattice.enumeration import DEFAULT_MAX_CANDIDATES
from util import (
    apply_unimodular,
    box_short_vectors,
    identity_basis,
    random_basis,
    random_unimodular,
    reference_gso_rows,
    single_pass_bounds,
)


class TestEnumerateShort:
    def test_identity_unit_ball(self):
        out = enumerate_short(identity_basis(2), NormKind.L2, NormValue(NormKind.L2, 1))
        assert out.vectors == ((0, 1), (1, 0))

    def test_parity_5_l2_radius_2(self):
        out = enumerate_short(parity_lattice(5), NormKind.L2, NormValue(NormKind.L2, 4))
        assert out.vectors == (
            (0, 0, 0, 0, 2),
            (0, 0, 0, 2, 0),
            (0, 0, 2, 0, 0),
            (0, 2, 0, 0, 0),
            (2, 0, 0, 0, 0),
        )
        assert all(e.norm.value == 4 for e in out.entries)

    def test_matches_box_scan_l1(self):
        rng = random.Random(42)
        bound = NormValue(NormKind.L1, 5)
        for _ in range(20):
            b = random_basis(rng, 3, -3, 3)
            fast = [(e.vector, e.norm.value) for e in enumerate_short(b, NormKind.L1, bound).entries]
            slow = [(v, nv.value) for v, nv in box_short_vectors(b, NormKind.L1, bound)]
            assert fast == slow

    def test_matches_box_scan_all_kinds_small(self):
        rng = random.Random(7)
        for kind in NormKind:
            bound = NormValue(kind, 9 if kind is NormKind.L2 else 3)
            for _ in range(12):
                n = rng.randint(1, 4)
                b = random_basis(rng, n, -4, 4)
                fast = [(e.vector, e.norm.value) for e in enumerate_short(b, kind, bound).entries]
                slow = [(v, nv.value) for v, nv in box_short_vectors(b, kind, bound)]
                assert fast == slow

    def test_fraction_bounds_match_box_scan(self):
        # A Fraction bound gives the L2 radius a denominator above 1 and,
        # under L1/Linf, the Hoelder box a Fraction N: each level's isqrt
        # interval and the box's floor division must stay exact.
        rng = random.Random(31)
        for kind in NormKind:
            top = 10 if kind is NormKind.L2 else 4
            for _ in range(24):
                n = rng.randint(1, 4)
                b = apply_unimodular(random_unimodular(rng, n, 4), random_basis(rng, n, -2, 2))
                q = rng.randint(2, 6)
                bound = NormValue(kind, Fraction(rng.randint(q, top * q), q))
                fast = [(e.vector, e.norm.value) for e in enumerate_short(b, kind, bound).entries]
                slow = [(v, nv.value) for v, nv in box_short_vectors(b, kind, bound)]
                assert fast == slow, (b.rows, bound)

    def test_sign_canonical_and_sorted(self):
        out = enumerate_short(identity_basis(3), NormKind.L2, NormValue(NormKind.L2, 4))
        for vec, _ in out.entries:
            first = next(x for x in vec if x != 0)
            assert first > 0
        keys = [(e.norm.value, e.vector) for e in out.entries]
        assert keys == sorted(keys)

    def test_bound_kind_must_match(self):
        with pytest.raises(ValueError):
            enumerate_short(identity_basis(2), NormKind.L1, NormValue(NormKind.L2, 4))

    def test_candidate_ceiling(self):
        with pytest.raises(ResourceLimitError):
            enumerate_short(
                identity_basis(3),
                NormKind.L2,
                NormValue(NormKind.L2, 100),
                max_candidates=10,
            )

    def test_dimension_cap(self):
        with pytest.raises(ResourceLimitError):
            enumerate_short(
                identity_basis(4), NormKind.L2, NormValue(NormKind.L2, 1), max_dim=3
            )

    def test_ceiling_message_names_the_pass(self):
        with pytest.raises(
            ResourceLimitError, match=r"exceeded 10 candidate evaluations \(l1 pass, bound 8\)$"
        ):
            enumerate_short(
                identity_basis(3), NormKind.L1, NormValue(NormKind.L1, 8), max_candidates=10
            )


class TestSuccessiveMinima:
    def test_identity_4(self):
        sm = successive_minima(identity_basis(4), NormKind.L2)
        assert [nv.value for nv in sm.minima] == [1, 1, 1, 1]
        assert sm.witnesses == ((0, 0, 0, 1), (0, 0, 1, 0), (0, 1, 0, 0), (1, 0, 0, 0))

    def test_parity_5_l2(self):
        sm = successive_minima(parity_lattice(5), NormKind.L2)
        assert [nv.value for nv in sm.minima] == [4, 4, 4, 4, 4]

    def test_parity_3_l1(self):
        sm = successive_minima(parity_lattice(3), NormKind.L1)
        assert [nv.value for nv in sm.minima] == [2, 2, 2]

    def test_unimodular_invariance(self):
        rng = random.Random(9)
        for _ in range(15):
            n = rng.randint(1, 4)
            b = random_basis(rng, n, -4, 4)
            u = random_unimodular(rng, n)
            kind = rng.choice(list(NormKind))
            a = successive_minima(b, kind)
            c = successive_minima(apply_unimodular(u, b), kind)
            assert [x.value for x in a.minima] == [x.value for x in c.minima]

    def test_bound_below_lambda_n_is_an_internal_error(self, monkeypatch):
        # The bounding norms always come from n independent lattice vectors,
        # so the pass at the top one covers lambda_n.  A pass that comes back
        # short of n independent vectors (here truncated to its first vector)
        # must fail loudly, not be doubled up or answered short.
        inner = enumeration._enumerate_rows
        monkeypatch.setattr(enumeration, "_enumerate_rows", lambda *args: inner(*args)[:1])
        with pytest.raises(InternalConsistencyError, match="bound 9 lies below lambda_2"):
            successive_minima(LatticeBasis([[1, 0], [0, 3]]), NormKind.L2)

    def test_scaling_law(self):
        rng = random.Random(13)
        for _ in range(15):
            n = rng.randint(1, 3)
            b = random_basis(rng, n, -3, 3)
            k = rng.randint(2, 4)
            scaled = LatticeBasis([[k * x for x in row] for row in b.rows])
            kind = rng.choice(list(NormKind))
            factor = k * k if kind is NormKind.L2 else k
            a = successive_minima(b, kind)
            c = successive_minima(scaled, kind)
            assert [x.value * factor for x in a.minima] == [x.value for x in c.minima]

    def test_skewed_z4_l1_within_a_small_ceiling(self):
        # A skewed basis of Z^4.  Enumerated on these rows from their largest
        # L1 norm (16, an L2 radius of 256) the search ran past 10,000
        # candidates; on the reduced basis it needs a few dozen.
        b = LatticeBasis([[1, 1, 2, 1], [2, 3, 7, 4], [0, 0, 2, 1], [1, 2, 8, 5]])
        sm = successive_minima(b, NormKind.L1, max_candidates=10_000)
        assert [nv.value for nv in sm.minima] == [1, 1, 1, 1]

    def test_smallest_sufficient_ceiling_is_pinned(self):
        # A skewed basis whose reduced Gram-Schmidt data is fractional: the
        # L1 minima need exactly 423 candidate evaluations in their largest
        # pass, so any moved pruning decision or search order shows here.
        b = LatticeBasis(
            [
                [0, 1, 4, -4, 3],
                [-1, -4, -1, 2, 0],
                [-1, -6, -10, 5, -5],
                [-3, 1, -2, -4, 3],
                [7, -10, -4, 16, -9],
            ]
        )
        sm = successive_minima(b, NormKind.L1, max_candidates=423)
        assert [nv.value for nv in sm.minima] == [6, 7, 8, 8, 8]
        assert sm.witnesses == (
            (3, 1, -2, 0, 0),
            (0, 0, 1, 5, -1),
            (0, 2, -3, 1, 2),
            (1, 1, 0, 1, -5),
            (1, 4, 1, -2, 0),
        )
        with pytest.raises(ResourceLimitError, match=r"exceeded 422 .*\(l1 pass, bound 11\)$"):
            successive_minima(b, NormKind.L1, max_candidates=422)

    def test_ceiling_in_the_l2_pass_of_an_l1_search(self):
        # L1/Linf minima run the L2 minima for their start bound when the
        # floor on lambda_n leaves room below the rows' bound; the error says
        # which of the two passes ran out.  On Z^3 under L1 the floor is
        # 1 = N_n, so only the L1 pass runs; parity_lattice(4) under Linf
        # still makes its L2 pass first.
        with pytest.raises(ResourceLimitError, match=r"\(l1 pass, bound 1\)$"):
            successive_minima(identity_basis(3), NormKind.L1, max_candidates=1)
        with pytest.raises(ResourceLimitError, match=r"exceeded 27 .*\(l2 pass, bound 4\)$"):
            successive_minima(parity_lattice(4), NormKind.LINF, max_candidates=27)

    def test_z9_linf_within_a_small_ceiling(self):
        # The Linf pass at bound 1 on Z^9 keeps each level's coefficients in
        # the Hoelder box |x| <= 1 and needs 14,766 candidates; pruned by the
        # circumscribing L2 ball (radius 3) alone, with two failing
        # evaluations per level, it needed 120,889.
        sm = successive_minima(identity_basis(9), NormKind.LINF, max_candidates=20_000)
        assert [nv.value for nv in sm.minima] == [1] * 9

    def test_lambda1_is_enumeration_minimum(self):
        rng = random.Random(17)
        for _ in range(10):
            b = random_basis(rng, 3, -3, 3)
            kind = rng.choice(list(NormKind))
            sm = successive_minima(b, kind)
            bigger = NormValue(kind, sm.minima[-1].value * 2)
            entries = enumerate_short(b, kind, bigger).entries
            assert min(e.norm.value for e in entries) == sm.minima[0].value


class TestWitnessCheck:
    def test_accepts_genuine_certificate(self):
        sm = successive_minima(identity_basis(3), NormKind.L2)
        assert minima_witness_check(identity_basis(3), sm)

    def test_rejects_wrong_norm_witness(self):
        sm = successive_minima(identity_basis(3), NormKind.L2)
        bad = type(sm)(
            kind=sm.kind,
            minima=sm.minima,
            witnesses=(sm.witnesses[0], (0, 2, 0), sm.witnesses[2]),
        )
        res = minima_witness_check(identity_basis(3), bad)
        assert not res
        assert any("norm" in p for p in res.problems)

    def test_rejects_dependent_witnesses(self):
        sm = successive_minima(identity_basis(3), NormKind.L2)
        bad = type(sm)(
            kind=sm.kind,
            minima=sm.minima,
            witnesses=(sm.witnesses[0], sm.witnesses[0], sm.witnesses[2]),
        )
        res = minima_witness_check(identity_basis(3), bad)
        assert not res

    def test_rejects_a_minimum_of_the_wrong_kind(self):
        sm = successive_minima(identity_basis(3), NormKind.L2)
        minima = (sm.minima[0], NormValue(NormKind.L1, 1), sm.minima[2])
        res = minima_witness_check(identity_basis(3), sm._replace(minima=minima))
        assert res.problems == ("minimum 2 has kind l1, expected l2",)

    def test_rejects_minima_out_of_order(self):
        b = LatticeBasis([[1, 0, 0], [0, 2, 0], [0, 0, 3]])
        sm = successive_minima(b, NormKind.L2)
        swapped = sm._replace(
            minima=(sm.minima[1], sm.minima[0], sm.minima[2]),
            witnesses=(sm.witnesses[1], sm.witnesses[0], sm.witnesses[2]),
        )
        res = minima_witness_check(b, swapped)
        assert res.problems == ("minima are not nondecreasing at position 2",)

    def test_rejects_minima_a_fresh_search_does_not_find(self):
        # Lattice points, claimed at their own norms, independent and in
        # order: only the fresh search sees that lambda_3 of Z^3 is 1.
        sm = successive_minima(identity_basis(3), NormKind.L2)
        claimed = sm._replace(
            minima=tuple(NormValue(NormKind.L2, v) for v in (1, 1, 3)),
            witnesses=((1, 0, 0), (0, 1, 0), (1, 1, 1)),
        )
        res = minima_witness_check(identity_basis(3), claimed)
        assert res.problems == ("minimum 3 should be 1, certificate says 3",)

    def test_parity_witnesses_valid_but_not_a_basis(self):
        b = parity_lattice(5)
        sm = successive_minima(b, NormKind.L2)
        assert minima_witness_check(b, sm)
        assert not is_basis_of(sm.witnesses, b)


L1, L2, LINF = NormKind.L1, NormKind.L2, NormKind.LINF

# The skewed basis of the 423/422 pin above.
SKEWED_5 = (
    (0, 1, 4, -4, 3),
    (-1, -4, -1, 2, 0),
    (-1, -6, -10, 5, -5),
    (-3, 1, -2, -4, 3),
    (7, -10, -4, 16, -9),
)

# (rows, kind, bound or None for successive_minima, smallest sufficient
# max_candidates, the ResourceLimitError message one below it).  Skewed bases
# of dims 2-6 and parity lattices under all three norms; the thresholds are
# the search's exact work, so any change to the visited set or to the order of
# the passes shows here.
WORK_TABLE = [
    (((-3, 1), (-1, 1)), L1, None, 7, "6 candidate evaluations (l1 pass, bound 2)"),
    (((-1, -3), (2, 1)), LINF, 9, 57, "56 candidate evaluations (linf pass, bound 9)"),
    (((2, 0, -4), (4, 5, -19), (1, -2, 2)), L2, None, 16, "15 candidate evaluations (l2 pass, bound 8)"),
    (((-4, 1, 5), (-4, -3, 4), (-2, 4, 1)), L1, 12, 111, "110 candidate evaluations (l1 pass, bound 12)"),
    (
        ((10, 3, -11, 2), (-3, 1, -4, -1), (-3, -4, -3, -4), (7, 6, -1, 3)),
        LINF, None, 51, "50 candidate evaluations (linf pass, bound 5)",
    ),
    (
        ((1, 2, -2, 4), (0, -1, -3, 1), (4, 0, 5, -5), (-3, -4, 2, -4)),
        L2, 60, 174, "173 candidate evaluations (l2 pass, bound 60)",
    ),
    (
        ((6, 3, -1, -5, 3), (3, -3, -3, 2, 4), (2, -1, 0, 2, 4), (-2, 1, 0, 4, -2), (1, -3, -4, 4, 0)),
        L1, None, 666, "665 candidate evaluations (l1 pass, bound 9)",
    ),
    (
        ((4, 1, -1, 3, -1), (3, 0, 2, -2, 3), (-4, -3, -4, 4, -10), (0, 5, 6, -1, 2), (1, 1, 2, 0, 2)),
        L2, None, 34, "33 candidate evaluations (l2 pass, bound 27)",
    ),
    (
        (
            (0, 3, 0, -6, -4, -5), (1, 0, 3, 3, 4, -4), (0, -2, 2, 3, 1, 4),
            (-4, -2, -3, 2, -4, 0), (3, 1, -2, -3, 4, 4), (4, -3, 2, 0, -1, -3),
        ),
        LINF, None, 580, "579 candidate evaluations (linf pass, bound 4)",
    ),
    (
        (
            (4, 3, -1, 0, 1, 0), (-1, -1, 1, 2, 0, -3), (1, -4, -2, 4, 4, 0),
            (1, 1, -2, -4, 1, -4), (4, -4, -2, -3, 3, 0), (-2, 4, -2, 1, 2, 2),
        ),
        L1, None, 707, "706 candidate evaluations (l1 pass, bound 10)",
    ),
    (parity_lattice(5).rows, L2, None, 34, "33 candidate evaluations (l2 pass, bound 4)"),
    (parity_lattice(6).rows, L1, 6, 5359, "5358 candidate evaluations (l1 pass, bound 6)"),
    (parity_lattice(4).rows, LINF, None, 28, "27 candidate evaluations (l2 pass, bound 4)"),
]


def _run_at(rows, kind, bound, max_candidates):
    b = LatticeBasis(rows)
    if bound is None:
        return successive_minima(b, kind, max_candidates=max_candidates)
    return enumerate_short(b, kind, NormValue(kind, bound), max_candidates=max_candidates)


class TestExactWork:
    @pytest.mark.parametrize("rows, kind, bound, k, message", WORK_TABLE)
    def test_smallest_sufficient_ceiling(self, rows, kind, bound, k, message):
        assert _run_at(rows, kind, bound, k) == _run_at(rows, kind, bound, DEFAULT_MAX_CANDIDATES)
        with pytest.raises(ResourceLimitError) as err:
            _run_at(rows, kind, bound, k - 1)
        assert str(err.value) == "enumeration exceeded " + message

    @pytest.mark.parametrize(
        "rows, kind, bound",
        [row[:3] for row in WORK_TABLE]
        + [(parity_lattice(n).rows, kind, None) for n in range(2, 11) for kind in NormKind],
    )
    def test_no_pass_runs_above_the_single_pass_bound(self, passes, rows, kind, bound):
        # A probe only adds a pass below the bound a one-pass search starts
        # from, so no pass visits more of the tree than that search did.
        _run_at(rows, kind, bound, DEFAULT_MAX_CANDIDATES)
        made = list(passes)
        limits = {kind: bound} if bound is not None else single_pass_bounds(rows, kind)
        assert made and all(value <= limits[k] for k, value in made), (made, limits)

    @pytest.mark.parametrize("n", range(5, 11))
    def test_parity_l2_minima_come_from_one_probe_pass(self, passes, n):
        # The reduced rows have norms 4 and n (the two odd rows): the probe at
        # 4 holds the n vectors 2e_i, and no odd vector is enumerated.
        sm = successive_minima(parity_lattice(n), L2)
        assert [nv.value for nv in sm.minima] == [4] * n
        assert passes == [(L2, 4)]

    @pytest.mark.parametrize(
        "rows, expected",
        [
            # One row has the top norm: no probe, though the radius test
            # alone would allow it.
            (((2, 0), (1, 2)), [(L2, 5)]),
            # The probe's radius 1 is below the last Gram-Schmidt length 2:
            # no probe.
            (((1, 0, 0), (0, 2, 0), (0, 0, 2)), [(L2, 4)]),
            # Norms 14, 17, 17: the probe at 14 finds two independent
            # vectors, one short, and the pass at 17 follows.
            (((-2, -2, 3), (1, -2, -3), (2, -3, 2)), [(L2, 14), (L2, 17)]),
        ],
    )
    def test_probe_gate(self, passes, rows, expected):
        successive_minima(LatticeBasis(rows), L2)
        assert passes == expected

    @pytest.mark.parametrize(
        "rows, kind, expected",
        [
            # The floor 1 meets N_n = 1: no L2 search.
            (identity_basis(3).rows, L1, [(L1, 1)]),
            # The floor 1 leaves room below N_n = 2: the L2 search runs, and
            # its witnesses lower the bound to 1.
            (parity_lattice(4).rows, LINF, [(L2, 4), (LINF, 1)]),
            # Norms 3, 4, 4 and the floor 196/56 = 3.5: neither the L2 search
            # nor the probe at 3 can lower the bound, though the probe's L2
            # radius reaches the last Gram-Schmidt length.
            (((-2, -2, -1), (0, 2, -1), (-1, -3, -3)), L1, [(L1, 4)]),
            # Norms 2, 3, 3 and the floor 729/351 > 2.
            (((-3, 3, 3), (-1, 3, 0), (-1, -2, -2)), LINF, [(LINF, 3)]),
        ],
    )
    def test_floor_gates(self, passes, rows, kind, expected):
        successive_minima(LatticeBasis(rows), kind)
        assert passes == expected

    # What the benchmark tracer reports as enumeration.leaves: every call of
    # enumeration.measure, the start-bound row norms included.
    @pytest.fixture
    def leaves(self, monkeypatch):
        count = [0]
        real = enumeration.measure

        def counted(vec, kind):
            count[0] += 1
            return real(vec, kind)

        monkeypatch.setattr(enumeration, "measure", counted)
        return count

    @pytest.mark.parametrize("n, expected", [(3, 23), (4, 36), (5, 25), (6, 30), (7, 35)])
    def test_leaf_count_l1_parity_check(self, leaves, n, expected):
        check_standard(parity_lattice(n), L1)
        assert leaves[0] == expected

    @pytest.mark.parametrize(
        "rows, kind, expected",
        [(SKEWED_5, L1, 317), (WORK_TABLE[7][0], L2, 18), (WORK_TABLE[8][0], LINF, 494)],
    )
    def test_leaf_count_skewed_minima(self, leaves, rows, kind, expected):
        successive_minima(LatticeBasis(rows), kind)
        assert leaves[0] == expected

    def test_leaves_are_measured_through_module_globals(self):
        # The benchmark tracer counts leaves by wrapping enumeration.measure;
        # binding it any other way (a default argument, a renamed import)
        # would hide every leaf from it.
        def global_names(code):
            names = set(code.co_names)
            for const in code.co_consts:
                if hasattr(const, "co_names"):
                    names |= global_names(const)
            return names

        assert "measure" in global_names(enumeration._enumerate_rows.__code__)
        assert enumeration._enumerate_rows.__globals__ is vars(enumeration)


class TestLambdaNFloor:
    @staticmethod
    def reference_floor(rows, kind):
        # ||b*||^2 / ||b*||_dual for the last Fraction Gram-Schmidt vector,
        # and ||b*||^2 itself under L2.
        _, bstar, bstar_sq = reference_gso_rows(rows)
        last = [abs(x) for x in bstar[-1]]
        dual = {L1: max(last), LINF: sum(last), L2: 1}[kind]
        return bstar_sq[-1] / dual

    @pytest.mark.parametrize("kind", list(NormKind))
    @pytest.mark.parametrize("n", range(1, 6))
    def test_floor_is_below_lambda_n(self, n, kind):
        rng = random.Random(100 * n + list(NormKind).index(kind))
        span = 3 if n < 5 else 1  # the oracle's box grows with |det|
        for _ in range(4):
            basis = apply_unimodular(random_unimodular(rng, n), random_basis(rng, n, -span, span))
            search = enumeration._ReducedSearch(basis.rows, kind)
            p, q = search.floor(kind)
            assert Fraction(p, q) == self.reference_floor(search.rows, kind)
            if kind is L2:
                assert (p, q) == (search.d[n], search.d[n - 1])
            assert Fraction(p, q) <= brute_minima(basis, kind).minima[-1].value

    @pytest.mark.parametrize("kind", list(NormKind))
    def test_floor_meets_lambda_n_on_the_integer_lattice(self, kind):
        search = enumeration._ReducedSearch(identity_basis(4).rows, kind)
        assert search.floor(kind) == (1, 1)


class TestOneReductionPerSearch:
    # A search reduces its basis once and builds its star rows at most once,
    # whatever passes it makes: an L1/Linf search's L2 bounding search reuses
    # both, and an L2 search builds no star row at all.
    @pytest.fixture
    def calls(self, monkeypatch):
        counts = {"_lll_rows": 0, "_star_rows": 0}
        for name in counts:

            def counted(*args, name=name, inner=getattr(enumeration, name)):
                counts[name] += 1
                return inner(*args)

            monkeypatch.setattr(enumeration, name, counted)
        return counts

    @pytest.mark.parametrize(
        "call, made, star_rows",
        [
            (lambda: successive_minima(parity_lattice(4), LINF), [(L2, 4), (LINF, 1)], 1),
            (lambda: check_standard(parity_lattice(6), L1), [(L2, 4), (L1, 2)], 1),
            (
                lambda: check_standard(LatticeBasis(((-2, -2, 3), (1, -2, -3), (2, -3, 2))), L2),
                [(L2, 14), (L2, 17)],
                0,
            ),
        ],
    )
    def test_passes_share_one_reduction(self, calls, passes, call, made, star_rows):
        call()
        assert passes == made
        assert calls == {"_lll_rows": 1, "_star_rows": star_rows}
