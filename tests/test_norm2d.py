import inspect
import random

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from stdlattice import (
    InternalConsistencyError,
    LatticeBasis,
    NormKind,
    StructuralError,
    brute_minima,
    exactlin,
    is_basis_of,
    measure,
    min_translate,
    norm2d,
    reduce_2d,
)
from util import identity_basis, random_basis, reference_min_translate

ENTRIES = st.integers(-9, 9)
VECTORS = st.tuples(ENTRIES, ENTRIES)
# Row operations rows[i] += c * rows[1 - i]: a skewed presentation.
SKEWS = st.lists(st.tuples(st.integers(0, 1), st.sampled_from([-5, -3, -2, 2, 3, 5])), max_size=8)


def brute_translate(b2, b1, kind, window=400):
    """The minimizer of ||b2 + q b1|| over |q| <= window, ties to the
    smallest |q|, then the nonnegative one."""
    values = {q: measure(tuple(v + q * u for v, u in zip(b2, b1)), kind).value for q in range(-window, window + 1)}
    best = min(values.values())
    return min((q for q, v in values.items() if v == best), key=lambda q: (abs(q), q < 0))


def meets_gauss_criterion(b1, b2, kind) -> bool:
    plus = measure((b2[0] + b1[0], b2[1] + b1[1]), kind).value
    minus = measure((b2[0] - b1[0], b2[1] - b1[1]), kind).value
    return measure(b1, kind).value <= measure(b2, kind).value <= min(plus, minus)


@st.composite
def gauss_pairs(draw):
    """(b1, b2, kind) with entries in [-9, 9] meeting the criterion under kind,
    b2 drawn from every partner of b1 that does (b1's rotation by a right
    angle always does)."""
    kind = draw(st.sampled_from(list(NormKind)))
    b1 = draw(VECTORS.filter(any))
    box = range(-9, 10)
    partners = [
        (x, y)
        for x in box
        for y in box
        if b1[0] * y != b1[1] * x and meets_gauss_criterion(b1, (x, y), kind)
    ]
    return b1, draw(st.sampled_from(partners)), kind


def skewed(b1, b2, skews) -> LatticeBasis:
    rows = [list(b1), list(b2)]
    for i, c in skews:
        rows[i] = [a + c * b for a, b in zip(rows[i], rows[1 - i])]
    return LatticeBasis(rows)


class TestMinTranslate:
    def test_orthogonal_coordinate_rounding(self):
        assert min_translate((3, 1), (1, 0), NormKind.L2) == -3

    def test_already_minimal(self):
        for kind in NormKind:
            assert min_translate((0, 1), (1, 0), kind) == 0

    def test_rejects_zero_translator(self):
        with pytest.raises(StructuralError):
            min_translate((1, 1), (0, 0), NormKind.L2)

    @pytest.mark.parametrize(
        "kind, expected, translates",
        [(NormKind.L1, -3, [(-1, -7), (1, -6)]), (NormKind.LINF, -1, [(3, -5), (5, -4)])],
    )
    def test_measures_each_input_at_most_once(self, monkeypatch, kind, expected, translates):
        # The only real minimizer is -7/2 under L1 and -4/3 under Linf, so
        # only the two translates around it are measured, floor first, and
        # neither b2 nor b1 is.  Under Linf q = -2 and q = -1 tie at 5, and
        # the one nearer 0 wins.
        measured = []
        real_measure = norm2d.measure
        monkeypatch.setattr(norm2d, "measure", lambda v, k: measured.append(v) or real_measure(v, k))
        b2, b1 = (7, -3), (2, 1)
        assert min_translate(b2, b1, kind) == expected == brute_translate(b2, b1, kind)
        assert b2 not in measured and b1 not in measured
        assert measured == translates

    @pytest.mark.parametrize("kind, inside, compared", [(NormKind.L1, 76, 124), (NormKind.LINF, 55, 145)])
    def test_measures_no_translate_twice(self, monkeypatch, kind, inside, compared):
        # Each call either finds an integer inside the interval of real
        # minimizers and measures nothing, or compares the two integers
        # around it with one measure each; both branches are pinned.
        measured = []
        real_measure = norm2d.measure
        monkeypatch.setattr(norm2d, "measure", lambda v, k: measured.append(v) or real_measure(v, k))
        rng = random.Random(79)
        branches = {0: 0, 2: 0}
        for _ in range(200):
            n = rng.randint(2, 4)
            b1 = tuple(rng.randint(-5, 5) for _ in range(n))
            b2 = tuple(rng.randint(-300, 300) for _ in range(n))
            if not any(b1) or not any(b1[i] * b2[j] - b1[j] * b2[i] for i in range(n) for j in range(n)):
                continue
            measured.clear()
            assert min_translate(b2, b1, kind) == brute_translate(b2, b1, kind, window=700)
            assert len(measured) == len(set(measured)), measured
            assert len(measured) in branches, measured
            branches[len(measured)] += 1
        assert branches == {0: inside, 2: compared}

    @pytest.mark.parametrize("kind", [NormKind.L1, NormKind.LINF])
    def test_measures_nothing_when_zero_is_optimal(self, monkeypatch, kind):
        # 0 lies in the interval of real minimizers: {0} under L1, [-5, 5]
        # under Linf, so the answer needs no measure.
        measured = []
        real_measure = norm2d.measure
        monkeypatch.setattr(norm2d, "measure", lambda v, k: measured.append(v) or real_measure(v, k))
        b2, b1 = (0, 5, -2), (1, 0, 0)
        assert min_translate(b2, b1, kind) == 0
        assert measured == []

    @pytest.mark.parametrize("kind", [NormKind.L1, NormKind.LINF])
    def test_giant_entries_cost_at_most_two_measures(self, monkeypatch, kind):
        # 3,000-digit entries: the closed form measures at most the two
        # integers around the real minimizer, where a search over q would
        # measure a number of translates that grows with the digits.
        b2, b1 = (3 * 10**3000 + 1, -7 * 10**3000), (2, 1)
        expected = reference_min_translate(b2, b1, kind)
        measured = []
        real_measure = norm2d.measure
        monkeypatch.setattr(norm2d, "measure", lambda v, k: measured.append(v) or real_measure(v, k))
        assert min_translate(b2, b1, kind) == expected
        assert len(measured) <= 2

    @pytest.mark.parametrize("kind", [NormKind.L1, NormKind.LINF])
    @pytest.mark.parametrize("side", ["left", "right", "across"])
    def test_differential_on_plateaus(self, kind, side):
        # f is flat on [c - h, c + h]: under Linf b1 = e1 and b2 = (-c, h, r)
        # with |r| <= h, under L1 b1 = e1 + e2 and b2 = (h - c, -h - c, r).
        # The minimizer nearest 0 is the plateau's near end, or 0 inside it.
        rng = random.Random(f"{kind.value}-{side}")
        for _ in range(40):
            n = rng.randint(2, 4)
            h = rng.randint(1, 60)
            c = {"left": -rng.randint(h + 1, 300), "right": rng.randint(h + 1, 300), "across": rng.randint(-h, h)}[side]
            if kind is NormKind.LINF:
                b1 = (1,) + (0,) * (n - 1)
                b2 = (-c, h) + tuple(rng.randint(-h, h) for _ in range(n - 2))
            else:
                b1 = (1, 1) + (0,) * (n - 2)
                b2 = (h - c, -h - c) + tuple(rng.randint(-500, 500) for _ in range(n - 2))
            expected = {"left": c + h, "right": c - h, "across": 0}[side]
            assert min_translate(b2, b1, kind) == expected
            assert brute_translate(b2, b1, kind) == expected

    @pytest.mark.parametrize("kind", [NormKind.L1, NormKind.LINF])
    def test_differential_against_the_bisection(self, kind):
        # 10,000 seeded cases a norm against the bisection the closed form
        # replaced: dims 1-6, b1 with zero coordinates, entries up to 10^30,
        # and the plateau shapes of test_differential_on_plateaus scaled up.
        rng = random.Random(f"bisection-{kind.value}")
        seen = {"one coordinate": 0, "zero in b1": 0, "plateau": 0, "giant": 0}
        for _ in range(10_000):
            big = 10 ** rng.randint(0, 30)
            if rng.random() < 0.2:
                n = rng.randint(2, 6)
                h, c = rng.randint(1, big), rng.randint(-2 * big, 2 * big)
                if kind is NormKind.LINF:
                    b1 = (1,) + (0,) * (n - 1)
                    b2 = (-c, h) + tuple(rng.randint(-h, h) for _ in range(n - 2))
                else:
                    b1 = (1, 1) + (0,) * (n - 2)
                    b2 = (h - c, -h - c) + tuple(rng.randint(-big, big) for _ in range(n - 2))
                seen["plateau"] += 1
            else:
                n = rng.randint(1, 6)
                small = rng.choice([1, 3, 9, 100, big])
                b1 = tuple(rng.choice([0, rng.randint(-small, small)]) for _ in range(n))
                if not any(b1):
                    b1 = b1[:-1] + (rng.choice([-1, 1]) * rng.randint(1, small),)
                b2 = tuple(rng.randint(-big, big) for _ in range(n))
            seen["one coordinate"] += n == 1
            seen["zero in b1"] += 0 in b1
            seen["giant"] += max(map(abs, b2)) >= 10**25
            assert min_translate(b2, b1, kind) == reference_min_translate(b2, b1, kind), (b2, b1)
        assert min(seen.values()) >= 1000, seen

    @settings(max_examples=300, deadline=None)
    @given(
        st.integers(1, 4).flatmap(
            lambda n: st.tuples(
                st.tuples(*[st.integers(-60, 60)] * n),
                st.tuples(*[st.integers(-5, 5)] * n).filter(any),
            )
        ),
        st.sampled_from([NormKind.L1, NormKind.LINF]),
    )
    @example(((7,), (2,)), NormKind.L1)
    @example(((7,), (-2,)), NormKind.LINF)
    @example(((3, -40, 9), (0, 3, 0)), NormKind.L1)
    @example(((3, -40, 9), (0, 3, 0)), NormKind.LINF)
    def test_differential_against_the_scan(self, vectors, kind):
        # The answer lies within 1 of the hull of 0 and the breakpoints
        # -b2_i / b1_i, all within 60 of 0, so the scan's window of 400
        # covers it.
        # The examples pin one coordinate and b1 with zero coordinates, whose
        # constants set the least value under Linf.
        b2, b1 = vectors
        assert min_translate(b2, b1, kind) == brute_translate(b2, b1, kind)

    @pytest.mark.parametrize("kind", list(NormKind))
    def test_differential_in_two_to_four_coordinates(self, kind):
        # Each minimizer of sum or max of |b2_i + q b1_i| lies between the
        # extreme ratios -b2_i / b1_i, so |q| <= 500 covers the one nearest 0.
        rng = random.Random(113)
        for _ in range(30):
            n = rng.randint(2, 4)
            b1 = tuple(rng.randint(-9, 9) for _ in range(n))
            if not any(b1):
                b1 = (1,) * n
            b2 = tuple(rng.randint(-500, 500) for _ in range(n))
            assert min_translate(b2, b1, kind) == brute_translate(b2, b1, kind, window=500)

    @pytest.mark.parametrize("kind", [NormKind.L1, NormKind.LINF, NormKind.L2])
    def test_agrees_with_exhaustive_scan(self, kind):
        rng = random.Random(83)
        for _ in range(60):
            b1 = (rng.randint(-6, 6), rng.randint(-6, 6))
            if b1 == (0, 0):
                b1 = (1, 0)
            b2 = (rng.randint(-40, 40), rng.randint(-40, 40))
            assert min_translate(b2, b1, kind) == brute_translate(b2, b1, kind)

    @pytest.mark.parametrize(
        "b2, b1, expected",
        [((1, 0), (2, 0), 0), ((3, 0), (2, 0), -1), ((-3, 0), (2, 0), 1), ((5, 7), (2, 0), -2), ((-5, 1), (2, 0), 2)],
    )
    def test_exact_l2_half_ties(self, b2, b1, expected):
        # ||b2 + q b1|| is equal at the two integers around -<b2, b1>/<b1, b1>,
        # a half-integer: the smaller |q| wins.
        assert min_translate(b2, b1, NormKind.L2) == expected
        assert brute_translate(b2, b1, NormKind.L2) == expected

    @settings(max_examples=100, deadline=None)
    @given(VECTORS, st.integers(-20, 20), st.integers(-5, 5), st.sampled_from(list(NormKind)))
    def test_differential_on_half_integer_optima(self, c, m, t, kind):
        # b1 = 2c and b2 = (2m + 1) c + t c^perp: under L2 the real optimum is
        # -(2m + 1)/2, an exact tie between two integers.
        assume(any(c))
        b1 = (2 * c[0], 2 * c[1])
        b2 = ((2 * m + 1) * c[0] - t * c[1], (2 * m + 1) * c[1] + t * c[0])
        assert min_translate(b2, b1, kind) == brute_translate(b2, b1, kind)

    def test_unimodality_witness(self):
        rng = random.Random(89)
        for _ in range(40):
            kind = rng.choice(list(NormKind))
            b1 = (rng.randint(-5, 5), rng.randint(-5, 5))
            if b1 == (0, 0):
                b1 = (0, 1)
            b2 = (rng.randint(-9, 9), rng.randint(-9, 9))

            def f(t):
                return measure((b2[0] + t * b1[0], b2[1] + t * b1[1]), kind).value

            for q in range(-10, 11):
                assert f(q) <= max(f(q - 1), f(q + 1))


class TestReduce2D:
    def test_identity_unchanged(self):
        for kind in NormKind:
            red = reduce_2d(identity_basis(2), kind)
            assert (red.b1, red.b2) == ((1, 0), (0, 1))

    def test_shear_reduces_to_unit_norms(self):
        red = reduce_2d(LatticeBasis([[1, 0], [3, 1]]), NormKind.L2)
        assert [nv.value for nv in red.norms] == [1, 1]

    def test_l1_example_minima(self):
        red = reduce_2d(LatticeBasis([[2, 1], [1, 2]]), NormKind.L1)
        assert [nv.value for nv in red.norms] == [2, 3]
        assert is_basis_of((red.b1, red.b2), LatticeBasis([[2, 1], [1, 2]]))

    def test_rejects_other_dimensions(self):
        with pytest.raises(StructuralError):
            reduce_2d(identity_basis(3), NormKind.L2)

    @pytest.mark.parametrize("kind", list(NormKind))
    def test_achieves_minima_on_random_bases(self, kind):
        rng = random.Random(97)
        for _ in range(60):
            b = random_basis(rng, 2, -9, 9)
            red = reduce_2d(b, kind)
            sm = brute_minima(b, kind)
            assert [nv.value for nv in red.norms] == [nv.value for nv in sm.minima]
            assert is_basis_of((red.b1, red.b2), b)
            assert red.norms[0].value <= red.norms[1].value

    def test_makes_no_enumeration_pass_and_no_gram_schmidt(self, passes, monkeypatch):
        rng = random.Random(101)
        bases = [random_basis(rng, 2, -12, 12) for _ in range(30)]
        bases.append(LatticeBasis([[1, 0], [10**30, 1]]))

        def no_gso(rows):
            raise AssertionError("reduce_2d built a Gram-Schmidt basis")

        monkeypatch.setattr(exactlin, "_integral_gso", no_gso)
        for basis in bases:
            for kind in NormKind:
                reduce_2d(basis, kind)
        assert passes == []

    def test_measures_each_norm_once(self, monkeypatch):
        # A Fibonacci pair takes six translates under L2, where min_translate
        # measures nothing; the sixth is 0 and ends the loop unmeasured.  The
        # two inputs, the five nonzero translates and the criterion's b2 + b1
        # and b2 - b1 are all that is measured.
        measured, translates = [], []
        real_measure, real_translate = norm2d.measure, norm2d.min_translate

        def counting_measure(v, k):
            measured.append(v)
            return real_measure(v, k)

        def counting_translate(b2, b1, k):
            translates.append(None)
            return real_translate(b2, b1, k)

        monkeypatch.setattr(norm2d, "measure", counting_measure)
        monkeypatch.setattr(norm2d, "min_translate", counting_translate)
        red = reduce_2d(LatticeBasis([[34, 21], [55, 34]]), NormKind.L2)
        assert (red.b1, red.b2) == ((1, 0), (0, 1))
        assert len(translates) == 6
        assert len(measured) == 2 + 5 + 2

    def test_measure_count_on_a_seeded_corpus(self, monkeypatch):
        # A deterministic work count in place of a timing: the norm2d.measure
        # calls of reduce_2d over a fixed corpus, pinned so that a repeated
        # measure shows.
        measured = []
        real_measure = norm2d.measure
        monkeypatch.setattr(norm2d, "measure", lambda v, k: measured.append(v) or real_measure(v, k))
        rng = random.Random(73)
        for basis in [random_basis(rng, 2, -40, 40) for _ in range(60)]:
            for kind in NormKind:
                reduce_2d(basis, kind)
        assert len(measured) == 1359

    @pytest.mark.parametrize("kind", list(NormKind))
    def test_giant_entries_cost_five_measures(self, monkeypatch, kind):
        # b2 = (10^3000, 1) against b1 = e1: one translate by -10^3000 (L1,
        # L2) or -10^3000 + 1 (Linf) reaches a vector of norm 1, and the step
        # after it is 0.  The two inputs, that translate and the criterion's
        # b2 + b1 and b2 - b1 are all that is measured.
        measured = []
        real_measure = norm2d.measure
        monkeypatch.setattr(norm2d, "measure", lambda v, k: measured.append(v) or real_measure(v, k))
        red = reduce_2d(LatticeBasis([[1, 0], [10**3000, 1]]), kind)
        assert [nv.value for nv in red.norms] == [1, 1]
        assert len(measured) == 5


class TestGaussCriterion:
    @settings(max_examples=300, deadline=None)
    @given(gauss_pairs(), SKEWS)
    def test_pairs_meeting_the_criterion_attain_the_minima(self, pair, skews):
        # The generalized Gauss reduction theorem: under any norm, a pair with
        # ||b1|| <= ||b2|| <= min(||b2 + b1||, ||b2 - b1||) attains both minima
        # of the lattice it spans, whatever basis presents that lattice.
        b1, b2, kind = pair
        basis = skewed(b1, b2, skews)
        norms = [measure(b1, kind).value, measure(b2, kind).value]
        assert [nv.value for nv in brute_minima(basis, kind).minima] == norms
        assert [nv.value for nv in reduce_2d(basis, kind).norms] == norms

    @pytest.mark.parametrize("kind", list(NormKind))
    @pytest.mark.parametrize("rows", [[[1, 0], [37, 1]], [[7, 3], [4, 2]], [[5, 8], [13, 21]], [[89, 55], [34, 21]]])
    def test_loop_stopped_one_step_early_is_caught(self, monkeypatch, kind, rows):
        basis = LatticeBasis(rows)
        real = norm2d.min_translate
        calls = []

        def counting(b2, b1, k):
            calls.append(None)
            return real(b2, b1, k)

        monkeypatch.setattr(norm2d, "min_translate", counting)
        reduce_2d(basis, kind)
        # The last call finds no improvement; the one before it makes the last step.
        last_step = len(calls) - 1
        assert last_step >= 1

        def skipping(b2, b1, k):
            calls.append(None)
            return 0 if len(calls) == last_step else real(b2, b1, k)

        calls.clear()
        monkeypatch.setattr(norm2d, "min_translate", skipping)
        with pytest.raises(InternalConsistencyError, match="Gauss criterion"):
            reduce_2d(basis, kind)

    @pytest.mark.parametrize("kind", list(NormKind))
    @pytest.mark.parametrize(
        "pair",
        [((0, 1), (4, 0)), ((1, 0), (0, 2))],
        ids=["members-with-twice-the-covolume", "right-covolume-with-a-non-member"],
    )
    def test_pair_that_is_no_basis_is_caught(self, monkeypatch, kind, pair):
        # Both pairs meet the criterion; neither is a basis of 2Z x Z.
        assert meets_gauss_criterion(*pair, kind)
        norms = tuple(measure(v, kind) for v in pair)
        monkeypatch.setattr(norm2d, "_gauss_loop", lambda b1, b2, k: pair + norms)
        with pytest.raises(InternalConsistencyError, match="lost the basis property"):
            reduce_2d(LatticeBasis([[2, 0], [0, 1]]), kind)


def test_takes_no_candidate_ceiling():
    # reduce_2d enumerates nothing, so it has no ceiling to take.
    assert list(inspect.signature(reduce_2d).parameters) == ["basis", "kind"]
    with pytest.raises(TypeError):
        reduce_2d(LatticeBasis([[1, 0], [5, 1]]), NormKind.L1, max_candidates=5)
