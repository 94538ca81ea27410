import random

import pytest

from stdlattice import (
    NormKind,
    ResourceLimitError,
    Verdict,
    enumerate_short,
    exactlin,
    member,
    parity_lattice,
    verify_family,
)
from stdlattice.norms import NormValue


class TestParityLattice:
    def test_dimension_5_rows(self):
        b = parity_lattice(5)
        assert b.rows == (
            (2, 0, 0, 0, 0),
            (0, 2, 0, 0, 0),
            (0, 0, 2, 0, 0),
            (0, 0, 0, 2, 0),
            (1, 1, 1, 1, 1),
        )

    def test_dimension_1_is_the_integers(self):
        assert parity_lattice(1).rows == ((1,),)

    def test_rejects_nonpositive_dimension(self):
        with pytest.raises(ValueError):
            parity_lattice(0)

    def test_small_members_share_parity(self):
        b = parity_lattice(3)
        out = enumerate_short(b, NormKind.LINF, NormValue(NormKind.LINF, 3))
        assert out.entries
        for vec, _ in out.entries:
            parities = {x % 2 for x in vec}
            assert len(parities) == 1

    def test_membership_law(self):
        rng = random.Random(103)
        for n in range(1, 6):
            b = parity_lattice(n)
            for _ in range(40):
                v = tuple(rng.randint(-6, 6) for _ in range(n))
                expected = len({x % 2 for x in v}) == 1
                assert (member(b, v) is not None) == expected

    def test_determinant_law(self):
        for n in range(1, 9):
            assert abs(parity_lattice(n).det) == 2 ** (n - 1)


class TestVerifyFamily:
    def test_dimension_cap_checked_before_any_determinant(self, monkeypatch):
        dets = []
        monkeypatch.setattr(exactlin, "_bareiss_det", lambda mat: dets.append(mat) or 1)
        with pytest.raises(ResourceLimitError, match="dimension 400 exceeds the configured cap 12"):
            verify_family(400, NormKind.L2, max_dim=12)
        assert dets == []

    def test_5_l2(self):
        rep = verify_family(5, NormKind.L2)
        assert rep.verdict is Verdict.NON_STANDARD
        assert [nv.value for nv in rep.minima.minima] == [4, 4, 4, 4, 4]
        assert rep.parity_argument.odd_coset_min.value == 5
        assert rep.parity_argument.even_coset_min.value == 4
        assert rep.parity_argument.consistent

    def test_4_l2_standard(self):
        rep = verify_family(4, NormKind.L2)
        assert rep.verdict is Verdict.STANDARD
        assert rep.parity_argument.consistent

    def test_3_l1(self):
        rep = verify_family(3, NormKind.L1)
        assert rep.verdict is Verdict.NON_STANDARD
        assert [nv.value for nv in rep.minima.minima] == [2, 2, 2]
        assert rep.parity_argument.odd_coset_min.value == 3
        assert rep.parity_argument.even_coset_min.value == 2
        assert rep.parity_argument.consistent

    def test_2_l1_standard(self):
        # Dimension 2 is standard under every built-in norm, so the family
        # report for the smallest L1 case comes back Standard.
        rep = verify_family(2, NormKind.L1)
        assert rep.verdict is Verdict.STANDARD
        assert rep.parity_argument.consistent

    def test_verdict_tables(self):
        for n in range(1, 9):
            rep = verify_family(n, NormKind.L2)
            expected = Verdict.NON_STANDARD if n >= 5 else Verdict.STANDARD
            assert rep.verdict is expected, f"L2 at n={n}"
            assert rep.parity_argument.consistent
        for n in range(1, 9):
            rep = verify_family(n, NormKind.L1)
            expected = Verdict.NON_STANDARD if n >= 3 else Verdict.STANDARD
            assert rep.verdict is expected, f"L1 at n={n}"
            assert rep.parity_argument.consistent

    def test_coset_minima_match_enumeration(self):
        for n in (2, 3, 4, 5):
            for kind in NormKind:
                rep = verify_family(n, kind)
                bound = NormValue(
                    kind,
                    max(
                        rep.parity_argument.odd_coset_min.value,
                        rep.parity_argument.even_coset_min.value,
                    ),
                )
                entries = enumerate_short(parity_lattice(n), kind, bound).entries
                odd = [e.norm.value for e in entries if all(x % 2 != 0 for x in e.vector)]
                even = [e.norm.value for e in entries if all(x % 2 == 0 for x in e.vector)]
                assert min(odd) == rep.parity_argument.odd_coset_min.value
                assert min(even) == rep.parity_argument.even_coset_min.value

    def test_determinant_obstruction_recorded(self):
        rep = verify_family(6, NormKind.L2)
        assert rep.parity_argument.covolume == 32
        assert rep.parity_argument.even_tuple_divisor == 64
        assert rep.parity_argument.forces_odd_vector
