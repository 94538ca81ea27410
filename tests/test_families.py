import json
import random

import pytest

from stdlattice import (
    InputError,
    NormKind,
    ResourceLimitError,
    Verdict,
    check_standard,
    cli,
    enumerate_short,
    exactlin,
    member,
    parity_lattice,
    verify_family,
)
from stdlattice.norms import NormValue
from stdlattice.oracle import _scan_box


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

    def test_dimension_cap_checked_before_any_row_or_determinant(self, monkeypatch):
        # n = 10**4 would build 10**8 entries before the determinant.
        def refuse(mat):
            raise AssertionError("a determinant was computed")

        monkeypatch.setattr(exactlin, "_bareiss_det", refuse)
        with pytest.raises(ResourceLimitError, match="dimension 10000 exceeds the configured cap 12"):
            parity_lattice(10**4)
        with pytest.raises(ResourceLimitError, match="dimension 13 exceeds the configured cap 12"):
            parity_lattice(13)
        with pytest.raises(ResourceLimitError, match="dimension 5 exceeds the configured cap 4"):
            parity_lattice(5, max_dim=4)

    def test_a_larger_cap_admits_a_larger_dimension(self):
        assert parity_lattice(13, max_dim=13).rows[-1] == (1,) * 13
        assert verify_family(13, NormKind.L2, max_dim=13).verdict is Verdict.NON_STANDARD

    @pytest.mark.parametrize("n", [True, False, 2.5, "3", None])
    def test_rejects_a_dimension_that_is_not_an_int(self, n, monkeypatch):
        # Refused before the dimension cap or any arithmetic sees it.
        dets = []
        monkeypatch.setattr(exactlin, "_bareiss_det", lambda mat: dets.append(mat) or 1)
        with pytest.raises(InputError, match="dimension must be a positive integer"):
            parity_lattice(n)
        with pytest.raises(InputError, match="dimension must be a positive integer"):
            verify_family(n, NormKind.L2)
        assert dets == []

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
        # The closed form against an independent scan of each coset.
        for n in range(1, 7):
            for kind in NormKind:
                arg = verify_family(n, kind).parity_argument
                assert arg.odd_coset_min.value == (1 if kind is NormKind.LINF else n)
                assert arg.even_coset_min.value == (4 if kind is NormKind.L2 else 2)
                bound = NormValue(kind, max(arg.odd_coset_min.value, arg.even_coset_min.value))
                entries = _scan_box(parity_lattice(n), kind, bound, 10**6)
                odd = [nv.value for vec, nv in entries if all(x % 2 for x in vec)]
                even = [nv.value for vec, nv in entries if not any(x % 2 for x in vec)]
                assert min(odd) == arg.odd_coset_min.value, (n, kind)
                assert min(even) == arg.even_coset_min.value, (n, kind)

    def test_no_enumeration_beyond_check_standard(self, passes):
        for n in range(1, 7):
            for kind in NormKind:
                passes.clear()
                check_standard(parity_lattice(n), kind)
                alone = list(passes)
                passes.clear()
                verify_family(n, kind)
                assert passes == alone, (n, kind)
                # Under L1/Linf the L2 pass runs only for n >= 3: for n <= 2
                # the floor on lambda_n meets the reduced rows' bound.
                assert len(alone) == (1 if kind is NormKind.L2 or n <= 2 else 2), (n, kind)

    @pytest.mark.parametrize("norm, even", [("l1", 2), ("l2", 4)])
    def test_cli_family_12(self, norm, even, capsys):
        assert cli.main(["family", "12", "--norm", norm, "--json"]) == 3
        data = json.loads(capsys.readouterr().out)
        assert data["verdict"] == "NonStandard"
        assert data["parity_argument"]["odd_coset_min"] == 12
        assert data["parity_argument"]["even_coset_min"] == even
        assert data["parity_argument"]["consistent"] is True

    def test_cli_family_12_linf(self, capsys):
        # Every Linf minimum is 1, met by the odd vectors, which generate
        # the lattice; a pass to bound 2 used to exceed the default ceiling.
        assert cli.main(["family", "12", "--norm", "linf", "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["verdict"] == "Standard"
        assert data["minima"]["values"] == [1] * 12
        assert data["parity_argument"]["odd_coset_min"] == 1
        assert data["parity_argument"]["even_coset_min"] == 2
        assert data["parity_argument"]["consistent"] is True

    def test_determinant_obstruction_recorded(self):
        rep = verify_family(6, NormKind.L2)
        assert rep.parity_argument.covolume == 32
        assert rep.parity_argument.even_tuple_divisor == 64
        assert rep.parity_argument.forces_odd_vector
