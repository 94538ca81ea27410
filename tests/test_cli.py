import json
import os
import re
import signal
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

from stdlattice import InputError, LatticeBasis, NormKind, cli, exactlin, successive_minima
from stdlattice.cli import main
from util import deep_backtrack_l1_rows


def write_json_basis(tmp_path, name, rows, norm=None):
    payload = {"dim": len(rows), "basis": [list(r) for r in rows]}
    if norm is not None:
        payload["norm"] = norm
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def parity_rows(n):
    rows = [[2 if j == i else 0 for j in range(n)] for i in range(n - 1)]
    rows.append([1] * n)
    return rows


def run_cli(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestMinimaCommand:
    def test_parity_5(self, tmp_path, capsys):
        path = write_json_basis(tmp_path, "l5.json", parity_rows(5), norm="l2")
        code, out, _ = run_cli(["minima", path], capsys)
        assert code == 0
        assert "λ² = [4, 4, 4, 4, 4]" in out

    def test_identity_json_output_reparses(self, tmp_path, capsys):
        path = write_json_basis(tmp_path, "i3.json", [[1, 0, 0], [0, 1, 0], [0, 0, 1]])
        code, out, _ = run_cli(["minima", path, "--json"], capsys)
        assert code == 0
        data = json.loads(out)
        assert data["minima"]["values"] == [1, 1, 1]
        assert data["minima"]["squared"] is True

    def test_matches_library(self, tmp_path, capsys):
        rows = [[3, 1, 0], [1, -2, 2], [0, 4, 1]]
        path = write_json_basis(tmp_path, "r.json", rows, norm="l1")
        code, out, _ = run_cli(["minima", path, "--json"], capsys)
        assert code == 0
        data = json.loads(out)
        sm = successive_minima(LatticeBasis(rows), NormKind.L1)
        assert data["minima"]["values"] == [nv.value for nv in sm.minima]
        assert data["minima"]["witnesses"] == [list(w) for w in sm.witnesses]

    def test_plain_text_format(self, tmp_path, capsys):
        path = tmp_path / "b.txt"
        path.write_text("2\n1 0\n0 1\n")
        code, out, _ = run_cli(["minima", str(path)], capsys)
        assert code == 0
        assert "[1, 1]" in out

    def test_norm_flag_overrides_file(self, tmp_path, capsys):
        path = write_json_basis(tmp_path, "b.json", parity_rows(3), norm="l2")
        code, out, _ = run_cli(["minima", path, "--norm", "l1"], capsys)
        assert code == 0
        assert "λ = [2, 2, 2]" in out


class TestCheckCommand:
    def test_parity_5_exit_3(self, tmp_path, capsys):
        path = write_json_basis(tmp_path, "l5.json", parity_rows(5))
        code, out, _ = run_cli(["check", path], capsys)
        assert code == 3
        assert "NonStandard" in out

    def test_identity_exit_0(self, tmp_path, capsys):
        path = write_json_basis(tmp_path, "i2.json", [[1, 0], [0, 1]])
        code, out, _ = run_cli(["check", path], capsys)
        assert code == 0
        assert "verdict: Standard" in out

    def test_parity_3_l1_exit_3(self, tmp_path, capsys):
        path = write_json_basis(tmp_path, "l3.json", parity_rows(3), norm="l1")
        code, out, _ = run_cli(["check", path], capsys)
        assert code == 3


class TestStandardizeCommand:
    def test_parity_4(self, tmp_path, capsys):
        path = write_json_basis(tmp_path, "l4.json", parity_rows(4))
        code, out, _ = run_cli(["standardize", path, "--json"], capsys)
        assert code == 0
        data = json.loads(out)
        assert data["squared_norms"] == [4, 4, 4, 4]
        assert abs(data["determinant"]) == 8

    def test_1d_echo(self, tmp_path, capsys):
        path = write_json_basis(tmp_path, "one.json", [[5]])
        code, out, _ = run_cli(["standardize", path, "--json"], capsys)
        assert code == 0
        assert json.loads(out)["basis"] == [[5]]

    def test_dim_5_is_input_error(self, tmp_path, capsys):
        path = write_json_basis(tmp_path, "i5.json", [[1 if i == j else 0 for j in range(5)] for i in range(5)])
        code, _, err = run_cli(["standardize", path], capsys)
        assert code == 2
        assert "dimension" in err

    def test_random_3d_output_replays_through_verifier(self, tmp_path, capsys):
        from stdlattice import NormKind, is_basis_of, measure

        rows = [[3, -1, 2], [0, 2, 5], [1, 1, -2]]
        path = write_json_basis(tmp_path, "r3.json", rows)
        code, out, _ = run_cli(["standardize", path, "--json"], capsys)
        assert code == 0
        data = json.loads(out)
        basis = LatticeBasis(rows)
        got = [tuple(r) for r in data["basis"]]
        assert is_basis_of(got, basis)
        sm = successive_minima(basis, NormKind.L2)
        assert [measure(r, NormKind.L2).value for r in got] == [nv.value for nv in sm.minima]


class TestOtherCommands:
    def test_family_5_reports_and_exits_3(self, capsys):
        code, out, _ = run_cli(["family", "5", "--norm", "l2"], capsys)
        assert code == 3
        assert "odd-coset minimum" in out

    def test_family_json_carries_certificate(self, capsys):
        code, out, _ = run_cli(["family", "4", "--norm", "l2", "--json"], capsys)
        assert code == 0
        data = json.loads(out)
        cert = data["certificate"]
        assert cert["basis"] is not None and len(cert["basis"]) == 4
        assert cert["search_stats"]["nodes_explored"] > 0
        code, out, _ = run_cli(["family", "5", "--norm", "l2", "--json"], capsys)
        assert code == 3
        assert json.loads(out)["certificate"]["basis"] is None

    def test_nearest_equality_case(self, tmp_path, capsys):
        path = write_json_basis(
            tmp_path, "i4x2.json", [[2 if i == j else 0 for j in range(4)] for i in range(4)]
        )
        code, out, _ = run_cli(["nearest", path, "1", "1", "1", "1"], capsys)
        assert code == 0
        assert "dist² = 4" in out
        assert "at_equality: True" in out

    def test_nearest_accepts_rationals(self, tmp_path, capsys):
        path = write_json_basis(tmp_path, "i2.json", [[1, 0], [0, 1]])
        code, out, _ = run_cli(["nearest", path, "1/2", "0", "--json"], capsys)
        assert code == 0
        data = json.loads(out)
        assert data["dist_sq"] == "1/4"

    @pytest.mark.parametrize("separator", [[], ["--"]])
    @pytest.mark.parametrize("coords, shown", [(["-3/2", "1"], "[-3/2, 1]"), (["-3", "-1"], "[-3, -1]")])
    def test_nearest_negative_coordinates(self, tmp_path, capsys, separator, coords, shown):
        path = write_json_basis(tmp_path, "i2.json", [[1, 0], [0, 1]])
        code, out, _ = run_cli(["nearest", path, *separator, *coords], capsys)
        assert code == 0
        assert f"target: {shown}" in out

    def test_reduce2d_identity(self, tmp_path, capsys):
        path = write_json_basis(tmp_path, "i2.json", [[1, 0], [0, 1]])
        code, out, _ = run_cli(["reduce2d", path], capsys)
        assert code == 0
        assert "b1: [1, 0]" in out

    def test_every_json_payload_reparses(self, tmp_path, capsys):
        b2 = write_json_basis(tmp_path, "b2.json", [[2, 1], [1, 2]])
        l4 = write_json_basis(tmp_path, "l4.json", parity_rows(4))
        for args in (
            ["minima", b2, "--json"],
            ["check", b2, "--json"],
            ["standardize", l4, "--json"],
            ["reduce2d", b2, "--norm", "linf", "--json"],
            ["family", "3", "--norm", "l1", "--json"],
            ["nearest", b2, "1/3", "2", "--json"],
        ):
            code, out, _ = run_cli(args, capsys)
            data = json.loads(out)
            assert data["command"] == args[0]


class TestErrorClasses:
    def test_missing_file(self, capsys):
        code, _, err = run_cli(["minima", "/nonexistent/basis.json"], capsys)
        assert code == 2
        assert "error" in err

    def test_singular_matrix(self, tmp_path, capsys):
        path = write_json_basis(tmp_path, "sing.json", [[1, 1], [2, 2]])
        code, _, err = run_cli(["minima", path], capsys)
        assert code == 2
        assert "dependent" in err

    def test_malformed_json(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        code, _, err = run_cli(["minima", str(path)], capsys)
        assert code == 2

    def test_deeply_nested_json_is_an_input_error(self, tmp_path, capsys):
        path = tmp_path / "deep.json"
        path.write_text('{"dim": 1, "basis": ' + "[" * 200_000 + "]" * 200_000 + "}")
        code, out, err = run_cli(["minima", str(path)], capsys)
        assert (code, out) == (2, "")
        assert err == f"error: invalid JSON in {path}: nested too deeply\n"

    def test_non_utf8_file_names_the_file(self, tmp_path, capsys):
        path = tmp_path / "latin.txt"
        path.write_bytes(b"2\n1 0\n0 \xff1\n")
        code, out, err = run_cli(["minima", str(path)], capsys)
        assert (code, out) == (2, "")
        assert err == f"error: cannot read {path}: not UTF-8 text (byte 0xff at offset 8)\n"

    @pytest.mark.parametrize(
        "content",
        ['{"dim": 2, "basis": [[2, 0], [1, 2]], "norm": "l1"}', "2\n2 0\n1 2\n"],
        ids=["json", "text"],
    )
    def test_leading_byte_order_mark_is_ignored(self, tmp_path, capsys, content):
        # Some editors save UTF-8 with a byte-order mark; it used to reach the
        # parsers and fail as a plain-text token.
        plain, marked = tmp_path / "plain", tmp_path / "marked"
        plain.write_bytes(content.encode())
        marked.write_bytes(b"\xef\xbb\xbf" + content.encode())
        want = run_cli(["minima", str(plain), "--json"], capsys)
        assert want[0] == 0
        assert run_cli(["minima", str(marked), "--json"], capsys) == want

    @pytest.mark.parametrize("fmt", ["json", "text"])
    def test_entry_past_the_digit_limit_names_the_file_and_the_limit(self, tmp_path, capsys, fmt):
        limit = sys.get_int_max_str_digits()
        if not limit:
            pytest.skip("the interpreter has no int digit limit")
        entry = "7" * (limit + 1)
        path = tmp_path / f"big.{fmt}"
        path.write_text(f'{{"dim": 1, "basis": [[{entry}]]}}' if fmt == "json" else f"1\n{entry}\n")
        code, out, err = run_cli(["minima", str(path)], capsys)
        assert (code, out) == (2, "")
        assert str(path) in err and f"more than {limit} digits" in err
        assert "set_int_max_str_digits" not in err and "integers only" not in err

    def test_non_integer_token_keeps_its_message(self, tmp_path, capsys):
        path = tmp_path / "word.txt"
        path.write_text("1\n" + "7" * 5000 + "x\n")
        code, out, err = run_cli(["minima", str(path)], capsys)
        assert (code, out) == (2, "")
        assert "plain-text basis files contain integers only" in err

    def test_bad_rational(self, tmp_path, capsys):
        path = write_json_basis(tmp_path, "i2.json", [[1, 0], [0, 1]])
        code, _, err = run_cli(["nearest", path, "x", "y"], capsys)
        assert code == 2

    @pytest.mark.parametrize("token", ["1e3000000", "-2.5E-3000000", "1e99999999999999999999"])
    def test_giant_exponent_is_rejected_before_any_arithmetic(
        self, tmp_path, capsys, monkeypatch, token
    ):
        # Such a coordinate cannot be printed, so the command could only fail;
        # it used to fail after seconds of arithmetic on the giant power of ten.
        def no_arithmetic(*args):
            raise AssertionError("nearest_plane ran on a giant coordinate")

        monkeypatch.setattr(cli, "nearest_plane", no_arithmetic)
        path = write_json_basis(tmp_path, "i2.json", [[1, 0], [0, 1]])
        code, out, err = run_cli(["nearest", path, token, "1"], capsys)
        assert code == 2
        assert out == ""
        assert f"rational coordinate {token!r} is too large" in err

    @pytest.mark.parametrize(
        "token", ["0e99999999999999999999", "-0e3000000", "0.000e-3000000", "0_0E+99999999999999999999"]
    )
    def test_zero_mantissa_is_zero_without_building_the_power(self, token):
        # Fraction(token) builds 10**|e| first: seconds for e = 3000000, and it
        # never finishes for twenty digits.
        assert cli._parse_rational(token) == 0

    def test_zero_mantissa_with_giant_exponent_is_answered(self, tmp_path, capsys):
        path = write_json_basis(tmp_path, "i2.json", [[1, 0], [0, 1]])
        code, out, _ = run_cli(["nearest", path, "0e99999999999999999999", "1", "--json"], capsys)
        assert code == 0
        assert json.loads(out)["target"] == [0, 1]

    @pytest.mark.parametrize("token", ["0e9999x", "0e", "0e 5", "0e1__0", "0e5e5", "0.0.e5"])
    def test_malformed_zero_mantissa_keeps_its_message(self, tmp_path, capsys, token):
        path = write_json_basis(tmp_path, "i2.json", [[1, 0], [0, 1]])
        code, out, err = run_cli(["nearest", path, token, "1"], capsys)
        assert code == 2
        assert out == ""
        assert f"bad rational coordinate {token!r}: Invalid literal for Fraction: {token!r}" in err

    @pytest.mark.parametrize("token", ["1e400", "-3.5e-2000"])
    def test_large_exponent_below_the_print_limit_is_answered(self, tmp_path, capsys, token):
        path = write_json_basis(tmp_path, "i2.json", [[1, 0], [0, 1]])
        code, _, _ = run_cli(["nearest", path, token, "1", "--json"], capsys)
        assert code == 0

    @pytest.mark.parametrize("token", ["1e-2200", "1e-4000", "1/3" + "0" * 2200])
    def test_target_with_unprintable_squared_denominator_is_refused_first(
        self, tmp_path, capsys, monkeypatch, token
    ):
        # dist² carries the square of the common denominator: a denominator
        # of 2,201 digits parses, but its square cannot be printed, which
        # used to fail with the interpreter's own message after the rounding.
        def no_arithmetic(*args):
            raise AssertionError("nearest_plane ran on an unprintable target")

        monkeypatch.setattr(cli, "nearest_plane", no_arithmetic)
        path = write_json_basis(tmp_path, "i2.json", [[1, 0], [0, 1]])
        code, out, err = run_cli(["nearest", path, token, "1"], capsys)
        assert code == 2
        assert out == ""
        limit = sys.get_int_max_str_digits()
        assert f"common denominator has more than {limit} digits" in err

    def test_squared_denominator_limit_is_exact(self, tmp_path, capsys, monkeypatch):
        # Refused exactly when the square has more digits than the limit:
        # 10**100 squared has 201 digits.
        monkeypatch.setattr(sys, "get_int_max_str_digits", lambda: 201)
        path = write_json_basis(tmp_path, "i2.json", [[1, 0], [0, 1]])
        code, out, _ = run_cli(["nearest", path, "1e-100", "1", "--json"], capsys)
        assert code == 0
        assert json.loads(out)["dist_sq"] == "1/" + "1" + "0" * 200
        monkeypatch.setattr(sys, "get_int_max_str_digits", lambda: 200)
        code, out, err = run_cli(["nearest", path, "1e-100", "1"], capsys)
        assert code == 2
        assert "more than 200 digits" in err

    @pytest.mark.parametrize("token", ["1e4300", "-1e4300", "99e4299", "1.5e4300"])
    def test_target_with_unprintable_numerator_is_refused_first(
        self, tmp_path, capsys, monkeypatch, token
    ):
        # 10**4300 has 4,301 digits: the token parses (its exponent is within
        # the print limit plus the mantissa's digits), but printing the target
        # used to fail with the interpreter's own message after the rounding.
        def no_arithmetic(*args):
            raise AssertionError("nearest_plane ran on an unprintable target")

        monkeypatch.setattr(cli, "nearest_plane", no_arithmetic)
        path = write_json_basis(tmp_path, "i2.json", [[1, 0], [0, 1]])
        code, out, err = run_cli(["nearest", path, token, "1"], capsys)
        assert code == 2
        assert out == ""
        limit = sys.get_int_max_str_digits()
        assert f"target is too large: a coordinate's numerator has more than {limit} digits" in err

    def test_numerator_at_the_print_limit_is_answered(self, tmp_path, capsys):
        path = write_json_basis(tmp_path, "i2.json", [[1, 0], [0, 1]])
        code, out, _ = run_cli(["nearest", path, "1e4299", "1", "--json"], capsys)
        assert code == 0
        assert json.loads(out)["point"] == [10**4299, 1]

    @pytest.mark.parametrize("fmt", [[], ["--json"]], ids=["text", "json"])
    def test_unprintable_nearest_point_leaves_stdout_empty(self, tmp_path, capsys, fmt):
        # The target 10**limit - 1 (limit nines) can be printed, but its
        # nearest point on 2Z x 2Z, 10**limit, cannot.  The answer is rendered
        # whole before any of it is written, so none of it reaches stdout.
        limit = sys.get_int_max_str_digits()
        path = write_json_basis(tmp_path, "2i2.json", [[2, 0], [0, 2]])
        code, out, err = run_cli(["nearest", path, "9" * limit, "1", *fmt], capsys)
        assert code == 2
        assert out == ""
        assert err == (
            f"error: the answer cannot be printed: it has an integer of more than "
            f"{limit} digits, the interpreter's print limit\n"
        )

    def test_exponent_bound_is_print_limit_plus_mantissa_digits(self, monkeypatch):
        assert cli._parse_rational("1e-4000") == Fraction(1, 10**4000)
        monkeypatch.setattr(sys, "get_int_max_str_digits", lambda: 100)
        assert cli._parse_rational("12.5e103") == Fraction(125 * 10**102)
        assert cli._parse_rational("1e-101") == Fraction(1, 10**101)
        for token in ("12.5e104", "1_0e-103"):
            with pytest.raises(InputError, match="too large"):
                cli._parse_rational(token)
        assert cli._parse_rational("0e104") == 0
        monkeypatch.setattr(sys, "get_int_max_str_digits", lambda: 0)
        assert cli._parse_rational("1e104") == 10**104

    def test_resource_ceiling(self, tmp_path, capsys):
        path = write_json_basis(tmp_path, "l5.json", parity_rows(5))
        code, _, err = run_cli(["minima", path, "--max-candidates", "3"], capsys)
        assert code == 4
        assert "resource" in err

    def test_resource_ceiling_names_the_pass(self, tmp_path, capsys):
        # The floor on lambda_n of Z^3 under L1 meets the rows' bound, so
        # the L1 pass is the only one.
        path = write_json_basis(tmp_path, "i3.json", [[1, 0, 0], [0, 1, 0], [0, 0, 1]])
        code, out, err = run_cli(
            ["minima", path, "--norm", "l1", "--max-candidates", "1"], capsys
        )
        assert code == 4
        assert out == ""
        assert "1 candidate evaluations (l1 pass, bound 1)" in err

    def test_resource_ceiling_names_the_l2_pass(self, tmp_path, capsys):
        # A Linf search on the parity lattice still runs its L2 search first.
        path = write_json_basis(tmp_path, "l4.json", parity_rows(4))
        code, out, err = run_cli(
            ["minima", path, "--norm", "linf", "--max-candidates", "27"], capsys
        )
        assert code == 4
        assert out == ""
        assert "27 candidate evaluations (l2 pass, bound 4)" in err

    def test_resource_ceiling_bounds_the_standardness_search(self, tmp_path, capsys):
        path = write_json_basis(tmp_path, "deep.json", deep_backtrack_l1_rows())
        code, out, err = run_cli(
            ["check", path, "--max-candidates", "10000", "--norm", "l1"], capsys
        )
        assert code == 4
        assert out == ""
        assert err == (
            "resource limit: standardness search exceeded 10000 nodes "
            "(l1, 6 of 9 basis vectors chosen)\n"
        )

    def test_max_dim_flag(self, tmp_path, capsys):
        path = write_json_basis(tmp_path, "l5.json", parity_rows(5))
        code, _, _ = run_cli(["minima", path, "--max-dim", "4"], capsys)
        assert code == 4

    @pytest.mark.parametrize("flag", ["--max-candidates", "--max-dim"])
    @pytest.mark.parametrize("value", ["-5", "0"])
    def test_non_positive_ceiling_is_input_error(self, tmp_path, capsys, flag, value):
        path = write_json_basis(tmp_path, "i2.json", [[1, 0], [0, 1]])
        code, _, err = run_cli(["minima", path, flag, value], capsys)
        assert code == 2
        assert "must be a positive integer" in err

    @pytest.mark.parametrize("flag", ["--max-dim"])
    def test_ceiling_is_checked_by_commands_that_do_not_search(self, tmp_path, capsys, flag):
        # nearest passes no ceiling to the library, so main checks the
        # dimension cap before any command runs.
        path = write_json_basis(tmp_path, "i2.json", [[1, 0], [0, 1]])
        code, out, err = run_cli(["nearest", path, "1", "1", flag, "0"], capsys)
        assert code == 2
        assert out == ""
        assert err == f"error: {flag} must be a positive integer, got 0\n"

    @pytest.mark.parametrize("value", ["0", "-5"])
    @pytest.mark.parametrize(
        "command", ["minima", "check", "standardize", "family", "reduce2d", "nearest"]
    )
    def test_candidate_ceiling_only_on_commands_that_search(self, tmp_path, capsys, command, value):
        path = write_json_basis(tmp_path, "i2.json", [[1, 0], [0, 1]])
        operands = {"family": ["3"], "nearest": [path, "1", "1"]}.get(command, [path])
        assert main([command, "--help"]) == 0
        usage = capsys.readouterr().out
        assert "--max-dim" in usage
        code, out, err = run_cli([command, *operands, "--max-candidates", value], capsys)
        assert code == 2
        assert out == ""
        if command in ("reduce2d", "nearest"):
            assert "--max-candidates" not in usage
            assert f"unrecognized arguments: --max-candidates {value}" in err
            assert "Traceback" not in err
        else:
            assert err == f"error: --max-candidates must be a positive integer, got {value}\n"

    def test_boolean_dim_is_input_error(self, tmp_path, capsys):
        path = tmp_path / "bool.json"
        path.write_text('{"dim": true, "basis": [[1]]}')
        code, _, err = run_cli(["minima", str(path)], capsys)
        assert code == 2
        assert "'dim'" in err

    @pytest.mark.parametrize("norm", ["[]", "{}", '["l1"]', "1", "null"])
    def test_non_string_norm_is_input_error(self, tmp_path, capsys, norm):
        # An unhashable "norm" value used to escape as a TypeError traceback.
        path = tmp_path / "norm.json"
        path.write_text('{"dim": 1, "basis": [[1]], "norm": %s}' % norm)
        code, _, err = run_cli(["minima", str(path)], capsys)
        assert code == 2
        assert "unknown norm" in err

    @pytest.mark.parametrize("fmt", ["json", "text"])
    def test_max_dim_checked_before_any_determinant(self, tmp_path, capsys, monkeypatch, fmt):
        n = 40
        rows = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
        if fmt == "json":
            path = write_json_basis(tmp_path, "big.json", rows)
        else:
            path = tmp_path / "big.txt"
            path.write_text(f"{n}\n" + "\n".join(" ".join(map(str, r)) for r in rows))
        dets = []
        monkeypatch.setattr(exactlin, "_bareiss_det", lambda mat: dets.append(mat) or 1)
        code, _, err = run_cli(["minima", str(path), "--max-dim", "12"], capsys)
        assert code == 4
        assert "dimension 40 exceeds the configured cap 12" in err
        assert dets == []

    def test_no_stack_trace_on_user_error(self, tmp_path, capsys):
        path = write_json_basis(tmp_path, "sing.json", [[2, 4], [1, 2]])
        code, out, err = run_cli(["minima", path], capsys)
        assert code == 2
        assert "Traceback" not in err and "Traceback" not in out


def test_declared_python_floor_has_the_int_digit_limit():
    # The CLI reads sys.get_int_max_str_digits(), which first shipped in
    # Python 3.10.7; an older interpreter would end `nearest` in a traceback.
    root = Path(cli.__file__).resolve().parents[2]
    assert "sys.get_int_max_str_digits()" in Path(cli.__file__).read_text()
    spec = re.search(r'^requires-python = ">=([0-9.]+)"$', (root / "pyproject.toml").read_text(), re.M)
    assert spec, "pyproject.toml declares no requires-python floor"
    floor = tuple(int(part) for part in spec.group(1).split("."))
    assert floor + (0,) * (3 - len(floor)) >= (3, 10, 7)


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    out = capsys.readouterr().out
    assert "minima" in out and "standardize" in out


class TestDeterminism:
    def test_repeat_runs_byte_identical(self, tmp_path):
        path = write_json_basis(tmp_path, "l5.json", parity_rows(5))
        cmds = [
            ["minima", path],
            ["minima", path, "--json"],
            ["check", path, "--json"],
            ["family", "4", "--norm", "l1", "--json"],
        ]
        for cmd in cmds:
            runs = [
                subprocess.run(
                    [sys.executable, "-m", "stdlattice", *cmd],
                    capture_output=True,
                )
                for _ in range(2)
            ]
            assert runs[0].stdout == runs[1].stdout
            assert runs[0].stderr == runs[1].stderr
            assert runs[0].returncode == runs[1].returncode


class TestOutputFailures:
    """A stdout that cannot be written ends in exit 2, never in a traceback."""

    def test_closed_pipe_exits_2_without_a_message(self, tmp_path):
        # The answer is larger than a pipe holds, so the write fails whether
        # it starts before or after the reader closes its end.
        path = write_json_basis(tmp_path, "i12.json", [[int(i == j) for j in range(12)] for i in range(12)])
        target = [str(10**2999 + i) for i in range(12)]
        proc = subprocess.Popen(
            [sys.executable, "-m", "stdlattice", "nearest", path, *target, "--json"],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
        )
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait() == 2
        assert err == b""

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs the /dev/full device")
    @pytest.mark.parametrize("fmt", [[], ["--json"]], ids=["text", "json"])
    def test_write_error_exits_2_with_one_error_line(self, tmp_path, fmt):
        path = write_json_basis(tmp_path, "l5.json", parity_rows(5))
        with open("/dev/full", "w") as full:
            proc = subprocess.run(
                [sys.executable, "-m", "stdlattice", "minima", path, *fmt],
                stdout=full,
                stderr=subprocess.PIPE,
            )
        assert proc.returncode == 2
        lines = proc.stderr.decode().splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("error: cannot write the output: ")
        assert "No space left on device" in lines[0]


class TestMemoryAndRecursion:
    @pytest.mark.parametrize("error", [MemoryError, RecursionError])
    @pytest.mark.parametrize(
        "stand_in, args",
        [("successive_minima", ["minima"]), ("equality_case_analyze", ["nearest", "1/2", "1/2"])],
    )
    def test_exhaustion_exits_4_with_one_line(self, tmp_path, capsys, monkeypatch, error, stand_in, args):
        def exhaust(*args, **kwargs):
            raise error()

        monkeypatch.setattr(cli, stand_in, exhaust)
        path = write_json_basis(tmp_path, "z2.json", [[1, 0], [0, 1]])
        code, out, err = run_cli([args[0], path, *args[1:]], capsys)
        assert code == cli.EXIT_RESOURCE == 4
        assert out == ""
        assert len(err.splitlines()) == 1
        assert err.startswith("resource limit: ")


class TestInterrupt:
    @pytest.mark.skipif(os.name != "posix", reason="needs POSIX signals")
    def test_interrupt_exits_130_without_a_traceback(self, tmp_path):
        # Z^12 under Linf searches for many seconds, so SIGINT lands mid-search.
        path = write_json_basis(tmp_path, "z12.json", [[int(i == j) for j in range(12)] for i in range(12)])
        proc = subprocess.Popen(
            [sys.executable, "-m", "stdlattice", "check", path, "--norm", "linf"],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
        )
        try:
            time.sleep(2)
            proc.send_signal(signal.SIGINT)
            out, err = proc.communicate(timeout=60)
        finally:
            proc.kill()
        assert proc.returncode == cli.EXIT_INTERRUPTED == 130
        assert out == b""
        assert err.decode().splitlines() == ["interrupted"]
