"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
report.  Every tolerance is exact (integer/rational equality); the time
budgets are asserted too.
"""

import json
import random
import subprocess
import sys
import time
from fractions import Fraction

from stdlattice import (
    LatticeBasis,
    NormKind,
    Verdict,
    brute_cvp,
    brute_minima,
    check_standard,
    equality_case_analyze,
    is_basis_of,
    measure,
    nearest_plane,
    reduce_2d,
    standardize_low_dim,
    successive_minima,
    verify_family,
)
from stdlattice.cli import main as cli_main
from util import random_basis, random_orthogonal_rows_basis, random_rational_vector


def _report(cap, name: str, started: float, budget: float | None, detail: str) -> None:
    elapsed = time.monotonic() - started
    with cap.disabled():
        # Capture is suspended so the line lands in the terminal / tee output.
        print(f"PASS {name} ({elapsed:.1f}s) {detail}", flush=True)
    if budget is not None:
        assert elapsed < budget, f"{name} exceeded its {budget}s budget ({elapsed:.1f}s)"


def _write_parity_file(tmp_path, n: int, norm: str) -> str:
    rows = [[2 if j == i else 0 for j in range(n)] for i in range(n - 1)]
    rows.append([1] * n)
    path = tmp_path / f"parity_{n}_{norm}.json"
    path.write_text(json.dumps({"dim": n, "basis": rows, "norm": norm}))
    return str(path)


def _cli_json(args, capsys) -> tuple[int, dict]:
    code = cli_main(args)
    out = capsys.readouterr().out
    return code, json.loads(out)


def test_criterion_1_parity_family_l2(tmp_path, capsys):
    """Parity family under L2: non-standard exactly from dimension 5 on."""
    started = time.monotonic()
    for n in range(5, 9):
        path = _write_parity_file(tmp_path, n, "l2")
        code, data = _cli_json(["minima", path, "--json"], capsys)
        assert code == 0
        assert data["minima"]["values"] == [4] * n, f"n={n}"
        assert data["minima"]["squared"] is True
        code, data = _cli_json(["check", path, "--json"], capsys)
        assert code == 3 and data["verdict"] == "NonStandard", f"n={n}"
    for n in range(2, 5):
        path = _write_parity_file(tmp_path, n, "l2")
        code, data = _cli_json(["check", path, "--json"], capsys)
        assert code == 0 and data["verdict"] == "Standard", f"n={n}"
    _report(
        capsys,
        "criterion 1 (parity family, L2)",
        started,
        60.0,
        "lambda^2 = 4 and NonStandard for n=5..8; Standard for n=2..4",
    )


def test_criterion_2_parity_family_l1(capsys):
    """Parity family under L1: minima 2, non-standard from dimension 3 on,
    odd-coset minimum exactly n."""
    started = time.monotonic()
    for n in range(3, 9):
        rep = verify_family(n, NormKind.L1)
        assert [nv.value for nv in rep.minima.minima] == [2] * n, f"n={n}"
        assert rep.verdict is Verdict.NON_STANDARD, f"n={n}"
        assert rep.parity_argument.odd_coset_min.value == n, f"n={n}"
        assert rep.parity_argument.consistent, f"n={n}"
    _report(
        capsys,
        "criterion 2 (parity family, L1)",
        started,
        60.0,
        "minima = 2, NonStandard, odd-coset minimum = n for n=3..8",
    )


def test_criterion_3_constructive_standardization(capfd):
    """500 random bases per dimension 1..4, entries in [-5, 5]: the
    constructive standardizer always succeeds and verifies."""
    started = time.monotonic()
    rng = random.Random(20260808)
    total = 0
    for n in (1, 2, 3, 4):
        for _ in range(500):
            b = random_basis(rng, n, -5, 5)
            rows = standardize_low_dim(b)
            assert is_basis_of(rows, b)
            sm = successive_minima(b, NormKind.L2)
            got = [measure(r, NormKind.L2).value for r in rows]
            assert got == [nv.value for nv in sm.minima]
            total += 1
    _report(
        capfd,
        "criterion 3 (constructive standardization)",
        started,
        300.0,
        f"{total}/2000 random bases standardized and verified",
    )


def test_criterion_4_nearest_plane_bound(capfd):
    """500 random pairs per dimension 2..5: distance within the bound and at
    least the exact closest distance; the equality case is reproduced."""
    started = time.monotonic()
    rng = random.Random(1896)
    for n in (2, 3, 4, 5):
        for _ in range(500):
            b = random_basis(rng, n, -3, 3)
            v = random_rational_vector(rng, n)
            res = nearest_plane(b, v)
            max_sq = max(measure(row, NormKind.L2).value for row in b.rows)
            assert res.dist_sq <= Fraction(n, 4) * max_sq
            exact = brute_cvp(b, v)
            assert res.dist_sq >= exact.dist_sq
    eq_basis = LatticeBasis([[2 if i == j else 0 for j in range(4)] for i in range(4)])
    res = nearest_plane(eq_basis, [1, 1, 1, 1])
    assert res.dist_sq == 4 and res.at_equality
    rep = equality_case_analyze(eq_basis, [1, 1, 1, 1])
    assert rep.orthogonal and rep.equal_norms and rep.half_integer_coefficients
    _report(
        capfd,
        "criterion 4 (nearest-plane bound)",
        started,
        300.0,
        "2000 random pairs bounded and dominated; equality case exact",
    )


def test_criterion_5_2d_reduction(capfd):
    """300 random 2D bases under each built-in norm reduce to the exact
    minima and stay bases."""
    started = time.monotonic()
    rng = random.Random(41)
    for _ in range(300):
        b = random_basis(rng, 2, -9, 9)
        for kind in (NormKind.L1, NormKind.L2, NormKind.LINF):
            red = reduce_2d(b, kind)
            sm = brute_minima(b, kind)
            assert [nv.value for nv in red.norms] == [nv.value for nv in sm.minima]
            assert is_basis_of((red.b1, red.b2), b)
    _report(
        capfd,
        "criterion 5 (2D reduction, all norms)",
        started,
        120.0,
        "300 bases x {L1, L2, Linf} reduced to exact minima",
    )


def test_criterion_6_oracle_equivalence(capfd):
    """successive_minima agrees with the brute-force oracle bit for bit."""
    started = time.monotonic()
    rng = random.Random(1956)
    plan = [(1, 30, 6), (2, 60, 5), (3, 60, 4), (4, 50, 4), (5, 40, 3)]
    total = 0
    for n, count, span in plan:
        for _ in range(count):
            b = random_basis(rng, n, -span, span)
            for kind in (NormKind.L1, NormKind.L2, NormKind.LINF):
                fast = successive_minima(b, kind)
                slow = brute_minima(b, kind)
                assert fast == slow, f"disagreement at n={n} kind={kind}"
            total += 1
    _report(
        capfd,
        "criterion 6 (oracle equivalence)",
        started,
        300.0,
        f"{total} bases x 3 norms agree bit for bit",
    )


def test_criterion_7_orthogonal_rows(capfd):
    """Orthogonal-row bases are Standard and their minima are the sorted row
    norms, exactly."""
    started = time.monotonic()
    rng = random.Random(1908)
    for _ in range(200):
        n = rng.randint(1, 5)
        b = random_orthogonal_rows_basis(rng, n, max_entry=5)
        cert = check_standard(b, NormKind.L2)
        assert cert.verdict is Verdict.STANDARD
        row_norms = sorted(measure(r, NormKind.L2).value for r in b.rows)
        assert [nv.value for nv in cert.minima.minima] == row_norms
    _report(
        capfd,
        "criterion 7 (orthogonal rows)",
        started,
        None,
        "200 diagonal x permutation x sign bases Standard with sorted row norms",
    )


def test_criterion_8_cli_determinism(tmp_path, capfd):
    """Every CLI command, run twice on the same input, produces byte-identical
    output."""
    started = time.monotonic()
    parity5 = _write_parity_file(tmp_path, 5, "l2")
    parity4 = _write_parity_file(tmp_path, 4, "l2")
    basis2 = tmp_path / "b2.json"
    basis2.write_text(json.dumps({"dim": 2, "basis": [[2, 1], [1, 2]]}))
    i4 = tmp_path / "i4.json"
    i4.write_text(json.dumps({"dim": 4, "basis": [[2, 0, 0, 0], [0, 2, 0, 0], [0, 0, 2, 0], [0, 0, 0, 2]]}))
    commands = [
        ["minima", parity5],
        ["minima", parity5, "--json"],
        ["check", parity5, "--json"],
        ["check", str(basis2)],
        ["standardize", parity4, "--json"],
        ["reduce2d", str(basis2), "--norm", "l1"],
        ["family", "5", "--norm", "l2", "--json"],
        ["family", "3", "--norm", "l1"],
        ["nearest", str(i4), "1", "1", "1", "1", "--json"],
    ]
    for cmd in commands:
        runs = [
            subprocess.run([sys.executable, "-m", "stdlattice", *cmd], capture_output=True)
            for _ in range(2)
        ]
        assert runs[0].stdout == runs[1].stdout, f"stdout differs for {cmd}"
        assert runs[0].stderr == runs[1].stderr, f"stderr differs for {cmd}"
        assert runs[0].returncode == runs[1].returncode, f"exit code differs for {cmd}"
    _report(
        capfd,
        "criterion 8 (CLI determinism)",
        started,
        None,
        f"{len(commands)} commands byte-identical across repeat runs",
    )
