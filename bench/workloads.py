"""Benchmark workloads: seeded inputs, operation lists and exact output checks.

Every workload draws its lattices from a fixed family (a constant random
stream per workload) and uses ``--seed`` to pick a signed coordinate
permutation for every input.  A signed permutation is an isometry of the L1,
L2 and Linf norms, so it preserves Gram-Schmidt data, enumeration trees,
minima and verdicts: the work and the counters do not depend on the seed,
while the inputs and the outputs (witness order, signs) do.  Skewed inputs
have heavy-tailed costs; drawing a fresh family per seed would make the
per-seed totals differ by several times, so run-to-run spread would measure
the draw instead of the code.

Inputs are built with the benchmark's own arithmetic, never with library
results, so a library change cannot change what is measured.  Checks run
outside the timed region: the brute-force oracle wherever the dimension is
at most 5, known verdict tables, and independent Fraction arithmetic for
basis, membership, norm and distance claims.
"""

from __future__ import annotations

import io
import json
import os
import random
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Callable

ORACLE_MAX_DIM = 5

# short-vectors distribution: dimensions 3..5 in turn, entries in {-1, 0, 1},
# then this many random elementary row operations row_i += +-row_j.
SHORT_VECTOR_BASES = 30
SHORT_VECTOR_SKEW_STEPS = 3


@dataclass
class Op:
    """One call in a workload's operation list."""

    kind: str  # public function (or CLI command) name
    group: str  # tracer group of the op-boundary span
    fn: Callable
    args: tuple
    expect: dict = field(default_factory=dict)
    inproc: Callable | None = None  # in-process variant used by traced runs


# ---------------------------------------------------------------- arithmetic


def _l1(v):
    return sum(abs(x) for x in v)


def _l2sq(v):
    return sum(x * x for x in v)


def _linf(v):
    return max(abs(x) for x in v)


NORMS = {"l1": _l1, "l2": _l2sq, "linf": _linf}


def _eliminate(rows, rhs=None):
    """Fraction Gauss elimination on a square matrix whose rows are the
    equations' columns: returns (det, solution of x . rows = rhs or None)."""
    n = len(rows)
    a = [[Fraction(rows[i][j]) for i in range(n)] for j in range(n)]
    b = [Fraction(x) for x in rhs] if rhs is not None else [Fraction(0)] * n
    det = Fraction(1)
    for c in range(n):
        p = next((r for r in range(c, n) if a[r][c] != 0), None)
        if p is None:
            return Fraction(0), None
        if p != c:
            a[c], a[p] = a[p], a[c]
            b[c], b[p] = b[p], b[c]
            det = -det
        det *= a[c][c]
        for r in range(c + 1, n):
            f = a[r][c] / a[c][c]
            if f:
                a[r] = [x - f * y for x, y in zip(a[r], a[c])]
                b[r] -= f * b[c]
    x = [Fraction(0)] * n
    for c in reversed(range(n)):
        x[c] = (b[c] - sum(a[c][k] * x[k] for k in range(c + 1, n))) / a[c][c]
    return det, x


def det(rows) -> Fraction:
    return _eliminate(rows)[0]


def coefficients(rows, v):
    """Rational x with x . rows = v (rows independent and square)."""
    return _eliminate(rows, v)[1]


def is_member(rows, v) -> bool:
    return all(c.denominator == 1 for c in coefficients(rows, v))


def is_basis_of(vectors, rows) -> bool:
    vectors = [tuple(v) for v in vectors]
    if len(vectors) != len(rows) or any(len(v) != len(rows) for v in vectors):
        return False
    return all(is_member(rows, v) for v in vectors) and abs(det(vectors)) == abs(det(rows))


def combine(coeffs, rows):
    return tuple(sum(c * r[j] for c, r in zip(coeffs, rows)) for j in range(len(rows[0])))


# ---------------------------------------------------------------- generators


def signed_permutation(rng: random.Random, n: int):
    perm = list(range(n))
    rng.shuffle(perm)
    signs = [rng.choice((1, -1)) for _ in range(n)]
    return lambda v: tuple(s * v[p] for s, p in zip(signs, perm))


def random_rows(rng: random.Random, n: int, bound: int):
    while True:
        rows = [tuple(rng.randint(-bound, bound) for _ in range(n)) for _ in range(n)]
        if det(rows) != 0:
            return rows


def skewed_rows(rng: random.Random, n: int, steps: int):
    rows = [list(r) for r in random_rows(rng, n, 1)]
    for _ in range(steps):
        i, j = rng.sample(range(n), 2)
        sign = rng.choice((1, -1))
        rows[i] = [a + sign * b for a, b in zip(rows[i], rows[j])]
    return [tuple(r) for r in rows]


def parity_rows(n: int):
    return [tuple(2 if j == i else 0 for j in range(n)) for i in range(n - 1)] + [(1,) * n]


def _streams(name: str, seed: int):
    return random.Random(f"{name}/family"), random.Random(f"{name}/seed/{seed}")


def _present(sl, rng, rows):
    iso = signed_permutation(rng, len(rows))
    return sl.LatticeBasis([iso(r) for r in rows]), iso


def _parity_check(sl, rng, n, kind, lam):
    """Parity lattice check: every vector of norm <= lam is all-even (odd
    vectors have norm >= n > lam), n all-even vectors have determinant
    divisible by 2^n > covolume 2^(n-1), so the verdict is NonStandard."""
    basis, _ = _present(sl, rng, parity_rows(n))
    return Op(
        "check_standard",
        "standardness.search",
        sl.check_standard,
        (basis, kind),
        {"verdict": "NonStandard", "minima": [lam] * n},
    )


def build_parity_l2(sl, seed: int, workdir: Path) -> list[Op]:
    _, rng = _streams("parity-l2", seed)
    return [_parity_check(sl, rng, n, sl.NormKind.L2, 4) for n in range(5, 11)]


def build_short_vectors(sl, seed: int, workdir: Path) -> list[Op]:
    family, rng = _streams("short-vectors", seed)
    ops = []
    for i in range(SHORT_VECTOR_BASES):
        rows = skewed_rows(family, 3 + i % 3, SHORT_VECTOR_SKEW_STEPS)
        basis, _ = _present(sl, rng, rows)
        for kind in sl.NormKind:
            ops.append(Op("successive_minima", "enumeration", sl.successive_minima, (basis, kind)))
    ops += [_parity_check(sl, rng, n, sl.NormKind.L1, 2) for n in range(3, 8)]
    return ops


def build_desk_batch(sl, seed: int, workdir: Path) -> list[Op]:
    family, rng = _streams("desk-batch", seed)
    ops = []
    # Sizes and entry ranges keep the oracle checks to a few seconds a run.
    for i in range(90):
        basis, _ = _present(sl, rng, random_rows(family, 2 + i % 3, 2))
        ops.append(Op("standardize_low_dim", "standardness.standardize", sl.standardize_low_dim, (basis,)))
    for i in range(300):
        n = 2 + i % 5
        if i % 25 == 0:
            # Orthogonal equal-norm rows with a half-odd target: the bound is met.
            scale = 1 + family.randint(1, 4)
            rows = [tuple(scale if j == k else 0 for j in range(n)) for k in range(n)]
            target = [Fraction(scale * (2 * family.randint(-3, 3) + 1), 2) for _ in range(n)]
        else:
            rows = random_rows(family, n, 2)
            target = [Fraction(family.randint(-30, 30), family.randint(1, 6)) for _ in range(n)]
        basis, iso = _present(sl, rng, rows)
        target = iso(target)
        ops.append(Op("nearest_plane", "cvp.nearest", sl.nearest_plane, (basis, target)))
        ops.append(Op("equality_case_analyze", "cvp.equality", sl.equality_case_analyze, (basis, target)))
    for _ in range(100):
        basis, _ = _present(sl, rng, random_rows(family, 2, 12))
        for kind in sl.NormKind:
            ops.append(Op("reduce_2d", "norm2d.loop", sl.reduce_2d, (basis, kind)))
    for i in range(40):
        # Every lattice of dimension <= 4 is standard under L2, and every 2D
        # lattice under any norm (2D reduction reaches both minima).
        n = 2 + i % 3
        kind = sl.NormKind.L2 if n > 2 else list(sl.NormKind)[i % 3]
        basis, _ = _present(sl, rng, random_rows(family, n, 3))
        ops.append(Op("check_standard", "standardness.search", sl.check_standard, (basis, kind), {"verdict": "Standard"}))
    return ops


def _write_basis(path: Path, rows, text: bool = False) -> None:
    if text:
        body = "\n".join([str(len(rows))] + [" ".join(map(str, r)) for r in rows])
        path.write_text(body + "\n")
    else:
        path.write_text(json.dumps({"dim": len(rows), "basis": [list(r) for r in rows]}))


def build_cli(sl, seed: int, workdir: Path) -> list[Op]:
    import stdlattice.cli as cli

    family, rng = _streams("cli", seed)
    specs = [
        ("minima", 4, 3, ["--norm", "l1"]),
        ("check", 3, 3, []),
        ("standardize", 4, 3, []),
        ("reduce2d", 2, 40, ["--norm", "linf"]),
        ("nearest", 4, 5, []),
    ]
    ops = []
    for command, n, bound, flags in specs:
        basis, iso = _present(sl, rng, random_rows(family, n, bound))
        path = workdir / f"{command}.{'txt' if command == 'minima' else 'json'}"
        _write_basis(path, basis.rows, text=command == "minima")
        argv = [command, str(path), *flags, "--json"]
        expect = {"basis": basis, "code": 0}
        if command == "nearest":
            # "--" lets coordinates such as -3/2 through; without it argparse
            # reads them as unknown options and exits 2.
            target = iso([Fraction(family.randint(-20, 20), family.randint(1, 5)) for _ in range(n)])
            argv = [command, "--json", str(path), "--", *map(str, target)]
            expect["target"] = target
        ops.append(_cli_op(cli, argv, expect))
    ops.insert(4, _cli_op(cli, ["family", "5", "--json"], {"code": 3}))
    return ops


def _cli_op(cli, argv, expect) -> Op:
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(root / "src"))

    def run_subprocess(argv):
        proc = subprocess.run(
            [sys.executable, "-m", "stdlattice", *argv], capture_output=True, env=env, cwd=root
        )
        return proc.returncode, proc.stdout.decode()

    def run_inprocess(argv):
        out = io.StringIO()
        with redirect_stdout(out), redirect_stderr(io.StringIO()):
            code = cli.main(argv)
        return code, out.getvalue()

    return Op(argv[0], "cli", run_subprocess, (argv,), expect, inproc=run_inprocess)


BUILDERS = {
    "parity-l2": build_parity_l2,
    "short-vectors": build_short_vectors,
    "desk-batch": build_desk_batch,
    "cli": build_cli,
}


# ------------------------------------------------------------------- checks


def _values(sm):
    return [nv.value for nv in sm.minima]


def _check_witnesses(rows, sm, kind_name) -> str | None:
    norm = NORMS[kind_name]
    for w, nv in zip(sm.witnesses, sm.minima):
        if not is_member(rows, w):
            return f"witness {w} is not a lattice point"
        if norm(w) != nv.value:
            return f"witness {w} has norm {norm(w)}, claimed {nv.value}"
    if len(sm.witnesses) != len(rows) or det(sm.witnesses) == 0:
        return "witnesses are not independent"
    return None


def _check_minima(sl, basis, kind, sm) -> str | None:
    # The oracle shares the greedy witness scan with the fast path, so the
    # witnesses are also checked independently.
    problem = _check_witnesses(basis.rows, sm, kind.value)
    if problem or basis.dim > ORACLE_MAX_DIM:
        return problem
    truth = sl.brute_minima(basis, kind)
    return None if truth == sm else f"minima {sm} differ from the oracle's {truth}"


def _check_reduced_basis(rows, vectors, claimed, truth_values, kind_name) -> str | None:
    if not is_basis_of(vectors, rows):
        return f"{vectors} is not a basis of the lattice"
    norms = [NORMS[kind_name](v) for v in vectors]
    if norms != list(claimed) or norms != list(truth_values):
        return f"norms {norms} (claimed {list(claimed)}) differ from the minima {list(truth_values)}"
    return None


def check_op(sl, op: Op, result) -> str | None:
    """None if ``result`` is a correct output of ``op``, else a reason."""
    kind = op.kind
    if kind == "check_standard":
        basis, norm_kind = op.args
        if "verdict" in op.expect and result.verdict.value != op.expect["verdict"]:
            return f"verdict {result.verdict.value}, expected {op.expect['verdict']}"
        if "minima" in op.expect and _values(result.minima) != op.expect["minima"]:
            return f"minima {_values(result.minima)}, expected {op.expect['minima']}"
        problem = _check_minima(sl, basis, norm_kind, result.minima)
        if problem or result.basis is None:
            return problem
        return _check_reduced_basis(
            basis.rows, result.basis, _values(result.minima), _values(result.minima), norm_kind.value
        )
    if kind == "successive_minima":
        return _check_minima(sl, *op.args, result)
    if kind == "standardize_low_dim":
        (basis,) = op.args
        truth = _values(sl.brute_minima(basis, sl.NormKind.L2))
        return _check_reduced_basis(basis.rows, result, truth, truth, "l2")
    if kind == "reduce_2d":
        basis, norm_kind = op.args
        truth = _values(sl.brute_minima(basis, norm_kind))
        claimed = [nv.value for nv in result.norms]
        return _check_reduced_basis(basis.rows, (result.b1, result.b2), claimed, truth, norm_kind.value)
    if kind == "nearest_plane":
        basis, target = op.args
        return _check_nearest(
            sl, basis, target, result.point, result.coeffs, result.dist_sq, result.bound_sq, result.at_equality
        )
    if kind == "equality_case_analyze":
        basis, target = op.args
        rows, n = basis.rows, basis.dim
        orthogonal = all(sum(a * b for a, b in zip(rows[i], rows[j])) == 0 for i in range(n) for j in range(i))
        equal = len({_l2sq(r) for r in rows}) == 1
        half_odd = all((2 * c).denominator == 1 and (2 * c).numerator % 2 for c in coefficients(rows, target))
        got = (result.orthogonal, result.equal_norms, result.half_integer_coefficients)
        return None if got == (orthogonal, equal, half_odd) else f"conditions {got}, expected {(orthogonal, equal, half_odd)}"
    return _check_cli(sl, op, result)


def _check_nearest(sl, basis, target, point, coeffs, dist_sq, bound_sq, at_equality) -> str | None:
    rows, n = basis.rows, basis.dim
    point = tuple(point)
    if combine(coeffs, rows) != point:
        return "point is not coeffs . basis"
    true_dist = _l2sq([t - p for t, p in zip(target, point)])
    if dist_sq != true_dist:
        return f"dist_sq {dist_sq}, recomputed {true_dist}"
    if bound_sq != Fraction(n, 4) * max(_l2sq(r) for r in rows):
        return f"bound_sq {bound_sq} is not n/4 * max row norm"
    if dist_sq > bound_sq:
        return f"dist_sq {dist_sq} exceeds the bound {bound_sq}"
    if at_equality != (dist_sq == bound_sq):
        return f"at_equality is {at_equality} with dist_sq {dist_sq} and bound_sq {bound_sq}"
    if n <= ORACLE_MAX_DIM and sl.brute_cvp(basis, target).dist_sq > dist_sq:
        return "the oracle's closest point is farther than the nearest-plane point"
    return None


def _check_cli(sl, op: Op, result) -> str | None:
    code, stdout = result
    if code != op.expect["code"]:
        return f"exit code {code}, expected {op.expect['code']}"
    payload = json.loads(stdout)
    kind = op.kind
    if kind == "family":
        ok = (
            payload["verdict"] == "NonStandard"
            and payload["minima"]["values"] == [4] * 5
            and payload["parity_argument"]["consistent"] is True
        )
        return None if ok else f"family 5 payload is wrong: {payload}"
    basis = op.expect["basis"]
    if kind == "nearest":
        return _check_nearest(
            sl,
            basis,
            op.expect["target"],
            payload["point"],
            payload["coeffs"],
            Fraction(str(payload["dist_sq"])),
            Fraction(str(payload["bound_sq"])),
            payload["at_equality"],
        )
    if kind == "minima":
        truth = sl.brute_minima(basis, sl.NormKind.L1)
        got = ([Fraction(str(v)) for v in payload["minima"]["values"]], [tuple(w) for w in payload["minima"]["witnesses"]])
        return None if got == (_values(truth), list(truth.witnesses)) else f"minima payload {got} differs from the oracle"
    if kind == "check":
        if payload["verdict"] != "Standard":
            return f"verdict {payload['verdict']}, expected Standard"
        truth = _values(sl.brute_minima(basis, sl.NormKind.L2))
        return _check_reduced_basis(basis.rows, payload["basis"], payload["minima"]["values"], truth, "l2")
    if kind == "standardize":
        if payload["determinant"] != det(basis.rows):
            return "wrong determinant"
        truth = _values(sl.brute_minima(basis, sl.NormKind.L2))
        return _check_reduced_basis(basis.rows, payload["basis"], payload["squared_norms"], truth, "l2")
    if kind == "reduce2d":
        truth = _values(sl.brute_minima(basis, sl.NormKind.LINF))
        return _check_reduced_basis(basis.rows, payload["basis"], payload["norms"], truth, "linf")
    return f"no check for {kind}"


def counters(ops: list[Op], results) -> dict[str, int]:
    """Deterministic counters the library reports on its results."""
    nodes = sum(r.stats.nodes_explored for op, r in zip(ops, results) if op.kind == "check_standard" and hasattr(r, "stats"))
    return {"ops_per_pass": len(ops), "standardness.nodes": nodes}
