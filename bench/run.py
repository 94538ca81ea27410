"""stdlattice benchmark: one command, every metric by name and unit.

    python3 bench/run.py --workload parity-l2 --seed 1 --seconds 20 --trace 0

Run it from the repository root; the library is imported from ``src/``.
Load is a closed loop of one caller in one thread: each call starts after
the previous one returned.  A pass is one run of the workload's operation
list; passes repeat until ``--seconds`` have elapsed.  Every output of the
first pass is checked exactly (outside the timed region) and every later
pass must reproduce it.

Timings are reported in units of a fixed reference ("ref"), timed between
calls: on a shared host the machine's speed swings by up to about 2x within
seconds, and dividing each call by the reference timed next to it cancels
most of that.  ``setup_s`` is normalised the same way and then scaled back
to seconds (see ``setup``).  Raw seconds are printed too, for reading, but
not gated.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced passes and prints the per-layer metrics; end-to-end
numbers never come from a traced pass.  The last line of stdout is a JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from fractions import Fraction
from pathlib import Path

import workloads

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 15
# Nominal time of reference_kernel (its median on a 2.1 GHz Xeon), used only
# to express setup_s in seconds; never change it, like the kernel itself.
REFERENCE_KERNEL_S = 0.004
IMPORT_PROBES = 5
# Tail percentile per workload: p90, or the highest one with at least ten
# calls beyond it in the fewest calls a 20 s run makes (parity-l2 makes six
# calls per 2-3 s pass, cli six per 1-1.6 s pass).
TAIL_PERCENTILE = {"parity-l2": 75, "short-vectors": 90, "desk-batch": 90, "cli": 85}


def reference_kernel() -> Fraction:
    """Fixed stdlib-only work: int and Fraction Gauss-Jordan inversion of a
    fixed 7x7 matrix, twice (about 4 ms on a 2.1 GHz Xeon).  Never change
    it: the ``*_ref`` metrics are comparable only while it stays the same."""
    n, x, rows = 7, 12345, []
    for _ in range(n):
        row = []
        for _ in range(n):
            x = (x * 1103515245 + 12345) % 2147483648
            row.append(x % 19 - 9)
        rows.append(row)
    total = Fraction(0)
    for _ in range(2):
        a = [[Fraction(v) for v in r] + [Fraction(int(i == j)) for j in range(n)] for i, r in enumerate(rows)]
        for c in range(n):
            p = next(i for i in range(c, n) if a[i][c] != 0)
            a[c], a[p] = a[p], a[c]
            pivot = a[c][c]
            a[c] = [v / pivot for v in a[c]]
            for i in range(n):
                if i != c and a[i][c] != 0:
                    f = a[i][c]
                    a[i] = [u - f * v for u, v in zip(a[i], a[c])]
        total += sum(a[0][n:])
    return total


def kernel_reference() -> float:
    t0 = time.perf_counter()
    reference_kernel()
    return time.perf_counter() - t0


def spawn_reference() -> float:
    """Time of a bare interpreter start (``python -c pass``).  CLI calls are
    subprocesses, whose cost follows process start-up rather than
    arithmetic speed, so they are divided by this instead."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "pass"], check=True)
    return time.perf_counter() - t0


# workload -> (reference timer, call time between reference samples)
REFERENCES = {"cli": (spawn_reference, 0.15)}
DEFAULT_REFERENCE = (kernel_reference, 0.03)


class Failure:
    """Stands in for the result of a call that raised."""

    def __init__(self, exc: BaseException):
        self.reason = f"{type(exc).__name__}: {exc}"

    def __eq__(self, other):
        return isinstance(other, Failure) and other.reason == self.reason

    def __repr__(self):
        return f"Failure({self.reason!r})"


class Outputs:
    """First-pass results, plus how often a later pass failed to reproduce
    them (only the first pass is kept, so memory does not grow with passes)."""

    def __init__(self):
        self.first = None
        self.passes = 0
        self.mismatches = []

    def add(self, results) -> None:
        self.passes += 1
        if self.first is None:
            self.first = results
            self.mismatches = [0] * len(results)
            return
        for i, (got, want) in enumerate(zip(results, self.first)):
            if got != want:
                self.mismatches[i] += 1

    def failed(self, sl, ops) -> int:
        """Failed calls: every call of an op whose first output raised or
        failed its check, plus later calls that differed from the first."""
        failed = 0
        for i, (op, result) in enumerate(zip(ops, self.first)):
            if isinstance(result, Failure):
                problem = result.reason
            else:
                try:
                    problem = workloads.check_op(sl, op, result)
                except Exception as exc:  # a malformed output is a failed check
                    problem = f"check raised {type(exc).__name__}: {exc}"
            if problem:
                print(f"FAILED {op.kind} #{i}: {problem}", file=sys.stderr)
                failed += self.passes
            else:
                failed += self.mismatches[i]
        return failed


def setup(workload: str, seed: int, workdir: Path):
    """Import the package afresh and build the inputs, SETUP_REPEATS times.

    Like every other timing, each repeat is divided by the mean of reference
    kernel samples taken just before and just after it.  The median ratio is
    reported in seconds by multiplying it with REFERENCE_KERNEL_S, so
    ``setup_s`` reads as the set-up time on a machine where the kernel takes
    that long.  Returns (setup_s, raw median seconds, package, operations).
    """
    refs, times, ratios = [kernel_reference()], [], []
    for _ in range(SETUP_REPEATS):
        for name in [m for m in sys.modules if m == "stdlattice" or m.startswith("stdlattice.")]:
            del sys.modules[name]
        t0 = time.perf_counter()
        sl = importlib.import_module("stdlattice")
        ops = workloads.BUILDERS[workload](sl, seed, workdir)
        times.append(time.perf_counter() - t0)
        refs.append(kernel_reference())
        ratios.append(times[-1] / ((refs[-2] + refs[-1]) / 2))
    return statistics.median(ratios) * REFERENCE_KERNEL_S, statistics.median(times), sl, ops


def run_pass(ops, call, reference=None, refs=None):
    """Run the operation list once; return (results, latencies, normalisers).

    With a ``reference`` (timer, interval) and ``refs`` (the samples so far,
    the last one taken just before the pass), the reference is timed again
    after any call that ends at least ``interval`` of call time after the
    last sample, and after the pass.  A call's normaliser is the mean of the
    samples taken just before and just after it.
    """
    results, latencies, before = [], [], []
    since = 0.0
    for op in ops:
        t0 = time.perf_counter()
        try:
            result = call(op)
        except Exception as exc:  # a failed call is counted, not fatal
            result = Failure(exc)
        latency = time.perf_counter() - t0
        latencies.append(latency)
        results.append(result)
        if reference is not None:
            timer, interval = reference
            before.append(len(refs) - 1)
            since += latency
            if since >= interval or op is ops[-1]:
                refs.append(timer())
                since = 0.0
    norms = [(refs[k] + refs[k + 1]) / 2 for k in before] if reference is not None else None
    return results, latencies, norms


def percentile(values, pct: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def digest(ops, results) -> str:
    h = hashlib.sha256()
    for op, result in zip(ops, results):
        h.update(f"{op.kind}|{result!r}\n".encode())
    return h.hexdigest()


def measure_end_to_end(workload, ops, seconds):
    reference = REFERENCES.get(workload, DEFAULT_REFERENCE)
    refs = [reference[0]()]
    walls, wall_refs, pass_p50_refs, latencies, latency_refs = [], [], [], [], []
    outputs = Outputs()
    deadline = time.perf_counter() + seconds
    while True:
        results, lat, norms = run_pass(ops, lambda op: op.fn(*op.args), reference, refs)
        outputs.add(results)
        lat_refs = [t / r for t, r in zip(lat, norms)]
        walls.append(sum(lat))
        wall_refs.append(sum(lat_refs))
        pass_p50_refs.append(statistics.median(lat_refs))
        latencies += lat
        latency_refs += lat_refs
        if time.perf_counter() >= deadline:
            break
    who = resource.RUSAGE_CHILDREN if workload == "cli" else resource.RUSAGE_SELF
    peak_mb = resource.getrusage(who).ru_maxrss / 1024
    tail = TAIL_PERCENTILE[workload]
    beyond = len(latencies) * (100 - tail) / 100
    print(f"passes {len(walls)}, calls {len(latencies)} ({beyond:.0f} beyond p{tail}), reference samples {len(refs)}")
    if beyond < 10:
        print(f"warning: fewer than 10 calls beyond p{tail}; op_tail_ref is indicative only", file=sys.stderr)
    print(
        f"raw: wall_s {statistics.median(walls):.6g} s, op_p50_ms {statistics.median(latencies) * 1000:.6g} ms, "
        f"op_p{tail}_ms {percentile(latencies, tail) * 1000:.6g} ms, reference {statistics.median(refs) * 1000:.6g} ms"
    )
    # op_p50_ref is the median of per-pass medians: parity-l2's six calls
    # differ in size, and a median over all its calls would fall between
    # the slowest n=7 and the fastest n=8 call.
    metrics = {
        "wall_ref": (statistics.median(wall_refs), "ref"),
        "op_p50_ref": (statistics.median(pass_p50_refs), "ref"),
        "op_tail_ref": (percentile(latency_refs, tail), "ref"),
        "peak_rss_mb": (peak_mb, "MB"),
    }
    return outputs, metrics, {}


# Per-layer self-time metrics: metric name -> tracer group.
SELF_TIMES = {
    "standardness.search_s": "standardness.search",
    "standardness.section_s": "standardness.section",
    "standardness.standardize_s": "standardness.standardize",
    "exactlin.det_s": "exactlin.det",
    "exactlin.solve_s": "exactlin.solve",
    "exactlin.hnf_s": "exactlin.hnf",
    "exactlin.gso_s": "exactlin.gso",
    "enumeration.s": "enumeration",
    "cvp.nearest_s": "cvp.nearest",
    "cvp.equality_s": "cvp.equality",
    "norm2d.loop_s": "norm2d.loop",
    "cli.self_s": "cli",
    "trace.unattributed_s": "trace.unattributed",
}
# Per-kind median latency of untraced calls: metric name -> op kind.
KIND_LATENCIES = {
    "standardness.standardize_ms_p50": "standardize_low_dim",
    "cvp.nearest_ms_p50": "nearest_plane",
    "norm2d.reduce2d_ms_p50": "reduce_2d",
}
COUNTERS = [
    "exactlin.det_calls",
    "exactlin.solve_calls",
    "exactlin.hnf_calls",
    "exactlin.gso_calls",
    "exactlin.rank_adds",
    "enumeration.calls",
    "enumeration.leaves",
    "enumeration.accepted",
    "norm2d.translate_calls",
]


def measure_layers(workload, ops, seconds):
    from tracer import Tracer

    tracer = Tracer()
    untraced_walls, traced_walls, layer_runs = [], [], []
    per_kind: dict[str, list[float]] = {}
    counts = None
    outputs = Outputs()
    # The cli workload's traced passes call cli.main in-process, so that the
    # spans inside it are visible; its untraced passes do the same.
    direct = lambda op: (op.inproc or op.fn)(*op.args)  # noqa: E731
    traced = lambda op: tracer.run(op.group, op.inproc or op.fn, op.args)  # noqa: E731
    deadline = time.perf_counter() + seconds
    while True:
        t0 = time.perf_counter()
        results, lat, _ = run_pass(ops, direct)
        untraced_walls.append(time.perf_counter() - t0)
        outputs.add(results)
        for op, t in zip(ops, lat):
            per_kind.setdefault(op.kind, []).append(t)
        tracer.reset()
        tracer.install()
        try:
            t0 = time.perf_counter()
            results, _, _ = run_pass(ops, traced)
            wall = time.perf_counter() - t0
        finally:
            tracer.uninstall()
        traced_walls.append(wall)
        outputs.add(results)
        selfs = tracer.self_seconds()
        selfs["trace.unattributed"] = wall - sum(selfs.values())
        layer_runs.append(selfs)
        if counts is None:
            counts = dict(tracer.counts)
        if time.perf_counter() >= deadline:
            break
    for name in tracer.missing:
        print(f"trace: binding {name} is missing from the library", file=sys.stderr)

    metrics = {name: (statistics.median(run.get(group, 0.0) for run in layer_runs), "s") for name, group in SELF_TIMES.items()}
    for name, kind in KIND_LATENCIES.items():
        metrics[name] = (statistics.median(per_kind[kind]) * 1000 if kind in per_kind else 0.0, "ms")
    every_call = [t for ts in per_kind.values() for t in ts]
    metrics["cli.main_ms"] = (statistics.median(every_call) * 1000 if workload == "cli" else 0.0, "ms")
    metrics["cli.import_ms"] = (import_probe_ms() if workload == "cli" else 0.0, "ms")
    metrics["trace.overhead_ratio"] = (statistics.median(traced_walls) / statistics.median(untraced_walls), "ratio")
    metrics["trace.missing_names"] = (len(tracer.missing), "count")
    leaves = counts.get("enumeration.leaves", 0)
    metrics["enumeration.accept_ratio"] = (counts.get("enumeration.accepted", 0) / leaves if leaves else 0.0, "ratio")
    for name in COUNTERS:
        metrics[name] = (counts.get(name, 0), "count")
    print(f"passes {len(untraced_walls)} untraced + {len(traced_walls)} traced")
    return outputs, metrics, counts


def import_probe_ms() -> float:
    """Median time of ``import stdlattice.cli`` in a fresh interpreter."""
    code = "import time; t = time.perf_counter(); import stdlattice.cli; print(time.perf_counter() - t)"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    times = []
    for _ in range(IMPORT_PROBES):
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, env=env, cwd=ROOT, check=True)
        times.append(float(out.stdout) * 1000)
    return statistics.median(times)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.BUILDERS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "stdlattice" / "__init__.py").is_file():
        print(f"error: {ROOT / 'src' / 'stdlattice'} not found; run from a stdlattice checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    with tempfile.TemporaryDirectory(prefix=".bench-tmp-", dir=ROOT) as tmp:
        setup_s, setup_raw_s, sl, ops = setup(args.workload, args.seed, Path(tmp))
        measure = measure_layers if args.trace else measure_end_to_end
        outputs, metrics, traced_counts = measure(args.workload, ops, args.seconds)
        t0 = time.perf_counter()
        failed = outputs.failed(sl, ops)
        check_s = time.perf_counter() - t0

    attempted = len(ops) * outputs.passes
    counts = {**workloads.counters(ops, outputs.first), **traced_counts}
    if args.trace:
        metrics["oracle.check_s"] = (check_s, "s")
        metrics["standardness.nodes"] = (counts["standardness.nodes"], "count")
    else:
        metrics["setup_s"] = (setup_s, "s")
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
    print(f"digest sha256:{digest(ops, outputs.first)}")
    print(f"counters {json.dumps(counts, sort_keys=True)}")
    print(f"failed_ratio {failed}/{attempted} = {failed / attempted:.6f}")
    print(f"raw: setup {setup_raw_s:.6g} s")
    for name, (value, unit) in metrics.items():
        print(f"{name:34s} {value:.6g} {unit}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
