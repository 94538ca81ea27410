"""Self-test of the benchmark harness (not part of the library's test suite).

    python3 -m pytest bench/test_bench.py

Each case runs the benchmark for one untraced and one traced pass.
"""

from __future__ import annotations

import functools
import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ["parity-l2", "short-vectors", "desk-batch", "cli"]


def run_once(workload: str, seed: int, trace: int = 1):
    """(result, digest, counters) of one run."""
    out = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed), "--seconds", "0.1", "--trace", str(trace)],
        capture_output=True,
        text=True,
        cwd=ROOT,
        check=True,
        timeout=170,
    )
    lines = out.stdout.splitlines()
    digest = next(line for line in lines if line.startswith("digest "))
    counters = json.loads(next(line for line in lines if line.startswith("counters "))[len("counters "):])
    return json.loads(lines[-1]), digest, counters


run = functools.lru_cache(maxsize=None)(run_once)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_gives_identical_digest_and_counters(workload):
    first, second = run(workload, 11), run_once(workload, 11)
    assert first[0]["correct"] and first[0]["failed"] == 0
    assert first[1:] == second[1:]


def test_parity_l2_counters_do_not_depend_on_the_seed():
    assert run("parity-l2", 11)[2] == run("parity-l2", 12)[2]
    assert run("parity-l2", 12)[2]["standardness.nodes"] == 2010


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_metrics_match_benchmark_json(trace, section):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())[section]
    metrics = run("parity-l2", 11, trace=trace)[0]["metrics"]
    assert {name: m["unit"] for name, m in metrics.items()} == {m["name"]: m["unit"] for m in spec}


def test_missing_binding_is_reported_not_raised():
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]
    from tracer import Tracer

    tracer = Tracer(
        spans={"exactlin._no_such_helper": ("exactlin.det", None), "no_such_module.f": ("x", None)},
        counts={"exactlin.RankTracker.no_such_method": "x"},
        result_lengths={},
    )
    tracer.install()
    tracer.uninstall()
    assert tracer.missing == [
        "exactlin.RankTracker.no_such_method",
        "exactlin._no_such_helper",
        "no_such_module.f",
    ]
