"""The committed benchmark records at the repository root.

Each performance change commits the benchmark's output for the parent and
for the change as ``BENCH_<n>_<workload>_parent.json`` and
``BENCH_<n>_<workload>_change.json``.  Every such file must come with its
pair, name a workload that ``BENCHMARK.json`` declares, and hold the last
line of one correct benchmark run: a single JSON line with ``correct``
true, no failed operation and exactly the end-to-end metrics of
``BENCHMARK.json``, each in its declared unit.
"""

import json
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = {w["name"] for w in DECLARED["workloads"]}
UNITS = {m["name"]: m["unit"] for m in DECLARED["end_to_end"]}
NAME = re.compile(r"BENCH_(\d+)_(.+)_(parent|change)\.json")
FILES = sorted(ROOT.glob("BENCH_*.json"))


def test_records_are_committed():
    assert FILES


@pytest.mark.parametrize("path", FILES, ids=lambda p: p.name)
def test_record_is_one_correct_run(path):
    match = NAME.fullmatch(path.name)
    assert match, path.name
    assert match[2] in WORKLOADS
    lines = path.read_text().splitlines()
    assert len(lines) == 1
    record = json.loads(lines[0])
    assert record["correct"] is True
    assert record["failed"] == 0
    metrics = record["metrics"]
    assert {name: m["unit"] for name, m in metrics.items()} == UNITS
    assert all(type(m["value"]) in (int, float) for m in metrics.values())


def test_records_come_in_pairs():
    sides: dict[tuple[str, str], set[str]] = {}
    for path in FILES:
        match = NAME.fullmatch(path.name)
        assert match, path.name
        sides.setdefault(match.group(1, 2), set()).add(match[3])
    assert {key: got for key, got in sides.items() if got != {"parent", "change"}} == {}
