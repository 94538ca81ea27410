"""Outside-in tracer for the stdlattice benchmark.

The tracer never edits the library.  It replaces, for the duration of one
traced pass, the names that one stdlattice module imports from another (and
a few module-level helpers that are looked up through module globals) with
thin wrappers that record spans ``(group, start, end, parent)`` in memory or
bump a counter.  A span's self time is its duration minus the time its child
spans cover; summing self time per group gives the per-layer numbers.

A binding listed here that the library no longer has is reported as missing
instead of failing, so the trace keeps working after a helper is deleted.
"""

from __future__ import annotations

import importlib
from array import array
from collections import Counter
from time import perf_counter_ns

PACKAGE = "stdlattice"

# binding -> (group, call counter or None).  A binding is "module.attr" or
# "module.Class.attr" inside the package; every place that calls the function
# through a different module's globals needs its own entry.
SPANS = {
    "exactlin._bareiss_det": ("exactlin.det", "exactlin.det_calls"),
    "standardness._bareiss_det": ("exactlin.det", "exactlin.det_calls"),
    "exactlin._solve_exact": ("exactlin.solve", "exactlin.solve_calls"),
    "standardness._solve_exact": ("exactlin.solve", "exactlin.solve_calls"),
    "cvp._solve_exact": ("exactlin.solve", "exactlin.solve_calls"),
    "exactlin.hermite_form": ("exactlin.hnf", "exactlin.hnf_calls"),
    "standardness.hermite_form": ("exactlin.hnf", "exactlin.hnf_calls"),
    "enumeration._gso_rows": ("exactlin.gso", "exactlin.gso_calls"),
    "cvp._gso_rows": ("exactlin.gso", "exactlin.gso_calls"),
    "enumeration._enumerate_rows": ("enumeration", "enumeration.calls"),
    "standardness.successive_minima": ("enumeration", None),
    "standardness.enumerate_short": ("enumeration", None),
    "standardness._minima_rows": ("enumeration", None),
    "norm2d._minima_rows": ("enumeration", None),
    "families.check_standard": ("standardness.search", None),
    "families.enumerate_short": ("enumeration", None),
    "standardness._max_minor_gcd": ("standardness.search", None),
    "standardness._section_rows": ("standardness.section", None),
    "standardness._standardize_rows": ("standardness.standardize", None),
    "standardness._half_coset_completion": ("standardness.standardize", None),
    "standardness._nearest_rows": ("cvp.nearest", None),
    "cvp._nearest_rows": ("cvp.nearest", None),
    "norm2d.min_translate": ("norm2d.loop", "norm2d.translate_calls"),
    "cli.check_standard": ("standardness.search", None),
    "cli.successive_minima": ("enumeration", None),
    "cli.standardize_low_dim": ("standardness.standardize", None),
    "cli.reduce_2d": ("norm2d.loop", None),
    "cli.nearest_plane": ("cvp.nearest", None),
    "cli.equality_case_analyze": ("cvp.equality", None),
}

# binding -> counter; counted only, no span (these run per lattice point).
COUNTS = {
    "exactlin.RankTracker.add": "exactlin.rank_adds",
    "enumeration.measure": "enumeration.leaves",
}

# binding -> counter incremented by len(result).
RESULT_LENGTHS = {"enumeration._enumerate_rows": "enumeration.accepted"}


def _resolve(binding: str):
    """(owner, attribute name) for a binding, or None if it no longer exists."""
    module_name, *path = binding.split(".")
    try:
        owner = importlib.import_module(f"{PACKAGE}.{module_name}")
        for name in path[:-1]:
            owner = getattr(owner, name)
    except (ImportError, AttributeError):
        return None
    if not hasattr(owner, path[-1]):
        return None
    return owner, path[-1]


class Tracer:
    """Span and counter recorder; install() patches, uninstall() restores."""

    def __init__(self, spans=SPANS, counts=COUNTS, result_lengths=RESULT_LENGTHS):
        self._span_table = spans
        self._count_table = counts
        self._length_table = result_lengths
        self.groups: list[str] = []
        self._group_ids: dict[str, int] = {}
        # Flat records of (group id, start ns, end ns, parent index).
        self.spans = array("q")
        self.counts: Counter = Counter()
        self.missing: list[str] = []
        self._stack = [-1]
        self._patches: list[tuple[object, str, object]] = []

    def group_id(self, group: str) -> int:
        if group not in self._group_ids:
            self._group_ids[group] = len(self.groups)
            self.groups.append(group)
        return self._group_ids[group]

    def install(self) -> None:
        self.missing = []
        bindings = set(self._span_table) | set(self._count_table)
        for binding in sorted(bindings):
            target = _resolve(binding)
            if target is None:
                self.missing.append(binding)
                continue
            owner, attr = target
            original = getattr(owner, attr)
            if binding in self._span_table:
                group, counter = self._span_table[binding]
                wrapper = self._span_wrapper(
                    original, self.group_id(group), counter, self._length_table.get(binding)
                )
            else:
                wrapper = self._count_wrapper(original, self._count_table[binding])
            self._patches.append((owner, attr, original))
            setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def reset(self) -> None:
        del self.spans[:]
        self.counts.clear()

    def run(self, group: str, fn, args):
        """Call ``fn(*args)`` inside a span of ``group``."""
        return self._span_wrapper(fn, self.group_id(group), None, None)(*args)

    def _span_wrapper(self, fn, gid: int, counter, length_counter):
        spans, stack, counts = self.spans, self._stack, self.counts

        def traced(*args, **kwargs):
            idx = len(spans) >> 2
            spans.extend((gid, 0, 0, stack[-1]))
            stack.append(idx)
            if counter is not None:
                counts[counter] += 1
            spans[4 * idx + 1] = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[4 * idx + 2] = perf_counter_ns()
                stack.pop()
            if length_counter is not None:
                counts[length_counter] += len(result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _count_wrapper(self, fn, counter: str):
        counts = self.counts

        def counted(*args, **kwargs):
            counts[counter] += 1
            return fn(*args, **kwargs)

        counted.__wrapped__ = fn
        return counted

    def self_seconds(self) -> dict[str, float]:
        """Self time per group, in seconds, over the spans recorded so far."""
        totals = [0] * len(self.groups)
        spans = self.spans
        for i in range(0, len(spans), 4):
            gid, start, end, parent = spans[i], spans[i + 1], spans[i + 2], spans[i + 3]
            duration = end - start
            totals[gid] += duration
            if parent >= 0:
                totals[spans[4 * parent]] -= duration
        return {g: totals[i] / 1e9 for i, g in enumerate(self.groups)}
