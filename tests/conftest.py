import pytest
from hypothesis import settings

from stdlattice import enumeration

# Every property test draws the same examples on every run, so two runs of
# one commit test the same inputs; each test keeps its own max_examples and
# deadline.
settings.register_profile("reproducible", derandomize=True)
settings.load_profile("reproducible")


@pytest.fixture
def passes(monkeypatch):
    """Every enumeration pass a test makes, as (kind, bound value) in call
    order; the passes run unchanged."""
    recorded = []
    inner = enumeration._enumerate_rows

    def recording(search, bound, max_candidates):
        recorded.append((bound.kind, bound.value))
        return inner(search, bound, max_candidates)

    monkeypatch.setattr(enumeration, "_enumerate_rows", recording)
    return recorded
