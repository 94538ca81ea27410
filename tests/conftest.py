import pytest

from stdlattice import enumeration


@pytest.fixture
def passes(monkeypatch):
    """Every enumeration pass a test makes, as (kind, bound value) in call
    order; the passes run unchanged."""
    recorded = []
    inner = enumeration._enumerate_rows

    def recording(rows, d, lam, kind, bound, max_candidates):
        recorded.append((kind, bound.value))
        return inner(rows, d, lam, kind, bound, max_candidates)

    monkeypatch.setattr(enumeration, "_enumerate_rows", recording)
    return recorded
