import pytest

# The module-scoped solver runs of test_acceptance carry most of the suite's
# time (run256 alone is about a minute); `pytest -m "not slow"` leaves out
# every test that uses them.
SLOW_FIXTURES = {"run128", "run256"}


def pytest_collection_modifyitems(items):
    for item in items:
        if SLOW_FIXTURES.intersection(getattr(item, "fixturenames", ())):
            item.add_marker(pytest.mark.slow)


@pytest.fixture
def set_workers(monkeypatch):
    """set_workers(n): the package sees n usable cores and one BLAS thread,
    so analyze_fields runs its R_eff stacks on up to n pool threads."""
    from spinodalkit import fields

    def set_workers(n: int) -> None:
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
        monkeypatch.setattr(fields, "_usable_cores", lambda: n)
    return set_workers
