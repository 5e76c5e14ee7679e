import pytest

# The module-scoped solver runs of test_acceptance carry most of the suite's
# time (run256 alone is about a minute); `pytest -m "not slow"` leaves out
# every test that uses them.
SLOW_FIXTURES = {"run128", "run256"}


def pytest_collection_modifyitems(items):
    for item in items:
        if SLOW_FIXTURES.intersection(getattr(item, "fixturenames", ())):
            item.add_marker(pytest.mark.slow)
