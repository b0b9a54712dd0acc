import pytest


def _raises(**_):
    raise AssertionError("a refused window must not run the check")


@pytest.fixture
def raising_check():
    """A check function that fails the test if a refused window runs it."""
    return _raises
