import random

import pytest


def pytest_report_header(config):
    # pyproject's pythonpath puts the checkout's src first; this names the copy under test
    try:
        import partiality
    except ImportError as err:
        return f"partiality: not importable: {err}"
    return f"partiality: {partiality.__file__}"


@pytest.fixture
def rng():
    return random.Random(20260822)
