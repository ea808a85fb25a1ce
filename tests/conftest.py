import random

import pytest


def pytest_report_header(config):
    # the tests import the first partiality on the path; naming it shows whether a run tests the copy it means to
    try:
        import partiality
    except ImportError as err:
        return f"partiality: not importable: {err}"
    return f"partiality: {partiality.__file__}"


@pytest.fixture
def rng():
    return random.Random(20260822)
