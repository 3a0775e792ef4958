"""Options of the test suite."""

import pytest


def pytest_addoption(parser):
    parser.addoption(
        "--lift-oracle-seeds", default="1-3", metavar="FIRST-LAST",
        help="the seeds of tests/test_lift_oracle.py, an inclusive range (default 1-3)",
    )


@pytest.fixture
def oracle_seeds(request):
    first, _, last = request.config.getoption("lift_oracle_seeds").partition("-")
    return range(int(first), int(last or first) + 1)
