"""Session fixtures: the three census runs shared by the acceptance gate.

Each census is built exactly once per session, without a cache directory,
and its wall-clock build time is recorded for the runtime assertions.
"""

import time

import pytest

from xmodkit.census import census

_RUNTIMES: dict[str, float] = {}


def _timed(key: str, build):
    start = time.perf_counter()
    result = build()
    _RUNTIMES[key] = time.perf_counter() - start
    return result


@pytest.fixture(scope="session")
def census_times():
    return _RUNTIMES


@pytest.fixture(scope="session")
def census44():
    return _timed("census44", lambda: census(4, 4))


@pytest.fixture(scope="session")
def census88():
    return _timed("census88", lambda: census(8, 8))


@pytest.fixture(scope="session")
def census1818():
    return _timed("census1818", lambda: census(18, 18))
