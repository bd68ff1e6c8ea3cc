from __future__ import annotations

import contextlib
import signal

import pytest

from prudentpoly.enumeration import pa3_series, pa4_series
from prudentpoly.oracle import enumerate_prudent_polygons
from prudentpoly.series import FloatSeries1, Series1


@contextlib.contextmanager
def time_limit(seconds: float):
    """Raise TimeoutError, which cli.main does not map, once time is up: a
    guard that stops working fails its test instead of hanging it."""
    def expire(signum, frame):
        raise TimeoutError(f"the run took over {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@pytest.fixture(scope="session")
def exact_counts_800():
    return pa3_series(800, "theorem")


@pytest.fixture(scope="session")
def exact_counts_4096():
    return pa3_series(4096, "theorem")


@pytest.fixture(scope="session")
def float_counts_4096(exact_counts_4096):
    # pa3_scaled_float(4096, precision=40), from the shared exact counts
    return FloatSeries1.from_series1(
        Series1((0,) + exact_counts_4096.counts), 40)


@pytest.fixture(scope="session")
def four_sided_counts_150():
    return pa4_series(150)


@pytest.fixture(scope="session")
def four_sided_oracle_area_9():
    # the brute-force k = 4 prudent search to area 9; its first 8 counts are
    # the search to area 8
    return enumerate_prudent_polygons(4, 9)
