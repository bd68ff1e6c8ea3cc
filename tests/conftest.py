from __future__ import annotations

import pytest

from prudentpoly.enumeration import pa3_series
from prudentpoly.series import FloatSeries1, Series1


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
