"""Prudent self-avoiding polygons counted by area.

Exact enumeration (closed forms, functional-equation fixed points, a
brute-force lattice oracle) and high-precision asymptotics of the 3-sided
counting sequence, whose n-th term grows like
[kappa_0 + kappa(log2 n)] 2^n n^{log2 3} with a ~1.5e-9 oscillation.
"""

from .enumeration import (
    CountTable,
    bargraph_series,
    pa2_series,
    pa3_scaled_float,
    pa3_series,
    pa4_series,
    pa4_system_solution,
    w_series,
)
from .oracle import (
    LatticeWalk,
    classify_walk,
    enumerate_prudent_polygons,
    polygon_area,
)
from .series import (
    FloatSeries1,
    Series1,
    Series2,
    Series3,
    expand_rational,
)

__all__ = [
    "CountTable",
    "FloatSeries1",
    "LatticeWalk",
    "Series1",
    "Series2",
    "Series3",
    "bargraph_series",
    "classify_walk",
    "enumerate_prudent_polygons",
    "expand_rational",
    "pa2_series",
    "pa3_scaled_float",
    "pa3_series",
    "pa4_series",
    "pa4_system_solution",
    "polygon_area",
    "w_series",
]

__version__ = "0.1.0"
