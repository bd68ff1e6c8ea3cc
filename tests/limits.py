"""The first order each exact entry point refuses, written once: per test
id, the entry point, the solver name its ``DomainError`` prints, the first
order its memory estimate refuses (a literal, so a refit edits this line),
that estimate's name in ``enumeration`` and the CLI routes that reach it,
by test id.
``test_enumeration.py`` and ``test_cli.py`` check every row.
"""

from dataclasses import dataclass, field
from functools import partial
from typing import Callable

from prudentpoly import enumeration as e

# what a solver calls past its guard; the guard tests set each to None
KERNELS = ("accumulate", "expand_rational", "_intpoly", "Series2", "Series3",
           "_w_blocks", "_pa3_theorem_coeffs", "_pa4_diagonals")


@dataclass(frozen=True)
class Limit:
    solve: Callable[[int], object]  # the entry point
    solver: str                     # the name in its DomainError
    first_refused: int
    estimate: str                   # the name of its estimate, in MiB
    cli: dict[str, tuple[str, ...]] = field(default_factory=dict)


LIMITS = {
    "bargraph": Limit(e.bargraph_series, "bargraph", 3702, "_bargraph_mib"),
    "pa2": Limit(e.pa2_series, "2-sided", 125515, "_pa2_mib", {
        "k2": ("enumerate", "--k", "2", "--max-area"),
        "fit-k2": ("fit", "--k", "2", "--max-n")}),
    "w": Limit(e.w_series, "3-sided functional", 3594, "_w_mib"),
    "pa3-functional": Limit(
        partial(e.pa3_series, method="functional"), "3-sided functional",
        76295, "_w_sum_mib", {"k3-functional": (
            "enumerate", "--k", "3", "--method", "functional", "--max-area")}),
    "pa3-theorem": Limit(e.pa3_series, "3-sided theorem", 88273, "_pa3_mib", {
        "k3": ("enumerate", "--k", "3", "--max-area"),
        "fit-k3": ("fit", "--k", "3", "--max-n"),
        "residuals": ("residuals", "--max-n")}),
    "pa4": Limit(e.pa4_series, "4-sided", 1901, "_pa4_mib", {
        "k4": ("enumerate", "--k", "4", "--max-area"),
        "fit-k4": ("fit", "--k", "4", "--max-n")}),
    "pa4-solution": Limit(e.pa4_system_solution, "4-sided", 359,
                          "_pa4_solution_mib"),
}
