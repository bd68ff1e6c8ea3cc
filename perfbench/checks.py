"""Correctness checks for the benchmark's operations.

Every reference here is computed apart from prudentpoly: the published
counts, a plain-series evaluation of the 3-sided theorem sum, the paper's
closed form for kappa_k (with mpmath.qp and mpmath.gamma), and the defining
equations of the poles, theta and U(1/2).  Each check raises CheckFailed
with a reason when an output is wrong.
"""

from __future__ import annotations

import functools
import json

from mpmath import mp, mpc, mpf

# Published 3-sided counts PA_1..PA_10.
PA3_PUBLISHED = (6, 10, 20, 42, 92, 204, 454, 1010, 2242, 4962)

# Published 4-sided coefficients; they count the boundary walk class
# (README, "Discrepancies with the published data", item 1).
PA4_BOUNDARY_PUBLISHED = (8, 24, 80, 248, 736, 2120, 5960)

# 4-sided prudent counts PA_1..PA_8, copied from
# `prudentpoly oracle --k 4 --max-area 8` (see perfbench/README.md).
PA4_PRUDENT_PREFIX = (8, 16, 40, 96, 232, 560, 1336, 3176)


class CheckFailed(Exception):
    """An operation's output is wrong."""


def require(condition: bool, reason: str) -> None:
    if not condition:
        raise CheckFailed(reason)


# ---------------------------------------------------------------------------
# Output parsing
# ---------------------------------------------------------------------------


def parse_csv(text: str) -> tuple[dict, list, list]:
    """(config, columns, rows) of the CLI's CSV output; cells stay strings."""
    config, columns, rows = {}, None, []
    for line in text.splitlines():
        if line.startswith("# "):
            key, _, value = line[2:].partition("=")
            config[key] = value
        elif columns is None:
            columns = line.split(",")
        elif line:
            rows.append(line.split(","))
    require(columns is not None, "output has no header row")
    require(all(len(r) == len(columns) for r in rows), "ragged CSV rows")
    return config, columns, rows


def _column(text: str, name: str) -> list[int]:
    _, columns, rows = parse_csv(text)
    require(name in columns, f"no column {name!r}")
    return [int(r[columns.index(name)]) for r in rows]


def _named_values(text: str) -> tuple[int, dict]:
    """(digits, name -> complex value) of constants / gf-check output."""
    config, _, rows = parse_csv(text)
    digits = int(config["digits"])
    with mp.workdps(digits + 20):
        values = {name: mpc(mpf(re), mpf(im)) for name, re, im in rows}
    return digits, values


# ---------------------------------------------------------------------------
# Independent references
# ---------------------------------------------------------------------------


def _mul_sparse(series: list[int], poly: dict[int, int]) -> list[int]:
    """Truncated product of a dense series and a sparse polynomial."""
    n = len(series)
    out = [0] * n
    for shift, c in poly.items():
        for i in range(n - shift):
            out[i + shift] += c * series[i]
    return out


def _div_sparse(series: list[int], poly: dict[int, int]) -> list[int]:
    """Truncated quotient by a sparse polynomial with constant term 1."""
    if poly.get(0) != 1:
        raise ValueError("divisor must have constant term 1")
    out = list(series)
    for i in range(len(out)):
        for shift, c in poly.items():
            if shift and shift <= i:
                out[i] -= c * out[i - shift]
    return out


def _poly(*terms: tuple[int, int]) -> dict[int, int]:
    out: dict[int, int] = {}
    for power, c in terms:
        out[power] = out.get(power, 0) + c
    return out


@functools.lru_cache(maxsize=4)
def pa3_counts(order: int) -> tuple[int, ...]:
    """PA_1..PA_order from the 3-sided theorem sum, term by term.

    PA(q) = 2q(3-10q+9q^2-q^3)/((1-2q)^2(1-q))
            - 2q^3(1-q)^2/(1-2q)^2 * sum_{m>=1} t_m,
    t_m = (-q^2)^m/(1-2q)^m * prod_{k=1}^{m-1}(1-q-q^k+q^{k+1}-q^{k+2})
                            / prod_{k=1}^{m} (1-q-q^{k+1}).
    """
    size = order + 1
    one_minus_2q = _poly((0, 1), (1, -2))
    term = [1] + [0] * order
    total = [0] * size
    m = 1
    while 2 * m <= order:
        term = _mul_sparse(term, _poly((2, -1)))
        if m >= 2:
            k = m - 1
            term = _mul_sparse(term, _poly((0, 1), (1, -1), (k, -1),
                                           (k + 1, 1), (k + 2, -1)))
        term = _div_sparse(term, one_minus_2q)
        term = _div_sparse(term, _poly((0, 1), (1, -1), (m + 1, -1)))
        total = [a + b for a, b in zip(total, term)]
        m += 1
    tail = _mul_sparse(total, _poly((3, -2), (4, 4), (5, -2)))
    head = _mul_sparse([1] + [0] * order,
                       _poly((1, 6), (2, -20), (3, 18), (4, -2)))
    head = _div_sparse(head, _poly((0, 1), (1, -1)))
    out = [a + b for a, b in zip(tail, head)]
    for _ in range(2):
        out = _div_sparse(out, one_minus_2q)
    return tuple(out[1:])


def kappa_closed_form(k: int, dps: int):
    """kappa_k from the paper's closed form, g = log2(3):

    pi / (9 log2 sin(pi g + 2 i k pi^2/log2) Gamma(g + 1 + 2 i k pi/log2))
    * (1/3; 1/2)oo (3/2; 1/2)oo / (1/2; 1/2)oo^2.
    """
    with mp.workdps(dps + 20):
        half = mpf(1) / 2
        prod = (mp.qp(mpf(1) / 3, half) * mp.qp(mpf(3) / 2, half)
                / mp.qp(half, half) ** 2)
        g = mp.log(3) / mp.log(2)
        sin = mp.sin(mp.pi * g + 2j * k * mp.pi ** 2 / mp.log(2))
        gamma = mp.gamma(g + 1 + 2j * k * mp.pi / mp.log(2))
        return mpc(mp.pi / (9 * mp.log(2) * sin * gamma) * prod)


# ---------------------------------------------------------------------------
# Checks, one per kind of operation
# ---------------------------------------------------------------------------


def check_residuals(text: str, max_n: int) -> None:
    """Whole table; scaled_count * 2^n * n^g rounds to the published counts.

    The table starts at n = 2 (the model needs n >= 2), so PA_2..PA_10 are
    the published values it holds.  The `source` field is not read.
    """
    config, columns, rows = parse_csv(text)
    digits = int(config["digits"])
    require([int(r[0]) for r in rows] == list(range(2, max_n + 1)),
            "residual table does not cover n = 2..max_n")
    scaled = columns.index("scaled_count")
    with mp.workdps(digits + 20):
        g = mp.log(3) / mp.log(2)
        for row in rows[:len(PA3_PUBLISHED) - 1]:
            n = int(row[0])
            count = mpf(row[scaled]) * mpf(2) ** n * mpf(n) ** g
            require(int(mp.nint(count)) == PA3_PUBLISHED[n - 1]
                    and abs(count - PA3_PUBLISHED[n - 1]) < mpf("0.01"),
                    f"scaled count at n={n} gives {count}, "
                    f"not {PA3_PUBLISHED[n - 1]}")


def check_fourier(text: str, k: int = 1, tolerance: float = 0.01) -> None:
    """|kappa_hat_k| within ``tolerance`` (relative) of the closed form."""
    value = json.loads(text)
    with mp.workdps(30):
        estimate = abs(mpc(mpf(value["re"]), mpf(value["im"])))
        exact = abs(kappa_closed_form(k, 30))
        error = abs(estimate / exact - 1)
        require(error <= tolerance,
                f"|kappa_hat_{k}| = {mp.nstr(estimate, 8)} is "
                f"{mp.nstr(100 * error, 3)}% from |kappa_{k}| = "
                f"{mp.nstr(exact, 8)}")


def _fitted_exponent(text: str) -> mpf:
    _, columns, rows = parse_csv(text)
    require(len(rows) == 1, "fit prints one row")
    return mpf(rows[0][columns.index("fitted_exponent")])


def check_fit_3(text: str) -> None:
    """The 3-sided exponent is log2(3) to within 0.05."""
    fitted = _fitted_exponent(text)
    require(abs(fitted - mp.log(3) / mp.log(2)) <= mpf("0.05"),
            f"3-sided exponent {fitted} is not log2(3) +- 0.05")


def check_fit_4(text: str) -> None:
    """The 4-sided exponent exceeds the 3-sided log2(3)."""
    fitted = _fitted_exponent(text)
    require(fitted > mp.log(3) / mp.log(2),
            f"4-sided exponent {fitted} does not exceed log2(3)")


def check_verify(text: str, reference: tuple[int, ...]) -> None:
    """Every row MATCHes, and the oracle counts are the reference prefix."""
    _, columns, rows = parse_csv(text)
    require(rows and all(r[columns.index("verdict")] == "MATCH" for r in rows),
            "verify reports a MISMATCH")
    oracle = _column(text, "oracle")
    require(oracle == _column(text, "series"), "oracle and series differ")
    require(tuple(oracle) == reference[:len(oracle)],
            f"oracle counts {oracle} are not {reference[:len(oracle)]}")


def check_counts_equal(text: str, reference: tuple[int, ...]) -> None:
    counts = tuple(_column(text, "count"))
    require(counts == reference[:len(counts)] and len(counts) <= len(reference),
            f"counts {counts[:10]}... differ from the reference")


def check_pa3_counts(text: str, max_area: int) -> None:
    """The published ten first, then the plain-series theorem sum."""
    counts = tuple(_column(text, "count"))
    require(len(counts) == max_area, "wrong number of counts")
    require(counts[:10] == PA3_PUBLISHED, "counts do not start with the "
            "published ten")
    require(counts == pa3_counts(max_area),
            "counts differ from the plain-series theorem sum")


def check_pa4_counts(text: str, max_area: int) -> None:
    """Divisible by 8, at least the 3-sided counts, the copied prefix."""
    counts = _column(text, "count")
    require(len(counts) == max_area, "wrong number of counts")
    bad = [n for n, c in enumerate(counts, 1) if c % 8]
    require(not bad, f"4-sided counts at n={bad[:5]} are not divisible by 8")
    pa3 = pa3_counts(max_area)
    low = [n for n, (a, b) in enumerate(zip(counts, pa3), 1) if a < b]
    require(not low, f"PA4 < PA3 at n={low[:5]}")
    require(tuple(counts[:len(PA4_PRUDENT_PREFIX)]) == PA4_PRUDENT_PREFIX,
            f"first counts {counts[:8]} are not {PA4_PRUDENT_PREFIX}")


def check_gf_pair(text: str) -> None:
    """The two routes agree to within 10^-(digits-5) |PA(q)|."""
    config, _, rows = parse_csv(text)
    digits, values = _named_values(text)
    first, second = config["methods"].split(",")
    with mp.workdps(digits + 20):
        a, b = values[first], values[second]
        tolerance = mpf(10) ** (5 - digits) * abs(a)
        require(abs(a - b) <= tolerance,
                f"{first} and {second} differ by {mp.nstr(abs(a - b), 5)} "
                f"at q={config['q']} (allowed {mp.nstr(tolerance, 3)})")


def check_constants(text: str) -> None:
    """kappa_k, poles, theta and U(1/2) against their definitions."""
    digits, values = _named_values(text)
    with mp.workdps(digits + 20):
        eps = mpf(10) ** (5 - digits)
        harmonics = [name for name in values if name.startswith("kappa")
                     and not name.startswith("kappa-")]
        require("kappa0" in harmonics and "kappa1" in harmonics,
                "kappa0 or kappa1 missing")
        for name in harmonics:
            k = int(name[len("kappa"):])
            exact = kappa_closed_form(k, digits)
            require(abs(values[name] - exact) <= eps * abs(exact),
                    f"{name} = {mp.nstr(values[name], 12)} differs from the "
                    f"closed form {mp.nstr(exact, 12)}")
        poles = sorted((int(name[4:]), v.real) for name, v in values.items()
                       if name.startswith("zbar"))
        require(poles and poles[0][0] == 1, "zbar1 missing")
        for k, z in poles:
            residual = abs(1 - 2 * z + z ** (k + 2))
            require(residual <= eps and mpf(1) / 2 < z < 1,
                    f"zbar{k} = {mp.nstr(z, 12)} leaves 1-2z+z^{k + 2} = "
                    f"{mp.nstr(residual, 3)}")
        require(abs(poles[0][1] - (mp.sqrt(5) - 1) / 2) <= eps,
                "zbar1 is not (sqrt 5 - 1)/2")
        x = values["theta"].real
        require(abs(1 - 2 * x + x * x - x ** 3) <= eps,
                "theta does not solve 1-2x+x^2-x^3 = 0")
        u_half = 16 / (9 * mp.log(2))
        require(abs(values["U_half"].real - u_half) <= eps * u_half,
                "U_half is not 16/(9 log 2)")
