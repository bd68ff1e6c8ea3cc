"""Self-test of the benchmark's checks: each must reject a perturbed output.

Usage (from the root of a checkout): python3 perfbench/selftest.py

It runs small operations in process, untimed, takes their outputs as the
accepted case, and perturbs one value in each: a 3-sided count off by 2, a
boundary count off by 8, |kappa_hat_1| off by 5%, a route pair that differs
in the 30th digit, a 4-sided count not divisible by 8, and a pole off by
1e-30.  Runs in a few seconds.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from mpmath import mp, mpf  # noqa: E402

import checks  # noqa: E402
import prudentpoly.cli  # noqa: E402


def cli(*argv: str) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = prudentpoly.cli.main([*argv, "--no-timestamp"])
    if code != 0:
        raise RuntimeError(f"prudentpoly {' '.join(argv)} exited {code}")
    return out.getvalue()


def perturb(text: str, key: str, column: str, change) -> str:
    """Replace the cell in `column` of the row whose first cell is `key`."""
    lines = text.splitlines()
    header = next(i for i, line in enumerate(lines)
                  if not line.startswith("# "))
    index = lines[header].split(",").index(column)
    for i in range(header + 1, len(lines)):
        cells = lines[i].split(",")
        if cells[0] == key:
            cells[index] = change(cells[index])
            lines[i] = ",".join(cells)
            return "\n".join(lines) + "\n"
    raise KeyError(key)


def plus(delta: int):
    return lambda cell: str(int(cell) + delta)


class ChecksRejectPerturbedOutputs(unittest.TestCase):

    def assertAccepts(self, check, text: str) -> None:
        check(text)

    def assertRejects(self, check, text: str) -> None:
        with self.assertRaises(checks.CheckFailed):
            check(text)

    def test_reference_series_starts_with_the_published_counts(self):
        self.assertEqual(checks.pa3_counts(10), checks.PA3_PUBLISHED)

    def test_3sided_count_off_by_2(self):
        text = cli("enumerate", "--k", "3", "--method", "functional",
                   "--max-area", "30")
        check = lambda t: checks.check_pa3_counts(t, 30)  # noqa: E731
        self.assertAccepts(check, text)
        self.assertRejects(check, perturb(text, "7", "count", plus(2)))
        self.assertRejects(check, perturb(text, "25", "count", plus(2)))

        text = cli("verify", "--k", "3", "--max-area", "4")
        check = lambda t: checks.check_verify(  # noqa: E731
            t, checks.PA3_PUBLISHED)
        self.assertAccepts(check, text)
        both = perturb(perturb(text, "3", "oracle", plus(2)),
                       "3", "series", plus(2))
        self.assertRejects(check, both)
        self.assertRejects(check, perturb(text, "3", "series", plus(2)))

        text = cli("residuals", "--max-n", "40", "--digits", "40")
        check = lambda t: checks.check_residuals(t, 40)  # noqa: E731
        self.assertAccepts(check, text)
        with mp.workdps(60):
            step = mpf(2) / (mpf(2) ** 5 * mpf(5) ** (mp.log(3) / mp.log(2)))
            shifted = perturb(text, "5", "scaled_count",
                              lambda c: mp.nstr(mpf(c) + step, 40))
        self.assertRejects(check, shifted)

    def test_boundary_count_off_by_8(self):
        text = cli("oracle", "--k", "4", "--max-area", "5",
                   "--walk-class", "boundary")
        check = lambda t: checks.check_counts_equal(  # noqa: E731
            t, checks.PA4_BOUNDARY_PUBLISHED)
        self.assertAccepts(check, text)
        self.assertRejects(check, perturb(text, "5", "count", plus(8)))

    def test_kappa1_estimate_off_by_5_percent(self):
        exact = checks.kappa_closed_form(1, 30)

        def estimate(factor):
            with mp.workdps(30):
                value = exact * factor
                return json.dumps({"re": mp.nstr(value.real, 30),
                                   "im": mp.nstr(value.imag, 30)})
        self.assertAccepts(checks.check_fourier, estimate(1.002))
        self.assertRejects(checks.check_fourier, estimate(1.05))
        self.assertRejects(checks.check_fourier, estimate(0.95))

    def test_route_pair_differs_in_30th_digit(self):
        text = cli("gf-check", "--q", "0.25", "--methods",
                   "taylor,meromorphic", "--digits", "100")
        self.assertAccepts(checks.check_gf_pair, text)

        def digit_30(cell: str) -> str:
            seen = 0
            for i, ch in enumerate(cell):
                if ch.isdigit() and (seen or ch != "0"):
                    seen += 1
                    if seen == 30:
                        return cell[:i] + str((int(ch) + 1) % 10) + cell[i + 1:]
            raise ValueError(f"{cell} has fewer than 30 digits")
        self.assertRejects(checks.check_gf_pair,
                           perturb(text, "meromorphic", "re", digit_30))

    def test_4sided_count_not_divisible_by_8(self):
        text = cli("enumerate", "--k", "4", "--max-area", "20")
        check = lambda t: checks.check_pa4_counts(t, 20)  # noqa: E731
        self.assertAccepts(check, text)
        self.assertRejects(check, perturb(text, "12", "count", plus(4)))
        self.assertRejects(check, perturb(text, "3", "count", plus(8)))

    def test_pole_off_by_1e_30(self):
        text = cli("constants", "--harmonics", "3", "--digits", "100")
        self.assertAccepts(checks.check_constants, text)
        for name in ("zbar1", "zbar5"):
            with mp.workdps(120):
                moved = perturb(text, name, "re", lambda c: mp.nstr(
                    mpf(c) + mpf(10) ** -30, 100, strip_zeros=False))
            self.assertRejects(checks.check_constants, moved)


if __name__ == "__main__":
    unittest.main()
