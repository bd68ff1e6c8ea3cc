"""Acceptance suite: one test (or clause) per criterion, stated tolerances.

Three clauses are implemented faithfully and marked strict-xfail because the
quantities they pin are contradicted by the mathematics itself; each carries
a pointer to the README analysis ("Discrepancies with the published data"):

* the 4-sided published fixture 8,24,80,248 (criterion 1): the trivariate
  functional-equation system and the brute-force prudent-walk oracle agree
  with each other on 8,16,40,96,... instead; the published numbers belong to
  the box-boundary walk class, which the oracle reproduces separately;
* the printed oscillation amplitude 1.54623e-9 (criterion 4): the closed
  form evaluates to 1.5321531e-9, confirmed against the counting data;
* the raw trapezoidal |kappa_hat_1| within 10% (criterion 6): the T=5
  residual still carries a ~1/n harmonic ~800x kappa_1, so the plain
  estimate over u in [9,12] lands ~1.7x high; the detrended estimator
  (also tested here, green) recovers kappa_1 to 0.3%.
"""

from __future__ import annotations

import time
from unittest import mock

import pytest
from mpmath import mp, mpf

from prudentpoly import asymptotics as asy
from prudentpoly.enumeration import (
    pa2_series,
    pa3_scaled_float,
    pa3_series,
    pa4_series,
    pa4_system_solution,
    bargraph_series,
    w_series,
)
from prudentpoly.oracle import enumerate_prudent_polygons
from prudentpoly.series import Series1, Series2, expand_rational

PA3_TEN = (6, 10, 20, 42, 92, 204, 454, 1010, 2242, 4962)
PA4_PUBLISHED_READING = (8, 24, 80, 248, 736, 2120, 5960, 16464)
PA4_FIXED_POINT = (8, 16, 40, 96, 232, 560, 1336, 3176)


def report(line: str) -> None:
    print(f"\nACCEPTANCE {line}", flush=True)


class TestCriterion1:
    def test_published_series_fixtures(self):
        t0 = time.monotonic()
        assert pa3_series(10, "theorem").counts == PA3_TEN
        two = pa2_series(30)
        assert all(two.count(n) == 2 ** n + 2 for n in range(1, 31))
        elapsed = time.monotonic() - t0
        assert elapsed < 5.0
        report(f"1 (2-/3-sided fixtures): PASS ({elapsed:.2f} s)")

    @pytest.mark.xfail(
        strict=True,
        reason="reference-data defect: the published 4-sided coefficients "
               "8,24,80,248 are not the fixed point of the functional equations; "
               "solver == oracle == 8,16,40,96 (prudent class) while the "
               "published numbers count box-boundary walks. See README.")
    def test_published_four_sided_fixture(self):
        assert pa4_series(4).counts == (8, 24, 80, 248)


class TestCriterion2:
    def test_dual_route_equality_n200(self):
        t0 = time.monotonic()
        theorem = pa3_series(200, "theorem")
        functional = pa3_series(200, "functional")
        assert theorem.counts == functional.counts
        elapsed = time.monotonic() - t0
        assert elapsed < 60.0
        report(f"2 (dual route, N=200): PASS ({elapsed:.2f} s)")


class TestCriterion3:
    def test_oracle_equivalence_all_k(self):
        t0 = time.monotonic()
        series = {2: pa2_series(8), 3: pa3_series(8, "theorem"), 4: pa4_series(8)}
        for k in (2, 3, 4):
            brute = enumerate_prudent_polygons(k, 8)
            assert brute.counts == series[k].counts, k
        # the q^5 question, resolved on both readings:
        assert series[4].count(5) == 232 == \
            enumerate_prudent_polygons(4, 5).count(5)
        boundary = enumerate_prudent_polygons(4, 8, walk_class="boundary")
        assert boundary.counts == PA4_PUBLISHED_READING
        assert boundary.count(5) == 736
        elapsed = time.monotonic() - t0
        assert elapsed < 600.0
        report(f"3 (oracle == solver, n <= 8; q^5 fixed at 232 prudent / "
               f"736 boundary): PASS ({elapsed:.1f} s)")

    def test_oracle_equivalence_four_sided_area_nine(self):
        # the oracle is the one independent check on the 4-sided solver
        t0 = time.monotonic()
        assert enumerate_prudent_polygons(4, 9).counts == \
            pa4_series(9).counts == PA4_FIXED_POINT + (7480,)
        elapsed = time.monotonic() - t0
        report(f"3 (oracle == solver, k = 4, n <= 9): PASS ({elapsed:.1f} s)")


class TestCriterion4:
    def test_kappa0_and_closed_form_omega_coefficients(self):
        k0 = asy.kappa(0, dps=40)
        assert mp.nstr(k0, 12).startswith("0.1083842946")
        coeffs = asy.omega_coefficients(5, dps=40)
        assert mp.nstr(coeffs[(0, 0)], 10) == "0.1083842947"
        assert mp.nstr(coeffs[(1, 1)], 10) == "-0.3928066917"
        report("4 (kappa0 to 12 digits, Omega (0,0)/(1,1) closed forms): PASS")

    @pytest.mark.xfail(
        strict=True,
        reason="the published amplitude value 1.54623e-9 disagrees with the "
               "closed form, which gives 2|kappa_1| = 1.5321531e-9 and is "
               "confirmed by the counting data to 0.3%. See README.")
    def test_printed_amplitude_digits(self):
        two_k1 = 2 * abs(asy.kappa(1, dps=40))
        assert mp.nstr(two_k1, 6) == "1.54623e-9"


class TestCriterion5:
    def test_gf_identity_matrix(self):
        t0 = time.monotonic()
        d1 = abs(asy.gf_eval(mpf("0.45"), "taylor")
                 - asy.gf_eval(mpf("0.45"), "singular"))
        assert d1 < 1e-12
        d2 = abs(asy.gf_eval(mpf("0.25"), "taylor")
                 - asy.gf_eval(mpf("0.25"), "meromorphic"))
        assert d2 < 1e-12
        worst = mpf(0)
        for theta_num in (2, 3, 4):
            q = mpf(1) / 2 + mpf("0.03") * mp.e ** (1j * mp.pi * theta_num / 3)
            d = abs(asy.gf_eval(q, "meromorphic") - asy.gf_eval(q, "singular"))
            worst = max(worst, d)
        assert worst < 1e-8
        elapsed = time.monotonic() - t0
        assert elapsed < 300.0
        report(f"5 (route agreement matrix): PASS ({elapsed:.1f} s; "
               f"worst sector diff {mp.nstr(worst, 3)})")


@pytest.fixture(scope="module")
def residual_table(float_counts_4096):
    return asy.residuals(4096, terms=5, dps=40, counts=float_counts_4096,
                         min_n=256)


class TestCriterion6:
    def test_float_mode_validated_against_exact(self, float_counts_4096,
                                                exact_counts_800):
        t0 = time.monotonic()
        exact = Series1((0,) + exact_counts_800.counts)
        err = float_counts_4096.max_rel_error_vs_exact(exact)
        assert err < mpf("1e-25")
        report(f"6a (float vs exact to n=800): PASS "
               f"(max rel err {mp.nstr(err, 3)}, {time.monotonic() - t0:.1f} s)")

    def test_oscillation_extrema_and_mean(self, residual_table):
        t0 = time.monotonic()
        window = [(n, r) for n, _, r in residual_table.rows if 512 <= n <= 4096]
        rs = [r for _, r in window]
        extrema = []
        for i in range(1, len(rs) - 1):
            if (rs[i] > rs[i - 1] and rs[i] > rs[i + 1]) or \
                    (rs[i] < rs[i - 1] and rs[i] < rs[i + 1]):
                extrema.append(rs[i])
        signs = [1 if r > 0 else -1 for r in extrema]
        alternations = sum(1 for a, b in zip(signs, signs[1:]) if a != b)
        assert len(extrema) >= 3
        assert alternations >= 3
        k0_hat = asy.fourier_extract(residual_table, 0, (9, 12))
        assert abs(k0_hat) < mpf("1e-10")
        report(f"6b (T=5 residual: {len(extrema)} alternating extrema, "
               f"|k0_hat| = {mp.nstr(abs(k0_hat), 3)} < 1e-10): PASS "
               f"({time.monotonic() - t0:.1f} s)")

    def test_detrended_harmonic_matches_closed_form(self, residual_table):
        k1 = asy.kappa(1, dps=40)
        alpha = asy.fourier_extract_detrended(residual_table, 1, (9, 12))
        ratio = abs(alpha) / abs(k1)
        assert mpf("0.9") < ratio < mpf("1.1")
        report(f"6c (detrended |k1_hat|/|kappa_1| = {mp.nstr(ratio, 5)}, "
               f"within 10%): PASS")

    def test_raw_phase_stable_under_window_shift(self, residual_table):
        with mp.workdps(50):
            a = asy.fourier_extract(residual_table, 1, (9, 12))
            b = asy.fourier_extract(residual_table, 1, (8.5, 11.5))
            delta = abs(mp.arg(a) - mp.arg(b))
            assert delta < mpf("0.1")
        report(f"6d (raw k1_hat phase shift {mp.nstr(delta, 3)} rad "
               f"under half-period window move, < 0.1): PASS")

    @pytest.mark.xfail(
        strict=True,
        reason="the T=5 residual retains a ~1/n oscillatory term ~800x "
               "kappa_1 (the level-1 Fourier harmonics), so the plain "
               "trapezoidal estimate over u in [9,12] exceeds |kappa_1| by "
               "~70%; data to n = 4096 cannot meet 10% raw. See README.")
    def test_raw_harmonic_within_ten_percent(self, residual_table):
        k1 = asy.kappa(1, dps=40)
        k1_hat = asy.fourier_extract(residual_table, 1, (9, 12))
        assert mpf("0.9") < abs(k1_hat) / abs(k1) < mpf("1.1")


class TestCriterion7:
    def test_property_suite_bundle(self):
        t0 = time.monotonic()
        # ring axioms on fixed small series
        a = expand_rational((0, 1, 3), (1, -1, 2), 12)
        b = expand_rational((2, -1), (1, 1, -1), 12)
        c = expand_rational((1, 1), (1, -2), 12)
        assert ((a * b) * c).coeffs == (a * (b * c)).coeffs
        assert (a * (b + c)).coeffs == (a * b + a * c).coeffs
        # functional-equation residuals: bargraphs and W
        n = 30
        bgr = bargraph_series(n)
        qu = Series2(n, [[0] * (n + 1),
                         expand_rational((0, 1), (1, -1), n).coeffs])
        assert qu + qu * bgr == bgr
        w = w_series(n)
        one_plus_b = Series2(n, [[1] + [0] * n]) + bgr
        qu1b = one_plus_b.mul_monomial(dq=1, du=1)
        wsub = w.subst_scale(1)
        lhs = qu1b + (w - wsub).mul_series1(
            expand_rational((0, 1), (1, -1), n)) + qu1b * wsub
        assert lhs == w
        # X/Y/Z residuals are checked exhaustively in test_enumeration;
        # recompute the solution here as Series3, whose constructor checks
        # the cap i, j <= n on every coefficient
        x, y, z = pa4_system_solution(12)
        assert (x.eval_catalytic() + y.eval_catalytic()
                + z.eval_catalytic()).scale(8).coeffs[1:5] == (8, 16, 40, 96)
        # d_nu triple route
        q = mpf("0.4")
        via_series = asy.d_nu_by_series_division(20, q)
        for nu in (1, 7, 20):
            r1 = asy.d_nu(nu, q, method="recurrence")
            assert abs(r1 - asy.d_nu(nu, q, method="sum")) < mpf("1e-35")
            assert abs(r1 - via_series[nu]) < mpf("1e-35")
        # h_j grid and Mittag-Leffler
        for j in range(4):
            for t in (mpf("0.01"), mpf("0.1")):
                args = (j, t, mpf(1) / 2, mpf(3) / 2)
                direct, rep = asy.h_direct(*args), asy.h_representation(*args)
                assert abs(direct - rep) < mpf("1e-34")
        lhs_ml, rhs_ml = asy.mittag_leffler_check(mpf(1) / 3, mpf(1) / 2,
                                                  mpf("0.3"))
        assert abs(lhs_ml - rhs_ml) < mpf("1e-35")
        # poles
        with mp.workdps(50):
            zs = asy.poles(8, dps=40)
            assert abs(zs[0] - (mp.sqrt(5) - 1) / 2) < mpf("1e-12")
            for k, zk in enumerate(zs, 1):
                assert abs(1 - 2 * zk + zk ** (k + 2)) < mpf("1e-30")
        # truncation doubling
        for fn in (lambda: asy.pochhammer(mpf(1) / 3, mpf(1) / 2),
                   lambda: asy.U_eval(mpf("0.45")),
                   lambda: asy.gf_eval(mpf("0.45"), "meromorphic")):
            once = fn()
            with mock.patch.object(asy, "_TRUNCATION_SCALE", 2):
                assert abs(once - fn()) < mpf("1e-40")
        report(f"7 (property bundle): PASS ({time.monotonic() - t0:.1f} s)")


class TestCriterion8:
    def test_exponent_fits(self):
        t0 = time.monotonic()
        counts = pa3_scaled_float(2000, precision=40)
        fit3 = asy.exponent_fit(counts)
        target = mp.log(3) / mp.log(2)
        assert abs(fit3 - target) <= mpf("0.05")
        fit4 = asy.exponent_fit(pa4_series(150), dps=30)
        report(f"8 (3-sided fit {mp.nstr(fit3, 6)} = log2(3) +/- 0.05: PASS; "
               f"4-sided fit {mp.nstr(fit4, 6)} emitted for comparison with "
               f"the conjectured 1+log2(3) = 2.585, not asserted; "
               f"{time.monotonic() - t0:.1f} s)")
