"""Constants, identities, route agreement and truncation insensitivity."""

from __future__ import annotations

import hashlib
import time

import pytest
from mpmath import mp, mpc, mpf

from prudentpoly import asymptotics as asy
from prudentpoly.asymptotics import DomainError
from prudentpoly.enumeration import (
    CountTable, pa2_series, pa3_scaled_float, pa3_series)

mp.dps = 60


def close(a, b, tol):
    return abs(mpc(a) - mpc(b)) < tol


class TestBaseQuantities:
    def test_limits_at_half(self):
        q = mpf(1) / 2 - mpf(10) ** -25
        b = asy.base_quantities(q)
        assert close(b.u, 1, 1e-20)
        assert close(b.v, mpf(3) / 2, 1e-20)
        assert close(b.a, mpf(1) / 3, 1e-20)
        assert close(b.gamma, mp.log(mpf(3) / 2) / mp.log(2), 1e-20)

    def test_pole_at_half_redirects_to_laurent(self):
        # the record builds at q = 1/2 (U(1/2) and d_nu read it there); only
        # the factors with the double pole refuse to be read
        b = asy.base_quantities(mpf(1) / 2)
        for name in ("A", "C", "D"):
            with pytest.raises(DomainError, match="Laurent"):
                getattr(b, name)

    def test_laurent_leading_term(self):
        # (1-2q)^2 A(q) -> 1/4
        q = mpf(1) / 2 - mpf(10) ** -8
        b = asy.base_quantities(q)
        assert close((1 - 2 * q) ** 2 * b.A, mpf(1) / 4, 1e-7)
        assert asy.A_LAURENT_AT_HALF[0] == mpf(1) / 4
        assert asy.C_LAURENT_AT_HALF[1] == mpf(5) / 4

    def test_av_equals_qu(self):
        b = asy.base_quantities(mpf("0.3"))
        assert close(b.a * b.v, b.q * b.u, 1e-45)


class TestPochhammer:
    def test_q_ratio_at_half(self):
        val = asy.pochhammer(mpf(3) / 2, mpf(1) / 2) / \
            asy.pochhammer(mpf(1) / 2, mpf(1) / 2)
        assert mp.nstr(val, 8) == "-0.18109782"

    def test_doubling_insensitive(self):
        a = asy.pochhammer(mpf(1) / 3, mpf(1) / 2, dps=40)
        b = asy.pochhammer(mpf(1) / 3, mpf(1) / 2, dps=40, truncation_scale=2.0)
        assert abs(a - b) < 1e-40

    def test_domain_guard(self):
        with pytest.raises(DomainError):
            asy.pochhammer(mpf("0.5"), mpf("0.95"))


class TestDnu:
    @pytest.mark.parametrize("q", ["0.4", "0.45", "0.5"])
    def test_triple_route_agreement(self, q):
        q = mpf(q)
        series_route = asy.d_nu_by_series_division(20, q)
        for nu in range(1, 21):
            rec = asy.d_nu(nu, q, method="recurrence")
            tot = asy.d_nu(nu, q, method="sum")
            assert close(rec, tot, 1e-35)
            assert close(rec, series_route[nu], 1e-35)

    def test_first_coefficient_closed_form(self):
        q = mpf("0.4")
        u = q / (1 - q)
        v = (1 - q + q * q) / (1 - q)
        assert close(asy.d_nu(1, q), (v - u * q) / (1 - q), 1e-45)

    def test_complex_q_past_the_power_switch(self):
        # mpmath's q ** n for complex q goes by exp(n log q) from n = 27 on
        # at these digits; the stepped powers must agree past it
        q = mpc("0.4", "0.05")
        series_route = asy.d_nu_by_series_division(60, q)
        for nu in (1, 26, 27, 28, 45, 60):
            rec = asy.d_nu(nu, q, method="recurrence")
            tot = asy.d_nu(nu, q, method="sum")
            assert close(rec, series_route[nu], 1e-35 * abs(rec)), nu
            assert close(rec, tot, 1e-35 * abs(rec)), nu

    def test_sum_at_nu_zero_is_exactly_one(self):
        # d_0 = 1 exactly; the j-sum would give it only to the working digits
        for q in (mpf("0.45"), mpc("0.4", "0.05")):
            assert asy.d_nu(0, q, method="sum") == 1

    def test_growth_rate(self):
        val = abs(asy.d_nu(60, mpf(1) / 2)) ** (mpf(1) / 60)
        assert close(val, mpf(3) / 2, 0.05)

    def test_series_division_outside_the_unit_disc_fails_at_once(self):
        start = time.perf_counter()
        with pytest.raises(DomainError, match=r"\|q\| < 1"):
            asy.d_nu_by_series_division(3, mpf("1.1"))
        assert time.perf_counter() - start < 1


class TestMittagLeffler:
    def test_two_sided_agreement(self):
        lhs, rhs = asy.mittag_leffler_check(mpf(1) / 3, mpf(1) / 2, mpf("0.3"))
        assert close(lhs, rhs, 1e-35)
        lhs, rhs = asy.mittag_leffler_check(mpf("0.45"), mpf(1) / 2,
                                            mpc("0.2", "0.4"))
        assert close(lhs, rhs, 1e-35)

    def test_z_zero(self):
        lhs, rhs = asy.mittag_leffler_check(mpf(1) / 3, mpf(1) / 2, mpf(0))
        assert lhs == 1 and close(rhs, 1, 1e-40)

    def test_a_equals_q_telescopes(self):
        q = mpf("0.5")
        z = mpf("0.37")
        lhs, rhs = asy.mittag_leffler_check(q, q, z)
        assert close(lhs, 1 / (1 - z), 1e-40)
        assert close(rhs, 1 / (1 - z), 1e-35)

    def test_pole_guard(self):
        with pytest.raises(DomainError):
            asy.mittag_leffler_check(mpf(1) / 3, mpf(1) / 2, mpf(2) + mpf(10) ** -8)

    def test_q_zero_has_the_single_pole_one(self):
        # (z;0)oo = 1 - z: the pole scan stops after q^0 = 1
        a, z = mpf("0.3"), mpf("0.5")
        lhs, rhs = asy.mittag_leffler_check(a, 0, z)
        assert close(lhs, (1 - a * z) / (1 - z), 1e-45)
        assert close(lhs, rhs, 1e-40)
        with pytest.raises(DomainError, match="pole q\\^-0"):
            asy.mittag_leffler_check(a, 0, 1 + mpf(10) ** -8)

    def test_q_on_the_unit_circle_fails_at_once(self):
        # the pole scan q^-j <= |z| + 1 never ends at |q| = 1
        start = time.perf_counter()
        with pytest.raises(DomainError, match=r"\|q\| < 1"):
            asy.mittag_leffler_check(mpf("0.3"), mpf(1), mpf("0.5"))
        assert time.perf_counter() - start < 1


class TestGfRoutes:
    def test_taylor_vs_meromorphic_samples(self):
        for q in (mpf("0.1"), mpf("0.25"), mpf("0.45"), mpf("-0.3"),
                  mpc("0.2", "0.3"), mpc("-0.25", "0.25"), mpc(0, "0.44")):
            d = abs(asy.gf_eval(q, "taylor") - asy.gf_eval(q, "meromorphic"))
            assert d < 1e-12, (q, d)

    @pytest.mark.parametrize("q", ["0.40", "0.45", "0.48"])
    def test_taylor_vs_doublesum_and_singular(self, q):
        q = mpf(q)
        ref = asy.gf_eval(q, "taylor")
        assert abs(ref - asy.gf_eval(q, "doublesum")) < 1e-12
        assert abs(ref - asy.gf_eval(q, "singular")) < 1e-12

    def test_meromorphic_vs_singular_sector(self):
        for theta_num in (1, 2, 3, 4):
            q = mpf(1) / 2 + mpf("0.03") * mp.e ** (1j * mp.pi * theta_num / 3)
            ref = asy.gf_eval(q, "meromorphic")
            d = abs(ref - asy.gf_eval(q, "singular"))
            assert d < mpf("1e-35") * abs(ref), (theta_num, d)

    def test_small_q_limit(self):
        for method in ("taylor", "meromorphic"):
            assert abs(asy.gf_eval(mpf(10) ** -8, method)) < 1e-6

    def test_domain_errors_name_constraint(self):
        with pytest.raises(DomainError, match="1/2"):
            asy.gf_eval(mpf("0.5"), "taylor")
        with pytest.raises(DomainError, match="slit"):
            asy.gf_eval(mpf("0.52"), "meromorphic")
        with pytest.raises(DomainError, match="0.2"):
            asy.gf_eval(mpf("0.2"), "singular")

    @pytest.mark.parametrize("method, calls", [
        ("meromorphic", 2), ("singular", 6), ("doublesum", 4)])
    def test_pochhammer_calls_per_route(self, method, calls, monkeypatch):
        # every route computes only the q-products it reads
        made = []
        pochhammer = asy.pochhammer

        def counted(*args, **kwargs):
            made.append(args)
            return pochhammer(*args, **kwargs)

        monkeypatch.setattr(asy, "pochhammer", counted)
        asy.gf_eval(mpf("0.45"), method, dps=100)
        assert len(made) == calls

    def test_taylor_counts_come_from_one_table(self, monkeypatch):
        # a smaller order after a larger one is a slice, not a new solve
        orders = []
        series = asy.pa3_series

        def counted(order, method):
            orders.append(order)
            return series(order, method)

        monkeypatch.setattr(asy, "_counts", ())
        monkeypatch.setattr(asy, "pa3_series", counted)
        large = asy.gf_eval(mpf("0.45"), "taylor")
        small = asy.gf_eval(mpf("0.25"), "taylor")
        assert len(orders) == 1
        assert asy._exact_counts(50) == pa3_series(50).counts
        assert len(orders) == 1
        assert close(large, asy.gf_eval(mpf("0.45"), "meromorphic"), 1e-35)
        assert close(small, asy.gf_eval(mpf("0.25"), "meromorphic"), 1e-35)

    def test_taylor_refuses_orders_past_the_timed_limit(self):
        # q = 0.498 needs 30455 exact terms, an hour or more of work;
        # without the guard this test would not finish
        with pytest.raises(DomainError, match="30455 exact terms"):
            asy.gf_eval(mpf("0.498"), "taylor")


class TestSingularAndRegularSeries:
    def test_u_at_half(self):
        assert close(asy.U_eval(mpf(1) / 2), 16 / (9 * mp.log(2)), 1e-40)

    def test_u_taylor_coefficients(self):
        # printed expansion 16/(9 log 2) + 9.97 t + 21.5 t^2 + ...
        h = mpf(10) ** -8
        u0 = asy.U_eval(mpf(1) / 2)
        up = asy.U_eval((1 - h) / 2)
        um = asy.U_eval((1 + h) / 2)
        c1 = (up - um) / (2 * h)
        c2 = (up - 2 * u0 + um) / h ** 2 / 2
        assert abs(c1 - mpf("9.97")) < 0.02
        assert abs(c2 - mpf("21.5")) < 0.1

    def test_pi_coefficient_magnitudes(self):
        gamma0 = mp.log(mpf(3) / 2) / mp.log(2)
        mags = []
        for k in (1, 2, 3):
            pk = mp.pi / mp.sin(mp.pi * gamma0 + 2j * k * mp.pi ** 2 / mp.log(2))
            mags.append(abs(pk))
        assert abs(mags[0] / mpf("2.69e-12") - 1) < 0.005
        assert abs(mags[1] / mpf("1.15e-24") - 1) < 0.01
        assert abs(mags[2] / mpf("4.95e-37") - 1) < 0.005

    def test_pi_periodicity(self):
        for w in (mpf("0.13"), mpf("0.71"), mpf("2.4")):
            a = asy.pi_eval(w, mpf("0.49"))
            b = asy.pi_eval(w + 1, mpf("0.49"))
            assert close(a, b, 1e-40)

    def test_v_domain_guard(self):
        with pytest.raises(DomainError):
            asy.V_eval(mpf("0.1"))


class TestHj:
    @pytest.mark.parametrize("q", ["0.5", "0.49"])
    def test_direct_vs_representation_grid(self, q):
        q = mpf(q)
        v = (1 - q + q * q) / (1 - q)
        for j in range(4):
            for t in (mpf("0.01"), mpf("0.05"), mpf("0.1")):
                direct, rep = asy.hj_check(j, t, q, v)
                assert close(direct, rep, 1e-34), (j, t)

    @pytest.mark.parametrize("v", ["1.4", "1.6"])
    def test_representation_at_v_other_than_v_of_q(self, v):
        # the power law and Pi(w) both take gamma from the v given
        q, t = mpf(1) / 2, mpf("0.05")
        for j in range(3):
            direct, rep = asy.hj_check(j, t, q, mpf(v))
            assert close(direct, rep, 1e-34), j

    def test_large_t_decay(self):
        q, v = mpf(1) / 2, mpf(3) / 2
        for t in (mpf(10) ** 3, mpf(10) ** 4, mpf(10) ** 5):
            assert abs(t * asy.h_direct(0, t, q, v)) < 10

    def test_small_t_bounded_for_positive_j(self):
        q, v = mpf(1) / 2, mpf(3) / 2
        values = [abs(asy.h_direct(1, mpf(10) ** -e, q, v)) for e in (3, 4, 5, 6)]
        assert all(v < 13 for v in values)

    def test_representation_contraction_guard(self):
        with pytest.raises(DomainError):
            asy.h_representation(0, mpf("0.5"), mpf(1) / 2, mpf(3) / 2)


class TestKappa:
    def test_kappa0_digits(self):
        k0 = asy.kappa0(dps=40)
        assert mp.nstr(k0, 11).startswith("0.1083842946")

    def test_conjugate_symmetry(self):
        k1 = asy.kappa(1)
        km1 = asy.kappa(-1)
        assert close(km1, mpc(k1.real, -k1.imag), 1e-45)

    def test_amplitude_value(self):
        # closed-form 2|kappa_1|; confirmed against the counting data by the
        # detrended extraction (acceptance suite).  The published value
        # 1.54623e-9 disagrees in its third digit; see README.
        two_k1, max_abs = asy.oscillation_amplitude(dps=30)
        assert mp.nstr(two_k1, 8) == "1.5321531e-9"
        # the true maximum differs from 2|kappa_1| only through the higher
        # harmonics; a sampled maximum falls short by ~1e-15
        bound = 2 * sum(abs(asy.kappa(k, dps=30)) for k in (2, 3))
        assert abs(max_abs - two_k1) <= bound

    @pytest.mark.parametrize("dps", [40, 100])
    def test_amplitude_max_to_every_digit(self, dps):
        # an independent evaluation: 24 harmonics at 20 more digits, and
        # mpmath's findroot on kappa'(u) from the extremes of a 256-point grid
        _, max_abs = asy.oscillation_amplitude(dps=dps)
        with mp.workdps(dps + 20):
            ks = [asy.kappa(k, dps=dps + 20) for k in range(1, 25)]

            def kappa_d(u, order):
                return 2 * sum((c * (2j * mp.pi * k) ** order
                                * mp.expjpi(2 * k * u)).real
                               for k, c in enumerate(ks, 1))

            grid = [mpf(i) / 256 for i in range(256)]
            ends = (max(grid, key=lambda u: kappa_d(u, 0)),
                    min(grid, key=lambda u: kappa_d(u, 0)))
            reference = max(abs(kappa_d(mp.findroot(lambda u: kappa_d(u, 1), u),
                                        0)) for u in ends)
            assert abs(max_abs - reference) < mpf(10) ** (2 - dps) * reference

    def test_higher_harmonics_negligible(self):
        # |kappa_2| ~ 1.2e-16: the 1/Gamma factor undoes most of the e-24
        # decay of p_2, but the ratio to kappa_1 is still ~1.6e-7
        k2 = abs(asy.kappa(2))
        assert k2 < 1e-15
        assert k2 / abs(asy.kappa(1)) < 1e-6


class TestPoles:
    def test_golden_ratio_pole(self):
        z = asy.poles(1)[0]
        assert abs(z - (mp.sqrt(5) - 1) / 2) < 1e-12

    def test_printed_values_and_monotonicity(self):
        zs = asy.poles(8)
        # printed values are truncated, not rounded (0.5437, 0.5188)
        assert abs(zs[1] - mpf("0.543")) < 1e-3
        assert abs(zs[2] - mpf("0.518")) < 1e-3
        assert all(zs[i] > zs[i + 1] for i in range(len(zs) - 1))
        assert all(mpf(1) / 2 < z <= zs[0] for z in zs)

    def test_residuals_tiny(self):
        # z_k - 1/2 ~ 2^-(k+3) falls below 1e-9 from k = 27 on
        zs = asy.poles(40, dps=40)
        for k, z in enumerate(zs, 1):
            assert mpf(1) / 2 < z
            assert abs(1 - 2 * z + z ** (k + 2)) < 1e-30
        assert all(zs[i] > zs[i + 1] for i in range(len(zs) - 1))

    def test_theta(self):
        th = asy.theta_root()
        assert mp.nstr(th, 5) == "0.56984"
        assert abs(1 - 2 * th + th ** 2 - th ** 3) < 1e-30


class TestOmega:
    def test_closed_forms_match_printed_digits(self):
        coeffs = asy.omega_coefficients(5, dps=40)
        assert mp.nstr(coeffs[(0, 0)], 10) == "0.1083842947"
        assert mp.nstr(coeffs[(1, 1)], 10) == "-0.3928066917"

    def test_too_many_terms(self):
        with pytest.raises(DomainError):
            asy.omega_coefficients(6)

    def test_negative_terms(self):
        with pytest.raises(ValueError, match="terms"):
            asy.omega_coefficients(-1)


class TestResidualPipeline:
    def test_zero_term_model_leaves_kappa0(self):
        table = asy.residuals(1000, terms=0, min_n=995)
        r = table.residual_at(1000)
        assert abs(r - asy.kappa0()) < 0.005

    def test_terms_telescope(self):
        t5 = asy.residuals(420, terms=5, min_n=400)
        t4 = asy.residuals(420, terms=4, min_n=400)
        coeffs = asy.omega_coefficients(5)
        with mp.workdps(50):
            g = mp.log(3) / mp.log(2)
            for n in (400, 410, 420):
                L = mp.log(n)
                term = mp.e ** (-4 * L) * sum(
                    coeffs[(4, l)] * L ** l for l in range(5))
                assert close(t4.residual_at(n) - t5.residual_at(n), term, 1e-35)

    @pytest.mark.parametrize("dps", [40, 60])
    def test_rows_match_a_wider_evaluation(self, dps):
        # the table's integer Horner sum against the same model and the
        # same coefficients summed in plain mpf at 2 dps + 20 digits, both
        # printed as the CLI prints them; terms = 0 is the empty model
        counts = pa3_series(1024, "theorem")

        def printed(x):
            with mp.workdps(dps + 10):
                return mp.nstr(mpf(x), dps, strip_zeros=False)

        for terms in (0, 1, 5):
            coeffs = asy.omega_coefficients(terms, dps)
            with mp.workdps(2 * dps + 20):
                g = mp.log(3) / mp.log(2)
                expected = {}
                for n in range(2, 1025):
                    L = mp.log(n)
                    ng = mp.exp(g * L)
                    scaled_g = mpf(counts.count(n)) / mpf(2) ** n / ng
                    model = 1 / ng + sum(
                        sum(coeffs[(j, l)] * L ** l for l in range(j + 1))
                        / mpf(n) ** j for j in range(terms))
                    expected[n] = (printed(scaled_g),
                                   printed(scaled_g - model))
            for min_n in (2, 1024):
                table = asy.residuals(1024, terms, dps, counts=counts,
                                      min_n=min_n)
                assert [n for n, _, _ in table.rows] == list(
                    range(min_n, 1025))
                for n, s, r in table.rows:
                    assert (printed(s), printed(r)) == expected[n], (terms, n)

    @pytest.mark.parametrize("dps", [40, 60])
    def test_sampled_rows_to_4096_match_a_wider_evaluation(
            self, dps, exact_counts_4096):
        # rows up to 4096 against the model summed in plain mpf at 2 dps + 20
        # digits.  At 40 digits the n = 3906 residual ends ...311358849 (the
        # wide value continues ...8494981): 12 guard digits do not round it
        # right when the scaled count is rounded to the working precision
        # before the model is taken off it
        sample = sorted({*range(2, 4097, 101), 2668, 3906, 4096})
        table = asy.residuals(4096, 5, dps, counts=exact_counts_4096)
        rows = {n: (s, r) for n, s, r in table.rows}
        coeffs = asy.omega_coefficients(5, dps)

        def printed(x):
            with mp.workdps(dps + 10):
                return mp.nstr(mpf(x), dps, strip_zeros=False)

        for n in sample:
            with mp.workdps(2 * dps + 20):
                g = mp.log(3) / mp.log(2)
                L = mp.log(n)
                ng = mp.exp(g * L)
                scaled_g = mpf(exact_counts_4096.count(n)) / mpf(2) ** n / ng
                model = 1 / ng + sum(
                    sum(coeffs[(j, l)] * L ** l for l in range(j + 1))
                    / mpf(n) ** j for j in range(5))
                expected = (printed(scaled_g), printed(scaled_g - model))
            assert tuple(map(printed, rows[n])) == expected, n

    def test_fourier_requires_window(self):
        table = asy.residuals(64, terms=2)
        with pytest.raises(DomainError):
            asy.fourier_extract(table, 1, (3, 4))     # too short
        with pytest.raises(DomainError):
            asy.fourier_extract(table, 1, (9, 12))    # not covered

    def test_window_past_the_table_is_refused(self):
        # the table holds u in [8, 10] only; the window asks for [9, 12]
        table = asy.residuals(1024, min_n=256)
        for extract in (asy.fourier_extract, asy.fourier_extract_detrended):
            with pytest.raises(DomainError, match="does not cover"):
                extract(table, 1, (9, 12))

    def test_detrended_refuses_k_below_one(self):
        # for k = 0 the harmonic columns are 1 and 0: no fit exists
        table = asy.residuals(1400, min_n=256)
        with pytest.raises(DomainError, match="k >= 1"):
            asy.fourier_extract_detrended(table, 0, (8.2, 10.4))

    def test_detrended_matches_an_independent_solve(self):
        # the window covers every row; the same design matrix, solved by
        # QR at 20 more digits
        table = asy.residuals(1024, min_n=256)
        alpha = asy.fourier_extract_detrended(table, 1, (8, 10))
        with mp.workdps(table.precision + 20):
            rows, ys = [], []
            for n, _, r in table.rows:
                u = mp.log(n, 2)
                w = mp.expjpi(2 * u)
                dec = mpf(2) ** -u
                rows.append([1, dec, w.real, -w.imag,
                             dec * w.real, -dec * w.imag])
                ys.append(r)
            sol, _ = mp.qr_solve(mp.matrix(rows), mp.matrix(ys))
            reference = mpc(sol[2], sol[3]) / 2
            assert abs(alpha - reference) < mpf(10) ** -45 * abs(reference)

    def test_min_n_below_two_is_refused(self):
        with pytest.raises(ValueError, match="2 <= min_n"):
            asy.residuals(10, min_n=1)

    @pytest.mark.parametrize("make", [pa3_series, pa3_scaled_float])
    def test_short_counts_are_a_domain_error(self, make):
        with pytest.raises(DomainError, match="n up to 60"):
            asy.residuals(60, counts=make(50))


class TestPrimeTable:
    @pytest.mark.parametrize("dps", [40, 100])
    def test_entries_within_the_bound(self, dps):
        # log n within Omega(n) (1/2 + 2^-10) units, n^-g within Omega(n)
        # units of its finer scale and e^{2 i pi log2 n} within sqrt(2)
        # Omega(n) units in modulus, against mpmath 20 bits past the finer
        # scale
        top = 4096
        with mp.workdps(dps + 12):
            bits = mp.prec + 32
        shift = 2 * top.bit_length()
        logs, powers, phases = asy._prime_table(top, bits, bits + shift, k=1)
        omega = [0] * (top + 1)         # prime factors with multiplicity
        for p in range(2, top + 1):
            if omega[p] == 0:
                power = p
                while power <= top:
                    for n in range(power, top + 1, power):
                        omega[n] += 1
                    power *= p
        assert (logs[1], powers[1], phases[1]) == (
            0, 1 << (bits + shift), (1 << bits, 0))
        with mp.workprec(bits + shift + 20):
            g = mp.log(3) / mp.log(2)
            turns = 2 / mp.log(2)
            root2 = mp.sqrt(2)
            for n in range(2, top + 1):
                L = mp.log(n)
                w = mp.expjpi(turns * L)
                errors = (
                    abs(logs[n] - mp.ldexp(L, bits))
                    / (omega[n] * (mpf(1) / 2 + mpf(2) ** -10)),
                    abs(powers[n] - mp.ldexp(mp.exp(-g * L), bits + shift))
                    / omega[n],
                    abs(mpc(*phases[n]) - w * mpf(2) ** bits)
                    / (root2 * omega[n]))
                assert max(errors) <= 1, n


class TestOmegaPredictionError:
    @pytest.mark.xfail(
        strict=True,
        reason="the T=5 prediction error cannot shrink like n^-5: it is "
               "dominated by the mean-zero oscillation kappa(log2 n) of "
               "constant amplitude ~1.5e-9 (the central result) plus a ~1/n "
               "harmonic, so its log-log slope over [500, 4000] is ~-0.3. "
               "See README.")
    def test_prediction_error_slope(self, float_counts_4096):
        table = asy.residuals(4000, terms=5, dps=40,
                              counts=float_counts_4096, min_n=500)
        with mp.workdps(50):
            xs, ys = [], []
            for n, _, r in table.rows:
                if r != 0:
                    xs.append(mp.log(n))
                    ys.append(mp.log(abs(r)))
            mx = sum(xs) / len(xs)
            my = sum(ys) / len(ys)
            slope = sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / \
                sum((x - mx) ** 2 for x in xs)
        assert slope < -4


class TestExponentFit:
    def test_two_sided_flat(self):
        fit = asy.exponent_fit(pa2_series(80))
        assert abs(fit) < 0.01

    def test_two_sided_digits_of_a_tiny_slope(self):
        # log2(PA_n 2^-n) = log2(1 + 2^(1-n)) is about 2^-n over n = 75..150:
        # the fit keeps all 40 digits only if each column has its own
        # binary exponent
        fit = asy.exponent_fit(pa2_series(150))
        with mp.workdps(50):
            assert mp.nstr(fit, 40, strip_zeros=False) == \
                "-1.291684202764366450313115009952078888460e-23"

    def test_three_sided_rough(self):
        fit = asy.exponent_fit(pa3_series(500, "theorem"))
        assert abs(fit - mp.log(3) / mp.log(2)) < 0.1


# n = 2..8, so u = log2 n covers [1, 3] with 7 samples
SHORT_TABLE = asy.residuals(8, terms=2)
# the 2-sided counts 2^n + 2 to n = 20, with PA_15 set to 0
ZERO_COUNT = CountTable(2, [0 if n == 15 else 2 ** n + 2
                            for n in range(1, 21)], "closed-form")
# 1e-60 off the pole z_3 of 1/(1-2q+q^5); at 30 digits the offset would
# round away
with mp.workdps(80):
    NEAR_POLE = asy.poles(3, dps=80)[2] + mpc(0, mpf(10) ** -60)


@pytest.mark.parametrize("call, args, error, match", [
    (asy.gf_eval, (mpf("0.55"), "meromorphic"), DomainError,
     r"requires \|q\| < 0.55"),
    (asy.gf_eval, (mpc("0.3", "0.5"), "meromorphic"), DomainError,
     r"requires \|q\| < 0.55"),
    (asy.gf_eval, (mpf("0.5"), "meromorphic"), DomainError, "slit"),
    (asy.gf_eval, (mpf("0.52"), "meromorphic"), DomainError, "slit"),
    (asy.gf_eval, (mpf("0.3"), "doublesum"), DomainError, "real q in"),
    (asy.gf_eval, (mpf("0.5"), "doublesum"), DomainError, "real q in"),
    (asy.gf_eval, (mpc("0.45", "0.01"), "doublesum"), DomainError,
     "real q in"),
    (asy.fourier_extract, (SHORT_TABLE, 1, (1, 3)), DomainError,
     "not enough samples"),
    (asy.fourier_extract_detrended, (SHORT_TABLE, 1, (1, 2.5)), DomainError,
     "at least 2 periods"),
    (asy.exponent_fit, (pa3_series(12),), DomainError, "larger order"),
    (asy.exponent_fit, (ZERO_COUNT,), DomainError, "PA_15 is not positive"),
    (asy.h_direct, (1, 0, mpf(1) / 2, mpf(3) / 2), DomainError, "needs t > 0"),
    (asy.h_representation, (1, 0, mpf(1) / 2, mpf(3) / 2), DomainError,
     r"0 < t < q\^-3"),
    (asy.gf_eval, (NEAR_POLE, "meromorphic"), DomainError,
     r"tail distance of the pole of 1/\(1-2q\+q\^5\)"),
    (asy.pi_eval, (mpc(0, 5), mpf(1) / 2), DomainError, r"Pi\(w\) harmonics"),
    (asy.gf_eval, (mpf("0.52"), "singular"), DomainError, r"Pi\(w\) harmonics"),
], ids=["meromorphic-0.55", "meromorphic-complex-modulus", "meromorphic-0.5",
        "meromorphic-slit", "doublesum-0.3", "doublesum-0.5",
        "doublesum-complex", "fourier-samples", "detrended-periods",
        "fit-order", "fit-zero-count", "h-direct-t-0", "h-representation-t-0",
        "meromorphic-pole-distance", "pi-harmonics-grow", "singular-0.52"])
def test_raise_site(call, args, error, match):
    with pytest.raises(error, match=match):
        call(*args)


def _bits(value):
    """The exact binary value of every real and imaginary part: sign, the
    mantissa as an int (so mpmath's backend type does not enter) and the
    exponent."""
    if isinstance(value, (list, tuple)):
        return [_bits(v) for v in value]
    parts = value._mpc_ if isinstance(value, mpc) else (value._mpf_,)
    return [(sign, int(man), int(exp)) for sign, man, exp, _ in parts]


class TestTruncationDoubling:
    # sha256 over the bits of the library-only evaluators, which no CLI
    # digest reads, at the battery's points, complex q and q = 0.49, at both
    # truncation scales; recorded before their term loops moved onto one
    # power generator
    LIBRARY_SHA256 = \
        "a8becbb19f52bdd15b1a70cd885510c7a43d99b82f5b374cf9519c03858a3353"

    def test_library_values_digest(self):
        with mp.workdps(60):
            q, half, v = mpf("0.45"), mpf(1) / 2, mpf(3) / 2
            qc = mpc("0.4", "0.05")
            sector = half + mpf("0.03") * mp.expjpi(mpf(1) / 3)
            values = []
            for s in (1.0, 2.0):
                for x, nu in ((q, 7), (qc, 60)):
                    values += [
                        asy.d_nu(nu, x, method=m, truncation_scale=s)
                        for m in ("recurrence", "sum")]
                    values.append(asy.d_nu_by_series_division(
                        nu, x, truncation_scale=s))
                for x in (q, sector):
                    values += [asy.U_eval(x, truncation_scale=s),
                               asy.V_eval(x, truncation_scale=s)]
                values += [
                    asy.pochhammer(mpf(1) / 3, half, truncation_scale=s),
                    asy.mittag_leffler_check(mpf(1) / 3, half, mpf("0.3"),
                                             truncation_scale=s),
                    asy.mittag_leffler_check(mpf("0.45"), half,
                                             mpc("0.2", "0.4"),
                                             truncation_scale=s),
                    asy.h_direct(1, mpf("0.05"), half, v, truncation_scale=s),
                    asy.h_representation(1, mpf("0.05"), half, v,
                                         truncation_scale=s)]
                # at q = 1/2 and v = 3/2 most powers are exact; at 0.49 few are
                x = mpf("0.49")
                values += [h(2, mpf("0.05"), x, (1 - x + x * x) / (1 - x),
                             truncation_scale=s)
                           for h in (asy.h_direct, asy.h_representation)]
        digest = hashlib.sha256(repr(_bits(values)).encode()).hexdigest()
        assert digest == self.LIBRARY_SHA256

    def test_battery(self):
        q = mpf("0.45")
        half = mpf(1) / 2
        sector = half + mpf("0.03") * mp.e ** (1j * mp.pi / 3)
        w = mp.log(1 - 2 * sector) / mp.log(1 / sector)
        cases = [
            lambda s: asy.pochhammer(mpf(1) / 3, half, truncation_scale=s),
            lambda s: asy.d_nu(7, q, method="sum", truncation_scale=s),
            lambda s: asy.U_eval(q, truncation_scale=s),
            lambda s: asy.V_eval(q, truncation_scale=s),
            lambda s: asy.gf_eval(q, "meromorphic", truncation_scale=s),
            lambda s: asy.gf_eval(q, "doublesum", truncation_scale=s),
            lambda s: asy.gf_eval(q, "singular", truncation_scale=s),
            lambda s: asy.h_direct(1, mpf("0.05"), half, mpf(3) / 2,
                                   truncation_scale=s),
            lambda s: asy.h_representation(1, mpf("0.05"), half, mpf(3) / 2,
                                           truncation_scale=s),
            lambda s: asy.mittag_leffler_check(mpf(1) / 3, half, mpf("0.3"),
                                               truncation_scale=s)[1],
            lambda s: asy.d_nu_by_series_division(20, q, truncation_scale=s),
            lambda s: asy.pi_eval(w, sector, truncation_scale=s),
        ]
        for fn in cases:
            once, twice = fn(1.0), fn(2.0)
            if not isinstance(once, list):
                once, twice = [once], [twice]
            assert all(abs(a - b) < 1e-40 for a, b in zip(once, twice))

    def test_cap_reaches_every_loop(self, monkeypatch):
        monkeypatch.setattr(asy, "_MAX_TERMS", 3)
        half = mpf(1) / 2
        calls = [
            lambda: asy.h_direct(1, mpf("0.05"), half, mpf(3) / 2),  # a tail sum
            lambda: asy.pochhammer(mpf(1) / 3, half),
            lambda: asy.d_nu_by_series_division(5, mpf("0.45")),
            lambda: asy.pi_eval(mpf("0.13"), mpf("0.49")),
        ]
        for call in calls:
            with pytest.raises(DomainError, match="within 3 terms"):
                call()



class TestCrossPrecision:
    """A value asked for at 30 digits agrees with the same value at 60."""

    SECTOR = mpf(1) / 2 + mpf("0.03") * mp.expjpi(mpf(1) / 3)

    @staticmethod
    def value(name, dps, q):
        if name == "kappa(1)":
            return asy.kappa(1, dps=dps)
        if name in ("U_eval", "V_eval"):
            return getattr(asy, name)(q, dps=dps)
        return asy.gf_eval(q, name, dps=dps)

    # at q = 0.45 by name; then the points whose term loops step through
    # the most powers of q
    @pytest.mark.parametrize("name, q", [
        *[pytest.param(name, mpf("0.45"), id=name)
          for name in ("taylor", "meromorphic", "doublesum", "singular",
                       "kappa(1)", "U_eval", "V_eval")],
        pytest.param("meromorphic", mpc("0.4", "0.05"),
                     id="meromorphic-0.4+0.05i"),
        pytest.param("meromorphic", SECTOR, id="meromorphic-sector"),
        pytest.param("singular", SECTOR, id="singular-sector"),
        pytest.param("V_eval", SECTOR, id="V_eval-sector"),
        pytest.param("doublesum", mpf("0.49"), id="doublesum-0.49")])
    def test_dps_30_agrees_with_dps_60(self, name, q):
        low, high = self.value(name, 30, q), self.value(name, 60, q)
        assert abs(low - high) <= mpf(10) ** -30 * abs(high)
