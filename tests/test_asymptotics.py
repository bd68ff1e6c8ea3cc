"""Constants, identities, route agreement and truncation insensitivity."""

from __future__ import annotations

import hashlib
import time
from unittest import mock

import pytest
from mpmath import mp, mpc, mpf

from prudentpoly import asymptotics as asy
from prudentpoly.asymptotics import DomainError
from prudentpoly.enumeration import (
    CountTable, pa2_series, pa3_scaled_float, pa3_series, pa4_series)

mp.dps = 60


def close(a, b, tol):
    return abs(mpc(a) - mpc(b)) < tol


def at_scale(s, fn, *args, **kwargs):
    """fn(*args, **kwargs) with every adaptive loop run s times as far as
    the truncation rule asks."""
    with mock.patch.object(asy, "_TRUNCATION_SCALE", s):
        return fn(*args, **kwargs)


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
        b = at_scale(2, asy.pochhammer, mpf(1) / 3, mpf(1) / 2, dps=40)
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
                direct = asy.h_direct(j, t, q, v)
                rep = asy.h_representation(j, t, q, v)
                assert close(direct, rep, 1e-34), (j, t)

    @pytest.mark.parametrize("v", ["1.4", "1.6"])
    def test_representation_at_v_other_than_v_of_q(self, v):
        # the power law and Pi(w) both take gamma from the v given
        q, t = mpf(1) / 2, mpf("0.05")
        for j in range(3):
            direct = asy.h_direct(j, t, q, mpf(v))
            rep = asy.h_representation(j, t, q, mpf(v))
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
        k0 = asy.kappa(0, dps=40)
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

    @pytest.mark.parametrize("k", [52, 60, 200])
    def test_poles_past_double_precision(self, k):
        # 1/2 + 2^-(k+2) rounds to 1/2 in 53 bits, the caller's precision
        # by default (this module sets 60 digits), from k = 52 on; z_k is
        # checked against the fixed point x = (1 + x^(k+2))/2 from 1/2,
        # iterated at 300 digits: to 40 digits, and delta_k = z_k - 1/2 to
        # _GUARD_DPS digits
        with mp.workprec(53):
            z = asy.poles(k, dps=40)[-1]
        with mp.workdps(300):
            x = mpf(1) / 2
            for _ in range(40):
                x = (1 + x ** (k + 2)) / 2
            assert abs(z - x) < mpf(10) ** -40
            assert abs(z - x) < (x - mpf(1) / 2) * mpf(10) ** -asy._GUARD_DPS

    def test_poles_bits_unchanged_to_51(self):
        # sha256 of the exact mantissas and exponents of poles(51) before
        # the bracket's precision was widened
        bits = [(s, int(m), e) for s, m, e, _ in
                (z._mpf_ for z in asy.poles(51))]
        assert hashlib.sha256(repr(bits).encode()).hexdigest() == \
            "59c213228ec71e133c085e119c9d5b51516c7c8422d7114fbaf0b1499562b046"

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


def residual_at(table, n):
    """The residual of row n of a ResidualTable."""
    return next(r for m, _, r in table.rows if m == n)


class TestResidualPipeline:
    def test_zero_term_model_leaves_kappa0(self):
        table = asy.residuals(1000, terms=0, min_n=995)
        r = residual_at(table, 1000)
        assert abs(r - asy.kappa(0)) < 0.005

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
                assert close(residual_at(t4, n) - residual_at(t5, n), term,
                             1e-35)

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
            # the table's model: coefficients at dps + 10 digits
            coeffs = asy.omega_coefficients(terms, dps + 10)
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
        coeffs = asy.omega_coefficients(5, dps + 10)

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

    @pytest.mark.parametrize("solve", [pa2_series, pa4_series],
                             ids=["k2", "k4"])
    def test_counts_of_other_sides_refused(self, solve):
        # the model describes 3-sided counts; 4-sided ones gave a
        # "residual" of 0.819 at n = 40
        with pytest.raises(DomainError, match="3-sided"):
            asy.residuals(40, counts=solve(40))

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
    (asy.d_nu, (-1, mpf("0.45")), ValueError, "nu must be >= 0"),
    (asy.d_nu, (2, mpf("0.45"), 40, "bogus"), ValueError,
     "method must be 'recurrence' or 'sum'"),
    (asy.mittag_leffler_check, (1, mpf("0.3"), mpf("0.2")), DomainError,
     r"requires \|a\| < 1"),
    (asy.gf_eval, (mpf("0.3"), "bogus"), ValueError, "method must be one of"),
    (asy.poles, (0,), ValueError, "k_max must be >= 1"),
    (asy.residuals, (8, 2, 40, [2] * 8), TypeError,
     "CountTable or FloatSeries1"),
    (asy.fourier_extract_detrended, (SHORT_TABLE, 1, (1, 3)), DomainError,
     "not enough samples"),
], ids=["meromorphic-0.55", "meromorphic-complex-modulus", "meromorphic-0.5",
        "meromorphic-slit", "doublesum-0.3", "doublesum-0.5",
        "doublesum-complex", "fourier-samples", "detrended-periods",
        "fit-order", "fit-zero-count", "h-direct-t-0", "h-representation-t-0",
        "meromorphic-pole-distance", "pi-harmonics-grow", "singular-0.52",
        "d-nu-negative", "d-nu-method", "mittag-leffler-a", "gf-method",
        "poles-0", "counts-list", "detrended-samples"])
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
    # truncation scales; recorded when the q-products, which d_nu's sum,
    # U, V and the Mittag-Leffler check read, moved onto fixed-point
    # integers (each value kept its type and moved by under 3e-52
    # relative, at the 52 working digits of dps = 40)
    LIBRARY_SHA256 = \
        "48fa5daa5ef1eb2aa69f6cc11a91b101c47107e817534994099da9736dbeaee3"

    def test_library_values_digest(self):
        with mp.workdps(60):
            q, half, v = mpf("0.45"), mpf(1) / 2, mpf(3) / 2
            qc = mpc("0.4", "0.05")
            sector = half + mpf("0.03") * mp.expjpi(mpf(1) / 3)
            values = []
            for s in (1, 2):
                with mock.patch.object(asy, "_TRUNCATION_SCALE", s):
                    for x, nu in ((q, 7), (qc, 60)):
                        values += [asy.d_nu(nu, x, method=m)
                                   for m in ("recurrence", "sum")]
                        values.append(asy.d_nu_by_series_division(nu, x))
                    for x in (q, sector):
                        values += [asy.U_eval(x), asy.V_eval(x)]
                    values += [
                        asy.pochhammer(mpf(1) / 3, half),
                        asy.mittag_leffler_check(mpf(1) / 3, half, mpf("0.3")),
                        asy.mittag_leffler_check(mpf("0.45"), half,
                                                 mpc("0.2", "0.4")),
                        asy.h_direct(1, mpf("0.05"), half, v),
                        asy.h_representation(1, mpf("0.05"), half, v)]
                    # at q = 1/2 and v = 3/2 most powers are exact; at 0.49
                    # few are
                    x = mpf("0.49")
                    values += [h(2, mpf("0.05"), x, (1 - x + x * x) / (1 - x))
                               for h in (asy.h_direct, asy.h_representation)]
        digest = hashlib.sha256(repr(_bits(values)).encode()).hexdigest()
        assert digest == self.LIBRARY_SHA256

    @staticmethod
    def battery() -> dict:
        q = mpf("0.45")
        half = mpf(1) / 2
        sector = half + mpf("0.03") * mp.e ** (1j * mp.pi / 3)
        w = mp.log(1 - 2 * sector) / mp.log(1 / sector)
        return {
            "pochhammer":
                lambda s: at_scale(s, asy.pochhammer, mpf(1) / 3, half),
            "d_nu_sum":
                lambda s: at_scale(s, asy.d_nu, 7, q, method="sum"),
            "U_eval": lambda s: at_scale(s, asy.U_eval, q),
            "V_eval": lambda s: at_scale(s, asy.V_eval, q),
            "meromorphic":
                lambda s: at_scale(s, asy.gf_eval, q, "meromorphic"),
            "doublesum":
                lambda s: at_scale(s, asy.gf_eval, q, "doublesum"),
            "singular":
                lambda s: at_scale(s, asy.gf_eval, q, "singular"),
            "h_direct": lambda s: at_scale(
                s, asy.h_direct, 1, mpf("0.05"), half, mpf(3) / 2),
            "h_representation": lambda s: at_scale(
                s, asy.h_representation, 1, mpf("0.05"), half, mpf(3) / 2),
            "mittag_leffler": lambda s: at_scale(
                s, asy.mittag_leffler_check, mpf(1) / 3, half, mpf("0.3"))[1],
            "series_division": lambda s: at_scale(
                s, asy.d_nu_by_series_division, 20, q),
            "pi_eval": lambda s: at_scale(s, asy.pi_eval, w, sector),
            "kappa(1)": lambda s: at_scale(s, asy.kappa, 1),
            "oscillation_amplitude":
                lambda s: list(at_scale(s, asy.oscillation_amplitude)),
        }

    def test_battery(self):
        for fn in self.battery().values():
            once, twice = fn(1), fn(2)
            if not isinstance(once, list):
                once, twice = [once], [twice]
            assert all(abs(a - b) < 1e-40 for a, b in zip(once, twice))

    # the term count at which each _stop_rule loop of a battery case
    # stopped, in the order the loops ran, at truncation scales 1 and 2:
    # recorded while every loop still compared abs() of mpmath numbers
    # against 10^-(dps+5).  doublesum runs one nu-sum per j (the j-sum
    # stops at 50 or 100 terms), then its four q-products.  kappa(1) runs
    # its three q-products and oscillation_amplitude then its harmonics:
    # recorded at scale 1 before the scale became a module constant, and
    # doubled at scale 2.
    TERM_COUNTS = {
        "pochhammer": ([149], [298]),
        "d_nu_sum": ([129, 130, 17], [258, 260, 34]),
        "U_eval": ([129, 128], [258, 256]),
        "V_eval": ([130, 129, 52, 130, 131], [260, 258, 104, 260, 262]),
        "meromorphic": ([131, 130, 217], [262, 260, 434]),
        "doublesum": (
            [219, 83, 51, 37, 29, 24, 21, 18, 16, 14, 13, 12, 11, 10, 10, 9,
             8, 8, 8, 7, 7, 7, *[6] * 28, 50, 131, 130, 129, 130],
            [438, 166, 102, 74, 58, 48, 42, 36, 32, 28, 26, 24, 22, 20, 20,
             18, 16, 16, 16, 14, 14, 14, *[12] * 78, 100, 262, 260, 258,
             260]),
        "singular": ([131, 130, 5, 129, 128, 130, 129, 52],
                     [262, 260, 10, 258, 256, 260, 258, 104]),
        "h_direct": ([108], [216]),
        "h_representation": ([4, 66], [8, 132]),
        "mittag_leffler": ([148, 149, 149, 150, 58],
                           [296, 298, 298, 300, 116]),
        "series_division": ([129, 131], [258, 262]),
        "pi_eval": ([14], [28]),
        "kappa(1)": ([149, 152, 150], [298, 304, 300]),
        "oscillation_amplitude": ([149, 152, 150, 8], [298, 304, 300, 16]),
    }

    def test_term_counts(self, monkeypatch):
        # squared sizes, and integers in the fixed-point loops, stop every
        # loop at the same term as abs() on mpmath numbers did
        rule, stopped = asy._stop_rule, []

        def recording(*args, **kwargs):
            stop, terms = rule(*args, **kwargs), 0

            def counted(size):
                nonlocal terms
                terms += 1
                done = stop(size)
                if done:
                    stopped.append(terms)
                return done
            return counted

        monkeypatch.setattr(asy, "_stop_rule", recording)
        for name, fn in self.battery().items():
            for s, counts in zip((1, 2), self.TERM_COUNTS[name]):
                stopped.clear()
                asy._kappa_product.cache_clear()
                fn(s)
                assert stopped == counts, (name, s)

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

    def test_kappa_products_keyed_by_scale(self, monkeypatch):
        # a run at scale 2 right after one at scale 1 and the same dps
        # computes kappa's three q-products afresh
        asy._kappa_product.cache_clear()
        asy.kappa(1, dps=40)
        made, pochhammer = [], asy.pochhammer

        def counted(*args, **kwargs):
            made.append(args)
            return pochhammer(*args, **kwargs)

        monkeypatch.setattr(asy, "pochhammer", counted)
        at_scale(2, asy.kappa, 1, dps=40)
        assert len(made) == 3



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


# Inputs of the contract table, made at 100 digits: both precisions of a
# check read the same numbers, which mpmath does not round on the way in.
with mp.workdps(100):
    _HALF = mpf(1) / 2
    _SECTOR = _HALF + mpf("0.03") * mp.expjpi(mpf(1) / 3)
    _TINY, _TINY_C = mpf("1e-30"), mpc("1e-30", "1e-30")
    _Z3 = asy.poles(3, dps=100)[2]
    # |1-2q+q^5| is about 1.6e-34 at the first, past the 30-digit pole
    # guard 10^-35, and 1.6e-40 at the second, inside it
    _OFF_POLE, _AT_POLE = _Z3 + mpc(0, "1e-34"), _Z3 + mpc(0, "1e-40")
    # factors 1 - x q^2 of about -2e-21, with q not a power of two, and
    # 1 - x q of 5e-26 i, at the point where holding x q^j in a unit of
    # 2^-(prec+32) left 38 of 45 digits at 40 digits
    _NEAR_ZERO = (1 / mpf("0.45") ** 2 + mpf("1e-20"), mpf("0.45"))
    _NEAR_ZERO_HALF = (mpc(2, "1e-25"), _HALF)
    _W_SECTOR = mp.log(1 - 2 * _SECTOR) / mp.log(1 / _SECTOR)
    _Q49 = mpf("0.49")
    _V49 = (1 - _Q49 + _Q49 * _Q49) / (1 - _Q49)
_COUNTS_64 = pa3_series(64, "theorem")
_FIELDS = ("u", "v", "a", "t", "log_q", "gamma", "A", "C", "D", "pq", "pa",
           "pv", "pav")


def _call(fn, *args, **kwargs):
    """The check fn(*args, dps=dps, **kwargs) at truncation scale s."""
    return lambda dps, s: at_scale(s, fn, *args, dps=dps, **kwargs)


def _fields(dps):
    # every field is derived on its first read, so it is read here, inside
    # the scale's patch
    b = asy.base_quantities(_SECTOR, dps=dps)
    return [getattr(b, name) for name in _FIELDS]


def _extracted(fn, dps):
    # on the u in [4, 6] rows of a 64-row table, rebuilt from four
    # positional arguments, as a table read back from CSV is
    t = asy.residuals(64, dps=dps)
    return fn(asy.ResidualTable(t.rows, t.terms, t.precision, t.source), 1,
              (4, 6))


def _numbers(value) -> list:
    """The numbers in a value, a dict's values and a sequence's items in
    order."""
    if isinstance(value, dict):
        value = list(value.values())
    if isinstance(value, (list, tuple)):
        return [x for item in value for x in _numbers(item)]
    return [value]


class TestContracts:
    """Every public callable of asymptotics keeps its promise, at the
    domain's edges among other points: a value at 30 digits agrees with the
    value at 80 digits (and twice the truncation length) to 30 digits, or
    DomainError is raised.  A key names the callable its entry runs, before
    any "-"; RUNS maps the keys that name a gf_eval route or a value."""

    TABLE = {
        "pochhammer-sector": _call(asy.pochhammer, mpf(1) / 3, _SECTOR),
        "pochhammer-0.5499i":
            _call(asy.pochhammer, mpf(1) / 3, mpc(0, "0.5499")),
        "pochhammer-1e-30": _call(asy.pochhammer, mpf("1e30"), _TINY),
        "pochhammer-1e-30(1+i)": _call(asy.pochhammer, mpf(1) / 3, _TINY_C),
        "pochhammer-near-zero": _call(asy.pochhammer, *_NEAR_ZERO),
        "pochhammer-near-zero-half": _call(asy.pochhammer, *_NEAR_ZERO_HALF),
        "meromorphic-sector": _call(asy.gf_eval, _SECTOR, "meromorphic"),
        "meromorphic-0.5499i":
            _call(asy.gf_eval, mpc(0, "0.5499"), "meromorphic"),
        "meromorphic-1e-30": _call(asy.gf_eval, _TINY, "meromorphic"),
        "meromorphic-1e-30(1+i)": _call(asy.gf_eval, _TINY_C, "meromorphic"),
        "meromorphic-off-pole": _call(asy.gf_eval, _OFF_POLE, "meromorphic"),
        "meromorphic-at-pole": _call(asy.gf_eval, _AT_POLE, "meromorphic"),
        "doublesum-0.36": _call(asy.gf_eval, mpf("0.36"), "doublesum"),
        "doublesum-0.49": _call(asy.gf_eval, mpf("0.49"), "doublesum"),
        "U_eval-sector": _call(asy.U_eval, _SECTOR),
        "U_eval-off-pole": _call(asy.U_eval, _OFF_POLE),
        "V_eval-sector": _call(asy.V_eval, _SECTOR),
        "V_eval-off-pole": _call(asy.V_eval, _OFF_POLE),
        "kappa0": _call(asy.kappa, 0),
        "kappa-k=1": _call(asy.kappa, 1),
        "base_quantities-sector": _call(_fields),
        "d_nu-recurrence": _call(asy.d_nu, 60, _SECTOR, method="recurrence"),
        "d_nu-sum": _call(asy.d_nu, 60, _SECTOR, method="sum"),
        "d_nu_by_series_division-sector":
            _call(asy.d_nu_by_series_division, 20, _SECTOR),
        "mittag_leffler_check-sector": _call(
            asy.mittag_leffler_check, mpf(1) / 3, _SECTOR, mpc("0.2", "0.4")),
        "pi_eval-sector": _call(asy.pi_eval, _W_SECTOR, _SECTOR),
        "h_direct-0.49": _call(asy.h_direct, 2, mpf("0.05"), _Q49, _V49),
        "h_representation-0.49":
            _call(asy.h_representation, 2, mpf("0.05"), _Q49, _V49),
        "oscillation_amplitude": _call(asy.oscillation_amplitude),
        "poles-40": _call(asy.poles, 40),
        "theta_root": _call(asy.theta_root),
        "omega_coefficients-5": _call(asy.omega_coefficients, 5),
        # to n = 1024: the residual cancels about 8 digits against the
        # model, whose coefficients are asked for at dps + 10 digits
        "residuals-1024":
            _call(lambda dps: asy.residuals(1024, dps=dps).rows),
        "exponent_fit-64": _call(asy.exponent_fit, _COUNTS_64),
        "fourier_extract-u4-6": _call(_extracted, asy.fourier_extract),
        "fourier_extract_detrended-u4-6":
            _call(_extracted, asy.fourier_extract_detrended),
    }
    REFUSED_AT_30 = {"meromorphic-at-pole"}
    RUNS = {"meromorphic": "gf_eval", "doublesum": "gf_eval",
            "kappa0": "kappa"}
    EXEMPT = {
        "BaseQuantities": "a record, checked through base_quantities",
        "ResidualTable": "a record, checked through residuals and the "
                         "Fourier extractions",
    }

    @pytest.mark.parametrize("name", TABLE)
    def test_30_digits_against_80(self, name):
        check = self.TABLE[name]
        high = check(80, 2)
        if name in self.REFUSED_AT_30:
            with pytest.raises(DomainError, match="tail distance"):
                check(30, 1)
            return
        low, high = _numbers(check(30, 1)), _numbers(high)
        assert len(low) == len(high), name
        with mp.workdps(100):
            for a, b in zip(low, high):
                assert abs(a - b) <= mpf(10) ** -30 * abs(b), name

    def test_every_public_callable_has_an_entry(self):
        public = {name for name, obj in vars(asy).items()
                  if not name.startswith("_") and callable(obj)
                  and getattr(obj, "__module__", None) == asy.__name__}
        runs = {self.RUNS.get(key, key)
                for key in (name.split("-")[0] for name in self.TABLE)}
        assert runs <= public, runs - public
        assert not runs & self.EXEMPT.keys()
        assert public - runs == self.EXEMPT.keys()
