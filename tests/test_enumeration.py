"""Counting sequences, functional-equation residuals, and the float mirror."""

from __future__ import annotations

import hashlib
import itertools

import pytest

from prudentpoly.enumeration import (
    CountTable,
    DomainError,
    bargraph_series,
    pa2_series,
    pa3_scaled_float,
    pa3_series,
    pa4_series,
    pa4_system_solution,
    w_series,
)
from prudentpoly import enumeration
from prudentpoly.series import Series1, Series2, expand_rational

PA3_FIRST_TEN = (6, 10, 20, 42, 92, 204, 454, 1010, 2242, 4962)

# the trivariate fixed point (and the brute-force oracle) both give these;
# see the README for how they relate to the published series
PA4_FIXED_POINT = (8, 16, 40, 96, 232, 560, 1336, 3176)


class TestBargraphs:
    def test_univariate_counts(self):
        b = bargraph_series(6).eval_catalytic()
        assert b.coeffs == (0, 1, 2, 4, 8, 16, 32)

    def test_width_refinement(self):
        b = bargraph_series(6)
        assert b.coeff(4, 2) == 3          # binom(3, 1)
        assert b.coeff(1, 1) == 1
        assert all(b.coeff(1, i) == 0 for i in range(2, 7))

    def test_functional_equation_residual_zero(self):
        n = 24
        b = bargraph_series(n)
        qu_over_1mq = Series2(n, [[0] * (n + 1),
                                  expand_rational((0, 1), (1, -1), n).coeffs])
        rhs = qu_over_1mq + qu_over_1mq * b
        assert rhs == b

    @pytest.mark.parametrize("n", [1, 2, 3, 17, 40])
    def test_width_rows_are_powers(self, n):
        # the u^i row of B is (q/(1-q))^i
        b = bargraph_series(n)
        x = power = expand_rational((0, 1), (1, -1), n)
        for i in range(1, n + 1):
            assert tuple(b.coeff(m, i) for m in range(n + 1)) == power.coeffs
            power = power * x
        assert not any(power.coeffs)
        assert all(b.coeff(m, 0) == 0 for m in range(n + 1))


class TestPa2:
    def test_closed_form(self):
        t = pa2_series(30)
        assert t.count(1) == 4
        assert t.count(3) == 10
        assert t.count(10) == 1026
        assert all(t.count(n) == 2 ** n + 2 for n in range(1, 31))


class TestWSeries:
    def test_first_coefficients(self):
        w = w_series(12)
        assert w.coeff(1, 1) == 1
        assert all(w.coeff(n, 0) == 0 for n in range(13))

    def test_assembles_pa3(self):
        n = 40
        w1 = w_series(n).eval_catalytic()
        extra = expand_rational((0, 1), (1, -1), n) + \
            expand_rational((0, 1), (1, -2), n)
        series = pa3_series(n, "theorem")
        for k in range(1, n + 1):
            assert 2 * (w1.coeffs[k] + extra.coeffs[k]) == series.count(k)

    def test_functional_equation_residual_zero(self):
        # W = qu(1+B) + q/(1-q) (W - W(q,qu)) + qu(1+B) W(q,qu), exactly
        n = 36
        w = w_series(n)
        b = bargraph_series(n)
        one_plus_b = Series2(n, [[1] + [0] * n]) + b
        qu_one_plus_b = one_plus_b.mul_monomial(dq=1, du=1)
        w_sub = w.subst_scale(1)
        q_over_1mq = expand_rational((0, 1), (1, -1), n)
        rhs = qu_one_plus_b + (w - w_sub).mul_series1(q_over_1mq) + \
            qu_one_plus_b * w_sub
        assert rhs == w

    def test_blocks_digest(self):
        # sha256 of the bivariate W(q,u) at order 200, one line per u-degree,
        # recorded from the substitution-iteration solver that preceded the
        # u-block recurrence
        n = 200
        w = w_series(n)
        text = "\n".join(",".join(str(w.coeff(k, i)) for k in range(n + 1))
                         for i in range(n + 1))
        assert hashlib.sha256(text.encode()).hexdigest() == \
            "65ab00a2e2d12fe39668b713c902bdae1221454a14bc87ede5dcaf448d1b41dd"

    def test_below_valuation_contribution_raises(self, monkeypatch):
        # a forcing term with a constant, which q(1-q)^2 cannot have, puts a
        # width-1 polygon at area 0, which the series' width cap refuses
        monkeypatch.setattr(enumeration, "_W_FORCING", (1, 1, -2, 1))
        with pytest.raises(ValueError, match="catalytic degree 1 exceeds "
                                             "area degree"):
            w_series(10)

    def test_memory_guard_before_any_work(self, monkeypatch):
        # order 3072 stays within the budget; 4096 needs about 3 GiB and is
        # refused before any block is solved
        assert enumeration._w_mib(3072) < enumeration._MAX_MIB

        def unreached(order):
            raise AssertionError("the blocks were solved")

        monkeypatch.setattr(enumeration, "_w_blocks", unreached)
        with pytest.raises(DomainError, match=r"order 4096 needs about \d+ MiB"):
            pa3_series(4096, "functional")


class TestPa3:
    def test_published_series(self):
        assert pa3_series(10, "theorem").counts == PA3_FIRST_TEN
        assert pa3_series(10, "functional").counts == PA3_FIRST_TEN

    def test_dual_route_agreement(self):
        n = 60
        assert pa3_series(n, "theorem").counts == \
            pa3_series(n, "functional").counts

    def test_dual_route_agreement_every_small_order(self):
        # the theorem kernel's edge cases: no step, a partial last block and
        # a block longer than the degrees left
        for n in range(1, 41):
            assert pa3_series(n, "theorem").counts == \
                pa3_series(n, "functional").counts

    def test_dual_route_agreement_order_1000(self):
        assert pa3_series(1000, "theorem").counts == \
            pa3_series(1000, "functional").counts

    @pytest.mark.parametrize("n, digest", [
        (1000, "93cb7e67f09acfb2d2f0da106bb6ba69cc95e996bf88c4a712f0c5b829042c5a"),
        (3072, "b662730d1c47348d58897fd176aaa2348e072b2d90e4a98e280641b75f13301b"),
        (4096, "3ee0eff3cd25ebf3ff677918346be426e67d8b0ccf86b67aafcbea269b3f2795"),
    ])
    def test_counts_digest(self, n, digest, request):
        # sha256 of the counts from the index-loop kernel that preceded this
        # one; order 4096 from the forward-summing kernel that preceded the
        # Horner-order one, recorded before that kernel was changed.  Order
        # 4096 is the session's shared table, built once for every test
        counts = (request.getfixturevalue("exact_counts_4096") if n == 4096
                  else pa3_series(n, "theorem"))
        text = ",".join(map(str, counts.counts))
        assert hashlib.sha256(text.encode()).hexdigest() == digest

    def test_literal_sum_in_series1(self):
        # the paper's sum S of the T_m from generic Series1 arithmetic, with
        # no factoring: T_1 = -q^2/((1-2q)(1-q-q^2)) and T_{m+1} = T_m r_m
        # as truncated Series1 products, r_m = -q^2 N_m/((1-2q) D_m) expanded
        # as it reads, N_m = (1-q) - q^m (1-q+q^2), D_m = 1-q-q^{m+2}; then
        # PA3 = 2q(3-10q+9q^2-q^3)/((1-2q)^2(1-q)) - 2q^3(1-q)^2/(1-2q)^2 S
        def times_1m2q(p):
            return [a - 2 * b for a, b in zip(p + [0], [0] + p)]

        for n in [*range(1, 61), 150]:
            term = expand_rational((0, 0, -1), times_1m2q([1, -1, -1]), n)
            total = term
            m = 1
            while any(term.coeffs):
                num = [1, -1] + [0] * (m + 1)       # N_m
                for d, c in enumerate((1, -1, 1)):
                    num[m + d] -= c
                den = [1, -1] + [0] * m + [-1]      # D_m
                r = expand_rational([0, 0] + [-c for c in num],
                                    times_1m2q(den), n)
                term = term * r
                total = total + term
                m += 1
            pa3 = (expand_rational((0, 6, -20, 18, -2), (1, -5, 8, -4), n)
                   - expand_rational((0, 0, 0, 2, -4, 2), (1, -4, 4), n)
                   * total)
            assert pa3_series(n, "theorem").counts == pa3.coeffs[1:], n

    def test_counts_even_and_increasing(self):
        t = pa3_series(64)
        assert all(c % 2 == 0 for c in t.counts)
        assert all(t.count(n + 1) > t.count(n) for n in range(2, 64))

    def test_ratio_approaches_two(self):
        t = pa3_series(1001)
        ratios = [t.count(n + 1) / t.count(n) for n in range(200, 1001)]
        assert all(2 <= r <= 2.3 for r in ratios)
        diffs = [b - a for a, b in zip(ratios, ratios[1:])]
        assert sum(diffs) / len(diffs) < 0

    def test_bad_method(self):
        with pytest.raises(ValueError):
            pa3_series(10, "magic")


class TestPa4:
    def test_fixed_point_counts(self):
        assert pa4_series(8).counts == PA4_FIXED_POINT

    def test_divisible_by_eight_and_increasing(self):
        t = pa4_series(24)
        assert all(c % 8 == 0 for c in t.counts)
        assert all(t.count(n + 1) > t.count(n) for n in range(2, 24))

    def test_streamed_counts_equal_the_solution(self):
        for n in range(1, 31):
            x, y, z = pa4_system_solution(n)
            s = x.eval_catalytic() + y.eval_catalytic() + z.eval_catalytic()
            assert pa4_series(n).counts == s.scale(8).coeffs[1:]

    @pytest.mark.parametrize("n, digest", [
        (64, "dd8e9ac938663132d470802a693bbe101ce9ecea5c03241b04b2b2b0d052599f"),
        (150, "25ea41db84c7a7b7c92c393d06096f0284cfe6cc659461de747674dbd010b985"),
    ])
    def test_counts_digest(self, n, digest):
        # sha256 of the counts from the sweep solver that preceded this one
        text = ",".join(map(str, pa4_series(n).counts))
        assert hashlib.sha256(text.encode()).hexdigest() == digest

    def test_memory_guard(self):
        cap = next(n for n in itertools.count(300)
                   if enumeration._pa4_mib(n + 1) > enumeration._MAX_MIB)
        assert cap >= 300
        for solve in (pa4_series, pa4_system_solution):
            with pytest.raises(DomainError, match=r"needs about \d+ MiB"):
                solve(cap + 1)

    def test_solution_memory_guard_before_any_work(self, monkeypatch):
        # order 400 passes the counts' guard, but the solution keeps every
        # degree and needs more than the budget: refused before solving
        assert enumeration._pa4_mib(400) < enumeration._MAX_MIB

        def unreached(order):
            raise AssertionError("the solver ran")

        monkeypatch.setattr(enumeration, "_pa4_degrees", unreached)
        with pytest.raises(DomainError, match=r"order 400 needs about \d+ MiB"):
            pa4_system_solution(400)

    @pytest.mark.parametrize("s", [0, 1], ids=["Z", "X-Y"])
    def test_support_one_short_raises(self, s, monkeypatch):
        # row 2 of each triangle of support shape s, one entry short, drops
        # a nonzero term, which the solver reports instead of dropping it
        staircase = enumeration._staircase

        def tight(k, shape):
            tri = staircase(k, shape)
            if shape == s and k > 2:
                tri[2].pop()
            return tri

        monkeypatch.setattr(enumeration, "_staircase", tight)
        for solve in (pa4_series, pa4_system_solution):
            with pytest.raises(AssertionError, match="outside the support"):
                solve(12)

    def test_functional_equation_residuals_zero(self):
        n = 18
        x, y, z = pa4_system_solution(n)
        q_1mq = expand_rational((0, 1), (1, -1), n)

        def qv_1mq(s):
            return s.mul_series1(q_1mq).mul_monomial(dv=1)

        ys = y.swap_catalytics()
        zs = z.swap_catalytics()
        xs = x.swap_catalytics()

        rhs_x = (qv_1mq(x - x.subst_scale("u"))
                 + qv_1mq(ys - ys.subst_scale("u"))
                 + (z - z.subst_scale("u").mul_monomial(dq=1))
                 .mul_series1(q_1mq).mul_monomial(du=1, dv=1))
        assert rhs_x == x

        seed = type(x).monomial(n, 1, dq=1, du=1, dv=1)
        rhs_y = (seed
                 + qv_1mq(y - y.subst_scale("u"))
                 + (zs - zs.subst_scale("u")).mul_series1(q_1mq)
                 .mul_monomial(dv=2)
                 + (xs.subst_scale("v") + y.subst_scale("v")
                    + zs.subst_scale("v").mul_monomial(dq=1, dv=1))
                 .mul_monomial(dq=1, du=1, dv=1))
        assert rhs_y == y

        rhs_z = (qv_1mq(z - z.subst_scale("u"))
                 + ys.subst_scale("v").mul_monomial(dq=1, dv=1)
                 + z.subst_scale("v").mul_monomial(dq=1, du=1, dv=1))
        assert rhs_z == z


class TestCountTable:
    def test_rejects_bad_parity(self):
        with pytest.raises(ValueError):
            CountTable(3, (6, 11), "theorem")
        with pytest.raises(ValueError):
            CountTable(4, (8, 20), "functional")
        with pytest.raises(ValueError):
            CountTable(2, (-1,), "closed-form")

    def test_count_bounds(self):
        t = pa2_series(5)
        with pytest.raises(ValueError):
            t.count(6)


class TestFloatMode:
    def test_matches_exact_counts(self):
        n = 200
        exact = Series1((0,) + pa3_series(n, "theorem").counts)
        f = pa3_scaled_float(n, precision=40)
        assert f.max_rel_error_vs_exact(exact) < 1e-35


class TestFloatModePrecisionContract:
    def test_agreement_scales_with_precision(self):
        # contract: float mode matches exact mode to 10^(5 - precision)
        n = 120
        exact = Series1((0,) + pa3_series(n, "theorem").counts)
        for precision in (25, 40):
            f = pa3_scaled_float(n, precision=precision)
            assert f.precision == precision
            assert f.max_rel_error_vs_exact(exact) < 10.0 ** (5 - precision)
