"""Counting sequences, functional-equation residuals, and the float mirror."""

from __future__ import annotations

import ast
import hashlib
import inspect
import itertools
import re
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

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

from limits import KERNELS, LIMITS

PA3_FIRST_TEN = (6, 10, 20, 42, 92, 204, 454, 1010, 2242, 4962)

# the trivariate fixed point (and the brute-force oracle) both give these;
# see the README for how they relate to the published series
PA4_FIXED_POINT = (8, 16, 40, 96, 232, 560, 1336, 3176)


def assert_refused(limit, order, monkeypatch):
    # refused by the row's guard before any kernel runs: each is None
    for kernel in KERNELS:
        monkeypatch.setattr(enumeration, kernel, None)
    shown = order if order < 2 ** 64 else "2^64 or more"
    with pytest.raises(DomainError, match=re.escape(
            f"{limit.solver} order {shown} needs about ") + r"\S+ MiB"):
        limit.solve(order)


@pytest.mark.parametrize("limit", LIMITS.values(), ids=list(LIMITS))
def test_size_limit(limit, monkeypatch):
    # the order below the first refused one passes its estimate; that one
    # is refused before any kernel runs, and so is order 0
    estimate = getattr(enumeration, limit.estimate)
    assert estimate(limit.first_refused - 1) <= enumeration._MAX_MIB
    assert_refused(limit, limit.first_refused, monkeypatch)
    with pytest.raises(ValueError, match="order must be >= 1"):
        limit.solve(0)


@pytest.mark.parametrize("limit", LIMITS.values(), ids=list(LIMITS))
@pytest.mark.parametrize("digits", [400, 5000])
def test_order_too_wide_for_a_float_refused(limit, digits, monkeypatch):
    # the memory estimates are floats; an order past their range, even one
    # past the 4300 digits that str() prints, is refused by the same budget
    assert_refused(limit, 10 ** digits, monkeypatch)


def test_every_guard_has_a_size_limit():
    # the estimates enumeration passes to _check_order are the table's, so
    # an exact entry point cannot ship without a pinned first order
    tree = ast.parse(inspect.getsource(enumeration))
    guarded = {node.args[1].id for node in ast.walk(tree)
               if isinstance(node, ast.Call)
               and getattr(node.func, "id", None) == "_check_order"}
    assert guarded == {limit.estimate for limit in LIMITS.values()}


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

    def test_memory_guard(self, monkeypatch):
        # a smaller budget reaches the guard at a smaller order
        monkeypatch.setattr(enumeration, "_MAX_MIB", 1)
        with pytest.raises(DomainError, match=r"order 5000 needs about 3 MiB"):
            pa2_series(5000)


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
        # a u^1 block with a constant, which q/(1-q) cannot have, puts a
        # width-1 polygon at area 0, which the series' width cap refuses,
        # and so does the functional route's running total
        blocks = enumeration._w_blocks

        def constant_in_u1(n):
            for k, w in enumerate(blocks(n)):
                yield [1] + w[1:] if k == 1 else w

        monkeypatch.setattr(enumeration, "_w_blocks", constant_in_u1)
        for solve in (w_series, lambda n: pa3_series(n, "functional")):
            with pytest.raises(ValueError, match="catalytic degree 1 exceeds "
                                                 "area degree"):
                solve(10)

    def test_short_block_raises(self, monkeypatch):
        # a block one coefficient short would shrink the running total
        # without an error; both consumers of the blocks refuse it
        blocks = enumeration._w_blocks

        def short_u3(n):
            for k, w in enumerate(blocks(n)):
                yield w[:-1] if k == 3 else w

        monkeypatch.setattr(enumeration, "_w_blocks", short_u3)
        for solve in (w_series, lambda n: pa3_series(n, "functional")):
            with pytest.raises(ValueError, match="each u-block must have "
                                                 r"order\+1 coefficients"):
                solve(10)


# integers of mixed sign and width: small ones, where a wrong sign or lag
# shows in the low digits, and ones hundreds of bits wide
_MIXED = st.one_of(st.integers(-3, 3), st.integers(-2 ** 300, 2 ** 300))


def _lag_and_values(draw, extra: int = 0):
    """(lag, size, c): lag 1..8, size 0..lag+3, c of size..size+extra
    values."""
    lag = draw(st.integers(1, 8))
    size = draw(st.integers(0, lag + 3))
    c = draw(st.lists(_MIXED, min_size=size, max_size=size + extra))
    return lag, size, c


def _snapshot(reader):
    """``reader`` over a copy of what a list, or an iterator over one, holds
    now: a tail reader that never sees what is appended behind it, so it
    runs dry at the seed's end."""
    list_iterator = type(iter([]))

    def snapshot(it, *args):
        return reader(list(it) if isinstance(it, (list, list_iterator))
                      else it, *args)

    return snapshot


class TestSelfFeedingRecurrences:
    """Each running sum that appends to a list while an iterator reads the
    list's own tail, against a plain indexed loop."""

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_div_double(self, data):
        # the theorem route's 1/(1-2q): f_i = 2 f_{i-1} + c_i from f's last
        seed = data.draw(st.lists(st.one_of(st.just(0), _MIXED), min_size=1,
                                  max_size=3))
        _, size, c = _lag_and_values(data.draw)
        expected = list(seed)
        for i in range(size):
            expected.append(2 * expected[-1] + c[i])
        assert enumeration._div_double(list(seed), iter(c), size) == expected

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_lag_ratio(self, data):
        # (1-q) times c/(1-q-q^lag), f_d = c_d + f_{d-1} + f_{d-lag}, the
        # values of c past size unread
        lag, size, c = _lag_and_values(data.draw, extra=2)
        f = []
        for d in range(size):
            f.append(c[d] + (f[d - 1] if d >= 1 else 0)
                     + (f[d - lag] if d >= lag else 0))
        expected = [f[d] - (f[d - 1] if d >= 1 else 0) for d in range(size)]
        assert enumeration._lag_ratio(iter(c), size, lag) == expected

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_w_divide(self, data):
        # the functional route's f_n = 2 f_{n-1} + c_n - f_{n-lag}
        lag, size, c = _lag_and_values(data.draw)
        f = []
        for d in range(size):
            f.append(2 * (f[d - 1] if d >= 1 else 0) + c[d]
                     - (f[d - lag] if d >= lag else 0))
        assert enumeration._w_divide(iter(c), size, lag) == f

    @pytest.mark.parametrize("call", [
        lambda: enumeration._div_double([1], [1, 2], 3),
        lambda: enumeration._div_double([1], [1, 2, 3, 4], 3),
        lambda: enumeration._lag_ratio([1, 2], 5, 2),
        lambda: enumeration._w_divide([1, 2], 3, 2),
        lambda: enumeration._w_divide([1, 2, 3, 4], 3, 2),
    ], ids=["div_double-short", "div_double-long", "lag_ratio-short",
            "w_divide-short", "w_divide-long"])
    def test_input_of_the_wrong_length_raises(self, call):
        with pytest.raises(AssertionError, match="coefficients"):
            call()

    @pytest.mark.parametrize("reader, call", [
        ("islice", lambda: enumeration._div_double([1, 2], [1, 2, 3], 3)),
        ("accumulate",
         lambda: enumeration._lag_ratio([1, 2, 3, 4, 5], 5, 2)),
        ("islice", lambda: enumeration._w_divide([1, 2, 3], 3, 2)),
    ], ids=["div_double", "lag_ratio", "w_divide"])
    def test_dry_tail_reader_raises(self, reader, call, monkeypatch):
        # a tail reader (the helper's islice over f, or its running sum over
        # f) that stops at the seed ends the map early; the length check
        # turns the short list into an AssertionError
        monkeypatch.setattr(enumeration, reader,
                            _snapshot(getattr(itertools, reader)))
        with pytest.raises(AssertionError, match="coefficients"):
            call()


class TestPa3:
    def test_published_series(self):
        assert pa3_series(10, "theorem").counts == PA3_FIRST_TEN
        assert pa3_series(10, "functional").counts == PA3_FIRST_TEN

    def test_dual_route_agreement(self):
        n = 60
        assert pa3_series(n, "theorem").counts == \
            pa3_series(n, "functional").counts

    def test_dual_route_agreement_every_small_order(self):
        # the theorem kernel's edge cases: no Horner step (the closed form
        # covers H'_1 up to n = 10), and every residue of the order mod 4,
        # many times over, on both sides of the first step m0, the first m
        # with 4m+6 >= n
        for n in range(1, 161):
            assert pa3_series(n, "theorem").counts == \
                pa3_series(n, "functional").counts

    def test_congruence_heads_match_plain_horner(self):
        # the partial sums H'_m = (-1)^m + q^2 N_m/((1-2q) D_m) H'_{m+1},
        # N_m = (1-q) - q^m (1-q+q^2), D_m = 1-q-q^{m+2}, summed in full
        # with indexed loops from the innermost m, each held to degree
        # n-3-2m; their first min(2m+4, n-2-2m) coefficients are the
        # kernel's closed form
        n = 300
        head = enumeration._horner_heads(n)
        h = []                                  # H'_{m+1}, degrees 0..n-5-2m
        for m in range((n - 3) // 2, 0, -1):
            size = n - 2 - 2 * m

            def at(d):
                return h[d] if 0 <= d < len(h) else 0

            quot = []                           # N_m H'_{m+1} / D_m
            for d in range(size - 2):
                quot.append(at(d) - at(d - 1) - at(d - m) + at(d - m - 1)
                            - at(d - m - 2)
                            + (quot[d - 1] if d >= 1 else 0)
                            + (quot[d - m - 2] if d >= m + 2 else 0))
            g = []                              # quot/(1-2q)
            for d in range(size - 2):
                g.append(2 * (g[d - 1] if d >= 1 else 0) + quot[d])
            h = ([(-1) ** m, 0] + g)[:size]     # (-1)^m + q^2 g
            top = min(2 * m + 4, size)
            assert h[:top] == head(m, top), m

    def test_short_closed_form_raises(self, monkeypatch):
        # an expansion of R = (1-2q)/((1-q)^2 (1-2q+q^3)) that stops after
        # five coefficients leaves the first partial sum short; the head's
        # length check turns that into an AssertionError, not wrong counts
        expand = enumeration._intpoly.expand_rational

        def short_r(numer, denom, order):
            s = expand(numer, denom, order)
            return s[:5] if list(numer) == [1, -2] else s

        monkeypatch.setattr(enumeration._intpoly, "expand_rational", short_r)
        with pytest.raises(AssertionError,
                           match=r"H'_49 has 56 of 100 coefficients"):
            pa3_series(200)

    def test_memory_guard_before_any_work(self, monkeypatch):
        # an order far past the first refused one, yet within a float's
        # range, is refused by the same guard
        assert_refused(LIMITS["pa3-theorem"], 200000, monkeypatch)

    def test_kernel_frees_each_step(self):
        # the kernel's traced peak at order 1024 is 0.433 MiB with every
        # step's lists freed when the step ends (CPython 3.11); one kept
        # past its step, as t = (1-q) H'_{m+1}/D_m bound to a name, read
        # 0.534 MiB
        tracemalloc.start()
        try:
            enumeration._pa3_theorem_coeffs(1024)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 0.46 * 2 ** 20, peak / 2 ** 20

    def test_functional_route_frees_each_block(self):
        # the functional route's traced peak at order 512 is 0.18 MiB with
        # one block kept at a time (CPython 3.11); keeping every block, as
        # w_series does, reads 10.7 MiB
        tracemalloc.start()
        try:
            pa3_series(512, "functional")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 0.4 * 2 ** 20, peak / 2 ** 20

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
        # the method is checked before the order
        with pytest.raises(ValueError, match="method must be"):
            pa3_series(0, "magic")


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
    def test_counts_digest(self, n, digest, request):
        # sha256 of the counts from the sweep solver that preceded this one;
        # order 150 is the session's shared table
        counts = (request.getfixturevalue("four_sided_counts_150") if n == 150
                  else pa4_series(n))
        text = ",".join(map(str, counts.counts))
        assert hashlib.sha256(text.encode()).hexdigest() == digest

    def test_memory_guard(self, monkeypatch):
        # an order far past both first refused ones, yet within a float's
        # range, is refused by the counts' guard and by the solution's
        for row in ("pa4", "pa4-solution"):
            assert_refused(LIMITS[row], 10000, monkeypatch)

    def test_solution_memory_guard_before_any_work(self, monkeypatch):
        # order 400 passes the counts' guard, but the solution keeps every
        # diagonal and needs more than the budget: refused before solving
        assert enumeration._pa4_mib(400) < enumeration._MAX_MIB
        monkeypatch.setattr(enumeration, "_pa4_diagonals", None)
        with pytest.raises(DomainError, match=r"order 400 needs about \d+ MiB"):
            pa4_system_solution(400)

    @pytest.mark.parametrize("n, digest", [
        (30, "5326030aeae8cc99dcdde5fb6af805b2190edd0f63e0e81794f7ec76ba006721"),
        (60, "cf334411fd44394b5f63e1136449f4bb71d78cdff90e6cc7bda2475403d94516"),
    ])
    def test_solution_blocks_digest(self, n, digest):
        # sha256 of every (i, j) block of X, Y and Z, recorded from the
        # route that built a dict of rows before the Series3 constructor
        text = repr([sorted(s.blocks().items())
                     for s in pa4_system_solution(n)])
        assert hashlib.sha256(text.encode()).hexdigest() == digest

    def test_term_past_the_cap_raises(self, monkeypatch):
        # Z of diagonal 4 given a term at q^3, past Z's cap i + j <= m: the
        # check on every solved diagonal refuses it, for both entry points
        step = enumeration._pa4_step

        def past_cap(s, *kept):
            x, y, z = step(s, *kept)
            if s == 4:
                z[0][0] = 1                 # Z_13 held q^3 .. q^6
            return x, y, z

        monkeypatch.setattr(enumeration, "_pa4_step", past_cap)
        for solve in (pa4_series, pa4_system_solution):
            with pytest.raises(AssertionError, match="a term of diagonal 4 "
                                                     "fell outside the support"):
                solve(6)

    def test_degree_short_raises(self, monkeypatch):
        # solved one order short, every q-row is one coefficient short
        diagonals = enumeration._pa4_diagonals
        monkeypatch.setattr(enumeration, "_pa4_diagonals",
                            lambda n: diagonals(n - 1))
        with pytest.raises(ValueError, match=r"each \(u,v\)-block must have "
                                             r"order\+1 coefficients"):
            pa4_system_solution(6)

    def test_solver_keeps_three_diagonals(self):
        # the counts' traced peak at order 60 is 0.41 MiB with A of two
        # diagonals and B and Z of one kept (CPython 3.11); the degree
        # sweep that kept every prefix row read 3.0 MiB
        tracemalloc.start()
        try:
            pa4_series(60)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 0.6 * 2 ** 20, peak / 2 ** 20

    @pytest.mark.parametrize("tight", [(0, 1), (1,), (2,)],
                             ids=["X-Y", "Y", "Z"])
    def test_support_one_short_raises(self, tight, monkeypatch):
        # row i = 2 of X and Y, of Y alone or of Z, one coefficient short
        # from diagonal 5 on, drops a term, which the check on every solved
        # diagonal reports instead of dropping it
        step = enumeration._pa4_step

        def short(s, *kept):
            xyz = step(s, *kept)
            if s >= 5:
                for k in tight:
                    xyz[k][1].pop()
            return xyz

        monkeypatch.setattr(enumeration, "_pa4_step", short)
        for solve in (pa4_series, pa4_system_solution):
            with pytest.raises(AssertionError,
                               match="outside the support") as info:
                solve(12)
            assert info.traceback[-1].name == "_pa4_diagonals"

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
        with pytest.raises(ValueError, match="sidedness k must be 2, 3 or 4"):
            CountTable(5, (8,), "functional")

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
