"""Ring axioms, rational expansion, substitutions and the float mirror."""

from __future__ import annotations

import math
import operator

import pytest
from hypothesis import given, settings, strategies as st

from prudentpoly.enumeration import CountTable
from prudentpoly.series import (
    FloatSeries1,
    Series1,
    Series2,
    Series3,
    expand_rational,
)


def s1(*coeffs) -> Series1:
    return Series1(tuple(coeffs))


small_series1 = st.lists(st.integers(-9, 9), min_size=3, max_size=13).map(
    lambda cs: Series1(tuple(cs)))


def _random_series2(seed: int, order: int = 7, min_u: int = 0) -> Series2:
    rng = __import__("random").Random(seed)
    blocks = []
    for i in range(order + 1):
        if i < min_u:
            blocks.append([0] * (order + 1))
        else:
            blocks.append([0] * i + [rng.randint(-9, 9)
                                     for _ in range(order + 1 - i)])
    return Series2(order, blocks)


def _random_series3(seed: int, order: int = 5) -> Series3:
    rng = __import__("random").Random(seed)
    blocks = {}
    for i in range(order + 1):
        for j in range(order + 1):
            row = [0] * (order + 1)
            for n in range(max(i, j), order + 1):
                row[n] = rng.randint(-4, 4)
            blocks[(i, j)] = row
    return Series3(order, blocks)


class TestSeries1:
    def test_difference_of_squares(self):
        a = s1(1, 1, 0)
        b = s1(1, -1, 0)
        assert (a * b).coeffs == (1, 0, -1)

    def test_annihilator(self):
        a = s1(3, -2, 7, 1)
        assert (a * Series1.zero(3)).coeffs == (0, 0, 0, 0)

    def test_geometric_square(self):
        # (q/(1-2q))^2 = q^2/(1-2q)^2 has coefficients (n-1) 2^(n-2)
        g = expand_rational((0, 1), (1, -2), 5)
        assert (g * g).coeffs == (0, 0, 1, 4, 12, 32)

    def test_truncation_to_smaller_order(self):
        a = s1(1, 2, 3, 4)
        b = s1(1, 1)
        assert (a + b).order == 1
        assert (a * b).order == 1

    def test_arity_mismatch(self):
        with pytest.raises(TypeError):
            s1(1, 2) + _random_series2(1)  # type: ignore[operator]

    @given(small_series1, small_series1, small_series1)
    @settings(max_examples=60, deadline=None)
    def test_ring_axioms(self, a, b, c):
        n = min(a.order, b.order, c.order)
        a, b, c = a.truncate(n), b.truncate(n), c.truncate(n)
        assert (a * b).coeffs == (b * a).coeffs
        assert ((a * b) * c).coeffs == (a * (b * c)).coeffs
        assert (a * (b + c)).coeffs == (a * b + a * c).coeffs
        assert (a + b).coeffs == (b + a).coeffs


coeff_lists = st.lists(st.integers(-20, 20), min_size=1, max_size=10)


def _naive_mul(a, b, n_out):
    """Coefficients 0..n_out of the product of two coefficient lists."""
    out = [0] * (n_out + 1)
    for i, ca in enumerate(a[:n_out + 1]):
        for j, cb in enumerate(b[:n_out + 1 - i]):
            out[i + j] += ca * cb
    return out


class TestSeries1References:
    """Every Series1 operation against plain tuple arithmetic."""

    @given(coeff_lists, coeff_lists)
    @settings(max_examples=60, deadline=None)
    def test_binary_operations(self, xs, ys):
        a, b = Series1(xs), Series1(ys)
        n = min(len(xs), len(ys))
        assert (a + b).coeffs == tuple(map(operator.add, xs[:n], ys[:n]))
        assert (a - b).coeffs == tuple(map(operator.sub, xs[:n], ys[:n]))
        assert list((a * b).coeffs) == _naive_mul(xs, ys, n - 1)
        assert {(a + b).order, (a - b).order, (a * b).order} == {n - 1}

    @given(coeff_lists, st.integers(0, 12), st.integers(-5, 5))
    @settings(max_examples=60, deadline=None)
    def test_unary_operations(self, xs, order, k):
        a = Series1(xs)
        assert a.order == len(xs) - 1 and a.coeffs == tuple(xs)
        assert (-a).coeffs == tuple(-c for c in xs)
        assert a.truncate(order).coeffs == tuple(xs[:order + 1])
        assert a.scale(k).coeffs == tuple(k * c for c in xs)

    @given(coeff_lists, coeff_lists)
    @settings(max_examples=60, deadline=None)
    def test_zero_equality_and_hash(self, xs, ys):
        a, b = Series1(xs), Series1(ys)
        assert (a == b) == (xs == ys)
        assert Series1(tuple(xs)) == a and hash(Series1(tuple(xs))) == hash(a)
        zero = Series1.zero(len(xs) - 1)
        assert zero.coeffs == (0,) * len(xs)
        assert (zero == a) == (not any(xs))
        assert a + zero == a and a * zero == zero and a - a == zero

    def test_rejects_empty_and_mixed_operands(self):
        with pytest.raises(ValueError, match="constant coefficient"):
            Series1(())
        for call, match in (
                (lambda: Series1.zero(-1), "order must be >= 0"),
                (lambda: s1(1, 2).truncate(-1), "order must be >= 0"),
                (lambda: Series2(2, [[0, 1]]), r"order\+1 coefficients"),
                (lambda: _random_series2(2).subst_scale(0),
                 "substitution exponent must be >= 1"),
                (lambda: Series3(2, {}).subst_scale("w"), "which must be")):
            with pytest.raises(ValueError, match=match):
                call()
        a, b = s1(1, 2, 3), _random_series2(1)
        for op in (operator.add, operator.sub, operator.mul):
            with pytest.raises(TypeError):
                op(a, b)
            with pytest.raises(TypeError):
                op(b, a)
        with pytest.raises(TypeError):
            b.mul_series1(_random_series2(2))


class TestMulSeries1:
    """Series2 and Series3 times a univariate series, coefficient by
    coefficient."""

    @given(st.integers(0, 2 ** 30), coeff_lists)
    @settings(max_examples=20, deadline=None)
    def test_series2(self, seed, xs):
        s, f = _random_series2(seed), Series1(xs)
        n = min(s.order, f.order)
        blocks = [[sum(s.coeff(k, i) * f.coeffs[m - k] for k in range(m + 1))
                   for m in range(n + 1)] for i in range(n + 1)]
        assert s.mul_series1(f) == Series2(n, blocks)

    @given(st.integers(0, 2 ** 30), coeff_lists)
    @settings(max_examples=20, deadline=None)
    def test_series3(self, seed, xs):
        s, f = _random_series3(seed), Series1(xs)
        n = min(s.order, f.order)
        blocks = {key: [sum(row[k] * f.coeffs[m - k] for k in range(m + 1))
                        for m in range(n + 1)]
                  for key, row in s.blocks().items()}
        assert s.mul_series1(f) == Series3(n, blocks)


class TestExpandRational:
    def test_bargraph_counts(self):
        assert expand_rational((0, 1), (1, -2), 4).coeffs == (0, 1, 2, 4, 8)

    def test_identity(self):
        assert expand_rational((1,), (1,), 3).coeffs == (1, 0, 0, 0)

    def test_squared_rational(self):
        got = expand_rational((1, -2, 1), (1, -4, 4), 4)
        assert got.coeffs == (1, 2, 5, 12, 28)

    def test_non_unit_constant_rejected(self):
        with pytest.raises(ValueError):
            expand_rational((1,), (2, 1), 3)

    @given(st.lists(st.integers(-6, 6), min_size=1, max_size=5),
           st.lists(st.integers(-6, 6), min_size=0, max_size=4),
           st.sampled_from([1, -1]))
    @settings(max_examples=60, deadline=None)
    def test_division_inverts_multiplication(self, num, dtail, d0):
        den = [d0] + dtail
        n = 10
        s = expand_rational(num, den, n)
        num_padded = (num + [0] * (n + 1))[:n + 1]
        assert (s * Series1(tuple((den + [0] * (n + 1))[:n + 1]))).coeffs == \
            tuple(num_padded)


class TestSeries2:
    def test_subst_monomial(self):
        # qu -> q^2 u under u -> qu
        m = Series2(3, [[0, 0, 0, 0], [0, 1, 0, 0]])
        got = m.subst_scale(1)
        assert got.coeff(2, 1) == 1 and got.coeff(1, 1) == 0

    def test_subst_bargraph_closed_form(self):
        # B(q, qu) = q^2 u/(1-q-q^2 u): coefficient of q^n u^i is
        # b_{n-i,i} = binom(n-i-1, i-1)
        from prudentpoly.enumeration import bargraph_series
        n = 9
        b = bargraph_series(n)
        shifted = b.subst_scale(1)
        for nn in range(n + 1):
            for i in range(nn + 1):
                expect = math.comb(nn - i - 1, i - 1) if i >= 1 and nn - i >= i else 0
                assert shifted.coeff(nn, i) == expect

    def test_subst_overflow_to_zero(self):
        s = _random_series2(7, min_u=1)
        n = s.order
        for _ in range(n + 1):
            s = s.subst_scale(1)
        assert s == Series2.zero(n)

    def test_eval_at_one_sums_rows(self):
        from prudentpoly.enumeration import bargraph_series
        b = bargraph_series(4)
        assert b.eval_catalytic().coeffs == (0, 1, 2, 4, 8)
        assert Series2.zero(4).eval_catalytic().coeffs == (0,) * 5

    @given(st.integers(0, 2 ** 30), st.integers(0, 2 ** 30))
    @settings(max_examples=25, deadline=None)
    def test_ring_axioms(self, sa, sb):
        a = _random_series2(sa)
        b = _random_series2(sb)
        assert a * b == b * a
        assert a + b == b + a
        assert (a + b) * a == a * a + b * a

    def test_triangular_cap_enforced(self):
        with pytest.raises(ValueError):
            Series2(2, [[0, 0, 0], [1, 0, 0]])  # u^1 at q^0

    @given(st.integers(0, 2 ** 30), st.integers(1, 3))
    @settings(max_examples=20, deadline=None)
    def test_subst_scale_matches_reference(self, seed, t):
        s = _random_series2(seed)
        assert s.subst_scale(t) == _naive_move2(s, lambda n, i: (n + t * i, i))

    @given(st.integers(0, 2 ** 30), st.integers(0, 3), st.data())
    @settings(max_examples=20, deadline=None)
    def test_mul_monomial_matches_reference(self, seed, dq, data):
        # du <= dq keeps the cap; shifts past the order are dropped
        du = data.draw(st.integers(0, dq))
        s = _random_series2(seed)
        ref = _naive_move2(s, lambda n, i: (n + dq, i + du))
        assert s.mul_monomial(dq=dq, du=du) == ref

    def test_mul_monomial_checks_the_cap(self):
        # q^2 u^0 times u^2 fits the cap, q u times u^2 does not
        ok = Series2(4, [[0, 0, 1, 0, 0]]).mul_monomial(du=2)
        assert ok.coeff(2, 2) == 1
        with pytest.raises(ValueError, match="exceeds area degree"):
            Series2(4, [[0] * 5, [0, 1, 0, 0, 0]]).mul_monomial(du=2)

    @given(st.integers(0, 2 ** 30), st.integers(0, 2 ** 30))
    @settings(max_examples=15, deadline=None)
    def test_difference_matches_reference(self, sa, sb):
        a = _random_series2(sa, order=7)
        b = _random_series2(sb, order=6)
        diff = a - b
        assert diff == a + (-b)
        assert diff.order == 6
        for i in range(8):
            for n in range(7):
                assert diff.coeff(n, i) == a.coeff(n, i) - b.coeff(n, i)
        assert a - a == Series2.zero(7)


class TestSeries3:
    def test_swap_is_involution(self):
        s = _random_series3(11)
        assert s.swap_catalytics().swap_catalytics() == s

    def test_swap_monomial(self):
        m = Series3.monomial(4, 1, dq=2, du=1, dv=2)
        got = m.swap_catalytics()
        assert got.coeff(2, 2, 1) == 1 and got.coeff(2, 1, 2) == 0

    def test_swap_linear(self):
        a = _random_series3(3)
        b = _random_series3(4)
        assert (a + b).swap_catalytics() == a.swap_catalytics() + b.swap_catalytics()

    def test_subst_scale_both_variables(self):
        m = Series3.monomial(6, 3, dq=2, du=1, dv=2)
        assert m.subst_scale("u", 2).coeff(4, 1, 2) == 3
        assert m.subst_scale("v", 1).coeff(4, 1, 2) == 3

    @given(st.integers(0, 2 ** 30), st.sampled_from(["u", "v"]),
           st.sampled_from([1, 2]))
    @settings(max_examples=20, deadline=None)
    def test_subst_scale_matches_reference(self, seed, which, t):
        s = _random_series3(seed)
        if which == "u":
            ref = _naive_move3(s, lambda n, i, j: (n + t * i, i, j))
        else:
            ref = _naive_move3(s, lambda n, i, j: (n + t * j, i, j))
        assert s.subst_scale(which, t) == ref

    @given(st.integers(0, 2 ** 30), st.integers(0, 3), st.data())
    @settings(max_examples=20, deadline=None)
    def test_mul_monomial_matches_reference(self, seed, dq, data):
        # du, dv <= dq keep the cap; shifts past the order are dropped
        du = data.draw(st.integers(0, dq))
        dv = data.draw(st.integers(0, dq))
        s = _random_series3(seed)
        ref = _naive_move3(s, lambda n, i, j: (n + dq, i + du, j + dv))
        assert s.mul_monomial(dq=dq, du=du, dv=dv) == ref

    def test_mul_monomial_checks_the_cap(self):
        # q^2 v^2 fits the cap, q u v^2 does not
        ok = Series3.monomial(4, 1, dq=2, du=0, dv=0).mul_monomial(dv=2)
        assert ok.coeff(2, 0, 2) == 1
        with pytest.raises(ValueError, match="exceeds area degree"):
            Series3.monomial(4, 1, dq=1, du=1, dv=0).mul_monomial(dv=2)

    @given(st.integers(0, 2 ** 30), st.integers(0, 2 ** 30))
    @settings(max_examples=15, deadline=None)
    def test_difference_matches_reference(self, sa, sb):
        a = _random_series3(sa, order=5)
        b = _random_series3(sb, order=4)
        diff = a - b
        assert diff == a + (-b)
        assert diff.order == 4
        for (i, j) in a.blocks().keys() | b.blocks().keys():
            for n in range(5):
                assert diff.coeff(n, i, j) == a.coeff(n, i, j) - b.coeff(n, i, j)
        assert a - a == Series3.zero(5)


class TestFloatSeries1:
    def test_roundtrip_from_exact(self):
        from prudentpoly.enumeration import pa3_series
        exact = Series1((0,) + pa3_series(60).counts)
        f = FloatSeries1.from_series1(exact, precision=40)
        assert f.max_rel_error_vs_exact(exact) < 1e-35


class TestIntpolyKernels:
    @given(st.integers(0, 2 ** 30), st.integers(1, 120), st.integers(1, 120),
           st.integers(1, 130))
    @settings(max_examples=40, deadline=None)
    def test_mul_matches_naive(self, seed, la, lb, bits):
        # long operands with wide coefficients and random truncation points
        from prudentpoly import _intpoly
        rng = __import__("random").Random(seed)
        a = [rng.randint(-(1 << bits), 1 << bits) for _ in range(la)]
        b = [rng.randint(-(1 << bits), 1 << bits) for _ in range(lb)]
        n_out = rng.randint(0, la + lb)
        assert _intpoly.mul(a, b, n_out) == _naive_mul(a, b, n_out)

    def test_schoolbook_mul_wide_alternating_signs(self):
        from prudentpoly import _intpoly
        # alternating-sign near-maximal coefficients stress signed accumulation
        a = [(-1) ** i * ((1 << 64) - 1) for i in range(80)]
        b = [(-1) ** (i // 3) * ((1 << 64) - i) for i in range(80)]
        assert _intpoly.mul(a, b, 150) == _naive_mul(a, b, 150)


def _naive_mul2(a: Series2, b: Series2) -> Series2:
    n = min(a.order, b.order)
    blocks = [[0] * (n + 1) for _ in range(n + 1)]
    for i1 in range(a.order + 1):
        for n1 in range(a.order + 1):
            ca = a.coeff(n1, i1)
            if not ca:
                continue
            for i2 in range(b.order + 1):
                for n2 in range(b.order + 1):
                    cb = b.coeff(n2, i2)
                    if cb and n1 + n2 <= n and i1 + i2 <= n:
                        blocks[i1 + i2][n1 + n2] += ca * cb
    return Series2(n, blocks)


def _naive_move2(s: Series2, move) -> Series2:
    """Move each coefficient (n, i) to move(n, i); drop it past the order."""
    order = s.order
    out = [[0] * (order + 1) for _ in range(order + 1)]
    for i in range(order + 1):
        for n in range(order + 1):
            n2, i2 = move(n, i)
            if max(n2, i2) <= order:
                out[i2][n2] += s.coeff(n, i)
    return Series2(order, out)


def _naive_move3(s: Series3, move) -> Series3:
    """Move each coefficient (n, i, j) to move(n, i, j); drop it past the order."""
    order = s.order
    out: dict = {}
    for (i, j), row in s.blocks().items():
        for n, c in enumerate(row):
            n2, i2, j2 = move(n, i, j)
            if c and max(n2, i2, j2) <= order:
                out.setdefault((i2, j2), [0] * (order + 1))[n2] += c
    return Series3(order, out)


class TestMultiplicationReferences:
    @given(st.integers(0, 2 ** 30), st.integers(0, 2 ** 30))
    @settings(max_examples=15, deadline=None)
    def test_series2_product_matches_reference(self, sa, sb):
        a = _random_series2(sa)
        b = _random_series2(sb)
        assert a * b == _naive_mul2(a, b)


# every exact constructor, holding one coefficient c, and how to read c back
_EXACT = {
    "Series1": lambda c: Series1((0, c)).coeffs[1],
    "Series2": lambda c: Series2(1, [[0, 0], [0, c]]).coeff(1, 1),
    "Series3": lambda c: Series3(1, {(1, 1): [0, c]}).coeff(1, 1, 1),
    "CountTable": lambda c: CountTable(2, (c,), "closed-form").counts[0],
    "expand_rational-numer":
        lambda c: expand_rational((0, c), (1,), 1).coeffs[1],
    # q/(1 - cq) = q + c q^2 + ...
    "expand_rational-denom":
        lambda c: expand_rational((0, 1), (1, -c), 2).coeffs[2],
    "FloatSeries1": lambda c: FloatSeries1((0, c), 0, 40).mantissas[1],
}


class TestOneIntegerRule:
    @pytest.mark.parametrize("make", _EXACT.values(), ids=_EXACT.keys())
    @pytest.mark.parametrize("value", [1.9, 2.0])
    def test_float_coefficient_raises(self, make, value):
        # int() would truncate 1.9 to 1 without a word
        with pytest.raises(TypeError):
            make(value)

    @pytest.mark.parametrize("make", _EXACT.values(), ids=_EXACT.keys())
    def test_bool_accepted(self, make):
        got = make(True)
        assert got == 1 and type(got) is int

    @pytest.mark.parametrize("make", _EXACT.values(), ids=_EXACT.keys())
    def test_numpy_integer_accepted(self, make):
        numpy = pytest.importorskip("numpy")    # not a dependency
        got = make(numpy.int64(3))
        assert got == 3 and type(got) is int
