"""Truncated power series in the area variable q, exact over Z.

Three exact shapes, plus a fixed-precision scaled view:

* ``Series1``      -- univariate in q, coefficients 0..N.
* ``Series2``      -- one catalytic variable u; coefficient of q^n u^i kept
                      only for i <= n (a polygon of area n has width <= n).
* ``Series3``      -- two catalytic variables u, v with the same cap; it
                      holds the 4-sided solution (X, Y, Z).
* ``FloatSeries1`` -- univariate in the scaled variable x = 2q with
                      fixed-point high-precision coefficients, converted from
                      an exact series (coefficient n is c_n 2^-n).

All values are immutable after construction; every operation returns a new
series truncated to the smaller operand order.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from mpmath import mp, mpf

from . import _intpoly


def _as_int_tuple(coeffs) -> tuple[int, ...]:
    return tuple(int(c) for c in coeffs)


@dataclass(frozen=True)
class Series1:
    """sum_{n=0}^{order} coeffs[n] q^n, coefficients in Z."""

    coeffs: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "coeffs", _as_int_tuple(self.coeffs))
        if not self.coeffs:
            raise ValueError("Series1 needs at least the constant coefficient")

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    @staticmethod
    def zero(order: int) -> "Series1":
        return Series1((0,) * (order + 1))

    @staticmethod
    def one(order: int) -> "Series1":
        return Series1((1,) + (0,) * order)

    def coeff(self, n: int) -> int:
        return self.coeffs[n]

    def valuation(self) -> int:
        """Index of the first nonzero coefficient; order+1 for the zero series."""
        v = _intpoly.valuation(list(self.coeffs))
        return self.order + 1 if v is None else v

    def truncate(self, order: int) -> "Series1":
        if order >= self.order:
            return self
        return Series1(self.coeffs[:order + 1])

    def __neg__(self) -> "Series1":
        return Series1(tuple(-c for c in self.coeffs))

    def __add__(self, other: "Series1") -> "Series1":
        _check_arity(self, other, Series1)
        n = min(self.order, other.order)
        return Series1(tuple(self.coeffs[i] + other.coeffs[i] for i in range(n + 1)))

    def __sub__(self, other: "Series1") -> "Series1":
        return self + (-other)

    def __mul__(self, other: "Series1") -> "Series1":
        _check_arity(self, other, Series1)
        n = min(self.order, other.order)
        return Series1(_intpoly.mul(list(self.coeffs), list(other.coeffs), n))

    def scale(self, k: int) -> "Series1":
        return Series1(tuple(k * c for c in self.coeffs))


def _check_arity(a, b, cls) -> None:
    if not isinstance(b, cls) or not isinstance(a, cls):
        raise TypeError(
            f"operands must both be {cls.__name__}; "
            f"got {type(a).__name__} and {type(b).__name__}"
        )


def expand_rational(numer, denom, order: int) -> Series1:
    """Series of numer(q)/denom(q) to the given order.

    Polynomials are coefficient sequences; denom must have constant term +-1
    so the expansion stays in Z.
    """
    return Series1(_intpoly.expand_rational(
        [int(c) for c in numer], [int(c) for c in denom], order))


class Series2:
    """Bivariate series sum c[n][i] q^n u^i with 0 <= i <= n <= order.

    Stored as one dense q-coefficient row per u-degree.  The triangular cap
    i <= n is the combinatorial width bound; constructing a series that
    violates it is an error.
    """

    __slots__ = ("_order", "_blocks")

    def __init__(self, order: int, blocks):
        self._order = order
        rows = []
        for i, row in enumerate(blocks):
            if i > order:
                break
            row = _as_int_tuple(row)
            if len(row) != order + 1:
                raise ValueError("each u-block must have order+1 coefficients")
            if any(row[:min(i, order + 1)]):
                raise ValueError(f"catalytic degree {i} exceeds area degree")
            rows.append(row)
        while rows and not any(rows[-1]):
            rows.pop()
        self._blocks = tuple(rows)

    @property
    def order(self) -> int:
        return self._order

    @staticmethod
    def zero(order: int) -> "Series2":
        return Series2(order, ())

    @staticmethod
    def from_triangle(order: int, triangle) -> "Series2":
        """Build from rows triangle[n][i], 0 <= i <= n <= order."""
        blocks = [[0] * (order + 1) for _ in range(order + 1)]
        for n, row in enumerate(triangle):
            for i, c in enumerate(row):
                if c:
                    blocks[i][n] = int(c)
        return Series2(order, blocks)

    def coeff(self, n: int, i: int) -> int:
        if i >= len(self._blocks) or n > self._order:
            return 0
        return self._blocks[i][n]

    def valuation(self) -> int:
        vals = [v for v in (_intpoly.valuation(list(b)) for b in self._blocks)
                if v is not None]
        return min(vals) if vals else self._order + 1

    def u_valuation(self) -> int:
        for i, b in enumerate(self._blocks):
            if any(b):
                return i
        return self._order + 1

    def __eq__(self, other) -> bool:
        return (isinstance(other, Series2) and self._order == other._order
                and self._blocks == other._blocks)

    def __hash__(self):
        return hash((self._order, self._blocks))

    def __neg__(self) -> "Series2":
        return Series2(self._order, [[-c for c in b] for b in self._blocks])

    def __add__(self, other: "Series2") -> "Series2":
        _check_arity(self, other, Series2)
        n = min(self._order, other._order)
        nb = max(len(self._blocks), len(other._blocks))
        blocks = []
        for i in range(nb):
            a = self._blocks[i] if i < len(self._blocks) else None
            b = other._blocks[i] if i < len(other._blocks) else None
            if a is None:
                row = list(b[:n + 1])
            elif b is None:
                row = list(a[:n + 1])
            else:
                row = [a[k] + b[k] for k in range(n + 1)]
            blocks.append(row)
        return Series2(n, blocks)

    def __sub__(self, other: "Series2") -> "Series2":
        return self + (-other)

    def __mul__(self, other: "Series2") -> "Series2":
        _check_arity(self, other, Series2)
        n = min(self._order, other._order)
        out = [[0] * (n + 1) for _ in range(n + 1)]
        for i, a in enumerate(self._blocks):
            if i > n or not any(a):
                continue
            for j, b in enumerate(other._blocks):
                k = i + j
                if k > n or not any(b):
                    continue
                prod = _intpoly.mul(list(a), list(b), n)
                row = out[k]
                for idx, c in enumerate(prod):
                    if c:
                        row[idx] += c
        return Series2(n, out)

    def mul_series1(self, s: Series1) -> "Series2":
        """Multiply every u-block by a univariate series (no u content)."""
        n = min(self._order, s.order)
        sc = list(s.coeffs)
        return Series2(n, [_intpoly.mul(list(b), sc, n) for b in self._blocks])

    def mul_monomial(self, dq: int = 0, du: int = 0) -> "Series2":
        """Multiply by q^dq u^du, dropping terms past the order."""
        n = self._order
        blocks = [[0] * (n + 1) for _ in range(du)]
        for b in self._blocks:
            row = [0] * (n + 1)
            row[dq:] = b[:n + 1 - dq]
            blocks.append(row)
        return Series2(n, blocks)

    def subst_scale(self, t: int) -> "Series2":
        """Substitute u -> q^t u: coefficient (n, i) moves to (n + t*i, i)."""
        if t < 1:
            raise ValueError("substitution exponent must be >= 1")
        n = self._order
        blocks = []
        for i, b in enumerate(self._blocks):
            row = [0] * (n + 1)
            shift = t * i
            if shift <= n:
                row[shift:] = b[:n + 1 - shift]
            blocks.append(row)
        return Series2(n, blocks)

    def eval_catalytic(self, value: int = 1) -> Series1:
        """Evaluate u at 1 (row sums); only 1 is supported."""
        if value != 1:
            raise ValueError("catalytic evaluation is supported at 1 only")
        out = [0] * (self._order + 1)
        for b in self._blocks:
            for idx, c in enumerate(b):
                if c:
                    out[idx] += c
        return Series1(out)


class Series3:
    """Trivariate series sum c[n][i][j] q^n u^i v^j with i, j <= n <= order.

    Stored as a mapping (i, j) -> q-row, a tuple of order+1 ints; absent
    blocks are zero and no stored row is all zero.  Only the constructor
    converts and checks its input: the linear operations build on rows
    already checked and re-check the cap only where a shift can break it.
    """

    __slots__ = ("_order", "_blocks")

    def __init__(self, order: int, blocks: dict):
        self._order = order
        clean = {}
        for (i, j), row in blocks.items():
            if i > order or j > order:
                continue
            row = _as_int_tuple(row)
            if len(row) != order + 1:
                raise ValueError("each (u,v)-block must have order+1 coefficients")
            if any(row[:min(max(i, j), order + 1)]):
                raise ValueError(
                    f"catalytic degree ({i},{j}) exceeds area degree")
            if any(row):
                clean[(i, j)] = row
        self._blocks = clean

    @classmethod
    def _built(cls, order: int, blocks: dict) -> "Series3":
        s = object.__new__(cls)
        s._order, s._blocks = order, blocks
        return s

    @property
    def order(self) -> int:
        return self._order

    @staticmethod
    def zero(order: int) -> "Series3":
        return Series3(order, {})

    @staticmethod
    def monomial(order: int, c: int, dq: int, du: int, dv: int) -> "Series3":
        row = [0] * (order + 1)
        if dq <= order:
            row[dq] = c
        return Series3(order, {(du, dv): row})

    def coeff(self, n: int, i: int, j: int) -> int:
        row = self._blocks.get((i, j))
        return row[n] if row is not None and n <= self._order else 0

    def blocks(self) -> dict:
        return dict(self._blocks)

    def is_zero(self) -> bool:
        return not self._blocks

    def truncate(self, order: int) -> "Series3":
        if order >= self._order:
            return self
        return Series3(order, {k: r[:order + 1] for k, r in self._blocks.items()})

    def __eq__(self, other) -> bool:
        return (isinstance(other, Series3) and self._order == other._order
                and self._blocks == other._blocks)

    def __hash__(self):
        return hash((self._order, tuple(sorted(self._blocks.items()))))

    def __neg__(self) -> "Series3":
        return Series3.zero(self._order) - self

    def _combine(self, other: "Series3", op) -> "Series3":
        _check_arity(self, other, Series3)
        n = min(self._order, other._order)
        out = dict(self.truncate(n)._blocks)
        for key, row in other.truncate(n)._blocks.items():
            cur = out.pop(key, None)
            if cur is not None:
                row = tuple(map(op, cur, row))
            elif op is operator.sub:
                row = tuple(map(operator.neg, row))
            if any(row):
                out[key] = row
        return Series3._built(n, out)

    def __add__(self, other: "Series3") -> "Series3":
        return self._combine(other, operator.add)

    def __sub__(self, other: "Series3") -> "Series3":
        return self._combine(other, operator.sub)

    def mul_series1(self, s: Series1) -> "Series3":
        n = min(self._order, s.order)
        sc = list(s.coeffs)
        return Series3(n, {k: _intpoly.mul(list(r), sc, n)
                           for k, r in self._blocks.items()})

    def mul_monomial(self, dq: int = 0, du: int = 0, dv: int = 0) -> "Series3":
        """Multiply by q^dq u^du v^dv, dropping terms past the order."""
        n = self._order
        check = max(du, dv) > dq          # the only case that can break the cap
        out = {}
        for (i, j), row in self._blocks.items():
            i, j, row = i + du, j + dv, row[:max(n + 1 - dq, 0)]
            if i > n or j > n or not any(row):
                continue
            row = (0,) * dq + row
            if check and any(row[:max(i, j)]):
                raise ValueError(
                    f"catalytic degree ({i},{j}) exceeds area degree")
            out[(i, j)] = row
        return Series3._built(n, out)

    def subst_scale(self, which: str, t: int = 1) -> "Series3":
        """Substitute u -> q^t u (which='u') or v -> q^t v (which='v')."""
        if which not in ("u", "v"):
            raise ValueError("which must be 'u' or 'v'")
        if t < 1:
            raise ValueError("substitution exponent must be >= 1")
        n = self._order
        out = {}
        for (i, j), row in self._blocks.items():
            shift = t * (i if which == "u" else j)
            row = row[:max(n + 1 - shift, 0)]
            if any(row):
                out[(i, j)] = (0,) * shift + row
        return Series3._built(n, out)

    def swap_catalytics(self) -> "Series3":
        return Series3._built(self._order, {(j, i): row for (i, j), row
                                            in self._blocks.items()})

    def eval_catalytic(self, u_value: int = 1, v_value: int = 1) -> Series1:
        if u_value != 1 or v_value != 1:
            raise ValueError("catalytic evaluation is supported at 1 only")
        return Series1([sum(col) for col in zip(*self._blocks.values())]
                       or [0] * (self._order + 1))


class FloatSeries1:
    """Univariate series in x = 2q with fixed-point high-precision coefficients.

    Coefficient n approximates (exact coefficient of q^n) * 2^-n.  Mantissas
    are integers scaled by 2^scale_bits; ``precision`` is the number of
    significant decimal digits the conversion from an exact series keeps.
    """

    __slots__ = ("mantissas", "scale_bits", "precision")

    def __init__(self, mantissas, scale_bits: int, precision: int):
        self.mantissas = _as_int_tuple(mantissas)
        self.scale_bits = int(scale_bits)
        self.precision = int(precision)

    @property
    def order(self) -> int:
        return len(self.mantissas) - 1

    @staticmethod
    def scale_bits_for(precision: int) -> int:
        return int(precision * 3.322) + 48

    @classmethod
    def from_series1(cls, s: Series1, precision: int = 40) -> "FloatSeries1":
        """Exact series in q -> float series in x = 2q (coefficient n / 2^n)."""
        bits = cls.scale_bits_for(precision)
        mant = []
        for n, c in enumerate(s.coeffs):
            mant.append(c << (bits - n) if n <= bits else c >> (n - bits))
        return cls(mant, bits, precision)

    def coeff(self, n: int) -> mpf:
        with mp.workdps(self.precision + 5):
            return mpf(self.mantissas[n]) / mpf(2) ** self.scale_bits

    def max_rel_error_vs_exact(self, exact: Series1) -> mpf:
        """max_n |float coeff n - exact_n 2^-n| / |exact_n 2^-n| over nonzero terms."""
        n = min(self.order, exact.order)
        worst = mpf(0)
        one = 1 << self.scale_bits
        for k in range(n + 1):
            e = exact.coeffs[k]
            if e == 0:
                continue
            diff = abs((self.mantissas[k] << k) - e * one)
            with mp.workdps(self.precision + 10):
                rel = mpf(diff) / (abs(e) * mpf(one))
            if rel > worst:
                worst = rel
        return worst
