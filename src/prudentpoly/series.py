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

The three exact shapes are one implementation: a private base stores their
q-rows by catalytic-degree tuple, () for ``Series1``, (i,) or (i, j), and
holds every operation they share.  Only the constructor converts and checks
its input: one integer rule, ``operator.index``, converts every exact value
(a float raises TypeError, not a truncation) and one check, ``_check_row``,
holds each row to order+1 coefficients and the cap.  Values are immutable;
every operation returns a new series truncated to the smaller operand order.
"""
from __future__ import annotations

import operator
from mpmath import mp, mpf

from . import _intpoly


def _check_arity(a, b, cls) -> None:
    if not isinstance(b, cls) or not isinstance(a, cls):
        raise TypeError(
            f"operands must both be {cls.__name__}; "
            f"got {type(a).__name__} and {type(b).__name__}"
        )


def _check_row(block: str, key, row, order: int) -> None:
    """Refuse a row not order+1 long or nonzero below max(key), the cap."""
    if len(row) != order + 1:
        raise ValueError(f"each {block}-block must have order+1 coefficients")
    if any(row[:max(key, default=0)]):
        text = ",".join(map(str, key))
        text = text if len(key) == 1 else f"({text})"
        raise ValueError(f"catalytic degree {text} exceeds area degree")


class _Catalytic:
    """Series in q and zero, one or two catalytic variables, degrees <= order.

    Stored as a mapping from catalytic-degree tuples, (), (i,) or (i, j), to
    q-rows, tuples of order+1 ints; absent blocks are zero and no stored row
    is all zero.  The cap max(i, j) <= n is the combinatorial width (and
    height) bound.  Only the constructor converts and checks its input: the
    operations build on rows already checked, through ``_built``, and
    re-check the cap only where a shift can break it.
    """

    __slots__ = ("_order", "_blocks")
    _BLOCK = ""                 # the catalytic variables, for error messages

    def __init__(self, order: int, items):
        """Check (degree tuple, row) pairs; keys past the order are dropped."""
        self._order = order
        clean = {}
        for key, row in items:
            if max(key, default=0) > order:
                continue
            row = tuple(map(operator.index, row))
            _check_row(self._BLOCK, key, row, order)
            if any(row):
                clean[key] = row
        self._blocks = clean

    @classmethod
    def _built(cls, order: int, items):
        """A series of checked (degree tuple, row) pairs; zero rows dropped."""
        if order < 0:
            raise ValueError("order must be >= 0")
        s = object.__new__(cls)
        s._order, s._blocks = order, {k: r for k, r in items if any(r)}
        return s

    @property
    def order(self) -> int:
        return self._order

    @classmethod
    def zero(cls, order: int):
        return cls._built(order, ())

    def truncate(self, order: int):
        if order >= self._order:
            return self
        # a block past the new order is zero up to it, by the cap
        return self._built(order, ((k, r[:order + 1])
                                   for k, r in self._blocks.items()))

    def __eq__(self, other) -> bool:
        return (type(other) is type(self) and self._order == other._order
                and self._blocks == other._blocks)

    def __hash__(self):
        return hash((self._order, frozenset(self._blocks.items())))

    def __neg__(self):
        return self.zero(self._order) - self

    def _combine(self, other, op):
        _check_arity(self, other, type(self))
        n = min(self._order, other._order)
        out, zero = dict(self.truncate(n)._blocks), (0,) * (n + 1)
        for key, row in other.truncate(n)._blocks.items():
            out[key] = tuple(map(op, out.get(key, zero), row))
        return self._built(n, out.items())

    def __add__(self, other):
        return self._combine(other, operator.add)

    def __sub__(self, other):
        return self._combine(other, operator.sub)

    def _product(self, other):
        """The truncated product; a Series1 factor's () keeps the degrees."""
        n, out = min(self._order, other._order), {}
        zero = (0,) * (n + 1)
        for ka, a in self._blocks.items():
            for kb, b in other._blocks.items():
                key = tuple(map(operator.add, ka, kb)) if kb else ka
                if max(key, default=0) <= n:    # else zero up to n, by the cap
                    row = _intpoly.mul(list(a), list(b), n)
                    out[key] = tuple(map(operator.add, out.get(key, zero), row))
        return self._built(n, out.items())

    def __mul__(self, other):
        _check_arity(self, other, type(self))
        return self._product(other)

    def mul_series1(self, s: "Series1"):
        """Multiply every block by a univariate series (no catalytic content)."""
        _check_arity(s, s, Series1)
        return self._product(s)

    def _shift(self, dq: int, dk: tuple):
        """Multiply by q^dq times the catalytic monomial of degrees dk."""
        n = self._order
        check = max(dk) > dq            # the only case that can break the cap
        out = []
        for key, row in self._blocks.items():
            key = tuple(map(operator.add, key, dk))
            if max(key) > n or dq > n:
                continue
            row = (0,) * dq + row[:n + 1 - dq]
            if check:
                _check_row(self._BLOCK, key, row, n)
            out.append((key, row))
        return self._built(n, out)

    def _subst(self, axis: int, t: int):
        """Substitute x -> q^t x for the catalytic variable x of that axis."""
        if t < 1:
            raise ValueError("substitution exponent must be >= 1")
        n = self._order
        out = []
        for key, row in self._blocks.items():
            shift = min(t * key[axis], n + 1)
            out.append((key, (0,) * shift + row[:n + 1 - shift]))
        return self._built(n, out)

    def eval_catalytic(self) -> "Series1":
        """Evaluate every catalytic variable at 1 (the sum of the rows)."""
        return Series1._built(self._order, [
            ((), tuple(map(sum, zip(*self._blocks.values()))))])


class Series1(_Catalytic):
    """sum_{n=0}^{order} coeffs[n] q^n, coefficients in Z."""

    __slots__ = ()

    def __init__(self, coeffs):
        coeffs = tuple(coeffs)
        if not coeffs:
            raise ValueError("Series1 needs at least the constant coefficient")
        super().__init__(len(coeffs) - 1, [((), coeffs)])

    @property
    def coeffs(self) -> tuple[int, ...]:
        return self._blocks.get(()) or (0,) * (self._order + 1)

    def scale(self, k: int) -> "Series1":
        return Series1(tuple(k * c for c in self.coeffs))


def expand_rational(numer, denom, order: int) -> Series1:
    """Series of numer(q)/denom(q) to the given order.

    Polynomials are coefficient sequences; denom must have constant term +-1
    so the expansion stays in Z.
    """
    return Series1(_intpoly.expand_rational(
        list(map(operator.index, numer)), list(map(operator.index, denom)),
        order))


class Series2(_Catalytic):
    """Bivariate series sum c[n][i] q^n u^i with 0 <= i <= n <= order."""

    __slots__ = ()
    _BLOCK = "u"

    def __init__(self, order: int, blocks):
        """blocks[i] is the q-row of u^i; rows past the order are dropped."""
        super().__init__(order, (((i,), row) for i, row in enumerate(blocks)))

    def coeff(self, n: int, i: int) -> int:
        row = self._blocks.get((i,))
        return row[n] if row is not None and n <= self._order else 0

    def mul_monomial(self, dq: int = 0, du: int = 0) -> "Series2":
        """Multiply by q^dq u^du, dropping terms past the order."""
        return self._shift(dq, (du,))

    def subst_scale(self, t: int) -> "Series2":
        """Substitute u -> q^t u: coefficient (n, i) moves to (n + t*i, i)."""
        return self._subst(0, t)


class Series3(_Catalytic):
    """Trivariate series sum c[n][i][j] q^n u^i v^j with i, j <= n <= order."""

    __slots__ = ()
    _BLOCK = "(u,v)"

    def __init__(self, order: int, blocks):
        """blocks maps (i, j) to the q-row of u^i v^j, or yields the pairs."""
        super().__init__(order, blocks.items() if isinstance(blocks, dict)
                         else blocks)

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

    def mul_monomial(self, dq: int = 0, du: int = 0, dv: int = 0) -> "Series3":
        """Multiply by q^dq u^du v^dv, dropping terms past the order."""
        return self._shift(dq, (du, dv))

    def subst_scale(self, which: str, t: int = 1) -> "Series3":
        """Substitute u -> q^t u (which='u') or v -> q^t v (which='v')."""
        if which not in ("u", "v"):
            raise ValueError("which must be 'u' or 'v'")
        return self._subst("uv".index(which), t)

    def swap_catalytics(self) -> "Series3":
        return Series3._built(self._order, (((j, i), row) for (i, j), row
                                            in self._blocks.items()))


class FloatSeries1:
    """Univariate series in x = 2q with fixed-point high-precision coefficients.

    Coefficient n approximates (exact coefficient of q^n) * 2^-n.  Mantissas
    are integers scaled by 2^scale_bits; ``precision`` is the number of
    significant decimal digits the conversion from an exact series keeps.
    """

    __slots__ = ("mantissas", "scale_bits", "precision")

    def __init__(self, mantissas, scale_bits: int, precision: int):
        self.mantissas = tuple(map(operator.index, mantissas))
        self.scale_bits = operator.index(scale_bits)
        self.precision = operator.index(precision)

    @property
    def order(self) -> int:
        return len(self.mantissas) - 1

    @classmethod
    def from_series1(cls, s: Series1, precision: int = 40) -> "FloatSeries1":
        """Exact series in q -> float series in x = 2q (coefficient n / 2^n)."""
        bits = int(precision * 3.322) + 48
        mant = []
        for n, c in enumerate(s.coeffs):
            mant.append(c << (bits - n) if n <= bits else c >> (n - bits))
        return cls(mant, bits, precision)

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
