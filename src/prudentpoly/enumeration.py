"""Exact counting sequences for prudent self-avoiding polygons by area.

Routes implemented:

* 2-sided: closed form 2q/(1-2q) + 2q/(1-q), i.e. counts 2^n + 2.
* 3-sided, ``functional``: solve W(q,u) = F(q,u) + G(q,u) W(q,qu) for the
  area-width series of counter-clockwise polygons ending one step west of
  the origin, by iterating the substitution; then 2*(W(q,1) + q/(1-q) +
  q/(1-2q)).
* 3-sided, ``theorem``: the explicit sum whose term m carries the product
  prod_{k=1}^{m-1} (1-q-q^k+q^{k+1}-q^{k+2})/(1-q-q^{k+1}); evaluated with an
  incremental running term (one sparse multiply and two sparse divisions per
  step), all in exact integers.
* 4-sided: joint q-adic fixed point of the three trivariate functional
  equations coupling the row/column-addition classes X, Y, Z; returns
  8*(X+Y+Z) at u=v=1.

``pa3_scaled_float`` converts the exact theorem-route counts to the scaled
variable x = 2q; it is a view of those counts, not a separate route.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import add

from . import _intpoly
from .series import FloatSeries1, Series1, Series2, Series3, expand_rational


@dataclass(frozen=True)
class CountTable:
    """Counts PA_n for n = 1..N of k-sided prudent polygons by area."""

    k: int
    counts: tuple[int, ...]
    method: str

    def __post_init__(self):
        object.__setattr__(self, "counts", tuple(int(c) for c in self.counts))
        if self.k not in (2, 3, 4):
            raise ValueError("sidedness k must be 2, 3 or 4")
        if any(c < 0 for c in self.counts):
            raise ValueError("polygon counts must be nonnegative")
        if self.k == 3 and any(c % 2 for c in self.counts):
            raise ValueError("3-sided counts must be even (reflection symmetry)")
        if self.k == 4 and any(c % 8 for c in self.counts):
            raise ValueError("4-sided counts must be divisible by 8")

    @property
    def max_area(self) -> int:
        return len(self.counts)

    def count(self, n: int) -> int:
        if not 1 <= n <= self.max_area:
            raise ValueError(f"area {n} outside 1..{self.max_area}")
        return self.counts[n - 1]


def bargraph_series(order: int, with_width: bool = False):
    """Area (or area-width) generating function of bargraphs.

    The bivariate series solves B = qu/(1-q) + qu/(1-q) B, built here by
    iterating that equation (column by column) until the update vanishes.
    """
    if order < 1:
        raise ValueError("order must be >= 1")
    if not with_width:
        return expand_rational((0, 1), (1, -2), order)
    n = order
    # delta_1 = qu/(1-q); delta_{s+1} = qu/(1-q) * delta_s, one more column.
    delta = [[0] * (n + 1)]
    first = [0] * (n + 1)
    for m in range(1, n + 1):
        first[m] = 1
    delta.append(first)
    total = [row[:] for row in delta]
    while True:
        nxt = [[0] * (n + 1)]
        alive = False
        for row in delta:
            nr = [0] * (n + 1)
            nr[1:] = row[:n]                      # * q (and * u via index shift)
            for i in range(1, n + 1):             # / (1-q)
                nr[i] += nr[i - 1]
            if any(nr):
                alive = True
            nxt.append(nr)
        if not alive:
            break
        delta = nxt
        while len(total) < len(delta):
            total.append([0] * (n + 1))
        for i, row in enumerate(delta):
            trow = total[i]
            for idx, c in enumerate(row):
                if c:
                    trow[idx] += c
    return Series2(n, total)


def pa2_series(order: int) -> CountTable:
    """2-sided counts: coefficients of 2q/(1-2q) + 2q/(1-q), i.e. 2^n + 2."""
    if order < 1:
        raise ValueError("order must be >= 1")
    s = expand_rational((0, 2), (1, -2), order) + expand_rational((0, 2), (1, -1), order)
    return CountTable(2, s.coeffs[1:], "closed-form")


def _w_blocks(order: int) -> list[list[int]]:
    """Solve W = F + G W(q,qu) by substitution iteration, as u-degree blocks.

    Both F and G factor through 1/(1-q-qu), so multiplying by G is one sparse
    numerator pass plus the prefix recurrence Y_k = (A_k + q Y_{k-1})/(1-q)
    per u-block.  Iteration m contributes only at q-valuation >= 2m+1, which
    is checked and used as the stopping rule.
    """
    n = order

    def div_1mq(c):
        for i in range(1, n + 1):
            c[i] += c[i - 1]

    def div_1m2q(c):
        for i in range(1, n + 1):
            c[i] += 2 * c[i - 1]

    # F blocks: F_0 = 0, F_1 = q(1-q)^2/((1-2q)(1-q)), F_k = q/(1-q) F_{k-1}.
    s0 = _intpoly.expand_rational([0, 1, -2, 1], [1, -2], n)  # q(1-q)^2/(1-2q)
    blk = s0[:]
    div_1mq(blk)
    f_blocks = [[0] * (n + 1), blk]
    while True:
        nb = [0] + f_blocks[-1][:n]
        div_1mq(nb)
        if not any(nb):
            break
        f_blocks.append(nb)

    total = [row[:] for row in f_blocks]
    delta = f_blocks
    m = 0
    while True:
        m += 1
        if 2 * m + 1 > n:
            break
        # substitute u -> qu: block k shifts by k in q
        sub = []
        for k, row in enumerate(delta):
            if k > n:
                break
            sub.append([0] * k + row[:n + 1 - k])
        # A_k = s1*D_k + s2*D_{k-1} with s1 = (-q+q^2)/(1-2q),
        # s2 = (q-q^2+q^3)/(1-2q); numerators applied sparsely.
        blocks = []
        for k in range(len(sub) + 1):
            acc = [0] * (n + 1)
            if k < len(sub):
                dk = sub[k]
                for i in range(n, 0, -1):
                    v = -dk[i - 1]
                    if i >= 2:
                        v += dk[i - 2]
                    acc[i] += v
            if k >= 1:
                dk = sub[k - 1]
                for i in range(n, 0, -1):
                    v = dk[i - 1]
                    if i >= 2:
                        v -= dk[i - 2]
                    if i >= 3:
                        v += dk[i - 3]
                    acc[i] += v
            div_1m2q(acc)
            blocks.append(acc)
        # multiply by 1/(1-q-qu): prefix recurrence over u-degree
        prev = None
        out = []
        for ak in blocks:
            cur = ak[:]
            if prev is not None:
                for i in range(1, n + 1):
                    cur[i] += prev[i - 1]
            div_1mq(cur)
            out.append(cur)
            prev = cur
        while out and not any(out[-1]):
            out.pop()
        delta = out
        vals = [v for v in (_intpoly.valuation(r) for r in delta) if v is not None]
        if not vals:
            break
        if min(vals) < 2 * m + 1:
            raise AssertionError(
                f"iteration {m} contributed below q-valuation {2 * m + 1}")
        while len(total) < len(delta):
            total.append([0] * (n + 1))
        for k, row in enumerate(delta):
            trow = total[k]
            for idx, c in enumerate(row):
                if c:
                    trow[idx] += c
    return total


def w_series(order: int) -> Series2:
    """Area-width series of 3-sided ccw polygons ending at (-1, 0)."""
    if order < 1:
        raise ValueError("order must be >= 1")
    return Series2(order, _w_blocks(order))


def _pa3_theorem_coeffs(order: int) -> list[int]:
    """Exact theorem-route coefficients of the 3-sided area series."""
    n = order
    term = [0] * (n + 1)
    if n >= 2:
        term[2] = -1
        for i in range(3, n + 1):       # / (1-2q)
            term[i] += 2 * term[i - 1]
        for i in range(3, n + 1):       # / (1-q-q^2)
            term[i] += term[i - 1] + term[i - 2]
    total = term[:]
    m = 1
    while 2 * (m + 1) <= n:
        # term_{m+1} = term_m * (-q^2)(1-q-q^m+q^{m+1}-q^{m+2})
        #            / ((1-2q)(1-q-q^{m+2}))
        nxt = [0] * (n + 1)
        for i in range(n, 1, -1):
            v = term[i - 2]
            if i - 3 >= 0:
                v -= term[i - 3]
            if i - 2 - m >= 0:
                v -= term[i - 2 - m]
            if i - 3 - m >= 0:
                v += term[i - 3 - m]
            if i - 4 - m >= 0:
                v -= term[i - 4 - m]
            nxt[i] = -v
        for i in range(1, n + 1):
            nxt[i] += 2 * nxt[i - 1]
        md = m + 2
        for i in range(1, n + 1):
            v = nxt[i - 1]
            if i - md >= 0:
                v += nxt[i - md]
            nxt[i] += v
        term = nxt
        m += 1
        for i in range(2 * m, n + 1):
            total[i] += term[i]
    # prefactor -2q^3(1-q)^2/(1-2q)^2
    out = [0] * (n + 1)
    for i in range(n, 2, -1):
        v = total[i - 3]
        if i - 4 >= 0:
            v -= 2 * total[i - 4]
        if i - 5 >= 0:
            v += total[i - 5]
        out[i] = -2 * v
    for _ in range(2):
        for i in range(1, n + 1):
            out[i] += 2 * out[i - 1]
    # + 2q(3-10q+9q^2-q^3)/((1-2q)^2(1-q))
    rat = _intpoly.expand_rational([0, 6, -20, 18, -2], [1, -5, 8, -4], n)
    return [out[i] + rat[i] for i in range(n + 1)]


def pa3_series(order: int, method: str = "theorem") -> CountTable:
    """3-sided counts via the explicit sum or the functional equation."""
    if order < 1:
        raise ValueError("order must be >= 1")
    if method == "theorem":
        coeffs = _pa3_theorem_coeffs(order)
    elif method == "functional":
        w1 = w_series(order).eval_catalytic(1)
        extra = expand_rational((0, 1), (1, -1), order) + \
            expand_rational((0, 1), (1, -2), order)
        coeffs = [2 * (w1.coeffs[i] + extra.coeffs[i]) for i in range(order + 1)]
    else:
        raise ValueError("method must be 'theorem' or 'functional'")
    return CountTable(3, coeffs[1:], method)


# ---------------------------------------------------------------------------
# 4-sided: the trivariate system.
#
# X: row of length <= width added on top; Y: column of height <= height added
# on the right (seeded by the unit square), plus the length-(width+1) row
# construction; Z: row added along the bottom plus the height-(height+1)
# column construction.  In Y the variables are (u=height, v=width), in Z the
# width is carried as u = width-1, which is where the asymmetric factors come
# from.  The solution is the q-adic fixed point, iterated on updates with
# Series3 shifts, substitutions, swaps and 1/(1-q) alone.
# ---------------------------------------------------------------------------


def _qv_1mq(s: Series3) -> Series3:
    """qv (s(q,u,v) - s(q,qu,v))/(1-q)."""
    return (s - s.subst_scale("u")).div_1mq().mul_monomial(dq=1, dv=1)


def _pa4_linear_map(x: Series3, y: Series3, z: Series3):
    """One application of the linear part of the X/Y/Z system."""
    xs = x.swap_catalytics()
    ys = y.swap_catalytics()
    zs = z.swap_catalytics()

    xn = (_qv_1mq(x)
          + _qv_1mq(ys)
          + (z - z.subst_scale("u").mul_monomial(dq=1))
          .div_1mq().mul_monomial(dq=1, du=1, dv=1))

    yn = (_qv_1mq(y)
          + (zs - zs.subst_scale("u")).div_1mq().mul_monomial(dq=1, dv=2)
          + (xs.subst_scale("v")                              # X(q,qv,u)
             + y.subst_scale("v")                             # Y(q,u,qv)
             + zs.subst_scale("v").mul_monomial(dq=1, dv=1))  # qv Z(q,qv,u)
          .mul_monomial(dq=1, du=1, dv=1))

    zn = (_qv_1mq(z)
          + ys.subst_scale("v").mul_monomial(dq=1, dv=1)        # qv Y(q,qv,u)
          + z.subst_scale("v").mul_monomial(dq=1, du=1, dv=1))  # quv Z(q,u,qv)

    return xn, yn, zn


def pa4_system_solution(order: int) -> tuple[Series3, Series3, Series3]:
    """Joint fixed point (X, Y, Z) of the trivariate system, to the order.

    Every right-hand-side term carries a factor q, so each sweep is exact to
    one more order; sweeps run on the updates and must vanish by sweep
    order+1, which is asserted.
    """
    if order < 1:
        raise ValueError("order must be >= 1")
    n = order
    deltas = (Series3.zero(n), Series3.monomial(n, 1, dq=1, du=1, dv=1),
              Series3.zero(n))
    totals = [{k: list(r) for k, r in d.blocks().items()} for d in deltas]
    sweep = 1
    while not all(d.is_zero() for d in deltas):
        sweep += 1
        if sweep > n + 2:
            raise AssertionError("4-sided fixed point failed to stabilize")
        deltas = _pa4_linear_map(*deltas)
        for d, total in zip(deltas, totals):
            for key, row in d.blocks().items():
                if any(row[:sweep]):
                    raise AssertionError(
                        f"sweep {sweep} contributed below q-valuation {sweep}")
                cur = total.get(key)
                if cur is None:
                    total[key] = list(row)
                else:
                    cur[:] = map(add, cur, row)
    return tuple(Series3(n, total) for total in totals)


def pa4_series(order: int) -> CountTable:
    """4-sided counts: 8*(X+Y+Z) at u=v=1 from the trivariate fixed point."""
    x, y, z = pa4_system_solution(order)
    s = (x.eval_catalytic() + y.eval_catalytic() + z.eval_catalytic()).scale(8)
    return CountTable(4, s.coeffs[1:], "functional")


def pa3_scaled_float(order: int, precision: int = 40) -> FloatSeries1:
    """The exact theorem-route counts in x = 2q, on fixed-point mantissas.

    Coefficient n of the result approximates PA_n * 2^-n to the requested
    number of significant digits.
    """
    return FloatSeries1.from_series1(
        Series1((0,) + pa3_series(order).counts), precision)
