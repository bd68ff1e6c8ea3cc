"""Exact counting sequences for prudent self-avoiding polygons by area.

Routes implemented:

* 2-sided: closed form 2q/(1-2q) + 2q/(1-q), i.e. counts 2^n + 2.
* 3-sided, ``functional``: solve W(q,u) = F(q,u) + G(q,u) W(q,qu) for the
  area-width series of counter-clockwise polygons ending one step west of
  the origin, one u-block W_k at a time from W_{k-1}:
  W_k = q W_{k-1}/(1-q) + q^k W_{k-1}/(1-2q+q^{k+1}), a running sum plus
  one lagged division over the first n-2k+3 coefficients of W_{k-1}; the
  counts 2*(W(q,1) + q/(1-q) + q/(1-2q)) add each block into one running
  total as it comes, so the route keeps one block and one total.
* 3-sided, ``theorem``: the explicit sum whose term m carries the product
  prod_{k=1}^{m-1} (1-q-q^k+q^{k+1}-q^{k+2})/(1-q-q^{k+1}); summed by
  Horner's rule from the innermost term outwards, all in exact integers.
  The step ratio is -q^2 N_m/((1-2q) D_m) with N_m = (1-q) - q^m (1-q+q^2)
  and D_m = 1-q-q^{m+2}; the partial sum H'_m = (-1)^m + q^2 N_m/((1-2q)
  D_m) H'_{m+1} carries the signs, so nothing is negated.  Below degree
  2m+4 (where the lag terms q^{2i+2}/D_i start; cross terms start at 2m+5)
  every H'_m has the closed form (-1)^m [(1-2q)/(1-q)^2 + q^{m+2}
  (1-2q)/((1-q)^2 (1-2q+q^3))], so Horner starts at m0 = ceil((n-6)/4),
  the first m whose partial sum it covers, and each step m < m0 computes
  only the degrees from 2m+4 up.  As D_m + q^{m+2} = 1-q, the step's
  numerator applied to h = H'_{m+1} is h - q^m t with t = (1-q) h/D_m:
  one lagged running sum for t, one subtraction, and 1/(1-2q) seeded with
  the closed form, itself one running sum.
* 4-sided: the three trivariate functional equations coupling the
  row/column-addition classes X, Y, Z, solved one anti-diagonal i + j of
  catalytic degrees at a time, each (i, j) coefficient a whole q-series;
  returns 8*(X+Y+Z) at u=v=1.

Every running sum of the two exact 3-sided routes is one self-feeding
``map``: it appends to a list while iterators over that same list read it
a fixed number of entries behind the end (a list iterator keeps an index,
so it sees what is appended behind it), with no Python-level call per
coefficient.  Each checks the length it made, so a reader that ran dry
raises AssertionError instead of returning a short list.

``pa3_scaled_float`` converts the exact theorem-route counts to the scaled
variable x = 2q; it is a view of those counts, not a separate route.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate, chain, islice, repeat
from operator import add, index, lshift, neg, sub

from . import _intpoly
from .series import (FloatSeries1, Series1, Series2, Series3, _check_row,
                     expand_rational)


class DomainError(ValueError):
    """An evaluation was requested outside a method's validity region."""


# the memory budget of every exact solver, in MiB above the interpreter
_MAX_MIB = 2048


def _check_order(order: int, estimate, solver: str) -> None:
    """Refuse, before any work, an order below 1 or one whose memory
    estimate ``estimate(order)``, in MiB, passes the budget."""
    if order < 1:
        raise ValueError("order must be >= 1")
    huge = order >= 2 ** 64  # past every budget; floats overflow far past it
    mib = float("inf") if huge else estimate(order)
    if mib > _MAX_MIB:
        raise DomainError(
            f"{solver} order {'2^64 or more' if huge else order} needs about "
            f"{mib:.0f} MiB, over the solver's {_MAX_MIB} MiB budget")


@dataclass(frozen=True)
class CountTable:
    """Counts PA_n for n = 1..N of k-sided prudent polygons by area."""

    k: int
    counts: tuple[int, ...]
    method: str

    def __post_init__(self):
        object.__setattr__(self, "counts", tuple(map(index, self.counts)))
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


# ``bargraph_series(n)`` keeps about n^2/2 integers up to n bits wide: its
# peak RSS growth in fresh processes was 11.5 / 63.4 / 177.1 / 375.6 / 1205.1
# MiB at n = 500 / 1000 / 1500 / 2000 / 3072, which the estimate below fits
# within 2.2%.  Orders from 3702 on are refused before any work.
def _bargraph_mib(order: int) -> float:
    return 3.1e-5 * order ** 2 + 3.2e-8 * order ** 3


def bargraph_series(order: int) -> Series2:
    """Area-width generating function B(q, u) of bargraphs.

    B solves B = qu/(1-q) + qu/(1-q) B, so B is the sum of (qu/(1-q))^i
    over i >= 1: each u-row is the one before times q, then divided by
    (1-q), down to the first row that vanishes below the order.  The area
    series B(q, 1) = q/(1-2q) is ``eval_catalytic()`` of the result.
    """
    _check_order(order, _bargraph_mib, "bargraph")
    n = order
    rows = [[0] * (n + 1), [0] + [1] * n]       # u^0: none; u^1: q/(1-q)
    while any(rows[-1]):
        rows.append(list(accumulate([0] + rows[-1][:n])))
    return Series2(n, rows)


# The two expansions hold 2(n + 1) integers up to n bits wide.  The peak RSS
# growth of ``pa2_series(n)``, measured in fresh processes, was 13.0 / 52.4
# / 207.4 / 464.1 MiB at n = 10000 / 20000 / 40000 / 60000; the estimate
# below fits all four within 1%.  Orders from 125515 on pass the budget and
# are refused before any work.
def _pa2_mib(order: int) -> float:
    return 1.3e-7 * order ** 2


def pa2_series(order: int) -> CountTable:
    """2-sided counts: coefficients of 2q/(1-2q) + 2q/(1-q), i.e. 2^n + 2."""
    _check_order(order, _pa2_mib, "2-sided")
    s = expand_rational((0, 2), (1, -2), order) + expand_rational((0, 2), (1, -1), order)
    return CountTable(2, s.coeffs[1:], "closed-form")


def _w_divide(c, size: int, lag: int) -> list[int]:
    """The first ``size`` coefficients of c/(1-2q+q^lag), c an iterable of
    exactly ``size`` values.

    f_n = 2 f_{n-1} + c_n - f_{n-lag}, as one ``map`` that appends to f
    while two iterators over f read it 1 and ``lag`` entries behind the
    end; a list iterator sees what is appended behind it.  A reader that
    ran dry, or a c of the wrong length, leaves f the wrong length, which
    raises AssertionError.
    """
    f = [0] * lag                       # the zero block below degree 0
    f += map(sub, map(add, map(lshift, islice(f, lag - 1, None), repeat(1)),
                      c), iter(f))
    if len(f) != lag + size:
        raise AssertionError(
            f"1/(1-2q+q^{lag}) made {len(f) - lag} of {size} coefficients")
    del f[:lag]
    return f


def _w_blocks(order: int):
    """Solve W = F + G W(q,qu) one u-block at a time: yield W_0 .. W_n.

    Times (1-2q)(1-q-qu), the equation's u^k block reads, with W_0 = 0,
        (1-q)(1-2q+q^{k+1}) W_k
            = [k=1] q(1-q)^2 + q((1-2q) + q^{k-1}(1-q+q^2)) W_{k-1},
    because [u^k] W(q,qu) = q^k W_k.  As (1-2q) + q^{k-1}(1-q+q^2) =
    (1-2q+q^{k+1}) + q^{k-1}(1-q), this is W_1 = q/(1-q) and
        W_k = q W_{k-1}/(1-q) + q^k W_{k-1}/(1-2q+q^{k+1}):
    the running sum of W_{k-1}, plus a lagged running sum (``_w_divide``)
    over the first n-2k+3 coefficients of W_{k-1}, read from degree k-2,
    one below its valuation, and added from degree 2k-2; it is empty for
    k >= (n+3)/2.  Each block is yielded full length, and only the one
    before it is kept; the consumer checks that it vanishes below its
    degree (``Series2`` in ``w_series``, the running total in
    ``pa3_series``).
    """
    n = order
    yield [0] * (n + 1)                 # W_0 = 0
    w = [0] + [1] * n                   # W_1 = q/(1-q)
    yield w
    for k in range(2, n + 1):
        size = max(n + 3 - 2 * k, 0)
        r = [0] * (n + 1)
        r[k - 1:] = accumulate(islice(w, k - 2, n))
        r[2 * k - 2:] = map(add, r[2 * k - 2:], _w_divide(
            islice(w, k - 2, k - 2 + size), size, k + 1))
        w = r
        yield w


# ``w_series`` keeps every block, about n^2/2 integers up to n bits wide:
# its peak RSS growth in fresh processes was 10.25 / 61.0 / 179.6 / 393.75
# / 731.1 / 1306.4 MiB at n = 500 / 1000 / 1500 / 2000 / 2500 / 3072, which
# ``_w_mib`` fits within 2%.  The functional counts keep two blocks and the
# total: 0.5 / 1.62 / 3.62 / 6.38 / 14.5 / 24.4 MiB at n = 1000 / 2000 /
# 3072 / 4096 / 6144 / 8192, which ``_w_sum_mib`` fits within 4%.  Orders
# from 3594 and from 76295 on pass the budget and are refused before any
# block is solved (76295 would take hours: the time grows as n^3).
def _w_mib(order: int) -> float:
    return 2.2e-5 * order ** 2 + 3.8e-8 * order ** 3


def _w_sum_mib(order: int) -> float:
    return 3.5e-7 * order ** 2 + 1.4e-4 * order


def w_series(order: int) -> Series2:
    """Area-width series of 3-sided ccw polygons ending at (-1, 0).

    The solution of W = F + G W(q,qu), found one u-block W_k at a time from
    W_{k-1} (``_w_blocks``); block k counts the polygons of width k.
    """
    _check_order(order, _w_mib, "3-sided functional")
    return Series2(order, _w_blocks(order))


def _div_double(f: list, c, size: int) -> list[int]:
    """Extend f by f_i = 2 f_{i-1} + c_i for the ``size`` values of c, the
    first seeded by f's last entry: 1/(1-2q) as a running sum.

    One ``map`` appends to f while an iterator over f reads it one entry
    behind the end; a list iterator sees what is appended behind it.  A
    reader that ran dry, or a c of the wrong length, leaves f the wrong
    length, which raises AssertionError.
    """
    start = len(f)
    f += map(add, map(lshift, islice(f, start - 1, None), repeat(1)), c)
    if len(f) != start + size:
        raise AssertionError(
            f"1/(1-2q) made {len(f) - start} of {size} coefficients")
    return f


def _lag_ratio(c, size: int, lag: int) -> list[int]:
    """The first ``size`` coefficients of (1-q) c/(1-q-q^lag), c iterable.

    With g = f/(1-q), f = c + q^lag g, so f_d = c_d + (f_0 + ... +
    f_{d-lag}): past its first ``lag`` entries, which are c's, f is one
    ``map`` that appends to f while a running sum over f reads it ``lag``
    entries behind the end.  A reader that ran dry, or a c shorter than
    ``size``, leaves f short, which raises AssertionError.
    """
    size = max(size, 0)
    c = iter(c)
    f = list(islice(c, min(lag, size)))
    f += map(add, islice(c, size - len(f)), accumulate(iter(f)))
    if len(f) != size:
        raise AssertionError(
            f"(1-q)/(1-q-q^{lag}) made {len(f)} of {size} coefficients")
    return f


def _horner_heads(order: int):
    """head(m, size): the theorem route's Horner partial sum H'_m to degree
    size-1 <= 2m+3, from H'_m = (-1)^m [c + q^{m+2} R] mod q^{2m+4} (see
    ``_pa3_theorem_coeffs``), with c_d = 1-d and R = (1-2q)/((1-q)^2
    (1-2q+q^3)) expanded once, to degree order/4 + 8: no partial sum of an
    order-``order`` run reads R past degree order/4.
    """
    tail = _intpoly.expand_rational([1, -2], [1, -4, 5, -1, -2, 1],
                                    order // 4 + 8)

    def head(m: int, size: int) -> list[int]:
        h = list(map(add, range(1, 1 - size, -1),
                     chain(repeat(0, m + 2), tail)))
        if len(h) != size:
            raise AssertionError(f"H'_{m} has {len(h)} of {size} coefficients")
        return list(map(neg, h)) if m % 2 else h

    return head


# The Horner sum holds a few lists of up to n integers of up to n bits.  The
# peak RSS growth of ``pa3_series(n)``, measured in fresh processes, was
# 1.5 / 5.25 / 11.4 / 19.4 MiB at n = 2000 / 4096 / 6144 / 8192; the
# estimate below fits all four within 3%.  Orders from 88273 on pass the
# budget and are refused before any work (the time, n^2.7, would be hours
# well before that).
def _pa3_mib(order: int) -> float:
    return 2.6e-7 * order ** 2 + 2.5e-4 * order


def _pa3_theorem_coeffs(order: int) -> list[int]:
    """Exact theorem-route coefficients of the 3-sided area series.

    The sum S = sum_{m>=1} T_m starts at T_1 = -q^2/((1-2q)(1-q-q^2)) and
    steps by T_{m+1} = -rho_m T_m, where
        rho_m = q^2 N_m / ((1-2q) D_m),
        N_m = (1-q) - q^m (1-q+q^2),   D_m = 1-q-q^{m+2}.
    It is summed by Horner's rule from the innermost m outwards:
        H'_m = (-1)^m + rho_m H'_{m+1},   S = q^2 H'_1 / ((1-2q)(1-q-q^2)),
    so H'_m = sum_{j>=m} (-1)^j rho_m ... rho_{j-1} carries the signs of
    the terms and nothing is negated.  H'_m is held from degree 0 up to
    degree order-3-2m, the last one that reaches degree order-3 of S, which
    the q^3 prefactor reads.

    With y = q^2/(1-2q) and N_i/D_i = 1 - q^i - q^{2i+2}/D_i, every product
    rho_m ... rho_{j-1} is y^{j-m} times a product of those factors over
    i >= m.  A term with a lag factor q^{2i+2}/D_i starts at degree 2m+4,
    one with two factors q^i at degree 2m+5, so below degree 2m+4 only the
    single q^i terms are left, and the two geometric sums give
        H'_m = (-1)^m [c + q^{m+2} R]  mod q^{2m+4},
        c = (1-2q)/(1-q)^2,   R = (1-2q)/((1-q)^2 (1-2q+q^3)),
    where c_d = 1-d (``_horner_heads`` builds these prefixes).  Once
    4m+6 >= order this covers all of H'_m, so Horner starts at the first
    such m, m0 = ceil((order-6)/4), with H'_{m0} from the congruence.  Each
    later step computes only the degrees of H'_m from 2m+4 up.  Since
    N_m = D_m (1-q^m) - q^{2m+2} and D_m + q^{m+2} = 1-q,
        rho_m h = q^2/(1-2q) (h - q^m t),   t = (1-q) h/D_m,
    as k_d = h_d - t_{d-m} for d >= 2m+2, over order-6-4m coefficients:
    one subtraction.  t = h + q^{m+2} t/(1-q) is one lagged running sum
    (``_lag_ratio``) of order-4-3m coefficients, read from degree m+2, and
    1/(1-2q), seeded with the congruence's 2m+4 coefficients, one running
    2a + x (``_div_double``), each a self-feeding ``map``.  The final pass
    needs h/D_0, the running sum of (1-q) h/D_0.  Every step is a few
    passes over whole lists at C level, never a Python-level call per
    coefficient.
    """
    n = order
    m0 = max(-(-(n - 6) // 4), 1)       # the first m with 4m+6 >= n
    head = _horner_heads(n)
    h = head(m0, max(n - 2 - 2 * m0, 0))    # H'_{m+1}
    for m in range(m0 - 1, 0, -1):
        size = n - 6 - 4 * m            # H'_m: degrees 2m+4..n-3-2m
        # k = h - q^m t from degree 2m+2, t = (1-q) h/D_m read from degree
        # m+2; both unnamed: a name would keep t or H'_{m+1} alive through
        # the next step and the final passes
        h = _div_double(
            head(m, 2 * m + 4),
            map(sub, h[2 * m + 2:],
                islice(_lag_ratio(h, n - 4 - 3 * m, m + 2), m + 2, None)),
            size)
    # S over degrees 0..n-3; h/D_0 is the running sum of (1-q) h/D_0
    total = _div_double([0, 0], accumulate(_lag_ratio(h, n - 4, 2)),
                        max(n - 4, 0))
    # prefactor -2q^3(1-q)^2/(1-2q)^2, as (1-q)/(1-2q) twice
    for _ in range(2):
        total = _div_double([0], map(sub, total, [0] + total), len(total))[1:]
    # + 2q(3-10q+9q^2-q^3)/((1-2q)^2(1-q))
    rat = _intpoly.expand_rational([0, 6, -20, 18, -2], [1, -5, 8, -4], n)
    return rat[:3] + [r - 2 * t for r, t in zip(rat[3:], total)]


def pa3_series(order: int, method: str = "theorem") -> CountTable:
    """3-sided counts via the explicit sum or the functional equation."""
    if method == "theorem":
        _check_order(order, _pa3_mib, "3-sided theorem")
        coeffs = _pa3_theorem_coeffs(order)
    elif method == "functional":
        _check_order(order, _w_sum_mib, "3-sided functional")
        # q/(1-q) + q/(1-2q) + W(q,1); a short block would shrink the sum
        total = _intpoly.expand_rational([0, 2, -3], [1, -3, 2], order)
        for k, w in enumerate(_w_blocks(order)):
            _check_row("u", (k,), w, order)
            total = list(map(add, total, w))
        coeffs = [2 * c for c in total]
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
# from.
#
# Write S_ij for the q-series of [u^i v^j] S.  After u -> qu, 1/(1-q) is a
# factor W_i = q + ... + q^i, and v -> qv a factor q^j.  With
#     A_ab = X_ab + Y_ba + Z_{a-1,b},    B_ab = Y_ab + Z_{b-1,a}
# (X, Y^T and Z one u-degree up are read only together, as are Y and Z^T one
# v-degree apart), the system reads, for i, j >= 1 and any index 0 reading 0,
#     X_ij = W_i A_{i,j-1},
#     Y_ij = W_i B_{i,j-1} + q^j A_{j-1,i-1} + [i=j=1] q,
#     Z_ij = W_i Z_{i,j-1} + q^j B_{j-1,i}.
# Every right-hand side reads pairs of smaller s = i + j only: the system is
# solved one anti-diagonal s at a time, keeping A of diagonals s-1 and s-2
# and B and Z of s-1.  X, Y, A and B of diagonal s start at q^(s-1) and Z at
# q^s; each (i, j) series is stored as its coefficients of q^(s-1) .. q^n.
# Then W_i is a running sum of the source, read one degree lower, less that
# sum i entries behind, and q^j a slice add at offset j-2 (A of s-2) or j-1
# (B of s-1).  X_i1 = Z_i1 = 0 and Y_i1 = 0 past the seed, so past s = 2 a
# diagonal holds i = 1 .. s-2 (j >= 2) of X, Y, Z and B, and A its s-1
# entries, A_{s-1,1} = Y_{1,s-1}.  Summed over a diagonal, A gives X and Y
# of that diagonal and Z of the one before, so the counts are 8 times the
# sum of every A.  A series short of q^n, or a Z term at q^(s-1), is a term
# outside the support and raises AssertionError.
# ---------------------------------------------------------------------------


def _window(f, i: int, size: int) -> list[int]:
    """The ``size`` coefficients of W_i f, f stored from one degree lower:
    a running sum of f less the same sum i entries behind."""
    p = list(accumulate(islice(f, size)))
    p[i:] = map(sub, p[i:], p)
    return p


def _pa4_step(s: int, size: int, a2: list, a1: list, b1: list, z1: list):
    """X, Y and Z of diagonal s >= 3, rows i = 1 .. s-2, from A of
    diagonals s-2 and s-1 and B and Z of s-1; a pair past a kept diagonal's
    rows reads 0."""
    x, y, z = [], [], []
    for i in range(1, s - 1):
        j = s - i
        x.append(_window(a1[i - 1], i, size))
        r = _window(b1[i - 1], i, size) if i <= len(b1) else [0] * size
        if j - 2 < len(a2):
            r[j - 2:] = map(add, r[j - 2:], a2[j - 2])
        y.append(r)
        r = _window(z1[i - 1], i, size) if i <= len(z1) else [0] * size
        if j - 2 < len(b1):
            r[j - 1:] = map(add, r[j - 1:], b1[j - 2])
        z.append(r)
    return x, y, z


def _pa4_diagonals(order: int):
    """Yield (X, Y, Z, A) of diagonals s = 2 .. order+1, each a list of the
    (i, s-i) series over i = 1, 2, ..., coefficients of q^(s-1) .. q^order."""
    n = order
    y = [[1] + [0] * (n - 1)]           # Y_11 = q
    yield [], y, [], y
    a2, a1, b1, z1 = [], y, y, []
    for s in range(3, n + 2):
        size = n + 2 - s
        x, y, z = _pa4_step(s, size, a2, a1, b1, z1)
        if any(len(r) != size for r in chain(x, y, z)) or any(r[0] for r in z):
            raise AssertionError(
                f"a term of diagonal {s} fell outside the support")
        a = [x[0], *(list(map(add, map(add, r, t), islice(w, 1, None)))
                     for r, t, w in zip(x[1:], y[:0:-1], z1)), y[0]]
        b = [y[0], *(list(map(add, r, islice(w, 1, None)))
                     for r, w in zip(y[1:], reversed(z1)))]
        yield x, y, z, a
        a2, a1, b1, z1 = a1, a, b, z


# ``pa4_series`` keeps three diagonals, about n^2 integers up to n bits wide:
# its peak RSS growth in fresh processes was 1.5 / 6.0 / 16.1 / 32.9 / 90.6
# / 189.4 / 341.0 / 556.4 MiB at n = 100 / 200 / 300 / 400 / 600 / 800 /
# 1000 / 1200, which ``_pa4_mib`` fits within 18%, never below (within 7%
# from n = 600 on).  The solution keeps every diagonal's X, Y and Z and
# builds three dense ``Series3`` from them: 35.9 / 125.8 / 308.5 / 554.8 /
# 1133.3 / 1705.3 / 2453.2 MiB at n = 100 / 150 / 200 / 240 / 300 / 340 /
# 380, which ``_pa4_solution_mib`` fits within 2.2%, never below.  Orders
# whose estimate passes the budget, from 1901 on for the counts and from 359
# on for the solution, are refused before any work.  Time binds first: the
# counts took 292 s at n = 1200, growing about as n^3.6, so order 1900
# would take about half an hour.
def _pa4_mib(order: int) -> float:
    return 1.3e-4 * order ** 2 + 2.3e-7 * order ** 3


def _pa4_solution_mib(order: int) -> float:
    return 3.3e-5 * order ** 3 + 3.2e-8 * order ** 4


def pa4_system_solution(order: int) -> tuple[Series3, Series3, Series3]:
    """The solution (X, Y, Z) of the trivariate system, to the order."""
    _check_order(order, _pa4_solution_mib, "4-sided")
    diagonals = [d[:3] for d in _pa4_diagonals(order)]
    return tuple(Series3(order, (((i, s - i), chain(repeat(0, s - 1), r))
                                 for s, rows in enumerate(series, 2)
                                 for i, r in enumerate(rows, 1)))
                 for series in zip(*diagonals))


def pa4_series(order: int) -> CountTable:
    """4-sided counts: 8*(X+Y+Z) at u=v=1, summed one diagonal at a time."""
    _check_order(order, _pa4_mib, "4-sided")
    total = [0] * (order + 1)
    for s, (*_, a) in enumerate(_pa4_diagonals(order), 2):
        total[s - 1:] = map(add, total[s - 1:], map(sum, zip(*a)))
    return CountTable(4, [8 * c for c in total[1:]], "functional")


def pa3_scaled_float(order: int, precision: int = 40) -> FloatSeries1:
    """The exact theorem-route counts in x = 2q, on fixed-point mantissas.

    Coefficient n of the result approximates PA_n * 2^-n to the requested
    number of significant digits.
    """
    return FloatSeries1.from_series1(
        Series1((0,) + pa3_series(order).counts), precision)
