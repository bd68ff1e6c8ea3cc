"""High-precision asymptotics of the 3-sided area counts.

The area generating function PA(q) has radius 1/2 with poles accumulating
geometrically at 1/2 (the roots of 1 - 2x + x^{k+2}).  Around the dominant
singularity it admits the exact representation

    PA(q) = D(q) - q^2 A(q) * [(a;q)oo (v;q)oo / ((q;q)oo (av;q)oo)] * T(q),
    T(q)  = (1-2q)^(-gamma) Pi(log_{1/q}(1-2q)) U(q) + V(q),

with u = q/(1-q), v = (1-q+q^2)/(1-q), a = q^2/(1-q+q^2), gamma =
log(v)/log(1/q), and Pi a Fourier series with coefficients pi/sin(pi*gamma +
2ik pi^2/log(1/q)).  Transfer to coefficients gives

    PA_n = [kappa_0 + kappa(log2 n)] 2^n n^g + O(2^n n^{g-1} log n),

with transcendental exponent g = log2(3), constant kappa_0 ~ 0.10838, and a
mean-zero period-1 oscillation kappa(u) of amplitude ~1.5e-9.  This module
evaluates every quantity in that chain to a requested number of significant
digits, with explicit geometric tail bounds on all truncated sums/products,
and extracts the oscillation empirically from the exact counts.

Every evaluator that takes q builds one BaseQuantities record of q (u, v,
a, t = 1-2q, and on first read log(1/q), gamma, A, C, D and the q-products)
and hands it to private kernels; the routes keep their own formulas and
share only these inputs.

All functions take ``dps`` (significant decimal digits, default 40) and a
``truncation_scale`` knob.  Every infinite product and every adaptive sum
(the tail sums, the q-products, the z-factors of d_nu, the harmonics of Pi
and those of kappa(u)) stops by one rule: find the first index whose term,
or the geometric bound on what remains, is below 10^-(dps+5), then run
``truncation_scale`` times as far, so insensitivity to doubling can be
asserted mechanically.  A loop that has not stopped after _MAX_TERMS terms
raises DomainError.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from itertools import accumulate, count, islice, pairwise, repeat, tee
from math import isqrt
from operator import mul

from mpmath import mp, mpc, mpf, mpmathify, matrix, lu_solve

from .enumeration import CountTable, DomainError, pa3_series
from .series import FloatSeries1

_GUARD_DPS = 12

# the fixed-point residual pipeline works in units of 2^-(prec + _GUARD_BITS)
_GUARD_BITS = 32

# the largest exact 3-sided order timed (13 s on one core of a 2-core
# host); the cost grows a little slower than n^3
TAYLOR_MAX_TERMS = 8192

# every adaptive loop gives up with DomainError after this many terms
_MAX_TERMS = 200000


def _eps(dps: int) -> mpf:
    return mpf(10) ** (-(dps + 5))


def _stop_rule(dps: int, scale: float, min_terms: int = 1):
    """The truncation rule of every adaptive loop, as a per-term callback.

    The loop calls ``stop(size)`` once per term with the term's size or the
    bound on its remainder; ``stop`` turns true ``scale`` times past the
    first count (at least ``min_terms``) whose size is below 10^-(dps+5).
    Every series fed here decays geometrically in its tail, so ``scale`` = 2
    is the "double every truncation length" insensitivity check.
    """
    eps = _eps(dps)
    count = met = 0

    def stop(size) -> bool:
        nonlocal count, met
        count += 1
        if not met and count >= min_terms and size < eps:
            met = count
        if met and count >= scale * met:
            return True
        if count >= _MAX_TERMS:
            raise DomainError(
                f"adaptive truncation did not reach 10^-{dps + 5} "
                f"within {_MAX_TERMS} terms")
        return False

    return stop


def _tail_sum(terms, dps: int, scale: float):
    """Sum a generator by the truncation rule, at least six terms."""
    stop = _stop_rule(dps, scale, min_terms=6)
    total = mpf(0)
    for t in terms:
        total = total + t
        if stop(abs(t)):
            break
    return total


def _powers(x, start=mp.one):
    """start, start x, start x^2, ...: each power is the one before times x.

    Every term loop in this module that multiplies a power by a fixed
    factor steps it here, one multiplication per term; only the two walks
    that divide by q keep their own.  mpmath's x ** j costs more and, for
    complex x, switches to exp(j log x) once j times the working bits
    passes 10^4.  Each multiplication rounds once, so after N terms the
    power carries at most N roundings: log10(N) digits, about 3 of the
    _GUARD_DPS digits at N ~ 500.
    """
    return accumulate(repeat(x), mul, initial=start)


def _a_ratio_sum(a, q, f, dps, scale):
    """[(a;q)oo/(q;q)oo] sum_j prod_{m<=j}[(a-q^m)/(1-q^m)] f(q^j), the
    partial-fraction sum behind d_nu's j-sum and the Mittag-Leffler check."""
    pref = (pochhammer(a, q, dps=dps, truncation_scale=scale)
            / pochhammer(q, q, dps=dps, truncation_scale=scale))
    terms = (ratio * f(qj) for ratio, qj in _ratios(a, 1, q))
    return pref * _tail_sum(terms, dps, scale)


def _ratios(x, y, q):
    """(r_j, q^j) for j = 0, 1, ..., with r_0 = 1 and r_j = r_{j-1}
    (x - y q^j)/(1 - q^j): the a-ratios prod_{m<=j} (a - q^m)/(1 - q^m) at
    (x, y) = (a, 1) and d_nu at (v, u)."""
    r = mp.one
    for qj, q_next in pairwise(_powers(q)):
        yield r, qj
        r = r * (x - y * q_next) / (1 - q_next)


# ---------------------------------------------------------------------------
# q-Pochhammer and base quantities
# ---------------------------------------------------------------------------


def pochhammer(x, q, dps: int = 40, truncation_scale: float = 1.0):
    """The infinite q-Pochhammer product (x;q)oo = (1-x)(1-qx)(1-q^2 x)...

    The factors are multiplied until the geometric bound on the remaining
    log-tail, |x q^J|/(1-|q|), drops below the target precision; |q| <= 0.9
    is required so that bound is usable.  1-|q| is computed once, so a
    factor costs two multiplications and one abs.
    """
    with mp.workdps(dps + _GUARD_DPS):
        x = mpmathify(x)
        q = mpmathify(q)
        q_abs = abs(q)
        if q_abs > mpf("0.9"):
            raise DomainError(
                f"infinite q-Pochhammer needs |q| <= 0.9 (got |q| = {q_abs})")
        stop = _stop_rule(dps, truncation_scale)
        gap = 1 - q_abs
        p = mp.one
        for t, t_next in pairwise(_powers(q, x)):
            p *= (1 - t)
            if stop(abs(t_next) / gap):
                return p


def _derived(fn):
    """A record field computed on its first read, at the record's working
    precision, and kept."""
    @functools.wraps(fn)
    def read(self):
        with mp.workdps(self.dps + _GUARD_DPS):
            return fn(self)
    return functools.cached_property(read)


@dataclass(frozen=True)
class BaseQuantities:
    """Everything derived from one q, the one record every evaluator reads.

    q, u = q/(1-q), v = (1-q+q^2)/(1-q), a = qu/v and t = 1-2q are computed
    when the record is built.  log(1/q), gamma = log(v)/log(1/q), the
    rational factors A, C, D and the q-products (q;q)oo, (a;q)oo, (v;q)oo,
    (av;q)oo are computed on their first read and kept, at the working
    precision and truncation of the call that built the record, so an
    evaluator pays only for what it reads.  A, C and D have a double pole
    at q = 1/2, where reading one raises DomainError.  The Laurent data
    A_LAURENT_AT_HALF and C_LAURENT_AT_HALF record A and C about that
    pole; no evaluator reads them.
    """

    q: object
    u: object
    v: object
    a: object
    t: object
    dps: int
    truncation_scale: float

    def _product(self, x):
        return pochhammer(x, self.q, dps=self.dps,
                          truncation_scale=self.truncation_scale)

    def _t_squared(self):
        if self.t == 0:
            raise DomainError("A, C, D have a double pole at q = 1/2 (see "
                              "the Laurent data A/C_LAURENT_AT_HALF)")
        return self.t ** 2

    @_derived
    def log_q(self):
        return mp.log(1 / self.q)

    @_derived
    def gamma(self):
        return mp.log(self.v) / self.log_q

    @_derived
    def A(self):
        return 2 * self.q * (1 - self.q) ** 2 / self._t_squared()

    @_derived
    def C(self):
        q = self.q
        return (2 * q * (3 - 10 * q + 9 * q * q - q ** 3)
                / ((1 - q) * self._t_squared()))

    @_derived
    def D(self):
        q = self.q
        return self.C - q * q / (1 - q) ** 2 * self.A * (self.pv / self.pav)

    @_derived
    def pq(self):
        return self._product(self.q)

    @_derived
    def pa(self):
        return self._product(self.a)

    @_derived
    def pv(self):
        return self._product(self.v)

    @_derived
    def pav(self):
        return self._product(self.a * self.v)


# Laurent data about q = 1/2 in powers of t = 1-2q (exact for A; C to O(t^2)):
# coefficients of t^-2, t^-1, t^0, t^1.
A_LAURENT_AT_HALF = (mpf(1) / 4, mpf(1) / 4, -mpf(1) / 4, -mpf(1) / 4)
C_LAURENT_AT_HALF = (mpf(1) / 4, mpf(5) / 4, mpf(3) / 4, -mpf(17) / 4)


def base_quantities(q, dps: int = 40, truncation_scale: float = 1.0) -> BaseQuantities:
    """The record of q at ``dps`` digits; only q = 1, the pole of u and v,
    is refused here."""
    with mp.workdps(dps + _GUARD_DPS):
        q = mpmathify(q)
        if q == 1:
            raise DomainError("u and v have a pole at q = 1")
        w = 1 - q + q * q
        return BaseQuantities(q, q / (1 - q), w / (1 - q), q * q / w, 1 - 2 * q,
                              dps, truncation_scale)


# ---------------------------------------------------------------------------
# d_nu: coefficients of 1/Q(z;q) = (quz;q)oo / (vz;q)oo
# ---------------------------------------------------------------------------


def d_nu(nu: int, q, dps: int = 40, method: str = "recurrence",
         truncation_scale: float = 1.0):
    """[z^nu] (quz;q)oo/(vz;q)oo by recurrence or by the explicit j-sum.

    recurrence: d_nu = d_{nu-1} (v - u q^nu)/(1 - q^nu), d_0 = 1, from the
    factor-shift identity (1-vz) f(z) = (1-quz) f(qz).
    sum: d_nu = [(a;q)oo/(q;q)oo] * sum_j prod_{m<=j}[(a-q^m)/(1-q^m)] (v q^j)^nu
    with a = qu/v.
    """
    if nu < 0:
        raise ValueError("nu must be >= 0")
    with mp.workdps(dps + _GUARD_DPS):
        b = base_quantities(q, dps=dps, truncation_scale=truncation_scale)
        if method == "recurrence":
            return next(islice(_ratios(b.v, b.u, b.q), nu, None))[0]
        if method != "sum":
            raise ValueError("method must be 'recurrence' or 'sum'")
        if nu == 0:
            return mp.one
        return _a_ratio_sum(b.a, b.q, lambda qj: (b.v * qj) ** nu, dps,
                            truncation_scale)


def d_nu_by_series_division(nu_max: int, q, dps: int = 40,
                            truncation_scale: float = 1.0) -> list:
    """d_0..d_{nu_max} by multiplying out the z-factors and dividing.

    Independent of both d_nu routes: builds the z-polynomial of
    (quz;q)oo truncated at z^{nu_max}, then divides by each factor
    (1 - v q^j z) via the geometric recurrence.  Requires |q| < 1.
    """
    with mp.workdps(dps + _GUARD_DPS):
        q = mpmathify(q)
        if abs(q) >= 1:
            raise DomainError(f"the z-factors need |q| < 1 (got |q| = {abs(q)})")
        b = base_quantities(q, dps=dps, truncation_scale=truncation_scale)
        co = [mp.zero] * (nu_max + 1)
        co[0] = mp.one
        stop = _stop_rule(dps, truncation_scale)
        for c, c_next in pairwise(_powers(q, q * b.u)):
            for i in range(nu_max, 0, -1):
                co[i] -= c * co[i - 1]
            if stop(abs(c_next)):
                break
        stop = _stop_rule(dps, truncation_scale)
        for c, c_next in pairwise(_powers(q, b.v)):
            for i in range(1, nu_max + 1):
                co[i] += c * co[i - 1]
            if stop(abs(c_next)):
                return co


def mittag_leffler_check(a, q, z, dps: int = 40, truncation_scale: float = 1.0):
    """Both sides of the partial-fraction expansion of (az;q)oo/(z;q)oo.

    Left: the product quotient.  Right: 1 + [(a;q)oo/(q;q)oo] *
    sum_j prod_{m<=j}[(a-q^m)/(1-q^m)] * z q^j/(1 - z q^j).  Valid for
    |a| < 1, |q| < 1, z away from the poles q^-j.
    """
    with mp.workdps(dps + _GUARD_DPS):
        a = mpmathify(a)
        q = mpmathify(q)
        z = mpmathify(z)
        if abs(a) >= 1:
            raise DomainError("the expansion requires |a| < 1")
        if abs(q) >= 1:
            raise DomainError(
                f"the expansion requires |q| < 1 (got |q| = {abs(q)})")
        # the poles q^-j with |q^-j| <= |z| + 1; at q = 0 only z = 1
        pole, reach = mp.one, abs(z) + 1
        for j in count():
            if abs(pole) > reach:
                break
            if abs(z - pole) < mpf(10) ** -6:
                raise DomainError(f"z within 1e-6 of the pole q^-{j}")
            if q == 0:
                break
            pole /= q
        lhs = (pochhammer(a * z, q, dps=dps, truncation_scale=truncation_scale)
               / pochhammer(z, q, dps=dps, truncation_scale=truncation_scale))
        rhs = 1 + _a_ratio_sum(a, q, lambda qj: z * qj / (1 - z * qj),
                               dps, truncation_scale)
        return lhs, rhs


# ---------------------------------------------------------------------------
# The generating function by four routes
# ---------------------------------------------------------------------------


# the exact counts at the largest order asked for so far
_counts: tuple = ()


def _exact_counts(order: int) -> tuple:
    """PA_1..PA_order, sliced from one table that only ever grows."""
    global _counts
    if len(_counts) < order:
        _counts = pa3_series(order, "theorem").counts
    return _counts[:order]


def _taylor_order(q_abs: mpf, dps: int) -> int:
    # smallest N with N^g |2q|^N below the target: solve by two passes
    target = (dps + 6) * mp.log(10)
    rate = -mp.log(2 * q_abs)
    n = max(40, int(target / rate) + 1)
    g = mp.log(3) / mp.log(2)
    return int((target + g * mp.log(n)) / rate) + 2


def gf_eval(q, method: str = "taylor", dps: int = 40,
            truncation_scale: float = 1.0):
    """Numeric PA(q) by one of four routes.

    taylor       partial sum of the exact counting series; |q| < 1/2.
    meromorphic  C - A (v;q)oo/(qu;q)oo [q^2/(1-q)^2 + sum d_nu q^{nu+2}/
                 (1-2q+q^{nu+2})]; |q| < 0.55 off the slit [1/2, 0.55].
    doublesum    the a-ratio double sum over (j, nu); real q near 1/2.
    singular     D - q^2 A (a;q)oo(v;q)oo/((q;q)oo(av;q)oo) *
                 [(1-2q)^-gamma Pi(log_{1/q}(1-2q)) U + V]; q near 1/2
                 (|1-2q| <= 0.2, including complex sector points).
    """
    if method not in GF_ROUTES:
        raise ValueError(f"method must be one of {', '.join(GF_ROUTES)}")
    with mp.workdps(dps + _GUARD_DPS):
        return GF_ROUTES[method](mpmathify(q), dps, truncation_scale)


def _gf_taylor(q, dps, scale):
    if abs(q) >= mpf(1) / 2:
        raise DomainError("taylor route requires |q| < 1/2")
    n = _taylor_order(abs(q), dps)
    if n > TAYLOR_MAX_TERMS:
        raise DomainError(
            f"taylor route would need {n} exact terms at |q| = "
            f"{mp.nstr(abs(q), 6)} (limit {TAYLOR_MAX_TERMS}); use "
            "the meromorphic or singular route near |q| = 1/2")
    acc = mp.zero
    for c in reversed(_exact_counts(n)):
        acc = acc * q + c
    return acc * q


def _gf_meromorphic(q, dps, scale):
    if abs(q) >= mpf("0.55"):
        raise DomainError("meromorphic route requires |q| < 0.55")
    if q.imag == 0 and mpf(1) / 2 <= q.real <= mpf("0.55"):
        raise DomainError("meromorphic route is cut along the slit [1/2, 0.55]")
    b = base_quantities(q, dps=dps, truncation_scale=scale)
    # the tail needs |v q| < 1, which |q| < 0.55 implies: v q =
    # q(1-q+q^2)/(1-q) is analytic for |q| < 1, at most 0.9197 on |q| = 0.55
    ratio = b.pv / pochhammer(q * b.u, q, dps=dps, truncation_scale=scale)
    eps = _eps(dps)

    def terms():                        # power = q^{nu+2}
        for nu, (d, _), power in zip(count(1),
                                     islice(_ratios(b.v, b.u, q), 1, None),
                                     _powers(q, q * q * q)):
            den = b.t + power
            if abs(den) < eps:
                raise DomainError(f"q is within tail distance of the pole "
                                  f"of 1/(1-2q+q^{nu + 2})")
            yield d * power / den

    core = q * q / (1 - q) ** 2 + _tail_sum(terms(), dps, scale)
    return b.C - b.A * ratio * core


def _singular_prefactor(b: BaseQuantities):
    """q^2 A (a;q)oo (v;q)oo / ((q;q)oo (av;q)oo), in the doublesum and
    singular routes."""
    return b.q * b.q * b.A * b.pa * b.pv / b.pq / b.pav


def _gf_doublesum(q, dps, scale):
    """D - q^2 A (a;q)oo(v;q)oo/((q;q)oo(av;q)oo) * sum_j r_j sum_nu
    (v q^{j+1})^nu / (1-2q+q^{nu+2}), r_j the a-ratios.  The powers of
    base = v q^{j+1} and of q are running products; the denominators are
    the same for every j and are built once, as far as the longest nu-sum
    (the one at j = 0) reads them."""
    if abs(q.imag) > 0 or not (mpf("0.35") < q.real < mpf(1) / 2):
        raise DomainError("doublesum route is implemented for real q in (0.35, 1/2)")
    b = base_quantities(q, dps=dps, truncation_scale=scale)

    # 1-2q+q^{nu+2}, nu = 1, 2, ...
    dens, more = [], (b.t + power for power in _powers(q, q * q * q))

    def nu_terms(base):
        for i, power in enumerate(_powers(base, base)):
            if i == len(dens):
                dens.append(next(more))
            yield power / dens[i]

    j_terms = (ratio * _tail_sum(nu_terms(base), dps, scale)
               for (ratio, _), base in zip(_ratios(b.a, 1, q),
                                           _powers(q, b.v * q)))
    T = _tail_sum(j_terms, dps, scale)
    return b.D - _singular_prefactor(b) * T


def _near_half(q, dps, scale) -> BaseQuantities:
    """The record of q; the singular and regular series need |1-2q| <= 0.2."""
    b = base_quantities(q, dps=dps, truncation_scale=scale)
    if abs(b.t) > mpf("0.201"):
        raise DomainError(
            "singular/regular series are evaluated near q = 1/2 "
            f"(need |1-2q| <= 0.2, got {abs(b.t)})")
    return b


def U_eval(q, dps: int = 40, truncation_scale: float = 1.0):
    """Singular series U(q) = v q^{3 gamma - 2}/log(1/q) *
    (-t/q;q)oo / (-a t/q^2;q)oo with t = 1-2q."""
    with mp.workdps(dps + _GUARD_DPS):
        return _u_value(_near_half(q, dps, truncation_scale))


def _u_value(b: BaseQuantities):
    """U(q) from the record; the working precision is the caller's."""
    q, t = b.q, b.t
    return (b.v * q ** (3 * b.gamma - 2) / b.log_q
            * b._product(-t / q) / b._product(-b.a * t / q ** 2))


def V_eval(q, dps: int = 40, truncation_scale: float = 1.0):
    """Regular series V(q): the pole term plus the contiguous
    q-hypergeometric r-sum in (-a t/q^2)."""
    with mp.workdps(dps + _GUARD_DPS):
        return _v_sum(_near_half(q, dps, truncation_scale))


def _v_sum(b: BaseQuantities):
    """V(q) from the record; the working precision is the caller's."""
    q, t, a, v = b.q, b.t, b.a, b.v
    # the r-sum needs |z| < 1, which _near_half's |t| <= 0.201 implies: z =
    # -a t/q^2 = -4t/(3+t^2) is analytic for |t| < sqrt(3), at most 0.2717
    z = -a * t / q ** 2
    term1 = -b.pq / b.pa / q ** 2 / (1 + t / q ** 2)
    av = a * v
    q_num, q_den = tee(islice(_powers(q), 1, None))
    nums = accumulate((1 - qr / av for qr in q_num), mul, initial=mp.one)
    dens = accumulate((1 - qr / v for qr in q_den), mul, initial=mp.one)
    terms = (num / den * zr for num, den, zr in zip(nums, dens, _powers(z)))
    s = _tail_sum(terms, b.dps, b.truncation_scale)
    return term1 + b.pq * b.pav / (b.pa * b.pv) / q ** 2 * s


def pi_eval(w, q, dps: int = 40, truncation_scale: float = 1.0):
    """The oscillation factor Pi(w) = sum_k p_k e^{-2 i k pi w},
    p_k = pi/sin(pi gamma + 2 i k pi^2 / log(1/q)), gamma from v(q).

    The p_k decay like exp(-2 k pi^2 Re(1/log(1/q))) (~4.3e-13 per step
    at q = 1/2), but for complex w the factor e^{-+2 i k pi w} grows like
    exp(2 k pi |Im w|) on one side.  Harmonics are added by the truncation
    rule, sized by the larger of the +k and the -k term.  Where their ratio
    rho = exp(2 pi (|Im w| - pi Re(1/log(1/q)))) is not below 1, or so
    close to 1 that the rule would need more than _MAX_TERMS harmonics,
    DomainError is raised before the first one.
    """
    with mp.workdps(dps + _GUARD_DPS):
        b = base_quantities(q, dps=dps, truncation_scale=truncation_scale)
        return _pi_sum(mpmathify(w), b.gamma, b.log_q, dps, truncation_scale)


def _pi_sum(w, gamma, log_q, dps, scale):
    """Pi(w) for the given gamma and log(1/q), at the caller's precision."""
    # the harmonics shrink by rho per step; they reach 10^-(dps+5) after
    # about (dps+5) log(10)/(-log rho) of them, times the scale
    log_rho = 2 * mp.pi * (abs(w.imag) - mp.pi * (1 / log_q).real)
    if scale * (dps + 5) * mp.log(10) > -log_rho * _MAX_TERMS:
        raise DomainError(
            f"Pi(w) harmonics change by a factor {mp.nstr(mp.exp(log_rho), 8)}"
            f" per step: they do not reach 10^-{dps + 5} within {_MAX_TERMS} "
            f"terms (w = {w})")
    stop = _stop_rule(dps, scale)
    total = mp.pi / mp.sin(mp.pi * gamma)
    for k in count(1):
        terms = [mp.pi / mp.sin(mp.pi * gamma + 2j * sk * mp.pi ** 2 / log_q)
                 * mp.e ** (-2j * sk * mp.pi * w) for sk in (k, -k)]
        total += terms[0] + terms[1]
        if stop(max(abs(t) for t in terms)):
            return total


def _gf_singular(q, dps, scale):
    b = _near_half(q, dps, scale)
    D = b.D             # at q = 1/2 the Laurent DomainError, before t^-gamma
    T = (b.t ** (-b.gamma) * _pi_sum(mp.log(b.t) / b.log_q, b.gamma, b.log_q,
                                     dps, scale)
         * _u_value(b) + _v_sum(b))
    return D - _singular_prefactor(b) * T


# the routes of gf_eval, by name
GF_ROUTES = {"taylor": _gf_taylor, "meromorphic": _gf_meromorphic,
             "doublesum": _gf_doublesum, "singular": _gf_singular}


# ---------------------------------------------------------------------------
# h_j: direct sum vs exact representation
# ---------------------------------------------------------------------------


def h_direct(j: int, t, q, v, dps: int = 40, truncation_scale: float = 1.0):
    """h_j(t) = q^-2 sum_{nu>=1} (v q^j)^nu / (1 + t q^{-nu-2}).

    Converges for every t > 0 (the denominator eventually grows like
    t q^{-nu}); this is the route usable at large t.
    """
    with mp.workdps(dps + _GUARD_DPS):
        t = mpmathify(t)
        q = mpmathify(q)
        v = mpmathify(v)
        if not t > 0:
            raise DomainError("h_j direct sum needs t > 0")
        base = v * q ** j
        terms = (power / (1 + t / q_nu)      # (v q^j)^nu, q^{nu+2}
                 for power, q_nu in zip(_powers(base, base),
                                        _powers(q, q ** 3)))
        return _tail_sum(terms, dps, truncation_scale) / q ** 2


def h_representation(j: int, t, q, v, dps: int = 40,
                     truncation_scale: float = 1.0):
    """The exact representation: power-law-times-Pi term plus the r-sum.

    h_j(t) = (-1)^j v q^{3 gamma - 2j - 2}/log(1/q) t^{j-gamma}
             Pi(log_{1/q} t) + q^-2 sum_r (-1)^r v q^{j-3r}/(1-v q^{j-r}) t^r.

    The r-sum contracts like |t|/q^2, so t must stay well inside q^2.
    """
    with mp.workdps(dps + _GUARD_DPS):
        t = mpmathify(t)
        q = mpmathify(q)
        v = mpmathify(v)
        if not 0 < t < q ** -3:
            raise DomainError("representation stated for 0 < t < q^-3")
        if abs(t) >= mpf("0.9") * q ** 2:
            raise DomainError("representation r-sum needs |t| < q^2 to contract")
        log_q = mp.log(1 / q)
        gamma = mp.log(v) / log_q
        sing = ((-1) ** j * v * q ** (3 * gamma - 2 * j - 2) / log_q
                * t ** (j - gamma) * _pi_sum(mp.log(t) / log_q, gamma, log_q,
                                             dps, truncation_scale))
        step = -t / q ** 3

        def terms():
            # (-1)^r v q^{j-3r} t^r = v q^j (-t/q^3)^r, and q^{j-r}, which
            # steps by division
            q_jr = q ** j
            for power in _powers(step, v * q_jr):
                yield power / (1 - v * q_jr)
                q_jr /= q

        return sing + _tail_sum(terms(), dps, truncation_scale) / q ** 2


def hj_check(j: int, t, q, v, dps: int = 40, truncation_scale: float = 1.0):
    """(direct, representation) pair for comparison."""
    return (h_direct(j, t, q, v, dps=dps, truncation_scale=truncation_scale),
            h_representation(j, t, q, v, dps=dps, truncation_scale=truncation_scale))


# ---------------------------------------------------------------------------
# kappa, poles, Omega, residuals
# ---------------------------------------------------------------------------


def kappa(k: int, dps: int = 40, truncation_scale: float = 1.0):
    """Fourier coefficient kappa_k of the oscillating amplitude.

    kappa_k = pi / (9 log2 sin(pi g + 2ik pi^2/log2)
                    Gamma(g+1+2ik pi/log2)) * prod_{j>=0}
              (1-(1/3)2^-j)(1-(3/2)2^-j)/(1-(1/2)2^-j)^2,  g = log2(3).

    kappa_0 is real and returned so; kappa_{-k} is the conjugate of kappa_k.
    """
    with mp.workdps(dps + _GUARD_DPS):
        prod = _kappa_product(dps, truncation_scale)
        g = mp.log(3) / mp.log(2)
        arg_sin = mp.pi * g + 2j * k * mp.pi ** 2 / mp.log(2)
        arg_gam = g + 1 + 2j * k * mp.pi / mp.log(2)
        value = mp.pi / (9 * mp.log(2) * mp.sin(arg_sin) * mp.gamma(arg_gam)) * prod
        return value.real if k == 0 else value


@functools.lru_cache(maxsize=16)
def _kappa_product(dps: int, truncation_scale: float):
    """(1/3;1/2)oo (3/2;1/2)oo / (1/2;1/2)oo^2, the same for every kappa_k."""
    with mp.workdps(dps + _GUARD_DPS):
        third, three_halves, half = (
            pochhammer(x, mpf(1) / 2, dps=dps, truncation_scale=truncation_scale)
            for x in (mpf(1) / 3, mpf(3) / 2, mpf(1) / 2))
        return third * three_halves / half ** 2


def kappa0(dps: int = 40) -> mpf:
    return kappa(0, dps=dps)


def oscillation_amplitude(dps: int = 40):
    """(2|kappa_1|, max_u |kappa(u)|) -- the two readings of "amplitude".

    kappa(u) = 2 Re sum_k kappa_k e^{2 pi i k u}, its harmonics added by the
    truncation rule on |kappa_k/kappa_1| (~1.6e-7 per step, so 8 harmonics
    at 40 digits and 17 at 100).  The kappa_1 term alone has its extremes at
    u = -arg(kappa_1)/(2 pi) and u + 1/2; the higher harmonics are far too
    small to move a root of kappa'(u) a quarter period, so each extreme of
    kappa(u) is the root of kappa' bracketed within 1/4 of one of them.
    The readings differ by at most 2 sum_{k>=2} |kappa_k| (~2e-16).
    """
    with mp.workdps(dps + _GUARD_DPS):
        ks, stop = [kappa(1, dps=dps)], _stop_rule(dps, 1)
        while not stop(abs(ks[-1] / ks[0])):
            ks.append(kappa(len(ks) + 1, dps=dps))

        def kappa_d(order, u):    # d^order kappa / du^order
            return 2 * sum((c * (2j * mp.pi * k) ** order
                            * mp.expjpi(2 * k * u)).real
                           for k, c in enumerate(ks, 1))

        top = -mp.arg(ks[0]) / (2 * mp.pi)
        quarter = mpf(1) / 4
        best = max(abs(kappa_d(0, _root(functools.partial(kappa_d, 1),
                                        x - quarter, x + quarter, dps)))
                   for x in (top, top + mpf(1) / 2))
        return 2 * abs(ks[0]), best


def poles(k_max: int, dps: int = 40) -> list:
    """Roots z_k in (1/2, 1) of 1 - 2x + x^{k+2}, k = 1..k_max.

    z_k = 1/2 + delta_k with delta_k ~ 2^-(k+3).  The polynomial is positive
    at delta = 0 and negative at delta = 2^-(k+2) for every k, so the
    bracketing solver finds z_k in that bracket and never the trivial root
    x = 1.
    """
    if k_max < 1:
        raise ValueError("k_max must be >= 1")
    half = mpf(1) / 2
    return [_root(lambda x, k=k: 1 - 2 * x + x ** (k + 2),
                  half, half + mpf(2) ** -(k + 2), dps)
            for k in range(1, k_max + 1)]


def theta_root(dps: int = 40) -> mpf:
    """The unique real root of 1 - 2x + x^2 - x^3 (~0.56984)."""
    return _root(lambda x: 1 - 2 * x + x * x - x ** 3, 0, 1, dps)


def _root(f, lo, hi, dps: int) -> mpf:
    """The root of f in [lo, hi], where f changes sign exactly once, by
    mpmath's bracketing Illinois solver at dps + _GUARD_DPS digits; the
    result leaves |f| < 10^-dps or an AssertionError is raised."""
    with mp.workdps(dps + _GUARD_DPS):
        x = mp.findroot(f, (lo, hi), solver="illinois")
        if abs(f(x)) >= mpf(10) ** -dps:
            raise AssertionError(
                f"root leaves a residual of {mp.nstr(abs(f(x)), 3)}")
        return x


# Printed coefficients of the non-oscillating 5-term expansion
# Omega_5 / 2^n = 1 + sum_{j<5} n^{g-j} sum_l c[(j,l)] (log n)^l.
OMEGA_PRINTED: dict[tuple[int, int], str] = {
    (0, 0): "0.1083842947",
    (1, 1): "-0.3928066917", (1, 0): "0.5442458535",
    (2, 2): "0.2627062704", (2, 1): "0.6950193894", (2, 0): "0.6985601031",
    (3, 3): "0.08310555463", (3, 2): "-0.02188678892",
    (3, 1): "-1.570478457", (3, 0): "-1.18810811075202",
    (4, 4): "0.06722511293", (4, 3): "0.05494834609",
    (4, 2): "-3.297513638", (4, 1): "-4.663711650", (4, 0): "-4.156441653",
}

OMEGA_MAX_TERMS = 5


def omega_coefficients(terms: int = 5, dps: int = 40) -> dict:
    """Model coefficients c[(j, l)] for j < terms.

    (0,0) and (1,1) have closed forms -- kappa_0 and -kappa_0 g log3/log^2(2)
    -- and are recomputed at working precision (they agree with the printed
    10-digit values, which is asserted in the test suite); the others are the
    printed constants.
    """
    if terms < 0:
        raise ValueError("terms must be >= 0")
    if terms > OMEGA_MAX_TERMS:
        raise DomainError(
            f"only {OMEGA_MAX_TERMS} expansion terms are available; deriving "
            "higher ones needs symbolic q-Pochhammer derivatives")
    with mp.workdps(dps + _GUARD_DPS):
        out = {key: mpf(text) for key, text in OMEGA_PRINTED.items()
               if key[0] < terms}
        if terms >= 1:
            out[(0, 0)] = k0 = kappa0(dps=dps)
        if terms >= 2:
            g = mp.log(3) / mp.log(2)
            out[(1, 1)] = -k0 * g * mp.log(3) / mp.log(2) ** 2
        return out


def _prime_table(top: int, bits: int, power_bits=None, k=None):
    """(logs, powers, phases): log n, n^-g and e^{2 i k pi log2 n} for
    n = 0..top (entry 0 unused) as Python integers, g = log2(3).

    log n and the phases (re, im) are in units of 2^-bits, n^-g in units
    of 2^-power_bits; without ``power_bits`` or ``k`` that list is None.
    A smallest-prime-factor sieve to ``top`` runs first; mpmath evaluates
    only at the primes, 16 bits past the finer of the two units, each
    value rounded to the nearest unit.  A composite n = p m, p its smallest
    prime factor, takes log p + log m by one integer add and the other two
    by one product of integers rounded to the nearest unit.  So log n is
    off by at most Omega(n)/2 units plus 2^-10 per prime factor, n^-g by
    under Omega(n) units (a product adds the errors of its factors, whose
    values are at most 1, plus half a unit) and a phase by under sqrt(2)
    Omega(n) units in modulus (half a unit in each component per
    rounding), Omega(n) the number of prime factors of n with multiplicity.
    """
    spf = list(range(top + 1))
    # descending, so each n ends with its smallest divisor d >= 2, d^2 <= n
    for p in range(isqrt(top), 1, -1):
        spf[p * p::p] = [p] * ((top - p * p) // p + 1)
    logs = [0] * (top + 1)
    powers = None if power_bits is None else [1 << power_bits] * (top + 1)
    phases = None if k is None else [(1 << bits, 0)] * (top + 1)
    with mp.workprec(max(bits, power_bits or 0) + 16):
        g = mp.log(3) / mp.log(2)
        turns = 2 * (k or 0) / mp.log(2)        # e^{i pi turns log n}
        for n in range(2, top + 1):
            p = spf[n]
            if p == n:
                log_p = mp.log(n)
                logs[n] = _nearest(log_p, bits)
                if powers:
                    powers[n] = _nearest(mp.exp(-g * log_p), power_bits)
                if phases:
                    w = mp.expjpi(turns * log_p)
                    phases[n] = (_nearest(w.real, bits), _nearest(w.imag, bits))
                continue
            m = n // p
            logs[n] = logs[p] + logs[m]
            if powers:
                powers[n] = _rounded(powers[p] * powers[m], power_bits)
            if phases:
                (a, b), (c, d) = phases[p], phases[m]
                phases[n] = (_rounded(a * c - b * d, bits),
                             _rounded(a * d + b * c, bits))
    return logs, powers, phases


def _rounded(x: int, bits: int) -> int:
    """x 2^-bits rounded to the nearest integer."""
    return (x + (1 << (bits - 1))) >> bits


def _nearest(x, bits: int) -> int:
    """x in units of 2^-bits, rounded to the nearest unit."""
    return int(mp.nint(mp.ldexp(x, bits)))


def _block(values) -> tuple:
    """mpf values as (integers, e), each value about integer 2^e: one
    binary exponent for the list, at which the largest magnitude takes
    mp.prec + _GUARD_BITS bits; each integer is truncated, off by under
    one unit."""
    e = max((mp.mag(x) for x in values if x), default=0) - (
        mp.prec + _GUARD_BITS)
    return [int(mp.ldexp(x, -e)) for x in values], e


@dataclass(frozen=True)
class ResidualTable:
    """Rows (n, PA_n 2^-n n^-g, same minus Omega_T(n) 2^-n n^-g)."""

    rows: tuple
    terms: int
    precision: int
    source: str

    def residual_at(self, n: int):
        for row in self.rows:
            if row[0] == n:
                return row[2]
        raise KeyError(n)


def residuals(max_n: int, terms: int = 5, dps: int = 40,
              counts=None, min_n: int = 2) -> ResidualTable:
    """Scaled counts and their deviation from the T-term model.

    The model Omega_T(n) 2^-n = 1 + sum_{j<T} n^{g-j} P_j(log n), with
    P_j(L) = sum_l c[(j,l)] L^l, is taken in the units of the table,
    Omega_T(n) 2^-n n^-g = n^-g + sum_{j<T} n^-j P_j(log n).  Each row is
    formed on Python integers in units of 2^-bits, bits = prec + 32: 32
    guard bits past the working precision.  log n and n^-g come from
    _prime_table, which calls mpmath only at the primes; the scaled count
    is (PA_n 2^-n) n^-g, one product shifted right, and the polynomial part
    is a Horner sum in log n and in 1/n.  The coefficients convert to such
    integers exactly: each has at most prec bits and a magnitude above
    2^-32.  Each Horner step that shifts or floor-divides drops under one
    unit, and the later steps multiply that loss by at most (log n)^i n^-j
    < 1 (i < j, log n < n): fewer units than there are steps, 14 at T = 5.
    The table's error in log n, at most Omega(n)/2 units, moves the sum by
    less than that at every n >= 2, and n^-g and the scaled count each
    carry under Omega(n) + 1 units.  So a row is off by a few dozen units
    at most, about 2^-(prec+26), before the scaled count and the residual
    are each rounded to the working precision once.  ``counts`` may be a
    CountTable (exact) or FloatSeries1 (scaled float counts) reaching at
    least ``max_n``; by default the exact theorem-route counts are computed.
    """
    if not 2 <= min_n <= max_n:
        raise ValueError("residuals need 2 <= min_n <= max_n")
    if counts is None:
        counts = pa3_series(max_n, "theorem")
    source, available, scaled_count = _scaled_counts(counts)
    if available < max_n:
        raise DomainError(
            f"counts reach n = {available}, residuals need n up to {max_n}")
    coeffs = omega_coefficients(terms, dps=dps)
    with mp.workdps(dps + _GUARD_DPS):
        bits = mp.prec + _GUARD_BITS
        # n^-g on a finer scale: times a scaled count, which is below
        # 2^shift, it still carries ``bits`` fractional bits
        shift = 2 * max_n.bit_length()
        logs, powers, _ = _prime_table(max_n, bits, power_bits=bits + shift)
        # P_{T-1}, ..., P_0, each as its coefficients c[(j,j)], ..., c[(j,0)]
        polys = [[int(mp.ldexp(coeffs[(j, l)], bits))
                  for l in range(j, -1, -1)] for j in reversed(range(terms))]
        rows = []
        for n in range(min_n, max_n + 1):
            mantissa, exponent = scaled_count(n)
            scaled_g = mantissa * powers[n] >> (exponent + shift)
            fixed_L = logs[n]
            model = 0
            for poly in polys:
                p = 0
                for c in poly:
                    p = (p * fixed_L >> bits) + c
                model = model // n + p
            model += powers[n] >> shift
            rows.append((n, mpf((scaled_g, -bits)),
                         mpf((scaled_g - model, -bits))))
        return ResidualTable(tuple(rows), terms, dps, source)


def _scaled_counts(counts):
    """(source, largest n, n -> (m, e)) for a CountTable or FloatSeries1,
    with PA_n 2^-n = m 2^-e: exactly for a CountTable, as stored for a
    FloatSeries1."""
    if isinstance(counts, FloatSeries1):
        return ("float", counts.order,
                lambda n: (counts.mantissas[n], counts.scale_bits))
    if isinstance(counts, CountTable):
        return ("exact", counts.max_area, lambda n: (counts.count(n), n))
    raise TypeError("counts must be a CountTable or FloatSeries1")


def _window(table: ResidualTable, u_range, k: int) -> tuple:
    """(rows, logs, phases): the rows (n, residual) with 2^u0 <= n <= 2^u1,
    and _prime_table's log n and e^{2 i k pi log2 n} up to the last of them,
    in units of 2^-(prec+32).  The first and the last sample, their log2 n
    taken from the table, must lie within 0.01 of the window's ends."""
    u0, u1 = u_range
    uncovered = DomainError(f"residual table does not cover u in [{u0}, {u1}]")
    lo, hi = int(mp.ceil(mpf(2) ** u0)), int(mp.floor(mpf(2) ** u1))
    pts = [(n, r) for n, _, r in table.rows if lo <= n <= hi]
    if not pts:
        raise uncovered
    bits = mp.prec + _GUARD_BITS
    logs, _, phases = _prime_table(pts[-1][0], bits, k=k)
    first, last = (mp.ldexp(logs[n], -bits) / mp.log(2)
                   for n in (pts[0][0], pts[-1][0]))
    if first - u0 > mpf("0.01") or u1 - last > mpf("0.01"):
        raise uncovered
    return pts, logs, phases


def fourier_extract(table: ResidualTable, k: int, u_range) -> mpc:
    """Trapezoidal Fourier coefficient of the residual over u = log2(n).

    kappa_hat_k = (1/(u1-u0)) integral residual(u) e^{-2 i k pi u} du over
    the (non-uniform) samples u_n = log2 n; the window length must be a
    positive integer number of periods, at least 2.  The trapezoid sum is
    taken on integers: the residuals in one binary exponent, the phases
    and the steps log n - log m from _prime_table; 1/log 2 cancels between
    the steps and the window's length, and one rounding to the working
    precision ends it.
    """
    u0, u1 = u_range
    if u1 - u0 < 2 or abs((u1 - u0) - round(u1 - u0)) > 1e-12:
        raise DomainError("u-window must span an integer number of periods, >= 2")
    with mp.workdps(table.precision + _GUARD_DPS):
        pts, logs, phases = _window(table, u_range, k)
        if len(pts) < 16:
            raise DomainError("not enough samples in the window")
        ys, e = _block([r for _, r in pts])
        # (log n, residual times e^{-2 i k pi u}, re and im)
        fs = [(logs[n], y * phases[n][0], -y * phases[n][1])
              for (n, _), y in zip(pts, ys)]
        re = im = 0
        for (la, ra, ia), (lb, rb, ib) in pairwise(fs):
            re += (ra + rb) * (lb - la)
            im += (ia + ib) * (lb - la)
        bits = mp.prec + _GUARD_BITS
        return (mpc(mp.ldexp(re, e - bits), mp.ldexp(im, e - bits))
                / (2 * (fs[-1][0] - fs[0][0])))


def fourier_extract_detrended(table: ResidualTable, k: int, u_range) -> mpc:
    """Harmonic k with the decaying level-(j=1) harmonic fitted away.

    The T=5 residual still contains oscillatory terms of size ~1/n (the
    non-constant Fourier modes of the first subleading level), hundreds of
    times kappa_1 in absolute scale.  Least-squares fitting
    residual ~ c + d 2^-u + 2 Re[(alpha + beta 2^-u) e^{2 i k pi u}]
    separates them; alpha estimates kappa_k far inside the window where the
    plain trapezoidal estimate is still drifting.  Each sample takes
    e^{2 i k pi u} from _prime_table and 2^-u as 1/n, which is what it is
    at u = log2 n, all on integers in units of 2^-(prec+32).
    """
    u0, u1 = u_range
    if k < 1:
        raise DomainError(f"the detrended fit needs a harmonic k >= 1 (got {k})")
    if u1 - u0 < 2:
        raise DomainError("u-window must span at least 2 periods")
    with mp.workdps(table.precision + _GUARD_DPS):
        pts, _, phases = _window(table, u_range, k)
        if len(pts) < 32:
            raise DomainError("not enough samples in the window")
        bits = mp.prec + _GUARD_BITS
        ns = [n for n, _ in pts]
        re, im = zip(*(phases[n] for n in ns))
        # 1, 2^-u, e^{2 i k pi u} and 2^-u e^{2 i k pi u}, re and -im
        columns = [([1] * len(ns), 0)] + [(c, -bits) for c in (
            [(1 << bits) // n for n in ns], re, [-x for x in im],
            [x // n for x, n in zip(re, ns)],
            [-x // n for x, n in zip(im, ns)])]
        sol = _least_squares(columns, _block([r for _, r in pts]))
        return mpc(sol[2], sol[3]) / 2


def _least_squares(columns, ys) -> list:
    """The coefficients x minimising |sum_i x_i columns[i] - ys|, from the
    normal equations, at the caller's working precision.

    Each column and ys is a pair (integers, e), entry j standing for
    integers[j] 2^e: each column in its own binary exponent, so a column of
    tiny values keeps its bits.  Every entry of the normal equations is an
    exact integer dot product, rounded to the working precision once.
    """
    size = len(columns)
    normal = matrix(size, size)
    for i, (a, ea) in enumerate(columns):     # symmetric: one sum per pair
        for k, (b, eb) in enumerate(columns[:i + 1]):
            normal[i, k] = normal[k, i] = mpf((sum(map(mul, a, b)), ea + eb))
    y, ey = ys
    rhs = matrix([mpf((sum(map(mul, a, y)), ea + ey)) for a, ea in columns])
    return list(lu_solve(normal, rhs))


def exponent_fit(counts, dps: int = 40) -> mpf:
    """Least-squares slope of log2(PA_n 2^-n) against log2 n, top half of range.

    Accepts a CountTable or FloatSeries1 (scaled float counts).  For counts
    growing like 2^n n^rho the fit approaches rho.  A count in the fitted
    range that is not positive raises DomainError.  The slope is the same
    in natural logs, so each row takes one mp.log, of its scaled count,
    and log n from _prime_table; each column keeps its own binary exponent.
    """
    _, n_max, scaled = _scaled_counts(counts)
    lo = max(2, n_max // 2)
    if n_max - lo < 7:
        raise DomainError("need counts up to a larger order to fit")
    with mp.workdps(dps + _GUARD_DPS):
        ys = []
        for n in range(lo, n_max + 1):
            mantissa, exponent = scaled(n)
            if mantissa <= 0:
                raise DomainError(f"count PA_{n} is not positive; its log "
                                  "cannot be fitted")
            ys.append(mp.log(mp.ldexp(mantissa, -exponent)))
        bits = mp.prec + _GUARD_BITS
        logs = _prime_table(n_max, bits)[0][lo:]
        return _least_squares([([1] * len(logs), 0), (logs, -bits)],
                              _block(ys))[1]
