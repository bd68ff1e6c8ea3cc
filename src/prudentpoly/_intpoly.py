"""Low-level kernels for dense integer polynomials (truncated power series).

A polynomial/series is a plain ``list[int]`` of coefficients indexed by
exponent.  Everything here is exact integer arithmetic: truncated schoolbook
multiplication and long division by a unit-constant denominator.
"""

from __future__ import annotations


def mul(a: list[int], b: list[int], n_out: int) -> list[int]:
    """Product of coefficient lists, truncated to exponents 0..n_out."""
    out = [0] * (n_out + 1)
    for i, ca in enumerate(a[:n_out + 1]):
        if not ca:
            continue
        for j, cb in enumerate(b[:n_out + 1 - i]):
            if cb:
                out[i + j] += ca * cb
    return out


def expand_rational(numer: list[int], denom: list[int], order: int) -> list[int]:
    """Series of numer/denom to the given order; denom[0] must be +-1.

    The unit constant term keeps all coefficients in Z (long division never
    divides by anything but +-1).
    """
    if not denom or denom[0] not in (1, -1):
        raise ValueError(
            "denominator must have constant term +1 or -1 "
            f"(got {denom[0] if denom else 'empty'})"
        )
    d0 = denom[0]
    s = [0] * (order + 1)
    for n in range(order + 1):
        acc = numer[n] if n < len(numer) else 0
        for k in range(1, min(n, len(denom) - 1) + 1):
            if denom[k]:
                acc -= denom[k] * s[n - k]
        s[n] = acc if d0 == 1 else -acc
    return s
