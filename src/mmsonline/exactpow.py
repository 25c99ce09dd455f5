"""Exact comparisons, floors and ceilings for expressions that mix rationals
with rational powers of integers, e.g. ``mu + n**(a/b) * sqrt(mu)``.

All decisions here are made with integer arithmetic; no float is ever
formed.  This matters in practice: ``5000**(41/60)`` is 336.99969..., so a
float ceiling is one ULP away from being wrong, and float powers overflow
long before the integers do.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence


def int_nth_root(x: int, r: int) -> int:
    """floor(x ** (1/r)) for x >= 0, r >= 1."""
    if x < 0:
        raise ValueError("negative radicand")
    if r < 1:
        raise ValueError("root degree must be >= 1")
    if x == 0 or r == 1:
        return x
    g = 1 << -(-x.bit_length() // r)  # power of two >= true root
    while True:
        nxt = ((r - 1) * g + x // g ** (r - 1)) // r
        if nxt >= g:
            break
        g = nxt
    while g ** r > x:
        g -= 1
    while (g + 1) ** r <= x:
        g += 1
    return g


def pow_sqrt_le(n: int, exponent: Fraction, radicand: Fraction, threshold: Fraction) -> bool:
    """Decide ``n**exponent * sqrt(radicand) <= threshold`` exactly."""
    if n == 0 or radicand == 0:
        return threshold >= 0
    if threshold < 0:
        return False
    a, b = exponent.numerator, exponent.denominator
    return Fraction(n) ** (2 * a) * radicand ** b <= threshold ** (2 * b)


def floor_plus_pow_sqrt(base: Fraction, n: int, exponent: Fraction, radicand: Fraction) -> int:
    """``floor(base + n**exponent * sqrt(radicand))``, exactly.

    With base = num/den and exponent = a/b, den * n**(a/b) * sqrt(q) is the
    2b-th root of R = den**(2b) * n**(2a) * q**b, and the floor of a
    rational's r-th root is the floor of the root of its integer part.
    """
    if n < 0 or radicand < 0 or exponent < 0:
        raise ValueError("requires nonnegative n, exponent, radicand")
    if n == 0 or radicand == 0:
        return math.floor(base)
    a, b = exponent.numerator, exponent.denominator
    num, den = base.numerator, base.denominator
    r = den ** (2 * b) * n ** (2 * a) * radicand.numerator ** b // radicand.denominator ** b
    return (num + int_nth_root(r, 2 * b)) // den


def ceil_pow(n: int, exponent: Fraction) -> int:
    """``ceil(n ** exponent)`` for n >= 1, exponent >= 0, exactly: one more
    than the floor of the b-th root of n**a - 1 (exponent = a/b)."""
    if n < 1:
        raise ValueError("requires n >= 1")
    if exponent < 0:
        raise ValueError("requires exponent >= 0")
    return int_nth_root(n ** exponent.numerator - 1, exponent.denominator) + 1


def mul_sqrt_lt(coeff: Fraction, n: int, threshold: Fraction) -> bool:
    """Decide ``coeff * sqrt(n) < threshold`` exactly (coeff >= 0, n >= 0)."""
    if coeff < 0 or n < 0:
        raise ValueError("requires nonnegative coeff and n")
    if threshold <= 0:
        return False
    return coeff ** 2 * n < threshold ** 2


def sqrt_bracket(x: Fraction, digits: int) -> tuple[Fraction, Fraction]:
    """Rational lo <= sqrt(x) <= hi with hi - lo <= 10**-digits."""
    if x < 0:
        raise ValueError("negative radicand")
    s = 10 ** digits
    r = math.isqrt(x.numerator * x.denominator * s * s)
    den = s * x.denominator
    return Fraction(r, den), Fraction(r + 1, den)


def pow_bracket(n: int, exponent: Fraction, digits: int) -> tuple[Fraction, Fraction]:
    """Rational bracket around ``n ** exponent`` (n >= 1, exponent >= 0)."""
    if n < 1:
        raise ValueError("requires n >= 1")
    a, b = exponent.numerator, exponent.denominator
    s = 10 ** digits
    r = int_nth_root(n ** a * s ** b, b)
    return Fraction(r, s), Fraction(r + 1, s)


SUM_BRACKET_DIGITS = 192


def pow_sqrt_sum_ge(n: int, exponent: Fraction, radicands: Sequence[Fraction],
                    threshold: Fraction) -> bool:
    """Decide ``n**exponent * sum_j sqrt(radicands[j]) >= threshold``.

    A sum of square roots has no single-radical closed form, so this uses
    escalating-precision rational brackets, up to ``SUM_BRACKET_DIGITS``
    digits.  An exact tie, which brackets can never separate, counts as >=.
    """
    if threshold <= 0:
        return True
    if n == 0:
        return False
    digits = 12
    while True:
        plo, phi = pow_bracket(n, exponent, digits)
        lo = Fraction(0)
        hi = Fraction(0)
        for q in radicands:
            blo, bhi = sqrt_bracket(q, digits)
            lo += blo
            hi += bhi
        if plo * lo >= threshold:
            return True
        if phi * hi < threshold:
            return False
        if digits >= SUM_BRACKET_DIGITS:
            return True
        digits *= 2
