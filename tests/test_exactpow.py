import math
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from mmsonline import exactpow
from mmsonline.exactpow import (
    SUM_BRACKET_DIGITS,
    ceil_pow,
    floor_plus_pow_sqrt,
    int_nth_root,
    mul_sqrt_lt,
    pow_bracket,
    pow_sqrt_le,
    pow_sqrt_sum_ge,
    sqrt_bracket,
)
from mmsonline.stochastic import reservation_cap
from mmsonline.unknown import UnknownParams


def pow_sqrt_ge(n: int, exponent: F, radicand: F, threshold: F) -> bool:
    """Decide ``n**exponent * sqrt(radicand) >= threshold`` exactly: the
    definition the floor tests check against.

    Requires n >= 0, exponent >= 0, radicand >= 0.  Both sides are raised to
    the (2 * exponent.denominator)-th power, which turns the comparison into
    one between plain rationals.
    """
    if threshold <= 0:
        return True
    if n == 0 or radicand == 0:
        return False
    a, b = exponent.numerator, exponent.denominator
    return F(n) ** (2 * a) * radicand ** b >= threshold ** (2 * b)


@given(st.integers(0, 10**12), st.integers(1, 7))
def test_int_nth_root_definition(x, r):
    g = int_nth_root(x, r)
    assert g ** r <= x < (g + 1) ** r


def test_nth_root_huge():
    x = 7 ** 300 + 12345
    g = int_nth_root(x, 60)
    assert g ** 60 <= x < (g + 1) ** 60


@given(st.integers(1, 500), st.fractions(min_value=0, max_value=2, max_denominator=12),
       st.fractions(min_value=0, max_value=50, max_denominator=40),
       st.fractions(min_value=-5, max_value=60, max_denominator=40))
def test_pow_sqrt_ge_matches_float(n, eps, rad, thr):
    lhs = math.exp(math.log(n) * float(eps)) * math.sqrt(float(rad)) if rad > 0 else 0.0
    # only check where floats are safely away from the boundary
    if abs(lhs - float(thr)) > 1e-6 * (1 + abs(lhs)):
        assert pow_sqrt_ge(n, eps, rad, thr) == (lhs >= float(thr))
        assert pow_sqrt_le(n, eps, rad, thr) == (lhs <= float(thr))


def test_floor_plus_pow_sqrt_examples():
    # n'=100, p=1/4, eps=3/10: floor(25 + 100^0.3 * 5) = 44
    assert floor_plus_pow_sqrt(F(25), 100, F(3, 10), F(25)) == 44
    # criterion-5 shape: floor(200/3 + 200^0.1 * sqrt(200/3)) = 80
    mu = F(200, 3)
    assert floor_plus_pow_sqrt(mu, 200, F(1, 10), mu) == 80
    assert floor_plus_pow_sqrt(F(10), 0, F(1, 2), F(10)) == 10


def test_floor_plus_pow_sqrt_against_mpmath():
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 60
    cases = [(F(25), 100, F(3, 10), F(25)), (F(200, 3), 200, F(1, 10), F(200, 3)),
             (F(7, 2), 33, F(2, 7), F(11, 3)), (F(0), 17, F(1, 3), F(5))]
    for base, n, eps, rad in cases:
        want = int(mp.floor(mp.mpf(base.numerator) / base.denominator +
                            mp.power(n, mp.mpf(eps.numerator) / eps.denominator) *
                            mp.sqrt(mp.mpf(rad.numerator) / rad.denominator)))
        assert floor_plus_pow_sqrt(base, n, eps, rad) == want


def test_ceil_pow_near_integer_boundary():
    # 5000^(41/60) = 336.9996..., a float one ULP off would say 338
    assert ceil_pow(5000, F(41, 60)) == 337
    assert ceil_pow(8, F(1, 3)) == 2
    assert ceil_pow(9, F(1, 2)) == 3
    assert ceil_pow(10, F(1, 2)) == 4
    assert ceil_pow(4, F(41, 60)) == 3
    assert ceil_pow(1, F(7, 3)) == 1
    assert ceil_pow(100, F(0)) == 1


@settings(deadline=None)
@given(st.integers(1, 10**40), st.fractions(min_value=0, max_value=3, max_denominator=10))
def test_ceil_pow_definition(n, eps):
    w = ceil_pow(n, eps)
    a, b = eps.numerator, eps.denominator
    assert w ** b >= n ** a
    assert w == 1 or (w - 1) ** b < n ** a


def _is_floor_plus_pow_sqrt(f, base, n, eps, rad):
    # f <= base + n^eps sqrt(rad) < f + 1
    return pow_sqrt_ge(n, eps, rad, f - base) and not pow_sqrt_ge(n, eps, rad, f + 1 - base)


@settings(deadline=None)
@given(st.fractions(min_value=-100, max_value=10**6, max_denominator=60),
       st.integers(0, 10**40),
       st.fractions(min_value=0, max_value=1, max_denominator=12),
       st.fractions(min_value=0, max_value=10**6, max_denominator=60))
def test_floor_plus_pow_sqrt_definition(base, n, eps, rad):
    assert _is_floor_plus_pow_sqrt(floor_plus_pow_sqrt(base, n, eps, rad), base, n, eps, rad)


def test_floors_and_ceilings_at_extreme_n():
    # far past float range: these are integer roots, not float guesses
    assert ceil_pow(10**800, F(1, 2)) == 10**400
    params = UnknownParams.for_instance(10**800, F(1, 20))
    w, (a, b) = params.learn_window, (41, 60)
    assert params.epsilon_prime == F(a, b)
    assert w ** b >= 10 ** (800 * a) > (w - 1) ** b
    for nprime in (10**30, 10**400):
        mu = nprime * F(1, 3)
        assert _is_floor_plus_pow_sqrt(reservation_cap(nprime, F(1, 3), F(1, 10)),
                                       mu, nprime, F(1, 10), mu)


def test_pow_le():
    # n ** e <= t is the radicand-1 case of pow_sqrt_le
    assert pow_sqrt_le(5000, F(19, 60), 1, F(15))
    assert not pow_sqrt_le(5000, F(19, 60), 1, F(14))
    assert not pow_sqrt_le(10, F(1, 2), 1, F(-1))


def test_mul_sqrt_lt():
    # ratio * sqrt(16) < 2 + 2*ratio at ratio = 1/2: 2 < 3
    assert mul_sqrt_lt(F(1, 2), 16, F(3))
    # boundary: 1 * sqrt(16) < 4 is false
    assert not mul_sqrt_lt(F(1), 16, F(4))


def test_brackets_contain_truth():
    lo, hi = sqrt_bracket(F(2), 20)
    assert lo < hi and hi - lo <= F(1, 10**19)
    assert lo * lo <= 2 <= hi * hi
    plo, phi = pow_bracket(5000, F(41, 60), 20)
    assert plo ** 60 <= F(5000) ** 41 <= phi ** 60


def test_pow_sqrt_sum_ge():
    # z = 10^(1/2) * (sqrt(4) + sqrt(9)) = 5*sqrt(10) = 15.81...
    assert pow_sqrt_sum_ge(10, F(1, 2), [F(4), F(9)], F(15))
    assert not pow_sqrt_sum_ge(10, F(1, 2), [F(4), F(9)], F(16))
    # exact tie: 4^(1/2) * (sqrt(1) + sqrt(4)) = 6 counts as >=
    assert pow_sqrt_sum_ge(4, F(1, 2), [F(1), F(4)], F(6))
    assert pow_sqrt_sum_ge(7, F(1, 3), [], F(0))
    assert not pow_sqrt_sum_ge(7, F(1, 3), [], F(1, 10**30))


@pytest.mark.parametrize("threshold,verdict,digits", [
    # 2^(1/2) * (sqrt(2) + sqrt(2)) is exactly 4: the brackets never separate,
    # so the tie is called >= only at the digit cap, unproven
    (F(4), True, [12, 24, 48, 96, SUM_BRACKET_DIGITS]),
    # 10^-30 away from the tie is decided once the brackets reach 48 digits
    (4 - F(1, 10**30), True, [12, 24, 48]),
    (4 + F(1, 10**30), False, [12, 24, 48]),
])
def test_pow_sqrt_sum_ge_escalates_to_the_digit_cap(monkeypatch, threshold, verdict, digits):
    seen = []

    def spy(n, exponent, d):
        seen.append(d)
        return pow_bracket(n, exponent, d)

    monkeypatch.setattr(exactpow, "pow_bracket", spy)
    assert pow_sqrt_sum_ge(2, F(1, 2), [F(2), F(2)], threshold) is verdict
    assert seen == digits
