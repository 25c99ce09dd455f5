"""Deterministic named randomness substreams, and the draws made from them.

One master seed fans out into independent streams keyed by name, so results
do not depend on the order in which components draw randomness or on how
trials are scheduled across workers.

Stream contract: every draw equals CPython's own ``randrange``, ``randint``
or ``shuffle`` on the same ``random.Random`` (``Random._randbelow_with_getrandbits``:
``getrandbits(n.bit_length())``, redrawn while >= n), value for value and
state for state, without the stdlib's per-call argument handling.  The
golden digests of generated instances, arrivals and random splits depend on
this; ``tests/test_rng.py`` pins it to the stdlib.
"""

from __future__ import annotations

import hashlib
import math
import random
from bisect import bisect_right
from fractions import Fraction
from typing import Sequence


def substream(master_seed: int, *names: object) -> random.Random:
    """A ``random.Random`` whose state depends only on (master_seed, names)."""
    tag = ":".join([str(master_seed), *map(str, names)]).encode()
    digest = hashlib.sha256(tag).digest()
    return random.Random(int.from_bytes(digest[:16], "big"))


def randbelow(rng: random.Random, n: int) -> int:
    """A draw from range(n), n >= 1: ``rng.randrange(n)``."""
    if n < 1:
        raise ValueError("empty range")
    bits = n.bit_length()
    x = rng.getrandbits(bits)
    while x >= n:
        x = rng.getrandbits(bits)
    return x


def randints(rng: random.Random, lo: int, hi: int, count: int) -> list[int]:
    """``count`` draws of ``rng.randint(lo, hi)``, ``randbelow`` inlined."""
    n = hi - lo + 1
    if n < 1:
        raise ValueError("empty range")
    bits, getrandbits = n.bit_length(), rng.getrandbits
    out = []
    for _ in range(count):
        x = getrandbits(bits)
        while x >= n:
            x = getrandbits(bits)
        out.append(lo + x)
    return out


def shuffle(rng: random.Random, x: list) -> None:
    """``rng.shuffle(x)`` in place, ``randbelow`` inlined."""
    getrandbits = rng.getrandbits
    for i in reversed(range(1, len(x))):
        n = i + 1
        bits = n.bit_length()
        j = getrandbits(bits)
        while j >= n:
            j = getrandbits(bits)
        x[i], x[j] = x[j], x[i]


def bernoulli(rng: random.Random, p: Fraction) -> bool:
    """Exact Bernoulli(p) draw for rational p; p <= 0 and p >= 1 take no draw."""
    if p <= 0:
        return False
    if p >= 1:
        return True
    return randbelow(rng, p.denominator) < p.numerator


def thresholds(probs: Sequence[Fraction]) -> tuple[int, list[int]]:
    """``(den, cum)``: den the lcm of the denominators, ``cum[i]`` the first
    i + 1 probabilities summed in units of 1/den.  A draw x from range(den)
    picks the first i with x < cum[i]."""
    den = math.lcm(*(p.denominator for p in probs))
    cum, acc = [], 0
    for p in probs:
        acc += p.numerator * (den // p.denominator)
        cum.append(acc)
    return den, cum


def categorical(rng: random.Random, probs: Sequence[Fraction]) -> int:
    """Exact categorical draw over rational probabilities summing to 1."""
    den, cum = thresholds(probs)
    return min(bisect_right(cum, randbelow(rng, den)), len(probs) - 1)


UNIFORM_STEPS = 10**6


def uniform_fraction(rng: random.Random, lo: Fraction, hi: Fraction) -> Fraction:
    """Rational draw, uniform over the ``UNIFORM_STEPS + 1`` evenly spaced
    points of [lo, hi], endpoints included."""
    if hi < lo:
        raise ValueError("empty interval")
    if hi == lo:
        return lo
    return lo + (hi - lo) * Fraction(randbelow(rng, UNIFORM_STEPS + 1), UNIFORM_STEPS)
