"""Deterministic named randomness substreams.

One master seed fans out into independent streams keyed by name, so results
do not depend on the order in which components draw randomness or on how
trials are scheduled across workers.
"""

from __future__ import annotations

import hashlib
import math
import random
from fractions import Fraction
from typing import Sequence


def substream(master_seed: int, *names: object) -> random.Random:
    """A ``random.Random`` whose state depends only on (master_seed, names)."""
    tag = ":".join([str(master_seed), *map(str, names)]).encode()
    digest = hashlib.sha256(tag).digest()
    return random.Random(int.from_bytes(digest[:16], "big"))


def bernoulli(rng: random.Random, p: Fraction) -> bool:
    """Exact Bernoulli(p) draw for rational p."""
    if p <= 0:
        return False
    if p >= 1:
        return True
    return rng.randrange(p.denominator) < p.numerator


def categorical(rng: random.Random, probs: Sequence[Fraction]) -> int:
    """Exact categorical draw over rational probabilities summing to 1."""
    den = math.lcm(*(p.denominator for p in probs))
    r = rng.randrange(den)
    acc = 0
    for i, p in enumerate(probs):
        acc += p.numerator * (den // p.denominator)
        if r < acc:
            return i
    return len(probs) - 1


UNIFORM_STEPS = 10**6


def uniform_fraction(rng: random.Random, lo: Fraction, hi: Fraction) -> Fraction:
    """Rational draw, uniform over the ``UNIFORM_STEPS + 1`` evenly spaced
    points of [lo, hi], endpoints included."""
    if hi < lo:
        raise ValueError("empty interval")
    if hi == lo:
        return lo
    return lo + (hi - lo) * Fraction(rng.randrange(UNIFORM_STEPS + 1), UNIFORM_STEPS)
