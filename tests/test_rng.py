"""The draws of ``mmsonline.rng`` equal the standard library's, value for
value and state for state, and so do the random split and ``gen_random``
built on them (``gen_normalized_random`` is held to its stdlib-drawn
reference in ``test_generators.py``).  The golden digests depend on this: a
Python whose ``random.Random`` draws differently fails here first."""

import math
import random
from fractions import Fraction as F

import pytest

from mmsonline import TypeDistribution
from mmsonline.core import Bundle
from mmsonline.generators import gen_random, sample_arrivals
from mmsonline.rng import bernoulli, categorical, randbelow, randints, shuffle, substream
from mmsonline.unknown import random_split

SEEDS = range(50)
BOUNDS = sorted({1, 2, 3, 5000, 2**40 + 1, 2**48,
                 *(2**k + d for k in (1, 2, 3, 5, 8, 13, 20, 31, 32, 33, 47, 63, 64) for d in (-1, 0, 1))})


def _pair(seed):
    return substream(seed, "pin"), substream(seed, "pin")


def test_randbelow_is_randrange():
    for seed in SEEDS:
        got, want = _pair(seed)
        for n in BOUNDS:
            assert [randbelow(got, n) for _ in range(3)] == [want.randrange(n) for _ in range(3)], (seed, n)
        assert got.getstate() == want.getstate(), seed


def test_randbelow_rejects_an_empty_range():
    for n in (0, -1):
        with pytest.raises(ValueError):
            randbelow(random.Random(0), n)
        with pytest.raises(ValueError):
            randints(random.Random(0), 0, n - 1, 1)


def test_randints_is_a_randint_loop():
    for seed in SEEDS:
        got, want = _pair(seed)
        for lo, hi, count in [(3, 5, 40), (1, 1, 5), (2, 4, 1000), (-7, 9, 30), (0, 47, 20),
                              (0, 2**40, 10), (10, 2**48 + 9, 10), (0, 0, 0)]:
            assert randints(got, lo, hi, count) == [want.randint(lo, hi) for _ in range(count)], (seed, lo, hi)
        # harness's uniform arrivals: randints(0, k - 1) in place of randrange(k)
        assert randints(got, 0, 2, 500) == [want.randrange(3) for _ in range(500)], seed
        assert got.getstate() == want.getstate(), seed


def test_shuffle_is_the_stdlib_shuffle():
    for seed in SEEDS:
        got, want = _pair(seed)
        for size in (0, 1, 2, 3, 10, 64, 65, 257, 1000):
            mine, theirs = list(range(size)), list(range(size))
            shuffle(got, mine)
            want.shuffle(theirs)
            assert mine == theirs, (seed, size)
        assert got.getstate() == want.getstate(), seed


def _stdlib_categorical(rng, probs):
    den = math.lcm(*(p.denominator for p in probs))
    r, acc = rng.randrange(den), 0
    for i, p in enumerate(probs):
        acc += p.numerator * (den // p.denominator)
        if r < acc:
            return i
    return len(probs) - 1


SPLIT_PROBS = (F(0), F(1), F(1, 2), F(7, 13), F(1, 10**6 + 3), F(2**40, 2**40 + 1))
LAWS = [(F(1),), (F(1, 2), F(1, 2)), (F(1, 2), F(3, 10), F(1, 5)), (F(6, 7), F(1, 7), F(0)),
        (F(2**40, 2**40 + 1), F(1, 2**40 + 1)), (F(1, 3), F(1, 3), F(1, 6), F(1, 6))]


def test_bernoulli_categorical_and_arrivals_match_stdlib_draws():
    for seed in SEEDS:
        got, want = _pair(seed)
        for p in SPLIT_PROBS:
            assert ([bernoulli(got, p) for _ in range(5)]
                    == [p == 1 or p > 0 and want.randrange(p.denominator) < p.numerator for _ in range(5)])
        for probs in LAWS:
            assert ([categorical(got, probs) for _ in range(5)]
                    == [_stdlib_categorical(want, probs) for _ in range(5)])
            dist = TypeDistribution.from_probs(probs)
            assert (sample_arrivals(dist, 60, got)
                    == [dist.order[_stdlib_categorical(want, dist.probs)] for _ in range(60)])
        assert got.getstate() == want.getstate(), seed


def _stdlib_random_split(items, p, rng):
    """Reference: ``random_split`` with one ``randrange`` per item."""
    b1, b2 = [], []
    for g in sorted(items):
        (b1 if p == 1 or p and rng.randrange(p.denominator) < p.numerator else b2).append(g)
    return Bundle(tuple(b1)), Bundle(tuple(b2))


@pytest.mark.parametrize("items", [[], [4], list(range(7)), list(range(0, 900, 3)), list(range(2000, 0, -1))])
def test_random_split_matches_the_stdlib_reference(items):
    for seed in range(8):
        for p in SPLIT_PROBS:
            got, want = substream(seed, "split"), substream(seed, "split")
            assert random_split(items, p, got) == _stdlib_random_split(items, p, want), (seed, p)
            assert got.getstate() == want.getstate(), (seed, p)


def _stdlib_random(n, m, k, value_model, seed):
    """Reference: ``gen_random`` with the stdlib's ``randint``, ``choice`` and
    ``shuffle`` (the binary model draws through ``bernoulli``, pinned above)."""
    rng = substream(seed, "instance", value_model, n, m, k)
    if value_model == "uniform":
        return tuple(tuple(F(rng.randint(1, 48), rng.choice((1, 2, 3, 4, 6))) for _ in range(m))
                     for _ in range(k))
    groups = [g % k for g in range(m)]
    rng.shuffle(groups)
    return tuple(tuple(F(rng.randint(8, 12)) if groups[g] == i else F(rng.randint(0, 3)) for g in range(m))
                 for i in range(k))


@pytest.mark.parametrize("model", ["uniform", "clustered"])
def test_gen_random_matches_the_stdlib_reference(model):
    for n, m, k in [(1, 1, 1), (4, 12, 3), (6, 14, 3), (5, 40, 4)]:
        for seed in range(6):
            assert gen_random(n, m, k, model, seed).type_values == _stdlib_random(n, m, k, model, seed), (n, m, k, seed)
