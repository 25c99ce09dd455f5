"""Online allocation when the arrival distribution must be learned.

With at least ceil(n^eps') universally high-valued items, that many agents
are served singletons while their types are recorded, and the estimated
distribution hands the rest to the known-distribution pipeline.  Otherwise
the leftover items are split at random into a learning basket and a main
basket; the reservation allocator serves the learning window out of the
first basket at claim level 1/2 (one k-th of the basket's share floor of
k/2, which the random split guarantees with overwhelming probability), and
the saturation pipeline serves everyone else from the second basket under
the learned distribution.

Parameters follow ``eps = (5+4c)/18`` and ``eps' = (2+c)/3`` for a constant
0 < c < 0.1; all ceilings, floors and threshold comparisons are exact.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Sequence

from .adversarial import TentativeState, run_adversarial, step_adversarial
from .core import (
    Allocation,
    Bundle,
    FailureReason,
    InputError,
    NormalizedInstance,
    TrialReport,
    TypeDistribution,
    as_fraction,
    check_arrivals,
    check_items,
    finish_run,
)
from .exactpow import ceil_pow, pow_sqrt_le
from .rng import substream
from .stochastic import (
    claim_level,
    known_d_engine,
    low_c_info,
    preprocess_low_c,
    run_low_c,
    to_rank_space,
    universal_items,
)


@dataclass(frozen=True)
class UnknownParams:
    """Derived run parameters for a given instance size and constant c."""

    c: Fraction
    epsilon: Fraction
    epsilon_prime: Fraction
    n: int
    learn_window: int

    @classmethod
    def for_instance(cls, n: int, c) -> "UnknownParams":
        c = as_fraction(c)
        if not 0 < c < Fraction(1, 10):
            raise InputError("c must lie in (0, 0.1)")
        if n < 1:
            raise InputError("n must be positive")
        epsilon = (5 + 4 * c) / 18
        epsilon_prime = (2 + c) / 3
        return cls(c, epsilon, epsilon_prime, n, ceil_pow(n, epsilon_prime))

    @property
    def delta_exponent(self) -> Fraction:
        # the basket-value check uses delta = n ** -((eps' - c) / 2)
        return (self.epsilon_prime - self.c) / 2


def learn_distribution(observed_types: Sequence[int], k: int) -> TypeDistribution:
    """Empirical frequencies of an observation window, as exact rationals."""
    obs = list(observed_types)
    if not obs:
        raise InputError("empty observation window")
    if any(not 0 <= t < k for t in obs):
        raise InputError("observed type id out of range")
    counts = [0] * k
    for t in obs:
        counts[t] += 1
    return TypeDistribution.from_probs([Fraction(c, len(obs)) for c in counts])


def random_split(items: Sequence[int], p: Fraction, rng: random.Random) -> tuple[Bundle, Bundle]:
    """Independent exact Bernoulli(p) per item, ascending: (kept, rest); as in
    ``rng.bernoulli``, p = 1 and p = 0 take no draw.  The items must be
    distinct non-negative integers."""
    p = as_fraction(p)
    if not 0 <= p <= 1:
        raise InputError("p must lie in [0, 1]")
    order = check_items(items)
    if len(order) != len(items):
        raise InputError("repeated item id")
    if p == 0 or p == 1:
        b1, b2 = (order, []) if p else ([], order)
    else:
        # rng.randbelow(den) < num per item, inlined
        num, den, getrandbits = p.numerator, p.denominator, rng.getrandbits
        bits = den.bit_length()
        b1, b2 = [], []
        for g in order:
            x = getrandbits(bits)
            while x >= den:
                x = getrandbits(bits)
            (b1 if x < num else b2).append(g)
    return Bundle.from_sorted(b1), Bundle.from_sorted(b2)


def basket_value_ok(v: Fraction, k: int, params: UnknownParams) -> bool:
    """Decide ``v >= (1 - delta) * 2k * window`` exactly, with the run's
    learning window and delta = n ** -((eps' - c)/2)."""
    full = 2 * k * params.learn_window
    shortfall = 1 - as_fraction(v) / full
    if shortfall <= 0:
        return True
    # v >= (1-delta)*full  <=>  delta >= shortfall  <=>  n^exp <= 1/shortfall
    return pow_sqrt_le(params.n, params.delta_exponent, 1, 1 / shortfall)


def run_unknown_d(
    norm: NormalizedInstance,
    arrivals: Sequence[int],
    *,
    alpha: Fraction | None = None,
    eta: Fraction | None = None,
    c,
    seed: int = 0,
) -> tuple[Allocation, TrialReport]:
    """Serve n agents whose types stream in from an unknown distribution.

    The report's ratios are against the instance's normalized shares; the
    learning window, basket sizes, the learned distribution, and the exact
    basket-concentration verdict land in ``details``.
    """
    alpha = claim_level(alpha, eta)
    if not 0 < alpha <= Fraction(1, 2):
        raise InputError("alpha must lie in (0, 1/2] for the split stage")
    n, k, m = norm.n_agents, norm.k_types, norm.m_items
    seq = check_arrivals(arrivals, n, k)
    params = UnknownParams.for_instance(n, c)
    window = params.learn_window
    flags: list[str] = []
    details: dict = {"window": window}

    if window >= n:
        # too few agents to learn anything; fall back to the 1/k guarantee
        allocation, rep = run_adversarial(norm, seq, alpha=alpha)
        details["branch"] = "degenerate"
        return allocation, replace(rep, flags=("degenerateScale",), details=details)

    c_items = universal_items(norm.scaled, range(m), alpha)
    zero = norm.zero_mms_types
    bundles: list[Bundle | None] = []
    reason = FailureReason.NONE

    if len(c_items) >= window:
        details["branch"] = "learnFromUniversal"
        bundles.extend(Bundle.from_sorted((c_items[t],)) for t in range(window))
        learned = learn_distribution(seq[:window], k)
        details["learned"] = [str(p) for p in learned.original_probs()]
        served = set(c_items[:window])
        rest_items = [g for g in range(m) if g not in served]
        values_sorted, ranks = to_rank_space(norm, learned, seq[window:])
        sub, info = known_d_engine(
            values_sorted, rest_items, learned.probs,
            alpha, params.epsilon, ranks, norm.witness_partitions[learned.order[0]])
        details["dispatch"] = info
        bundles.extend(sub)
    else:
        details["branch"] = "splitAndLearn"
        bundles.extend(Bundle.from_sorted((g,)) for g in c_items)
        served_c = len(c_items)
        p = Fraction(2 * k * window, n - served_c)
        if p > 1:
            p = Fraction(1)
            flags.append("outOfRegime")
        details["splitProb"] = str(p)
        c_set = set(c_items)
        rest = Bundle.from_sorted([g for g in range(m) if g not in c_set] if c_set else range(m))
        basket1, basket2 = random_split(rest, p, substream(seed, "split"))
        details["basket1"] = len(basket1)
        details["basket2"] = len(basket2)

        learn_count = min(window, n - served_c)
        if learn_count < window:
            flags.append("truncatedWindow")
        # learning stage: reservation allocator on basket 1 at claim level 1/2
        state = TentativeState.create(
            norm.scaled, basket1, learn_count,
            threshold=Fraction(1, 2), zero_types=zero, checked=False)
        # basket 1's value to each type, before serving spends any of it
        basket1_values = state.remaining_worth()
        details["basket1Values"] = [str(v) for v in basket1_values]
        details["basket1ConcentrationOk"] = all(
            basket_value_ok(v, k, params)
            for i, v in enumerate(basket1_values) if i not in zero)
        learn_types = seq[served_c:served_c + learn_count]
        learn_bundles = [step_adversarial(state, t) for t in learn_types]
        bundles.extend(learn_bundles)
        if None in learn_bundles:
            reason = FailureReason.VALUE_BELOW_ALPHA
        # never empty: window < n here, and served_c < window
        learned = learn_distribution(learn_types, k)
        details["learned"] = [str(p_) for p_ in learned.original_probs()]

        rest_agents = n - served_c - learn_count
        if rest_agents > 0:
            values_sorted, ranks = to_rank_space(norm, learned, seq[served_c + learn_count:])
            state2 = preprocess_low_c(
                values_sorted, basket2, rest_agents, learned.probs,
                alpha, params.epsilon)
            bundles.extend(run_low_c(state2, ranks))
            details["dispatch"] = {"branch": "lowC", **low_c_info(state2, ranks)}

    return finish_run(norm, seq, bundles, alpha, reason, flags, details)
