"""Instance generators: the hand-built constructions used by the analysis
demos, reproducible random families, and arrival sources.

Constructions that are born normalized ship their share partitions, so runs
on them never need the exact solver regardless of size.
"""

from __future__ import annotations

import inspect
import itertools
import math
import random
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Mapping, Sequence

from .core import (
    Bundle,
    InputError,
    Instance,
    NormalizedInstance,
    ScaledRows,
    TypeDistribution,
    as_fraction,
    rescale,
    scale_parts,
)
from .rng import bernoulli, randbelow, randints, shuffle, substream, thresholds


# -- helpers ----------------------------------------------------------------


def _spread_witness(valued: Sequence[int], zeros: Sequence[int], n: int) -> tuple[Bundle, ...]:
    """One valued item per bundle, zero-valued items spread round-robin."""
    if len(valued) != n:
        raise InputError("need exactly n valued items")
    parts: list[list[int]] = [[valued[j]] for j in range(n)]
    for idx, g in enumerate(zeros):
        parts[idx % n].append(g)
    return tuple(Bundle(tuple(p)) for p in parts)


def _indicator(m: int, items: Iterable[int]) -> tuple[Fraction, ...]:
    """The row over m items worth 1 on ``items`` and 0 elsewhere."""
    marked = set(items)
    return tuple(Fraction(1 if g in marked else 0) for g in range(m))


# -- impossibility warm-up ---------------------------------------------------


def gen_example1(m: int) -> tuple[Instance, Callable[[Bundle], tuple[Instance, list[int]]]]:
    """Two agents, m items, first type values everything at 1.

    Returns the one-type instance plus a scripted second arrival: given the
    bundle granted to agent 1, it produces the full two-type instance whose
    second type values exactly two items, drawn from that bundle when it has
    two, together with the arrival order.
    """
    if m < 2 or m % 2:
        raise InputError("m must be even and at least 2")
    ones = _indicator(m, range(m))
    base = Instance(2, (ones,), ("uniform",))

    def reveal_second_type(first_bundle: Bundle) -> tuple[Instance, list[int]]:
        picks = list(first_bundle[:2])
        for g in range(m):
            if len(picks) == 2:
                break
            if g not in picks:
                picks.append(g)
        inst = Instance(2, (ones, _indicator(m, picks)), ("uniform", "twoItems"))
        return inst, [0, 1]

    return base, reveal_second_type


# -- pre-saturation counterexample -------------------------------------------


def gen_adv_counterexample(n: int, epsilon: Fraction | None = None) -> NormalizedInstance:
    """Two types over 3n items: the first values 2n items at 1/2 - eps and n
    items at 2*eps (share 1 via bags of two halves plus one tiny item); the
    second values everything at 1/3.  Already normalized.  The default eps is
    1/(8n), the middle of its legal range (0, 1/(4n))."""
    if n < 1:
        raise InputError("n must be positive")
    epsilon = Fraction(1, 8 * n) if epsilon is None else as_fraction(epsilon)
    if not 0 < epsilon < Fraction(1, 4 * n):
        raise InputError("epsilon must lie strictly inside (0, 1/(4n))")
    half = Fraction(1, 2) - epsilon
    tiny = 2 * epsilon
    row1 = tuple([half] * (2 * n) + [tiny] * n)
    row2 = tuple(Fraction(1, 3) for _ in range(3 * n))
    inst = Instance(n, (row1, row2), ("lopsided", "uniform"))
    wit1 = tuple(Bundle((2 * j, 2 * j + 1, 2 * n + j)) for j in range(n))
    wit2 = tuple(Bundle(tuple(range(3 * j, 3 * j + 3))) for j in range(n))
    return NormalizedInstance(inst, (Fraction(1), Fraction(1)), (wit1, wit2))


# -- binary lower-bound construction ------------------------------------------


@dataclass
class LowerBoundConstruction:
    """Binary instance on n * mu1 items with mu1 = floor(sqrt(k)/2).

    Type 0 values everything (share mu1).  For each block of n consecutive
    items there is a type valuing exactly that block (share 1), and for each
    pair of blocks four types valuing a half of one block plus a half of the
    other (share 1).  Types beyond the construction repeat the all-ones
    valuation.  Deliberately left unnormalized so the values stay binary.
    """

    k: int
    n: int
    mu1: int
    instance: Instance
    declared_mms: tuple[Fraction, ...]
    witnesses: tuple[tuple[Bundle, ...], ...]
    interval_types: tuple[int, ...]
    pair_types: dict[tuple[int, int, int, int], int]
    defined_types: int

    def interval_of(self, g: int) -> int:
        return g // self.n

    def half_of(self, g: int) -> int:
        return 0 if (g % self.n) < self.n // 2 else 1

    def normalized(self) -> NormalizedInstance:
        """Each type rescaled by its witness partition, every bundle of which
        is worth the type's declared share."""
        return NormalizedInstance(rescale(self.instance, self.witnesses), self.declared_mms, self.witnesses)


def gen_lower_bound(k: int = 16, n: int = 4) -> LowerBoundConstruction:
    if k < 16:
        raise InputError("construction needs k >= 16 (two blocks)")
    if n < 2 or n % 2:
        raise InputError("n must be even and at least 2")
    mu1 = math.isqrt(k) // 2
    m = n * mu1
    defined = 4 * math.comb(mu1, 2) + mu1 + 1
    if defined > k:
        raise InputError("internal: construction exceeds k types")

    rows: list[tuple[Fraction, ...]] = [_indicator(m, range(m))]
    names: list[str] = ["ones"]
    mms: list[Fraction] = [Fraction(mu1)]
    ones_witness = tuple(
        Bundle(tuple(j + r * n for r in range(mu1))) for j in range(n)
    )
    witnesses: list[tuple[Bundle, ...]] = [ones_witness]

    interval_types = []
    for r in range(mu1):
        block = list(range(r * n, (r + 1) * n))
        interval_types.append(len(rows))
        rows.append(_indicator(m, block))
        names.append(f"block{r}")
        mms.append(Fraction(1))
        block_set = set(block)
        zeros = [g for g in range(m) if g not in block_set]
        witnesses.append(_spread_witness(block, zeros, n))

    pair_types: dict[tuple[int, int, int, int], int] = {}
    half = n // 2
    for l, r in itertools.combinations(range(mu1), 2):
        halves_l = (list(range(l * n, l * n + half)), list(range(l * n + half, (l + 1) * n)))
        halves_r = (list(range(r * n, r * n + half)), list(range(r * n + half, (r + 1) * n)))
        for hl in (0, 1):
            for hr in (0, 1):
                valued = halves_l[hl] + halves_r[hr]
                pair_types[(l, r, hl, hr)] = len(rows)
                rows.append(_indicator(m, valued))
                names.append(f"pair{l}_{r}_h{hl}{hr}")
                mms.append(Fraction(1))
                valued_set = set(valued)
                zeros = [g for g in range(m) if g not in valued_set]
                witnesses.append(_spread_witness(valued, zeros, n))

    while len(rows) < k:
        names.append(f"ones_fill{len(rows)}")
        rows.append(_indicator(m, range(m)))
        mms.append(Fraction(mu1))
        witnesses.append(ones_witness)

    inst = Instance(n, tuple(rows), tuple(names))
    return LowerBoundConstruction(
        k=k, n=n, mu1=mu1, instance=inst,
        declared_mms=tuple(mms), witnesses=tuple(witnesses),
        interval_types=tuple(interval_types), pair_types=pair_types,
        defined_types=defined,
    )


# -- tightness constructions ---------------------------------------------------


def gen_tightness_half(k: int, n: int, epsilon: Fraction = Fraction(1, 10)) -> NormalizedInstance:
    """2n items; type 0 values all at 1/2, type i >= 1 values the last two at
    1/2 +- epsilon/(2*(i+1)) and the rest at 1/2.  Every share is 1, so any
    claim level above 1/2 makes two-item bags the only option and at most n
    bags exist."""
    epsilon = as_fraction(epsilon)
    if k < 2:
        raise InputError("needs at least two types")
    if n < 1:
        raise InputError("n must be positive")
    if not 0 < epsilon < 1:
        raise InputError("epsilon must lie in (0, 1)")
    m = 2 * n
    half = Fraction(1, 2)
    rows: list[tuple[Fraction, ...]] = [tuple(half for _ in range(m))]
    names = ["flat"]
    for j in range(1, k):
        delta = epsilon / (2 * (j + 1))
        row = [half] * m
        row[m - 2] = half + delta
        row[m - 1] = half - delta
        rows.append(tuple(row))
        names.append(f"tilted{j + 1}")
    pair_all = tuple(Bundle((2 * t, 2 * t + 1)) for t in range(n))
    witnesses: list[tuple[Bundle, ...]] = [pair_all]
    for _ in range(1, k):
        # the +delta and -delta items pair to exactly 1; the rest pair as halves
        parts = [Bundle((m - 2, m - 1))]
        parts.extend(Bundle((2 * t, 2 * t + 1)) for t in range(n - 1))
        witnesses.append(tuple(parts))
    inst = Instance(n, tuple(rows), tuple(names))
    return NormalizedInstance(inst, tuple(Fraction(1) for _ in range(k)), tuple(witnesses))


def gen_tightness_pk(
    k: int, n: int, p_min: Fraction | None = None
) -> tuple[NormalizedInstance, TypeDistribution]:
    """Every type values exactly n items at 1 over n + n/k items, the first
    n - n/k of them universally; after those leave, the leftover high-value
    sets overlap so much that a rare last type cannot be saturated.

    ``p_min`` is the rare type's arrival probability (default min(1/n,
    1/(2(k-1))), far below any workable level)."""
    if k < 2:
        raise InputError("needs at least two types")
    if n % k:
        raise InputError("needs k | n")
    nprime = n // k
    if nprime < 2:
        raise InputError("needs n/k >= 2")
    if k - 1 > nprime:
        raise InputError("needs k - 1 <= n/k so each type's odd item is distinct")
    m = n + nprime
    c = n - nprime  # universal prefix
    # the first k - 1 types value the prefix, all but one of the next n/k
    # items and an odd item of their own; the last type the prefix and the tail
    rows = [_indicator(m, [*range(c + nprime - 1), c + nprime + i]) for i in range(k - 1)]
    rows.append(_indicator(m, [*range(c), *range(c + nprime, m)]))

    witnesses = []
    for i in range(k):
        valued = [g for g in range(m) if rows[i][g] == 1]
        zeros = [g for g in range(m) if rows[i][g] == 0]
        witnesses.append(_spread_witness(valued, zeros, n))
    inst = Instance(n, tuple(rows), tuple(f"t{i}" for i in range(k)))
    norm = NormalizedInstance(inst, tuple(Fraction(1) for _ in range(k)), tuple(witnesses))

    if p_min is None:
        p_min = min(Fraction(1, n), Fraction(1, 2 * (k - 1)))
    p_min = as_fraction(p_min)
    if not 0 < p_min <= Fraction(1, 2 * (k - 1)):
        raise InputError("p_min must lie in (0, 1/(2(k-1))]")
    probs = [Fraction(1, k - 1)] * (k - 2) + [Fraction(1, k - 1) - p_min, p_min]
    return norm, TypeDistribution.from_probs(probs)


# -- random families -------------------------------------------------------------


def gen_random(n: int, m: int, k: int, value_model: str = "uniform",
               seed: int = 0, q: Fraction = Fraction(1, 2)) -> Instance:
    """Seeded random instance family.

    Models: ``uniform`` (positive rationals with small denominators),
    ``binary`` (each value 1 with probability q else 0), ``clustered``
    (each type concentrates on one block of items).
    """
    if min(n, m, k) < 1:
        raise InputError("n, m, k must be positive")
    rng = substream(seed, "instance", value_model, n, m, k)
    rows: list[tuple[Fraction, ...]] = []
    if value_model == "uniform":
        dens = (1, 2, 3, 4, 6)
        for _ in range(k):
            # rng.randint(1, 48), then rng.choice(dens)
            rows.append(tuple(Fraction(1 + randbelow(rng, 48), dens[randbelow(rng, 5)]) for _ in range(m)))
    elif value_model == "binary":
        q = as_fraction(q)
        for _ in range(k):
            rows.append(tuple(Fraction(1 if bernoulli(rng, q) else 0) for _ in range(m)))
    elif value_model == "clustered":
        groups = [g % k for g in range(m)]
        shuffle(rng, groups)
        for i in range(k):
            # rng.randint(8, 12) or rng.randint(0, 3)
            rows.append(tuple(
                Fraction(8 + randbelow(rng, 5)) if groups[g] == i else Fraction(randbelow(rng, 4))
                for g in range(m)))
    else:
        raise InputError(f"unknown value model {value_model!r}")
    return Instance(n, tuple(rows))


def gen_normalized_random(n: int, m: int, k: int, seed: int = 0,
                          weight_lo: int = 3, weight_hi: int = 5) -> NormalizedInstance:
    """Random instance that is normalized by construction.

    Each type independently partitions the items into n parts and gives each
    part total value exactly 1 (random integer weights in
    [weight_lo, weight_hi] rescaled by the part sum, as scaled ints through
    ``core.scale_parts``).  The partition is then a share witness: its
    minimum is 1 and the total is n, so the share is pinched to exactly 1
    with no solving.
    """
    if not 1 <= n <= m:
        raise InputError("needs 1 <= n <= m so every part is nonempty")
    if not 1 <= weight_lo <= weight_hi:
        raise InputError("bad weight range")
    rows: list[tuple[int, ...]] = []
    units: list[int] = []
    witnesses: list[tuple[Bundle, ...]] = []
    base, extra = divmod(m, n)
    for i in range(k):
        rng = substream(seed, "pinched", i, n, m, k)
        perm = list(range(m))
        shuffle(rng, perm)
        drawn = randints(rng, weight_lo, weight_hi, m)  # part by part, as the items
        weighted: list[tuple[list[int], list[int]]] = []
        pos = 0
        for j in range(n):
            size = base + (1 if j < extra else 0)
            weighted.append((perm[pos:pos + size], drawn[pos:pos + size]))
            pos += size
        row, unit = scale_parts(weighted, m)
        rows.append(row)
        units.append(unit)
        witnesses.append(tuple(Bundle.from_sorted(sorted(part)) for part, _ in weighted))
    inst = Instance(n, ScaledRows(tuple(rows), tuple(units)))
    return NormalizedInstance(inst, tuple(Fraction(1) for _ in range(k)), tuple(witnesses))


# -- arrival sources ---------------------------------------------------------------


def sample_arrivals(dist: TypeDistribution, n: int, seed_or_rng) -> list[int]:
    """n i.i.d. draws of original type ids; deterministic per seed.  Each
    draw equals ``rng.categorical`` over ``dist.probs``, from one threshold table."""
    rng = seed_or_rng if isinstance(seed_or_rng, random.Random) else substream(seed_or_rng, "arrivals")
    den, cum = thresholds(dist.probs)
    order = dist.order
    return [order[bisect_right(cum, x)] for x in randints(rng, 0, den - 1, n)]


def all_sequences(k: int, n: int) -> Iterable[tuple[int, ...]]:
    """Every possible arrival sequence, lexicographic."""
    return itertools.product(range(k), repeat=n)


# ~22 s of exhaustive runs at ~4,500 adversarial runs/s (n = 7, k = 3, 2-core host)
ENUMERATION_CAP = 10 ** 5


def enumeration_size(k: int, n: int) -> int:
    """k^n, the number of arrival sequences; above ``ENUMERATION_CAP``, an input error."""
    size = k ** n
    if size > ENUMERATION_CAP:
        raise InputError(f"{k}^{n} arrival sequences exceed the enumeration cap of {ENUMERATION_CAP}")
    return size


def nth_sequence(k: int, n: int, index: int) -> list[int]:
    """The ``index``-th sequence of :func:`all_sequences` without enumerating
    the ones before it: ``index`` in base k, last position fastest."""
    seq = [0] * n
    for pos in range(n - 1, -1, -1):
        index, seq[pos] = divmod(index, k)
    return seq


GENERATORS: dict[str, Callable] = {
    "example1": gen_example1,
    "adv-counter": gen_adv_counterexample,
    "lower-bound": gen_lower_bound,
    "tight-half": gen_tightness_half,
    "tight-pk": gen_tightness_pk,
    "random": gen_random,
    "normalized-random": gen_normalized_random,
}

# Read once at import, so a registry entry that is later replaced by a
# wrapper still reports its generator's parameters and their annotations.
_SIGNATURES = {name: inspect.signature(gen, eval_str=True) for name, gen in GENERATORS.items()}


def parameters(name: str) -> Mapping[str, inspect.Parameter]:
    """The named generator's parameters; an unknown name is an input error."""
    if name not in _SIGNATURES:
        raise InputError(f"unknown generator {name!r}")
    return _SIGNATURES[name].parameters


def check_params(name: str, params) -> None:
    """Reject anything but a dict, parameters the generator does not take, and
    an ``int`` one given anything but an int: a JSON true is a bool, which is
    not a count."""
    declared = parameters(name)
    if not isinstance(params, dict):
        raise InputError(f"generator_params for {name!r} must be a JSON object")
    try:  # a TypeError: not the generator's parameters
        bound = _SIGNATURES[name].bind(**params)
    except TypeError as exc:
        raise InputError(f"generator_params for {name!r}: {exc}") from exc
    for key, given in bound.arguments.items():
        if declared[key].annotation is int and type(given) is not int:
            raise InputError(f"generator_params for {name!r}: {key} must be an integer, got {given!r}")


def generate(name: str, params: dict) -> tuple[Instance | NormalizedInstance, TypeDistribution | None]:
    """The instance of the registry's ``name`` on checked ``params`` (a construction's
    normalized view), and the arrival law it ships (not example1's scripted arrival)."""
    check_params(name, params)
    out, law = GENERATORS[name](**params), None
    if isinstance(out, tuple):
        out, law = out[0], out[1] if isinstance(out[1], TypeDistribution) else None
    return (out.normalized() if isinstance(out, LowerBoundConstruction) else out), law
