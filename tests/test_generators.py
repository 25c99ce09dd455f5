import hashlib
import itertools
from fractions import Fraction as F

import pytest

from mmsonline import (
    InputError,
    gen_random,
    sample_arrivals,
    TypeDistribution,
)
from mmsonline.core import Bundle, value
from mmsonline.generators import (
    all_sequences,
    gen_adv_counterexample,
    gen_example1,
    gen_lower_bound,
    gen_normalized_random,
    gen_tightness_half,
    gen_tightness_pk,
    nth_sequence,
)
from mmsonline.jsonio import canonical_json, distribution_to_obj, frac_to_str, instance_to_obj
from mmsonline.solver import mms_brute_force, mms_exact
from mmsonline.stochastic import universal_items


def test_example1_structure_and_trap():
    inst, reveal = gen_example1(4)
    assert mms_brute_force(inst.type_values[0], 2).value == 2
    # granting both of two items lets the revealed type lose everything
    inst2, seq = reveal(Bundle((1, 3)))
    assert seq == [0, 1]
    assert inst2.type_values[1][1] == 1 and inst2.type_values[1][3] == 1
    assert mms_brute_force(inst2.type_values[1], 2).value == 1
    assert value(inst2.type_values[1], Bundle((0, 2))) == 0
    # m=2: giving agent 1 everything forces ratio 0 for the second agent
    _, reveal2 = gen_example1(2)
    inst3, _ = reveal2(Bundle((0, 1)))
    assert value(inst3.type_values[1], Bundle(())) == 0
    with pytest.raises(InputError):
        gen_example1(3)


def test_example1_large_grant_pigeonhole():
    # any grant of >= 5 items out of 100 admits a second type worth zero
    # on the remainder when it values two granted items
    inst, reveal = gen_example1(100)
    grant = Bundle(tuple(range(0, 10, 2)))
    inst2, _ = reveal(grant)
    rest = [g for g in range(100) if g not in grant]
    assert value(inst2.type_values[1], Bundle(tuple(rest))) == 0


def test_adv_counterexample_arithmetic():
    norm = gen_adv_counterexample(4, F(1, 32))
    row = norm.base.type_values[0]
    assert sum(row) == 4  # 8*(15/32) + 4*(1/16) = n
    assert row[0] == F(15, 32) and row[-1] == F(1, 16)
    # witness bags: two near-half items plus one tiny item each
    for b in norm.witness_partitions[0]:
        assert len(b) == 3 and value(row, b) == 1
    with pytest.raises(InputError):
        gen_adv_counterexample(4, F(1, 16))  # boundary 1/(4n) rejected


def test_lower_bound_shape_k16():
    cons = gen_lower_bound(16, 6)
    assert cons.mu1 == 2
    assert cons.instance.m_items == 12
    assert cons.defined_types == 7  # 4*C(2,2) + 2 + 1
    assert cons.instance.k_types == 16
    # every block/pair type values exactly n items
    for tid in list(cons.interval_types) + list(cons.pair_types.values()):
        assert sum(cons.instance.type_values[tid]) == 6


def test_lower_bound_shape_k36():
    cons = gen_lower_bound(36, 4)
    assert cons.mu1 == 3
    assert cons.instance.m_items == 12
    assert cons.defined_types == 4 * 3 + 3 + 1  # 16


def test_lower_bound_declared_shares_match_oracle():
    cons = gen_lower_bound(16, 4)  # m=8: within the oracle's caps
    for tid in (0, cons.interval_types[0], cons.interval_types[1],
                next(iter(cons.pair_types.values()))):
        oracle = mms_brute_force(cons.instance.type_values[tid], 4)
        assert oracle.value == cons.declared_mms[tid]
        # and the shipped witness is valid
        witness_min = min(value(cons.instance.type_values[tid], b)
                          for b in cons.witnesses[tid])
        assert witness_min == cons.declared_mms[tid]


def test_lower_bound_normalized_view():
    cons = gen_lower_bound(16, 4)
    norm = cons.normalized()
    assert norm.base.type_values[0][0] == F(1, 2)  # all-ones type split by mu1
    assert norm.original_mms[0] == 2
    # rescaling by the witness partitions divides each row by its declared share
    for cons in (cons, gen_lower_bound(36, 6)):
        assert cons.normalized().base.type_values == tuple(
            tuple(v / mms for v in row) for row, mms in zip(cons.instance.type_values, cons.declared_mms))


def test_lower_bound_validation():
    with pytest.raises(InputError):
        gen_lower_bound(15, 4)
    with pytest.raises(InputError):
        gen_lower_bound(16, 5)


def test_tightness_half_values_and_shares():
    norm = gen_tightness_half(2, 3, F(1, 10))
    row = norm.base.type_values[1]
    # the tilted pair sits at 1/2 +- eps/(2i) with i = 2: 21/40 and 19/40
    assert row[-2] == F(21, 40) and row[-1] == F(19, 40)
    for i in range(2):
        assert sum(norm.base.type_values[i]) == 3  # total = n per type
    # shares are exactly 1: witnesses shipped and checked by the constructor
    assert norm.original_mms == (F(1), F(1))


def test_tightness_pk_structure():
    norm, dist = gen_tightness_pk(4, 20)
    inst = norm.base
    nprime = 5
    c = universal_items(inst.scaled, range(inst.m_items), F(1, 3))
    assert len(c) == 20 - nprime  # first n - n/k items are universal
    assert c == list(range(15))
    reduced = [g for g in range(inst.m_items) if g not in set(c)]
    assert len(reduced) == 2 * nprime
    # every type values exactly n items at 1
    for row in inst.type_values:
        assert sum(row) == 20 and set(row) <= {F(0), F(1)}
    # the rare type's high set misses n' - 1 items of every other type's
    t_sets = [set(g for g in reduced if inst.type_values[i][g] == 1) for i in range(4)]
    for i in range(3):
        assert len(t_sets[3] - t_sets[i]) == nprime - 1
        assert len(t_sets[i] - t_sets[3]) == nprime - 1
    assert dist.probs[-1] <= F(1, 20)
    with pytest.raises(InputError):
        gen_tightness_pk(3, 20)  # k must divide n


def test_gen_random_models_and_determinism():
    a = gen_random(4, 12, 3, "uniform", seed=7)
    b = gen_random(4, 12, 3, "uniform", seed=7)
    assert a == b
    assert a != gen_random(4, 12, 3, "uniform", seed=8)
    ones = gen_random(2, 6, 2, "binary", seed=1, q=F(1))
    assert all(v == 1 for row in ones.type_values for v in row)
    clustered = gen_random(3, 9, 3, "clustered", seed=2)
    assert clustered.m_items == 9
    with pytest.raises(InputError):
        gen_random(2, 4, 2, "nope", seed=0)


def test_gen_random_uniform_positive_shares():
    for seed in range(10):
        inst = gen_random(4, 12, 3, "uniform", seed=seed)
        for row in inst.type_values:
            assert mms_exact(row, 4).value > 0


def test_gen_normalized_random_is_normalized():
    norm = gen_normalized_random(6, 30, 3, seed=3)
    for i in range(3):
        row = norm.base.type_values[i]
        assert sum(row) == 6
        for b in norm.witness_partitions[i]:
            assert value(row, b) == 1
    assert norm.original_mms == (F(1), F(1), F(1))
    # determinism
    assert gen_normalized_random(6, 30, 3, seed=3) == norm


def _fraction_normalized_random(n, m, k, seed, weight_lo, weight_hi):
    """Reference: the rows as the generator built them in Fractions, w / T
    per item of a part with weights summing to T, from the stdlib's own
    ``shuffle`` and ``randint`` draws."""
    from mmsonline.rng import substream
    rows, witnesses = [], []
    base, extra = divmod(m, n)
    for i in range(k):
        rng = substream(seed, "pinched", i, n, m, k)
        perm = list(range(m))
        rng.shuffle(perm)
        row, parts, pos = [F(0)] * m, [], 0
        for j in range(n):
            part = perm[pos:pos + base + (1 if j < extra else 0)]
            pos += len(part)
            weights = [rng.randint(weight_lo, weight_hi) for _ in part]
            for g, w in zip(part, weights):
                row[g] = F(w, sum(weights))
            parts.append(Bundle(tuple(part)))
        rows.append(tuple(row))
        witnesses.append(tuple(parts))
    return tuple(rows), tuple(witnesses)


@pytest.mark.parametrize("n, m, k, seed, lo, hi", [
    (1, 1, 1, 0, 3, 5), (3, 8, 2, 1, 3, 5), (12, 40, 3, 2, 2, 4), (7, 20, 3, 5, 1, 1),
    (50, 51, 4, 3, 1, 9), (5, 5, 2, 8, 2, 2), (40, 400, 3, 9, 6, 12),
    (200, 1000, 3, 4, 3, 5), (64, 129, 2, 6, 1, 2**40),
])
def test_gen_normalized_random_ints_match_fraction_rows(n, m, k, seed, lo, hi):
    from mmsonline.core import Instance
    rows, witnesses = _fraction_normalized_random(n, m, k, seed, lo, hi)
    norm = gen_normalized_random(n, m, k, seed=seed, weight_lo=lo, weight_hi=hi)
    assert norm.base == Instance(n, rows)
    assert norm.base.type_values == rows
    assert norm.witness_partitions == witnesses


def _reference_scale_parts(parts, m):
    """Reference: ``core.scale_parts`` as it was, one ``setdefault`` per item."""
    import math
    parts = [(items, weights, sum(weights)) for items, weights in parts]
    unit = math.lcm(*(total // math.gcd(*weights) for _, weights, total in parts))
    row = [0] * m
    distinct = {}
    for items, weights, total in parts:
        for g, w in zip(items, weights):
            x = w * unit // total
            row[g] = distinct.setdefault(x, x)
    return tuple(row), unit


def _reference_gen_normalized_random(n, m, k, seed=0, weight_lo=3, weight_hi=5):
    """Reference: ``gen_normalized_random`` as it was, one slice pair per part
    into a ``weighted`` list, scaled by ``_reference_scale_parts``."""
    from mmsonline.core import Instance, NormalizedInstance, ScaledRows
    from mmsonline.rng import randints, shuffle, substream
    if not 1 <= n <= m:
        raise InputError("needs 1 <= n <= m so every part is nonempty")
    if not 1 <= weight_lo <= weight_hi:
        raise InputError("bad weight range")
    rows = []
    units = []
    witnesses = []
    base, extra = divmod(m, n)
    for i in range(k):
        rng = substream(seed, "pinched", i, n, m, k)
        perm = list(range(m))
        shuffle(rng, perm)
        drawn = randints(rng, weight_lo, weight_hi, m)  # part by part, as the items
        weighted = []
        pos = 0
        for j in range(n):
            size = base + (1 if j < extra else 0)
            weighted.append((perm[pos:pos + size], drawn[pos:pos + size]))
            pos += size
        row, unit = _reference_scale_parts(weighted, m)
        rows.append(row)
        units.append(unit)
        witnesses.append(tuple(Bundle.from_sorted(sorted(part)) for part, _ in weighted))
    inst = Instance(n, ScaledRows(tuple(rows), tuple(units)))
    return NormalizedInstance(inst, tuple(F(1) for _ in range(k)), tuple(witnesses))


# n = m, n = 1, weight_lo = weight_hi, k = 5, uneven part sizes, weights up to 10^6
REFERENCE_SWEEP = [
    (n, m, k, seed, lo, hi)
    for n, m, k, lo, hi in [
        (1, 1, 1, 3, 5), (1, 9, 2, 3, 5), (6, 6, 3, 3, 5), (5, 5, 5, 1, 1), (4, 13, 5, 3, 5),
        (7, 30, 3, 4, 4), (9, 50, 2, 1, 10**6), (3, 10, 4, 10**6, 10**6), (25, 101, 3, 2, 4),
        (200, 1000, 3, 3, 5),
    ]
    for seed in (0, 1, 2**31 + 5)
]


@pytest.mark.parametrize("n, m, k, seed, lo, hi", REFERENCE_SWEEP)
def test_gen_normalized_random_matches_the_reference_generator(n, m, k, seed, lo, hi):
    from mmsonline.jsonio import canonical_json, instance_to_obj
    got = gen_normalized_random(n, m, k, seed=seed, weight_lo=lo, weight_hi=hi)
    want = _reference_gen_normalized_random(n, m, k, seed=seed, weight_lo=lo, weight_hi=hi)
    assert got == want
    assert (got.scaled.ints, got.scaled.units) == (want.scaled.ints, want.scaled.units)
    assert got.witness_partitions == want.witness_partitions
    assert canonical_json(instance_to_obj(got.base, got)) == canonical_json(instance_to_obj(want.base, want))
    # equal ints are one object within each row, as the reference interns them
    assert [len(set(map(id, row))) for row in got.scaled.ints] == [len(set(row)) for row in want.scaled.ints]


def test_sample_arrivals():
    d = TypeDistribution.from_probs([F(1), F(0)])
    assert sample_arrivals(d, 5, 0) == [0, 0, 0, 0, 0]
    du = TypeDistribution.from_probs([F(1, 2), F(1, 2)])
    seq = sample_arrivals(du, 4, 1)
    assert len(seq) == 4 and set(seq) <= {0, 1}
    assert sample_arrivals(du, 4, 1) == seq


def test_sample_arrivals_long_run_frequency():
    d = TypeDistribution.from_probs([F(7, 10), F(3, 10)])
    seq = sample_arrivals(d, 100_000, 42)
    freq = seq.count(0) / 100_000
    assert abs(freq - 0.7) <= 0.01


@pytest.mark.parametrize("k,n", [(1, 1), (1, 4), (2, 1), (2, 5), (3, 4), (4, 3), (5, 2)])
def test_nth_sequence_matches_product_order(k, n):
    expected = [list(seq) for seq in itertools.product(range(k), repeat=n)]
    assert [nth_sequence(k, n, t) for t in range(k ** n)] == expected
    assert [list(seq) for seq in all_sequences(k, n)] == expected


def _digest(obj) -> str:
    return hashlib.sha256(canonical_json(obj).encode()).hexdigest()[:16]


def _lower_bound_obj(k, n):
    cons = gen_lower_bound(k, n)
    norm = cons.normalized()
    return {"k": cons.k, "n": cons.n, "mu1": cons.mu1, "instance": instance_to_obj(cons.instance),
            "mms": [frac_to_str(v) for v in cons.declared_mms],
            "witnesses": [[list(b) for b in part] for part in cons.witnesses],
            "intervals": list(cons.interval_types),
            "pairs": [[*key, t] for key, t in cons.pair_types.items()],  # in insertion order
            "defined": cons.defined_types, "normalized": instance_to_obj(norm.base, norm)}


def _tightness_pk_obj(k, n):
    norm, dist = gen_tightness_pk(k, n)
    return [instance_to_obj(norm.base, norm), distribution_to_obj(dist)]


# sha256 prefixes of each k's sweep, pinned before the 0/1 constructions
# shared one witness builder: gen_lower_bound over n in 2..10 even, with the
# construction's fields and its normalized view, and gen_tightness_pk over
# every valid n <= 40 (k | n, n/k >= 2, k - 1 <= n/k)
LOWER_BOUND_DIGESTS = {16: "ad369d269ec5d2d1", 17: "da6ab42aabe815da", 24: "847fe2d3c3ac62ed",
                       25: "30fdb651c98c6d79", 36: "125e557aa5f7ba48", 50: "6210cc43e76bacd4",
                       64: "e1fac9c81e7528d6", 100: "acf5373b0ca87c59"}
TIGHTNESS_PK_DIGESTS = {2: "95ce5552670b254e", 3: "d19405e45f441bd3", 4: "728cf1a02cb1374a",
                        5: "375c7b8bf1344b43"}


def _tightness_pk_ns(k):
    return [n for n in range(k, 41, k) if n // k >= 2 and k - 1 <= n // k]


def test_lower_bound_construction_keeps_its_pinned_bytes():
    got = {k: _digest([_lower_bound_obj(k, n) for n in range(2, 11, 2)]) for k in LOWER_BOUND_DIGESTS}
    assert got == LOWER_BOUND_DIGESTS


def test_tightness_pk_keeps_its_pinned_bytes():
    got = {k: _digest([_tightness_pk_obj(k, n) for n in _tightness_pk_ns(k)]) for k in TIGHTNESS_PK_DIGESTS}
    assert got == TIGHTNESS_PK_DIGESTS


def test_lower_bound_defines_at_most_k_types():
    # mu1 = floor(sqrt(k)/2) >= 2 gives 2 mu1^2 - mu1 + 1 <= 4 mu1^2 <= k
    for k in range(16, 401):
        cons = gen_lower_bound(k, 2)
        assert cons.defined_types == 2 * cons.mu1 ** 2 - cons.mu1 + 1 <= k
