from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from mmsonline import CapacityError
from mmsonline.core import Bundle, scale_row, value
from mmsonline.generators import gen_random
from mmsonline.rng import substream
from mmsonline.solver import (
    lpt_partition,
    mms_brute_force,
    mms_exact,
)


def _check_witness(valuation, n, res):
    assert len(res.witness) == n
    covered = sorted(g for b in res.witness for g in b)
    assert covered == list(range(len(valuation)))
    assert min(value(valuation, b) for b in res.witness) == res.value


def test_examples():
    assert mms_exact([F(1)] * 4, 2).value == 2  # all-ones, m=4, n=2 -> m/2
    vals = [F(x) for x in (7, 5, 4, 3, 2, 1)]
    oracle = mms_brute_force(vals, 3)
    assert oracle.value == 7
    res = mms_exact(vals, 3)
    assert res.value == oracle.value
    _check_witness(vals, 3, res)


def test_single_bundle_gets_everything():
    vals = [F(3, 7), F(1), F(2, 5)]
    res = mms_exact(vals, 1)
    assert res.value == sum(vals)
    assert res.witness == (Bundle((0, 1, 2)),)


def test_brute_force_examples():
    assert mms_brute_force([F(1)] * 3, 2).value == 1
    assert mms_brute_force([F(0), F(0)], 3).value == 0
    assert mms_brute_force([F(5)] * 6, 3).value == 10


def test_brute_force_caps():
    with pytest.raises(CapacityError):
        mms_brute_force([F(1)] * 13, 2)
    with pytest.raises(CapacityError):
        mms_brute_force([F(1)] * 4, 6)


def test_exact_caps_and_bound_mode():
    # past either cap the solver raises; it has no bound-only mode
    with pytest.raises(CapacityError, match="got m=30, n=2"):
        mms_exact([F(1)] * 30, 2)
    with pytest.raises(CapacityError, match="got m=4, n=9"):
        mms_exact([F(1)] * 4, 9)


def test_lpt_bracket_and_monotonicity_on_seeded_instances():
    for seed in range(40):
        rng = substream(seed, "solver-test")
        m = rng.randint(1, 9)
        n = rng.randint(1, 4)
        vals = [F(rng.randint(0, 12), rng.choice((1, 2, 3))) for _ in range(m)]
        res = mms_exact(vals, n)
        # the least LPT bundle and the average v(M)/n bracket the share
        ints, den = scale_row(vals)
        lpt_least = F(min(sum(ints[g] for g in b) for b in lpt_partition(ints, n)), den)
        assert lpt_least <= res.value <= sum(vals, F(0)) / n
        # one more bundle never helps
        assert mms_exact(vals, n + 1).value <= res.value
        # removing an item never increases the share
        if m > 1:
            assert mms_exact(vals[:-1], n).value <= res.value
        _check_witness(vals, n, res)


@settings(max_examples=50, deadline=None)
@given(st.integers(1, 4), st.lists(st.fractions(min_value=0, max_value=8, max_denominator=10), min_size=0, max_size=8))
def test_oracle_equivalence_property(n, vals):
    assert mms_exact(vals, n).value == mms_brute_force(vals, n).value


def test_oracle_equivalence_on_generated_family():
    for seed in range(60):
        inst = gen_random(3, 8, 2, "uniform", seed=seed)
        for row in inst.type_values:
            assert mms_exact(row, 3).value == mms_brute_force(row, 3).value


def test_alpha_partition_is_witness():
    # the share witness is an alpha-partition for every alpha <= 1
    vals = [F(1)] * 4
    part = mms_exact(vals, 2).witness
    assert len(part) == 2
    assert all(value(vals, b) >= F(1, 2) * 2 for b in part)


def test_alpha_partition_on_counterexample_bags():
    # bags of two near-half items plus one tiny item are each worth exactly 1
    from mmsonline.generators import gen_adv_counterexample
    norm = gen_adv_counterexample(3, F(1, 16))
    row = norm.base.type_values[0]
    part = mms_exact(row, 3).witness
    assert all(value(row, b) >= 1 for b in part)


def test_lpt_partition_shape():
    part = lpt_partition([4, 3, 2, 2], 2)  # a row already scaled to integers
    assert sorted(g for b in part for g in b) == [0, 1, 2, 3]
    assert part == [[0, 3], [1, 2]]  # 4 | 3, then 2 onto the lighter 3, then 2 onto 4


def test_zero_items_and_determinism():
    vals = [F(0), F(3), F(0), F(2), F(1)]
    r1 = mms_exact(vals, 2)
    r2 = mms_exact(vals, 2)
    assert r1 == r2
    _check_witness(vals, 2, r1)
    assert r1.value == mms_brute_force(vals, 2).value
