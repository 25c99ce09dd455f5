from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from mmsonline import (
    Allocation,
    Bundle,
    EMPTY_BUNDLE,
    FailureReason,
    InputError,
    Instance,
    NormalizedInstance,
    TrialReport,
    TypeDistribution,
    ValidationError,
    normalize,
    universal_items,
    value,
    verify_allocation,
)
from mmsonline.solver import mms_brute_force

fractions_pos = st.fractions(min_value=0, max_value=100, max_denominator=60)


def test_value_examples():
    assert value([F(1)] * 4, EMPTY_BUNDLE) == 0
    assert value([F(1, 2), F(1, 3)], Bundle((0, 1))) == F(5, 6)
    # two unit items out of four unit-valued ones
    assert value([F(1)] * 4, Bundle((0, 1))) == 2
    with pytest.raises(InputError):
        value([F(1)], Bundle((3,)))


def test_bundle_normalizes_and_validates():
    b = Bundle((3, 1, 1, 2))
    assert b.items == (1, 2, 3)
    assert 2 in b and len(b) == 3
    with pytest.raises(InputError):
        Bundle((-1,))


@given(st.lists(fractions_pos, min_size=1, max_size=8), st.lists(fractions_pos, min_size=1, max_size=8))
def test_rational_arithmetic_is_exact(xs, ys):
    a = sum(xs, F(0))
    b = sum(ys, F(0))
    assert (a + b) - b == a
    # comparison agrees with cross-multiplication
    assert (a >= b) == (a.numerator * b.denominator >= b.numerator * a.denominator)


def test_instance_validation():
    with pytest.raises(InputError):
        Instance(0, ((F(1),),))
    with pytest.raises(InputError):
        Instance(1, ((F(1),), (F(1), F(2))))
    with pytest.raises(InputError):
        Instance(1, ((F(-1),),))
    with pytest.raises(InputError):
        Instance(1, ((0.5,),))  # floats refused


def test_normalize_symmetric():
    inst = Instance(2, ((F(2), F(2), F(2), F(2)),))
    norm = normalize(inst, mms_brute_force)
    assert norm.base.type_values[0] == (F(1, 2),) * 4
    assert sum(norm.base.type_values[0]) == 2  # = n
    assert norm.original_mms == (F(4),)


def test_normalize_lopsided_against_brute_force():
    inst = Instance(2, ((F(3), F(1), F(1), F(1)),))
    oracle = mms_brute_force(inst.type_values[0], 2)
    assert oracle.value == 3
    norm = normalize(inst, mms_brute_force)
    assert norm.base.type_values[0] == (F(1), F(1, 3), F(1, 3), F(1, 3))
    for b in norm.witness_partitions[0]:
        assert value(norm.base.type_values[0], b) == 1


def test_normalize_zero_share_type_left_alone():
    inst = Instance(3, ((F(0), F(0)), (F(5), F(1))))
    norm = normalize(inst, mms_brute_force)
    assert 0 in norm.zero_mms_types and 1 in norm.zero_mms_types
    assert norm.base.type_values[0] == (F(0), F(0))
    assert norm.base.type_values[1] == (F(5), F(1))  # unscaled: its share is 0 too


@settings(max_examples=60)
@given(st.integers(2, 4), st.integers(4, 8), st.data())
def test_rescaling_soundness_on_random_bundles(n, m, data):
    vals = tuple(data.draw(st.fractions(min_value=0, max_value=9, max_denominator=12), label=f"v{g}") for g in range(m))
    inst = Instance(n, (vals,))
    norm = normalize(inst, mms_brute_force)
    items = data.draw(st.sets(st.integers(0, m - 1)))
    bundle = Bundle(tuple(items))
    # original value dominates normalized value times the original share
    assert value(vals, bundle) >= value(norm.base.type_values[0], bundle) * norm.original_mms[0]


def _universal(norm, alpha):
    return universal_items(norm.base.type_values, range(norm.m_items), alpha)


def test_universally_high_valued():
    values = ((F(3, 5), F(2, 5)), (F(7, 10), F(9, 10)))
    assert universal_items(values, range(2), F(1, 2)) == [0]
    assert universal_items(values, range(2), F(0)) == [0, 1]
    norm = _tiny_norm()
    assert _universal(norm, F(1, 2)) == [0, 1, 2, 3]
    assert _universal(norm, F(3, 4)) == []


def test_universal_empty_on_counterexample():
    from mmsonline.generators import gen_adv_counterexample
    norm = gen_adv_counterexample(4, F(1, 32))
    assert _universal(norm, F(1, 2)) == []


def test_allocation_disjointness_enforced():
    with pytest.raises(ValidationError):
        Allocation(((0, 0, Bundle((1, 2))), (1, 0, Bundle((2, 3)))))
    with pytest.raises(ValidationError):
        Allocation(((1, 0, Bundle((1,))), (0, 0, Bundle((2,)))))


def _tiny_norm():
    inst = Instance(2, ((F(1, 2), F(1, 2), F(1, 2), F(1, 2)),))
    return NormalizedInstance(inst, (F(1),), ((Bundle((0, 1)), Bundle((2, 3))),))


def test_verify_allocation_boundary_inclusive():
    norm = _tiny_norm()
    alloc = Allocation(((0, 0, Bundle((0,))), (1, 0, Bundle((1,)))))
    rep = verify_allocation(norm, alloc, F(1, 2))
    assert rep.succeeded_at_alpha  # exactly alpha counts
    assert rep.min_ratio == F(1, 2)


def test_verify_allocation_failure_reason():
    norm = _tiny_norm()
    alloc = Allocation(((0, 0, EMPTY_BUNDLE),))
    rep = verify_allocation(norm, alloc, F(1, 2))
    assert not rep.succeeded_at_alpha
    assert rep.failure_reason is FailureReason.VALUE_BELOW_ALPHA
    assert rep.min_ratio == 0


@settings(max_examples=40)
@given(st.lists(st.fractions(min_value=0, max_value=2, max_denominator=30), min_size=1, max_size=6),
       st.fractions(min_value=0, max_value=2, max_denominator=30), st.fractions(min_value=0, max_value=2, max_denominator=30))
def test_report_monotone_in_alpha(ratios, a1, a2):
    lo, hi = min(a1, a2), max(a1, a2)
    rep_hi = TrialReport.build(ratios, hi)
    rep_lo = TrialReport.build(ratios, lo)
    if rep_hi.succeeded_at_alpha:
        assert rep_lo.succeeded_at_alpha
    assert rep_lo.min_ratio == min(ratios)
    assert rep_lo.succeeded_at_alpha == all(r >= lo for r in ratios)


def test_type_distribution_sorting_and_permutation():
    d = TypeDistribution.from_probs([F(1, 5), F(1, 2), F(3, 10)])
    assert d.probs == (F(1, 2), F(3, 10), F(1, 5))
    assert d.order == (1, 2, 0)
    assert d.rank_of(1) == 0 and d.rank_of(0) == 2
    assert d.original_probs() == (F(1, 5), F(1, 2), F(3, 10))
    with pytest.raises(InputError):
        TypeDistribution.from_probs([F(1, 2), F(1, 3)])  # does not sum to 1


def test_normalized_instance_rejects_bad_witness():
    inst = Instance(2, ((F(1, 2),) * 4,))
    with pytest.raises(ValidationError):
        NormalizedInstance(inst, (F(1),), ((Bundle((0,)), Bundle((1, 2, 3))),))
