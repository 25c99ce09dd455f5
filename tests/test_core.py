import dataclasses
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings, strategies as st

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
    gen_normalized_random,
    normalize,
    random_split,
    run_adversarial,
    run_known_d,
    run_unknown_d,
    sample_arrivals,
    universal_items,
    value,
    verify_allocation,
)
from mmsonline.adversarial import TentativeState
from mmsonline.core import ScaledRows, as_scaled, fill_bag, finish_run, scale_parts, scale_row
from mmsonline.rng import substream
from mmsonline.stochastic import preprocess_low_c
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
    assert Bundle.from_sorted([1, 2, 3]) == b and type(Bundle.from_sorted([1]).items) is tuple


@pytest.mark.parametrize("items", [(2.7, 1), ("3", 1), (None,), (F(2), 0)])
def test_bundle_rejects_non_integer_items(items):
    # an item index is an int: 2.7 is not truncated and "3" is not parsed
    with pytest.raises(InputError, match="integers"):
        Bundle(items)


@pytest.mark.parametrize("bad", [2.7, -1, 12, "3"], ids=["float", "negative", "m", "string"])
@pytest.mark.parametrize("entry", [
    lambda view, items: TentativeState.create(view, items, 4),
    lambda view, items: preprocess_low_c(view, items, 4, [F(1, 2), F(1, 2)], F(1, 3), F(1, 10)),
], ids=["TentativeState.create", "preprocess_low_c"])
def test_allocators_reject_bad_items(entry, bad):
    # m = 12: 2.7 is not truncated, -1 does not read the last item's value,
    # 12 is not a bare IndexError and "3" is not parsed
    norm = gen_normalized_random(4, 12, 2, seed=1)
    with pytest.raises(InputError, match="item id"):
        entry(norm.scaled, [0, 1, bad])


def _assert_strictly_increasing(bundles, where):
    for b in bundles:
        items = b.items
        assert type(items) is tuple and all(type(g) is int for g in items), (where, items)
        assert all(a < c for a, c in zip(items, items[1:])) and min(items, default=0) >= 0, (where, items)


def test_every_bundle_holds_strictly_increasing_items():
    # the trusted Bundle.from_sorted call sites (reserved singletons and bags,
    # universal singletons, random-split baskets) next to the checked ones
    dist = TypeDistribution.from_probs([F(1, 2), F(3, 10), F(1, 5)])
    known_branches, unknown_branches = set(), set()
    for seed in range(3):
        for n, m in [(12, 12), (30, 60), (40, 320), (60, 480)]:
            norm = gen_normalized_random(n, m, 3, seed=seed)
            for part in norm.witness_partitions:
                _assert_strictly_increasing(part, "witness")
            seq = sample_arrivals(dist, n, seed)
            runs = {
                "adversarial": run_adversarial(norm, seq),
                "known-d": run_known_d(norm, dist, seq, eta=F(1, 2), epsilon=F(1, 10)),
                "unknown-d": run_unknown_d(norm, seq, eta=F(1, 2), c=F(1, 20), seed=seed),
            }
            for name, (alloc, rep) in runs.items():
                _assert_strictly_increasing([b for _, _, b in alloc.entries], name)
                again = verify_allocation(norm, alloc, rep.alpha)
                assert (again.per_agent_ratio, again.min_ratio) == (rep.per_agent_ratio, rep.min_ratio), name
            known_branches.add(runs["known-d"][1].details["branch"])
            unknown_branches.add(runs["unknown-d"][1].details["branch"])
            state = preprocess_low_c(norm.scaled, range(m), n, dist.probs, F(1, 3), F(1, 10))
            _assert_strictly_increasing([b for queue in state.reserves for b in queue], "reserves")
            _assert_strictly_increasing(random_split(range(m), F(1, 3), substream(seed, "guard")), "split")
    assert {"splitAndLearn", "learnFromUniversal"} <= unknown_branches
    assert {"lowC", "highC"} <= known_branches, known_branches


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


@pytest.mark.parametrize("rows, msg", [
    ((), "need at least one type"),
    ([[1, 2], [1]], "type 1 has 1 values, expected 2"),
    ([[1, 2], [-1]], "type 1 has 1 values, expected 2"),  # the length is checked first
    ([[1, 2], ["1/2", -1]], "type 1 has a negative value"),
])
def test_instance_input_messages(rows, msg):
    with pytest.raises(InputError) as err:
        Instance(2, rows)
    assert str(err.value) == msg


@pytest.mark.parametrize("ints, units, msg", [
    ((), (), "need at least one type"),
    (((1, 2),), (3, 1), "2 units for 1 types"),
    (((1, 2), (1,)), (3, 1), "type 1 has 1 values, expected 2"),
    (((1, 2), (1, -1)), (3, 1), "type 1 has a negative value"),
    (((1, 2),), (0,), "type 0: unit 0 is not the row's least common denominator"),
    (((2, 4),), (6,), "type 0: unit 6 is not the row's least common denominator"),
    (((0, 0),), (2,), "type 0: unit 2 is not the row's least common denominator"),
])
def test_instance_checks_given_scaled_rows_in_ints(ints, units, msg):
    with pytest.raises(InputError) as err:
        Instance(2, ScaledRows(ints, units))
    assert str(err.value) == msg


def test_instance_from_scaled_rows_equals_the_rational_one():
    rows = ((F(1, 2), F(1, 3), F(0)), (F(2), F(4), F(6)), (F(0), F(0), F(0)))
    scaled = ScaledRows(((3, 2, 0), (2, 4, 6), (0, 0, 0)), (6, 1, 1))
    assert Instance(2, scaled) == Instance(2, rows)
    assert Instance(2, scaled).scaled is scaled


def _holds_fraction(x):
    if isinstance(x, F):
        return True
    if isinstance(x, ScaledRows):
        return _holds_fraction(x.ints) or _holds_fraction(x.units)
    return isinstance(x, tuple) and any(map(_holds_fraction, x))


def test_instance_holds_its_rows_once_as_scaled_ints():
    from mmsonline import gen_normalized_random

    norm = gen_normalized_random(4, 12, 3, seed=2)
    inst = norm.base
    assert not any(_holds_fraction(getattr(inst, f.name)) for f in dataclasses.fields(inst))
    assert all(type(x) is int for row in inst.scaled.ints for x in row)
    assert all(type(unit) is int for unit in inst.scaled.units)
    assert "scaled" not in {f.name for f in dataclasses.fields(norm)}
    assert norm.scaled is inst.scaled
    # the rational view is derived: each value over its type's unit
    assert inst.type_values == tuple(tuple(F(x, unit) for x in ints)
                                     for ints, unit in zip(inst.scaled.ints, inst.scaled.units))


def test_instance_rebuilt_from_its_rational_view_is_equal():
    from mmsonline import gen_normalized_random
    from mmsonline.jsonio import instance_from_obj, instance_to_obj

    inst = gen_normalized_random(5, 15, 3, seed=7).base
    parsed = instance_from_obj(instance_to_obj(inst))
    for one in (inst, parsed):
        assert Instance(one.n_agents, one.type_values) == one
    assert parsed == inst


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


@settings(max_examples=100)
@given(st.lists(st.lists(st.integers(0, 2**64), min_size=1, max_size=4).filter(any), min_size=1, max_size=5))
@example([[0, 5], [7], [2**60, 2**60 + 3, 0]])
def test_scale_parts_matches_a_fraction_reference(weight_lists):
    # zero weights, single-item parts and weights far past 2^40, each part on scattered item ids
    m = sum(map(len, weight_lists))
    ids = sorted(range(m), key=lambda g: (g % 3, g))
    parts, want = [], [F(0)] * m
    for weights in weight_lists:
        items, ids = ids[:len(weights)], ids[len(weights):]
        parts.append((items, weights))
        for g, w in zip(items, weights):
            want[g] = F(w, sum(weights))
    ints, unit = scale_parts(parts, m)
    assert (ints, unit) == scale_row(want)
    assert len({id(x) for x in ints}) == len(set(ints))  # equal ints are one object


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
    return universal_items(norm.scaled, range(norm.m_items), alpha)


def test_universally_high_valued():
    values = as_scaled(((F(3, 5), F(2, 5)), (F(7, 10), F(9, 10))))
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


def test_finish_run_ratios_count_zero_share_agents():
    # one type's items are worth 1/2 each; the other type has share 0, so
    # its agent's ratio is 1 whatever it gets, below the first agent's 3/2
    norm = normalize(Instance(2, ((1, 1, 1, 1), (0, 0, 0, 0))))
    assert norm.zero_mms_types == {1}
    for bundles, ratios in [((Bundle((0, 1, 2)), Bundle((3,))), (F(3, 2), F(1))),
                            ((Bundle((0, 1, 2)), None), (F(3, 2), F(1))),
                            ((None, Bundle((3,))), (F(0), F(1)))]:
        alloc, rep = finish_run(norm, [0, 1], bundles, F(1, 2))
        assert rep.per_agent_ratio == ratios and rep.min_ratio == min(ratios)
        again = verify_allocation(norm, alloc, F(1, 2))
        assert (again.per_agent_ratio, again.min_ratio) == (rep.per_agent_ratio, rep.min_ratio)


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


@pytest.mark.parametrize("zero", [{7}, {2}, {-1}, {0, 2}])
def test_normalized_instance_rejects_zero_share_type_out_of_range(zero):
    inst = Instance(2, ((F(1, 2),) * 4, (F(1, 2),) * 4))
    pair = (Bundle((0, 1)), Bundle((2, 3)))
    with pytest.raises(ValidationError, match=r"zero-share type ids must lie in 0\.\.1"):
        NormalizedInstance(inst, (F(1), F(1)), (pair, pair), frozenset(zero))


def _fraction_rescaling_error(inst, witnesses, zero_types):
    """Reference: the value checks ``NormalizedInstance`` made in Fractions
    before the integer view; the first failing check's message, or None."""
    for i, row in enumerate(inst.type_values):
        if i in zero_types:
            continue
        if any(value(row, b) != 1 for b in witnesses[i]):
            return f"type {i}: witness bundle value != 1 after rescaling"
        if any(v > 1 for v in row):
            return f"type {i}: item value above 1 after rescaling"
    return None


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 5), st.integers(1, 3), st.integers(1, 4), st.integers(0, 2**32), st.data())
def test_normalized_instance_rejects_what_fraction_checks_rejected(n, k, mult, seed, data):
    # a normalized instance with a few values overwritten: some bundle may no
    # longer be worth 1, some item may exceed 1, or both, or neither
    from mmsonline import gen_normalized_random

    norm = gen_normalized_random(n, n * mult, k, seed=seed)
    rows = [list(row) for row in norm.base.type_values]
    for _ in range(data.draw(st.integers(0, 3))):
        i, g = data.draw(st.integers(0, k - 1)), data.draw(st.integers(0, n * mult - 1))
        rows[i][g] = data.draw(st.one_of(
            st.sampled_from([rows[i][g], F(1), F(0), F(3, 2)]),
            st.fractions(min_value=0, max_value=3, max_denominator=40)))
    zero = frozenset(data.draw(st.sets(st.integers(0, k - 1), max_size=1)))
    inst = Instance(n, tuple(tuple(r) for r in rows))
    mms = tuple(F(0) if i in zero else F(1) for i in range(k))
    want = _fraction_rescaling_error(inst, norm.witness_partitions, zero)
    if want is None:
        got = NormalizedInstance(inst, mms, norm.witness_partitions, zero)
        assert got.scaled.ints == tuple(
            tuple(v * unit for v in row) for row, unit in zip(inst.type_values, got.scaled.units))
    else:
        with pytest.raises(ValidationError) as err:
            NormalizedInstance(inst, mms, norm.witness_partitions, zero)
        assert str(err.value) == want


def test_fill_bag_stops_at_the_first_claim_and_lists_every_claimant():
    rows = ((1, 1, 1), (1, 2, 0))
    # item 1 brings both types to their claim at once
    assert fill_bag(rows, [2, 2], [0, 1, 2], 0, [0, 1]) == ([0, 1], [2, 3], [0, 1], 2)
    # only open types claim; the scan starts at pos
    assert fill_bag(rows, [2, 2], [0, 1, 2], 0, [1]) == ([0, 1], [2, 3], [1], 2)
    assert fill_bag(rows, [2, 2], [0, 1, 2], 1, [0, 1]) == ([1], [1, 2], [1], 2)
    # the scan runs out before any claim
    assert fill_bag(rows, [9, 9], [0, 1, 2], 0, [0, 1]) is None
    assert fill_bag(rows, [2, 2], [0, 1, 2], 0, []) is None
