import dataclasses
import hashlib
import pickle
import re
import types
from fractions import Fraction as F
from itertools import product
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from mmsonline import (
    InputError,
    TypeDistribution,
    ValidationError,
    gen_random,
    normalize,
    run_adversarial,
    run_known_d,
    run_unknown_d,
    sample_arrivals,
)
from mmsonline.adversarial import TentativeState, adaptive_lower_bound_adversary, greedy_policy, tentative_policy
from mmsonline.core import (
    Allocation,
    Bundle,
    EMPTY_BUNDLE,
    FailureReason,
    Instance,
    NormalizedInstance,
    ScaledRows,
    TrialReport,
    _in_order_and_disjoint,
    agent_ratio,
    as_scaled,
    check_items,
    fill_bag,
    finish_run,
    scale_parts,
    scale_row,
    value,
    verify_allocation,
)
from mmsonline.generators import gen_normalized_random
from mmsonline.jsonio import canonical_json, report_to_obj
from mmsonline.rng import substream
from mmsonline.stochastic import preprocess_low_c, universal_items
from mmsonline.solver import mms_brute_force
from mmsonline.unknown import random_split

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
    assert b == (1, 2, 3)
    assert 2 in b and len(b) == 3
    with pytest.raises(InputError):
        Bundle((-1,))
    one = Bundle.from_sorted([1])
    assert Bundle.from_sorted([1, 2, 3]) == b and type(one) is Bundle and type(one[0]) is int


def test_bundle_is_the_tuple_of_its_ids():
    b = Bundle((5, 0, 3))
    assert b == (0, 3, 5) and hash(b) == hash((0, 3, 5))
    assert {b: 1}[(0, 3, 5)] == 1 and b != [0, 3, 5]
    assert repr(b) == "Bundle(items=(0, 3, 5))" and repr(Bundle((2,))) == "Bundle(items=(2,))"
    assert repr(EMPTY_BUNDLE) == "Bundle(items=())" and not EMPTY_BUNDLE and len(EMPTY_BUNDLE) == 0
    for proto in range(pickle.HIGHEST_PROTOCOL + 1):
        again = pickle.loads(pickle.dumps(b, proto))
        assert type(again) is Bundle and again == b
    for made in (Bundle.from_sorted([1, 4]), Bundle.from_sorted(range(2, 5))):
        assert type(made) is Bundle and all(type(g) is int for g in made)
    assert type(b[:2]) is tuple and b[:2] == (0, 3)
    assert type(b + (7,)) is tuple and b + (7,) == (0, 3, 5, 7)
    assert not hasattr(b, "__dict__")


@pytest.mark.parametrize("items, message", [
    ((-1, 2), "negative item index"),
    ((1, 2.5), "item indices must be integers, got (1, 2.5)"),
    (["3"], "item indices must be integers, got ['3']"),
])
def test_bundle_constructor_errors_are_unchanged(items, message):
    with pytest.raises(InputError) as err:
        Bundle(items)
    assert str(err.value) == message


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
        assert type(b) is Bundle and all(type(g) is int for g in b), (where, b)
        assert all(a < c for a, c in zip(b, b[1:])) and min(b, default=0) >= 0, (where, b)


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
    from mmsonline.generators import gen_normalized_random

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
    from mmsonline.generators import gen_normalized_random
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
# 1/2 from two (total, weight) pairs: one int object only if interned across parts;
# the 1/1000 part lifts L so that 1/2 scales to 500, past CPython's small-int cache
@example([[1, 1], [2, 2]])
@example([[1, 1], [2, 2], [1, 999]])
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


def _allocation_error(entries):
    # the naming loop Allocation falls back to, as a reference: the first
    # clash in entry order, an agent's order before its items
    prev, seen = -1, {}
    for agent, _type_id, bundle in entries:
        if agent <= prev:
            return "agent indices must be strictly increasing"
        prev = agent
        for g in bundle:
            if g in seen:
                return f"item {g} allocated to both agent {seen[g]} and agent {agent}"
            seen[g] = agent
    return None


def test_allocation_disjointness_enforced():
    for entries, message in [
        (((0, 0, Bundle((1, 2))), (1, 0, Bundle((2, 3)))), "item 2 allocated to both agent 0 and agent 1"),
        # two overlaps: the first clashing entry's first repeated item is named
        (((0, 0, Bundle((1, 2))), (1, 0, Bundle((3, 5))), (2, 1, Bundle((2, 5)))),
         "item 2 allocated to both agent 0 and agent 2"),
        (((1, 0, Bundle((1,))), (0, 0, Bundle((2,)))), "agent indices must be strictly increasing"),
        (((0, 0, Bundle((1,))), (2, 0, Bundle((2,))), (1, 0, Bundle((3,)))),
         "agent indices must be strictly increasing"),
        # a negative first agent
        (((-1, 0, Bundle((1,))), (0, 0, Bundle((2,)))), "agent indices must be strictly increasing"),
        # a repeated agent is out of order before its items are read
        (((0, 0, Bundle((1,))), (0, 0, Bundle((1,)))), "agent indices must be strictly increasing"),
    ]:
        assert _allocation_error(entries) == message
        with pytest.raises(ValidationError) as err:
            Allocation(entries)
        assert str(err.value) == message


@settings(max_examples=300)
@given(st.lists(st.tuples(st.integers(-2, 8), st.frozensets(st.integers(0, 9), max_size=4)), max_size=6),
       st.booleans())
def test_allocation_fast_path_accepts_exactly_what_the_loop_accepts(raw, by_agent):
    if by_agent:  # makes in-order entries common, with ties and negatives left in
        raw = sorted(raw, key=lambda entry: entry[0])
    entries = tuple((agent, 0, Bundle(tuple(items))) for agent, items in raw)
    want = _allocation_error(entries)
    assert _in_order_and_disjoint(entries) == (want is None)
    if want is None:
        assert Allocation(entries).entries == entries
    else:
        with pytest.raises(ValidationError) as err:
            Allocation(entries)
        assert str(err.value) == want


@settings(max_examples=200)
@given(st.lists(st.integers(0, 30), max_size=20))
def test_check_items_sorts_only_when_needed(items):
    want = sorted(set(items))
    assert check_items(items) == want
    ascending = list(want)
    got = check_items(ascending)
    assert got == want and type(got) is list and got is not ascending
    assert check_items(tuple(want)) == want and check_items(iter(want)) == want


@pytest.mark.parametrize("items, m, bad", [
    ([0, 5], 5, 5), ([5, 0], 5, 5), ([5, 0, 5], 5, 5), ([-1, 0], None, -1), ([0, -1], None, -1),
    ([-1, 0, 9], 5, -1), ([0, 3, 3, -2], 5, -2),
])
def test_check_items_errors_are_the_same_sorted_or_not(items, m, bad):
    with pytest.raises(InputError) as err:
        check_items(items, m)
    assert str(err.value) == f"item id {bad} out of range"


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


def test_ratio_pairs_read_as_agent_ratio_and_render_the_same_bytes():
    # the golden instances and a small raw sweep with zero-share types, every
    # allocator, its ex-post verification and the lower-bound game: each
    # reported ratio is agent_ratio's, and the reports' JSON hashes to the
    # digest of the code that kept one Fraction per agent
    insts = [gen_normalized_random(3, 8, 2, seed=1), gen_normalized_random(12, 40, 3, seed=2),
             normalize(gen_random(3, 8, 2, "uniform", seed=5))]
    insts += [normalize(gen_random(n, m, k, model, seed=seed)) for model, k, (n, m), seed
              in product(("uniform", "binary", "clustered"), (2, 3), ((3, 7), (4, 9)), range(2))]
    digest, zero_agents, verdicts = hashlib.sha256(), 0, set()
    for norm in insts:
        k = norm.k_types
        dist = TypeDistribution.from_probs([F(1, k)] * k)
        for s in range(3):
            seq = sample_arrivals(dist, norm.n_agents, s)
            for alloc, rep in [run_adversarial(norm, seq), run_known_d(norm, dist, seq, eta=F(1, 2), epsilon=F(1, 10)),
                               run_unknown_d(norm, seq, eta=F(1, 2), c=F(1, 20), seed=s)]:
                for r in (rep, verify_allocation(norm, alloc, rep.alpha)):
                    ratios = tuple(agent_ratio(norm, t, b) for _, t, b in alloc.entries)
                    assert r.per_agent_ratio == ratios and r.min_ratio == min(ratios)
                    assert r.succeeded_at_alpha == (r.min_ratio >= r.alpha)
                    zeros = [x for (_, t, _), x in zip(alloc.entries, r.per_agent_ratio) if t in norm.zero_mms_types]
                    assert zeros == [1] * len(zeros)
                    zero_agents += len(zeros)
                    verdicts.add(r.succeeded_at_alpha)
                    digest.update(canonical_json(report_to_obj(r)).encode())
    for policy in (greedy_policy, tentative_policy):
        for k, n in ((16, 4), (16, 6), (25, 6)):
            digest.update(canonical_json(report_to_obj(adaptive_lower_bound_adversary(k, n, policy))).encode())
    assert zero_agents == 258 and verdicts == {True, False}
    assert digest.hexdigest() == "34db866e77a7a1320b4cd459d6eb649e1510930639413a618039b89d04a0122c"


def test_reports_compare_by_value_and_replace_keeps_them():
    # finish_run keeps each ratio as (scaled total, L_i), unreduced: 6/4 and
    # 2/4 here; a report built from the reduced Fractions is the same report
    norm = NormalizedInstance(Instance(2, ((F(1, 4),) * 8,)), (F(1),), ((Bundle(range(4)), Bundle(range(4, 8))),))
    _, rep = finish_run(norm, [0, 0], [Bundle(range(6)), Bundle((6, 7))], F(1, 2), details={"x": 1})
    assert (rep.numerators, rep.denominators) == ((6, 2), (4, 4))
    built = TrialReport.build([F(3, 2), F(1, 2)], F(1, 2), details={"x": 1})
    assert (built.numerators, built.denominators) == ((3, 1), (2, 2)) and built == rep
    assert rep.per_agent_ratio is rep.per_agent_ratio  # built once, on the first read
    assert TrialReport.build([F(3, 2), F(2, 4)], F(1, 2), details={"x": 1}) == rep
    assert TrialReport.build([F(3, 2), F(1, 3)], F(1, 2), details={"x": 1}) != rep
    assert TrialReport.build([F(3, 2), F(1, 2)], F(1, 2)) != rep
    flagged = dataclasses.replace(rep, flags=("degenerateScale",))
    assert flagged != rep and flagged.per_agent_ratio == rep.per_agent_ratio and flagged.min_ratio == F(1, 2)
    assert dataclasses.replace(flagged, flags=()) == rep
    assert report_to_obj(dataclasses.replace(rep)) == report_to_obj(rep) == report_to_obj(built)
    assert not dataclasses.replace(rep, alpha=F(2, 3)).succeeded_at_alpha  # the verdict follows alpha
    assert pickle.loads(pickle.dumps(rep)) == rep


def test_a_reason_is_reported_only_for_a_failed_run():
    for reason in FailureReason:
        ok = TrialReport.build([F(1, 2), F(1)], F(1, 2), reason)
        assert ok.succeeded_at_alpha and ok.failure_reason is FailureReason.NONE
        failed = TrialReport.build([F(1, 3), F(1)], F(1, 2), reason)
        assert not failed.succeeded_at_alpha
        assert failed.failure_reason is (FailureReason.VALUE_BELOW_ALPHA if reason is FailureReason.NONE else reason)
    # a dry zero-share agent gets ratio 1, so only a dry positive-share agent fails the run
    norm = normalize(Instance(2, ((1, 1, 1, 1), (0, 0, 0, 0))))
    assert finish_run(norm, [0, 1], [Bundle((0, 1, 2)), None], F(1, 2))[1].failure_reason is FailureReason.NONE
    assert finish_run(norm, [0, 1], [None, Bundle((3,))], F(1, 2))[1].failure_reason is FailureReason.EMPTY_RESERVE


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
    assert d.order.index(1) == 0 and d.order.index(0) == 2
    assert d.original_probs() == (F(1, 5), F(1, 2), F(3, 10))
    with pytest.raises(InputError):
        TypeDistribution.from_probs([F(1, 2), F(1, 3)])  # does not sum to 1


def test_normalized_instance_rejects_bad_witness():
    inst = Instance(2, ((F(1, 2),) * 4,))
    with pytest.raises(ValidationError):
        NormalizedInstance(inst, (F(1),), ((Bundle((0,)), Bundle((1, 2, 3))),))
    # a negative id would index from the row's end: item 2 twice, item 1 never
    with pytest.raises(ValidationError, match="type 0: witness is not a partition of the items"):
        NormalizedInstance(Instance(2, ((0, 1, 1),)), (1,), (((-1, 0), (2,)),))


def _with_first_witness(norm, edit):
    """``norm``'s witness partitions with type 0's bundles (a list) passed through ``edit``."""
    part = list(norm.witness_partitions[0])
    edit(part)
    return {"witness_partitions": (tuple(part), *norm.witness_partitions[1:])}


@pytest.mark.parametrize("broken, message", [
    (lambda norm: {"original_mms": norm.original_mms[:1]}, "per-type metadata length mismatch"),
    (lambda norm: _with_first_witness(norm, lambda part: part.pop()),
     "type 0: witness has 2 bundles, expected 3"),
    (lambda norm: _with_first_witness(norm, lambda part: part.__setitem__(0, Bundle(part[0] + part[1][:1]))),
     "type 0: witness is not a partition of the items"),
    (lambda norm: _with_first_witness(norm, lambda part: part.__setitem__(0, Bundle(part[0] + (8,)))),
     "type 0: witness is not a partition of the items"),
    (lambda norm: _with_first_witness(norm, lambda part: part.__setitem__(0, Bundle(part[0][1:]))),
     "type 0: witness does not cover all items"),
    (lambda norm: {"zero_mms_types": {0}}, "type 0 flagged zero-share but has positive share"),
    (lambda norm: {"original_mms": (F(0), *norm.original_mms[1:])},
     "type 0 has nonpositive share but is not flagged"),
], ids=["metadata", "bundle-count", "repeated-item", "item-beyond-m", "missing-item",
        "flagged-positive", "unflagged-zero"])
def test_normalized_instance_names_each_broken_field(broken, message):
    norm = gen_normalized_random(3, 8, 2, seed=1)
    with pytest.raises(ValidationError) as err:
        dataclasses.replace(norm, **broken(norm))
    assert str(err.value) == message


@pytest.mark.parametrize("probs, order, message", [
    ((F(3, 2), F(-1, 2)), (0, 1), "probabilities must be nonnegative"),
    ((F(1, 4), F(3, 4)), (0, 1), "probs must be sorted non-increasing"),
    ((F(1, 2), F(1, 2)), (0, 0), "order must be a permutation of type ids"),
])
def test_type_distribution_rejects_a_broken_law(probs, order, message):
    with pytest.raises(InputError) as err:
        TypeDistribution(probs, order)
    assert str(err.value) == message


@pytest.mark.parametrize("entry, message", [
    ((0, 1, Bundle((0,))), "type id 1 out of range"),
    ((0, -1, Bundle((0,))), "type id -1 out of range"),
    ((0, 0, Bundle((3, 4))), "bundle references an item outside the instance"),
])
def test_verify_allocation_rejects_out_of_range_entries(entry, message):
    with pytest.raises(ValidationError) as err:
        verify_allocation(_tiny_norm(), Allocation((entry,)), F(1, 2))
    assert str(err.value) == message


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
    from mmsonline.generators import gen_normalized_random

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
    # only open types claim and only their values are summed; the closed
    # type 0 reads 0; the scan starts at pos
    assert fill_bag(rows, [2, 2], [0, 1, 2], 0, [1]) == ([0, 1], [0, 3], [1], 2)
    assert fill_bag(rows, [2, 2], [0, 1, 2], 1, [0, 1]) == ([1], [1, 2], [1], 2)
    # the scan runs out before any claim
    assert fill_bag(rows, [9, 9], [0, 1, 2], 0, [0, 1]) is None
    assert fill_bag(rows, [2, 2], [0, 1, 2], 0, []) is None


def _fill_bag_all_types(rows, claim, scan, pos, open_types):
    # the filler that summed every type's value, as a reference
    k = len(rows)
    vals = [0] * k
    start, end = pos, len(scan)
    while pos < end:
        g = scan[pos]
        pos += 1
        for j in range(k):
            vals[j] += rows[j][g]
        for j in open_types:
            if vals[j] >= claim[j]:
                return scan[start:pos], vals, [c for c in open_types if vals[c] >= claim[c]], pos
    return None


@st.composite
def _fill_bag_args(draw):
    k, m = draw(st.integers(1, 4)), draw(st.integers(1, 8))
    rows = [draw(st.lists(st.integers(0, 5), min_size=m, max_size=m)) for _ in range(k)]
    claim = draw(st.lists(st.integers(1, 12), min_size=k, max_size=k))
    scan = draw(st.permutations(range(m)).flatmap(lambda p: st.integers(0, m).map(lambda r: p[:r])))
    pos = draw(st.integers(0, len(scan)))
    open_types = sorted(draw(st.sets(st.sampled_from(range(k)))))
    return rows, claim, scan, pos, open_types


@settings(max_examples=300)
@given(_fill_bag_args())
@example(([[1, 1, 1], [1, 2, 0]], [2, 2], [0, 1, 2], 0, []))  # nothing open: dry
@example(([[1, 1, 1], [1, 2, 0]], [9, 9], [0, 1, 2], 0, [0, 1]))  # the scan runs dry
@example(([[1, 1, 1], [1, 2, 0]], [2, 2], [0, 1, 2], 0, [1]))  # a closed type would claim
def test_fill_bag_agrees_with_the_all_types_filler(args):
    got, want = fill_bag(*args), _fill_bag_all_types(*args)
    assert (got is None) == (want is None)
    if got is not None:
        (bag, vals, claimants, pos), (want_bag, want_vals, want_claimants, want_pos) = got, want
        assert (bag, claimants, pos) == (want_bag, want_claimants, want_pos)
        open_types = args[4]
        assert [vals[j] for j in open_types] == [want_vals[j] for j in open_types]
        assert all(vals[j] == 0 for j in range(len(vals)) if j not in open_types)


# -- the package's public API ---------------------------------------------------


def test_readme_quick_tour_runs():
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    (tour,) = re.findall(r"^```python\n(.*?)^```$", readme, re.S | re.M)
    exec(compile(tour, "README.md", "exec"), {})


def test_package_exports_the_quick_tour_and_the_exceptions():
    import mmsonline

    names = {n for n in mmsonline.__all__ if not isinstance(getattr(mmsonline, n), types.ModuleType)}
    assert names == {
        "mms_exact", "gen_random", "normalize", "run_adversarial", "TypeDistribution",
        "sample_arrivals", "run_known_d", "run_unknown_d", "run_algorithm",
        "MmsOnlineError", "InputError", "ValidationError", "CapacityError",
        "InvariantViolation", "PoolExhausted",
    }
