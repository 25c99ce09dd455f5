import random
from collections import deque
from fractions import Fraction as F
from itertools import islice

import pytest
from hypothesis import given, settings, strategies as st

from mmsonline import (
    InputError,
    TypeDistribution,
    run_known_d,
    sample_arrivals,
)
from mmsonline.core import (
    Bundle,
    FailureReason,
    Instance,
    InvariantViolation,
    NormalizedInstance,
    as_scaled,
    value,
    verify_allocation,
)
from mmsonline.exactpow import pow_sqrt_sum_ge
from mmsonline.generators import gen_normalized_random, gen_tightness_half, gen_tightness_pk
from mmsonline.stochastic import (
    LowCState,
    claim_level,
    high_c_condition,
    known_d_engine,
    preprocess_low_c,
    reservation_cap,
    run_high_c,
    run_low_c,
    universal_items,
)

UNIFORM3 = [F(1, 3)] * 3


def test_params_validation():
    assert claim_level(None, F(1, 2)) == F(1, 3)
    norm = gen_normalized_random(6, 18, 3, seed=1)
    dist = TypeDistribution.from_probs(UNIFORM3)
    seq = sample_arrivals(dist, 6, 2)
    with pytest.raises(InputError):
        run_known_d(norm, dist, seq, alpha=F(1, 3), epsilon=F(3, 5))  # epsilon >= 1/2
    with pytest.raises(InputError):
        run_known_d(norm, dist, seq, alpha=F(0), epsilon=F(1, 10))


@pytest.mark.parametrize("eta", [F(-1, 2), F(-1)])
def test_run_known_d_rejects_negative_eta(eta):
    norm = gen_normalized_random(6, 18, 3, seed=1)
    dist = TypeDistribution.from_probs(UNIFORM3)
    seq = sample_arrivals(dist, 6, 2)
    with pytest.raises(InputError):
        run_known_d(norm, dist, seq, eta=eta, epsilon=F(1, 10))
    with pytest.raises(InputError):
        claim_level(None, eta)


def test_reservation_cap_examples():
    assert reservation_cap(100, F(1, 4), F(3, 10)) == 44
    assert reservation_cap(200, F(1, 3), F(1, 10)) == 80
    # cap never falls below floor(mu)
    for nprime, p in [(50, F(1, 2)), (7, F(2, 7)), (200, F(1, 5))]:
        assert reservation_cap(nprime, p, F(1, 10)) >= int(nprime * p)


def test_high_c_condition_exact():
    # n=4, k=2, p1=3/5: threshold = 2 + 4^(1/10) * sqrt(12/5) = 3.78...
    assert not high_c_condition(3, 4, 2, F(3, 5), F(1, 10))
    assert high_c_condition(4, 4, 2, F(3, 5), F(1, 10))


def _ordering_fixture():
    # T_0 = {0..9}, T_1 = {5..14}, T_2 = {15}, m = 20, alpha = 1/2
    m = 20
    rows = []
    for high in ({*range(10)}, {*range(5, 15)}, {15}):
        rows.append(tuple(F(1, 2) if g in high else F(1, 100) for g in range(m)))
    return as_scaled(rows)


def test_ordering_qualifying_pair():
    rows = _ordering_fixture()
    # |T_0 \ T_1| = 5 >= n'p_0/2 = 10*(1/2)/2 = 2.5: 0 first, 1 last
    state = preprocess_low_c(rows, range(20), 10, [F(1, 2), F(3, 10), F(1, 5)],
                             F(1, 2), F(1, 10))
    assert state.order == [0, 2, 1]


def test_ordering_fallback_least_frequent_last():
    # identical high sets: no qualifying pair, lowest-probability rank is last
    rows = as_scaled((F(1, 2),) * 6 for _ in range(3))
    state = preprocess_low_c(rows, range(6), 4, [F(1, 2), F(3, 10), F(1, 5)],
                             F(1, 2), F(1, 10))
    assert state.order == [0, 1, 2]


def test_turn_loop_prefers_items_outside_last_types_set():
    rows = _ordering_fixture()
    state = preprocess_low_c(rows, range(20), 10, [F(1, 2), F(3, 10), F(1, 5)],
                             F(1, 2), F(1, 10))
    # type 0 reserves from T_0 \ T_1 = {0..4} before touching the overlap
    first_five = [b[0] for b in list(state.reserves[0])[:5]]
    assert first_five == [0, 1, 2, 3, 4]
    # reserves are singletons during the turn phase and disjoint across types
    seen = set()
    for dq in state.reserves:
        for b in dq:
            assert not (set(b) & seen)
            seen.update(b)


def _rescanning_preprocess_low_c(values, items, nprime, probs, alpha, epsilon):
    """Reference: ``preprocess_low_c`` with its earlier turn phase, which
    tracks the items each type has seen consumed and rescans the high set
    for every pick, and a full scan for the items an open type left.  It
    raises the first failed check as ``InvariantViolation``."""
    k = len(values)
    item_list = sorted(set(items))
    high_sets = [[g for g in item_list if values[i][g] >= alpha] for i in range(k)]
    high_lookup = [set(t) for t in high_sets]
    caps = [reservation_cap(nprime, p, epsilon) for p in probs]
    order = None
    for i in range(k):
        for j in range(k):
            if i != j and 2 * len(high_lookup[i] - high_lookup[j]) >= nprime * probs[i]:
                order = [i] + [x for x in range(k) if x not in (i, j)] + [j]
                break
        if order is not None:
            break
    order = order or list(range(k))
    last_type = order[-1]
    reserves = [deque() for _ in range(k)]
    consumed = [set() for _ in range(k)]
    singleton_counts = [0] * k
    unsaturated = set(range(k))
    remaining = set(item_list)
    for pos, i in enumerate(order):
        while len(reserves[i]) < caps[i]:
            pick = next((g for g in high_sets[i]
                         if g not in consumed[i] and g not in high_lookup[last_type]), None)
            if pick is None:
                pick = next((g for g in high_sets[i] if g not in consumed[i]), None)
            if pick is None:
                break
            reserves[i].append(Bundle((pick,)))
            singleton_counts[i] += 1
            remaining.discard(pick)
            for j in order[pos:]:
                consumed[j].add(pick)
        if len(reserves[i]) == caps[i]:
            unsaturated.discard(i)
    state = LowCState(high_sets=high_sets, reserves=reserves, caps=caps,
                      singleton_counts=singleton_counts, order=order,
                      unsaturated=set(unsaturated))
    violations = []
    violate = violations.append
    for i in unsaturated:
        for g in sorted(remaining):
            if values[i][g] >= alpha:
                violate(f"open type {i} left high-valued item {g} unreserved")
                break
    mus = [nprime * p for p in probs]
    for i in unsaturated:
        slack = F(len(high_sets[i])) - nprime * (1 - probs[-1] / 2)
        if not pow_sqrt_sum_ge(nprime, epsilon, mus, slack):
            violate(f"open type {i} holds {len(high_sets[i])} high-valued items")
    scan = sorted(remaining)
    pos = 0
    while unsaturated and pos < len(scan):
        bag, vals, claimant = [], [F(0)] * k, None
        while pos < len(scan):
            g = scan[pos]
            pos += 1
            bag.append(g)
            for j in range(k):
                vals[j] += values[j][g]
            open_claims = [j for j in sorted(unsaturated) if vals[j] >= alpha]
            if open_claims:
                claimant = open_claims[0]
                break
        if claimant is None:
            break
        reserves[claimant].append(Bundle(tuple(bag)))
        state.bag_count += 1
        for j in list(unsaturated):
            if vals[j] > 2 * alpha:
                violate(f"bag worth {vals[j]} > 2*alpha to open type {j}")
        if len(reserves[claimant]) == caps[claimant]:
            unsaturated.discard(claimant)
    state.unsaturated = unsaturated
    for i in range(k):
        if len(reserves[i]) > caps[i]:
            violate(f"type {i} holds {len(reserves[i])} > cap {caps[i]}")
    if violations:
        raise InvariantViolation(violations[0])
    return state


def _low_c_cases():
    rng = random.Random(7)
    for seed in range(40):
        n, k = rng.randint(2, 9), rng.randint(2, 4)
        m = n * rng.randint(2, 5)
        norm = gen_normalized_random(n, m, k, seed=seed, weight_lo=1, weight_hi=6)
        items = sorted(rng.sample(range(m), rng.randint(1, m)))
        weights = [rng.randint(1, 9) for _ in range(k)]
        probs = sorted((F(w, sum(weights)) for w in weights), reverse=True)
        yield (norm.base.type_values, items, rng.randint(1, 2 * n), probs,
               rng.choice([F(1, 6), F(1, 4), F(1, 3), F(1, 2)]), rng.choice([F(1, 10), F(1, 5)]))
    # identical high sets: type 1 is left open while holding every item
    yield ((F(1, 2),) * 100,) * 2, range(100), 100, [F(1, 2)] * 2, F(1, 2), F(1, 10)
    for n in (30, 90, 300):
        norm, dist = gen_tightness_pk(3, n)
        rows = tuple(norm.base.type_values[o] for o in dist.order)
        yield rows, range(norm.m_items), n, dist.probs, F(1, 3), F(1, 10)


def _low_c_outcome(preprocess, *args):
    """The state a low-C preprocessing returns, or the message of the
    ``InvariantViolation`` it raises."""
    try:
        return preprocess(*args)
    except InvariantViolation as exc:
        return str(exc)


def test_turn_phase_matches_rescanning_reference():
    for case in _low_c_cases():
        values, *rest = case
        got = _low_c_outcome(preprocess_low_c, as_scaled(values), *rest)
        want = _low_c_outcome(_rescanning_preprocess_low_c, *case)
        if isinstance(want, str):
            assert got == want
            continue
        assert [list(dq) for dq in got.reserves] == [list(dq) for dq in want.reserves]
        assert got.singleton_counts == want.singleton_counts
        assert got.unsaturated == want.unsaturated
        assert (got.order, got.bag_count) == (want.order, want.bag_count)


def test_open_types_leave_no_high_item_and_reserves_stay_within_caps():
    for values, items, nprime, probs, alpha, epsilon in _low_c_cases():
        state = _low_c_outcome(preprocess_low_c, as_scaled(values), items, nprime, probs, alpha, epsilon)
        if isinstance(state, str):
            continue  # a failed audit, which the reference test above checks
        # a type still open after its turn took every high-valued item left to it,
        # so each of its high items is some type's turn-phase singleton
        singles = {g for dq, count in zip(state.reserves, state.singleton_counts)
                   for b in islice(dq, count) for g in b}
        for i, (count, cap) in enumerate(zip(state.singleton_counts, state.caps)):
            if count < cap:
                assert set(state.high_sets[i]) <= singles
        assert all(len(dq) <= cap for dq, cap in zip(state.reserves, state.caps))


# -- the integer kernel against the Fraction implementation it replaced ----------


def _fraction_universal_items(values, items, alpha):
    """Reference: ``universal_items`` compared in Fractions."""
    return [g for g in sorted(items) if all(row[g] >= alpha for row in values)]


def _fraction_preprocess_low_c(values, items, nprime, probs, alpha, epsilon):
    """Reference: ``preprocess_low_c`` as it was with Fraction values, before
    the integer view: high sets, bag sums and the 2*alpha check in Fractions.
    It raises the first failed check as ``InvariantViolation``."""
    k = len(values)
    item_list = sorted(set(int(g) for g in items))
    high_sets = [[g for g in item_list if values[i][g] >= alpha] for i in range(k)]
    high_lookup = [set(t) for t in high_sets]
    caps = [reservation_cap(nprime, p, epsilon) for p in probs]
    order = None
    for i in range(k):
        for j in range(k):
            if i != j and 2 * len(high_lookup[i] - high_lookup[j]) >= nprime * probs[i]:
                order = [i] + [x for x in range(k) if x not in (i, j)] + [j]
                break
        if order is not None:
            break
    order = order or list(range(k))
    last_type = order[-1]
    reserves = [deque() for _ in range(k)]
    singleton_counts = [0] * k
    unsaturated = set(range(k))
    remaining = set(item_list)
    for i in order:
        ranked = sorted(high_sets[i], key=high_lookup[last_type].__contains__)
        picks = list(islice((g for g in ranked if g in remaining), caps[i]))
        reserves[i].extend(Bundle((g,)) for g in picks)
        singleton_counts[i] = len(picks)
        remaining.difference_update(picks)
        if len(picks) == caps[i]:
            unsaturated.discard(i)
    state = LowCState(high_sets=high_sets, reserves=reserves, caps=caps,
                      singleton_counts=singleton_counts, order=order,
                      unsaturated=set(unsaturated))
    violations = []
    violate = violations.append
    for i in unsaturated:
        left = next((g for g in high_sets[i] if g in remaining), None)
        if left is not None:
            violate(f"open type {i} left high-valued item {left} unreserved")
    mus = [nprime * p for p in probs]
    for i in unsaturated:
        slack = F(len(high_sets[i])) - nprime * (1 - probs[-1] / 2)
        if not pow_sqrt_sum_ge(nprime, epsilon, mus, slack):
            violate(f"open type {i} holds {len(high_sets[i])} high-valued items")
    scan = sorted(remaining)
    pos = 0
    while unsaturated and pos < len(scan):
        bag, vals, claimant = [], [F(0)] * k, None
        while pos < len(scan):
            g = scan[pos]
            pos += 1
            bag.append(g)
            for j in range(k):
                vals[j] += values[j][g]
            open_claims = [j for j in sorted(unsaturated) if vals[j] >= alpha]
            if open_claims:
                claimant = open_claims[0]
                break
        if claimant is None:
            break
        reserves[claimant].append(Bundle(tuple(bag)))
        state.bag_count += 1
        remaining.difference_update(bag)
        for j in list(unsaturated):
            if vals[j] > 2 * alpha:
                violate(f"bag worth {vals[j]} > 2*alpha to open type {j}")
        if len(reserves[claimant]) == caps[claimant]:
            unsaturated.discard(claimant)
    state.unsaturated = unsaturated
    for i in range(k):
        if len(reserves[i]) > caps[i]:
            violate(f"type {i} holds {len(reserves[i])} > cap {caps[i]}")
    if violations:
        raise InvariantViolation(violations[0])
    return state


@st.composite
def _kernel_cases(draw):
    """A random normalized instance (k in {1, 2, 3}) with a random item
    subset, agent count, law and claim level (1/k and 1/2 among them)."""
    n, k = draw(st.integers(1, 8)), draw(st.integers(1, 3))
    m = n * draw(st.integers(1, 5))
    lo = draw(st.integers(1, 4))
    norm = gen_normalized_random(n, m, k, seed=draw(st.integers(0, 2**32)),
                                 weight_lo=lo, weight_hi=lo + draw(st.integers(0, 5)))
    items = draw(st.sets(st.integers(0, m - 1)))
    weights = draw(st.lists(st.integers(1, 9), min_size=k, max_size=k))
    probs = sorted((F(w, sum(weights)) for w in weights), reverse=True)
    alpha = draw(st.sampled_from([F(1, k), F(1, 2), F(1, 3), F(1, 6), F(2, 5), F(2, 3)]))
    return norm, items, draw(st.integers(1, 2 * n)), probs, alpha, draw(st.sampled_from([F(1, 10), F(1, 5)]))


@settings(max_examples=150, deadline=None)
@given(_kernel_cases())
def test_universal_items_matches_fraction_reference(case):
    norm, items, _, _, alpha, _ = case
    want = _fraction_universal_items(norm.base.type_values, items, alpha)
    assert universal_items(norm.scaled, items, alpha) == want
    assert universal_items(as_scaled(norm.base.type_values), items, alpha) == want


def _assert_same_low_c(got, want):
    if isinstance(want, str):  # the reference's failed check: the kernel raises it too
        assert got == want
        return
    assert [list(dq) for dq in got.reserves] == [list(dq) for dq in want.reserves]
    assert got.singleton_counts == want.singleton_counts
    assert (got.order, got.caps, got.bag_count) == (want.order, want.caps, want.bag_count)
    assert got.unsaturated == want.unsaturated


@settings(max_examples=150, deadline=None)
@given(_kernel_cases())
def test_preprocess_low_c_matches_fraction_reference(case):
    norm, items, nprime, probs, alpha, epsilon = case
    want = _low_c_outcome(_fraction_preprocess_low_c, norm.base.type_values, items, nprime, probs, alpha, epsilon)
    _assert_same_low_c(_low_c_outcome(preprocess_low_c, norm.scaled, items, nprime, probs, alpha, epsilon), want)


def test_preprocess_low_c_matches_fraction_reference_on_violations():
    # identical high sets: type 1 is left open while holding every item
    case = (((F(1, 2),) * 100,) * 2, range(100), 100, [F(1, 2)] * 2, F(1, 2), F(1, 10))
    want = _low_c_outcome(_fraction_preprocess_low_c, *case)
    assert want == "open type 1 holds 100 high-valued items"
    with pytest.raises(InvariantViolation, match=f"^{want}$"):
        preprocess_low_c(as_scaled(case[0]), *case[1:])


def test_empty_high_sets_pure_bag_filling():
    norm = gen_normalized_random(6, 30, 2, seed=4, weight_lo=2, weight_hi=3)
    rows = norm.base.type_values
    state = preprocess_low_c(norm.scaled, range(30), 6, [F(1, 2), F(1, 2)], F(1, 3), F(1, 10))
    assert all(not t for t in state.high_sets)
    assert state.singleton_counts == [0, 0]
    assert state.bag_count == sum(len(dq) for dq in state.reserves)
    # every reserved bag is worth >= alpha to its holder
    for rank, dq in enumerate(state.reserves):
        for b in dq:
            assert value(rows[rank], b) >= F(1, 3)


def test_caps_respected_and_saturation_flags():
    norm = gen_normalized_random(12, 60, 3, seed=9, weight_lo=2, weight_hi=4)
    state = preprocess_low_c(norm.scaled, range(60), 12, UNIFORM3,
                             F(1, 3), F(1, 10))
    for rank in range(3):
        assert len(state.reserves[rank]) <= state.caps[rank]
        if rank not in state.unsaturated:
            assert len(state.reserves[rank]) == state.caps[rank]
    # reserves (singletons and bags alike) never share items across types
    seen = set()
    for dq in state.reserves:
        for b in dq:
            assert not (set(b) & seen)
            seen.update(b)


def test_run_low_c_drains_fifo_and_reports_empty():
    rows = as_scaled(((F(1, 2), F(1, 2)),))
    inst_items = [0, 1]
    state = preprocess_low_c(rows, inst_items, 2, [F(1)], F(1, 2), F(1, 10))
    out = run_low_c(state, [0, 0, 0][:2])
    assert out[0] is not None
    # cap is floor(2 + 2^0.1*sqrt(2)) = 3 but only 2 items exist; the second
    # agent drains the second bag if it exists, else None
    assert len([b for b in out if b is None]) + len([b for b in out if b]) == 2


def test_tightness_half_saturation_flip():
    norm = gen_tightness_half(3, 30, F(1, 10))
    rows = norm.scaled
    st_fail = preprocess_low_c(rows, range(60), 30, UNIFORM3, F(3, 5), F(1, 10))
    assert not st_fail.all_saturated
    # two-item bags only: never more than n bags in total
    assert st_fail.bag_count <= 30
    st_ok = preprocess_low_c(rows, range(60), 30, UNIFORM3, F(1, 3), F(1, 10))
    assert st_ok.all_saturated


# -- abundant-universal routing ------------------------------------------------


def _high_c_fixture():
    # k=2, n=4, |C| = {1, 2}; rank-0 partition has two C-free bundles
    inst = Instance(4, (
        (F(1, 2), F(1, 2), F(1), F(1), F(2, 5), F(3, 5)),
        (F(1, 3), F(1), F(1), F(1, 3), F(1), F(1, 3)),
    ))
    norm = NormalizedInstance(
        inst, (F(1), F(1)),
        ((Bundle((0, 1)), Bundle((2,)), Bundle((3,)), Bundle((4, 5))),
         (Bundle((1,)), Bundle((2,)), Bundle((4,)), Bundle((0, 3, 5)))),
    )
    return norm


def test_high_c_mechanics_and_drain_order():
    norm = _high_c_fixture()
    rows = norm.base.type_values
    c_items = universal_items(norm.scaled, range(6), F(1, 2))
    assert c_items == [1, 2]
    # rank 0 is instance type 0 here; reuse its stored witness.
    # two rank-0 agents first: they drain the C-free reserve, then A serves the rest
    out, info = run_high_c(norm.witness_partitions[0], c_items, [0, 0, 1, 1])
    assert info["branch"] == "highC"
    assert out[0] == Bundle((3,)) and out[1] == Bundle((4, 5))
    assert out[2] == Bundle((0, 1)) and out[3] == Bundle((2,))
    assert all(value(rows[1], b) >= F(1, 2) for b in out[2:])


def test_high_c_reserve0_holds_at_most_n_minus_c_bundles():
    # n - |C| = 1: only the first C-free bundle is set aside, and the report
    # counts what was set aside, not what serving left
    out, info = run_high_c([Bundle((0, 1)), Bundle((2,)), Bundle((3,))], [0, 1], [0, 0, 0])
    assert out == [Bundle((2,)), Bundle((0,)), Bundle((1,))]
    assert info == {"branch": "highC", "mainBundles": 2, "reserve0": 1}
    # n = |C| = 2: no C-free bundle is set aside
    out, info = run_high_c([Bundle((0,)), Bundle((1,)), Bundle((2,))], [0, 1], [0, 0])
    assert out == [Bundle((0,)), Bundle((1,))]
    assert info["reserve0"] == 0


def test_high_c_records_failure_when_type0_scarce():
    norm = _high_c_fixture()
    # no rank-0 arrivals at all: A runs out after two agents
    out, _ = run_high_c(norm.witness_partitions[0], [1, 2], [1, 1, 1, 1])
    assert out[2] is None and out[3] is None


def test_high_c_splits_multi_universal_bundles():
    partition = [Bundle((0, 1)), Bundle((2, 3))]
    out, _ = run_high_c(partition, [0, 1], [1, 1])
    # the doubled bundle was split: both agents get exactly one universal item
    assert out[0] == Bundle((0,)) and out[1] == Bundle((1,))


def test_high_c_reserve_stays_empty_when_c_covers_everyone():
    partition = [Bundle((0,)), Bundle((1,))]
    out, info = run_high_c(partition, [0, 1], [0, 1])
    assert info["reserve0"] == 0  # |C| >= agents: nothing is set aside
    assert out == [Bundle((0,)), Bundle((1,))]


def test_high_c_main_queue_holds_one_bundle_per_universal_item():
    # |C| + 1 arrivals of rank >= 1 draw only from the main queue: they get
    # |C| bundles, each with exactly one universal item, and then nothing
    cases = [
        (_high_c_fixture().witness_partitions[0], [1, 2]),
        ([Bundle((0, 1)), Bundle((2,)), Bundle((3,))], [0, 1]),
        ([Bundle((0,)), Bundle((1,)), Bundle((2,))], [0, 1]),
        ([Bundle((0, 1)), Bundle((2, 3))], [0, 1]),
        ([Bundle((0,)), Bundle((1,))], [0, 1]),
    ]
    for partition, c_items in cases:
        out, _ = run_high_c(partition, c_items, [1] * (len(c_items) + 1))
        assert out[-1] is None
        assert sorted(len(set(b) & set(c_items)) for b in out[:-1]) == [1] * len(c_items)


def test_run_known_d_high_c_past_the_solver_caps():
    # n = m = 30: every item is a whole share and universal, so the high-C
    # branch routes everyone through type 0's own share partition
    dist = TypeDistribution.from_probs([F(1, 2), F(1, 2)])
    norm = gen_normalized_random(30, 30, 2, seed=0)
    alloc, rep = run_known_d(norm, dist, sample_arrivals(dist, 30, 1),
                             eta=F(1, 2), epsilon=F(1, 10))
    assert rep.details["branch"] == "highC"
    assert rep.succeeded_at_alpha
    assert verify_allocation(norm, alloc, rep.alpha).min_ratio == rep.min_ratio


def test_high_c_with_a_zero_share_rank_0():
    # type 0, the most frequent, values only items 0-8 among ten agents, so
    # its share is 0; type 1 values every item at 1/2.  C = items 0-8.
    n = 10
    zero_row = tuple(F(1) if g < 9 else F(0) for g in range(2 * n))
    witness = tuple(Bundle((b, n + b)) for b in range(n))
    norm = NormalizedInstance(Instance(n, (zero_row, (F(1, 2),) * (2 * n))),
                              (F(0), F(1)), (witness, witness), frozenset({0}))
    dist = TypeDistribution.from_probs([F(3, 5), F(2, 5)])
    seq = [0, 1, 0, 1, 1, 0, 1, 1, 0, 1]
    alloc, rep = run_known_d(norm, dist, seq, eta=F(1, 2), epsilon=F(1, 10))
    assert rep.details["branch"] == "highC"
    assert rep.succeeded_at_alpha
    # the C-free bundle {9, 19} goes to the first rank-0 agent: worth 0 to
    # that agent, yet scored 1 under the zero-share convention
    assert alloc.entries[0][2] == Bundle((9, 19))
    assert [r for t, r in zip(seq, rep.per_agent_ratio) if t == 0] == [F(1)] * 4


def test_tight_pk_dispatch_reduces_by_universal_prefix():
    from mmsonline.generators import gen_tightness_pk
    norm, dist = gen_tightness_pk(4, 20)
    rows = norm.base.type_values
    values_sorted = as_scaled(rows[orig] for orig in dist.order)
    ranks = [dist.order.index(t) for t in sample_arrivals(dist, 20, 5)]
    out, info = known_d_engine(values_sorted, list(range(norm.m_items)),
                               dist.probs, F(1, 3), F(1, 10), ranks,
                               norm.witness_partitions[dist.order[0]])
    assert info["branch"] == "lowC"
    assert info["universal"] == 15           # the n - n/k universal prefix
    # first 15 agents got universal singletons; the pipeline saw n' = 5
    assert all(len(b) == 1 for b in out[:15] if b is not None)
    assert len(info["caps"]) == 4


def test_dispatch_all_c_serves_singletons():
    # every item universal, cond_high false (k=1... use k=2 with tiny n^eps term)
    rows = as_scaled(((F(1),) * 2, (F(1),) * 2))
    out, info = known_d_engine(rows, [0, 1], [F(1, 2), F(1, 2)], F(1, 2),
                               F(1, 10), [1, 0], [Bundle((0,)), Bundle((1,))])
    # here |C| = 2 >= 1 + 2^0.1 = 2.07... is false -> allC path
    assert info["branch"] == "allC"
    assert out == [Bundle((0,)), Bundle((1,))]


def test_run_known_d_end_to_end_desk_scale():
    dist = TypeDistribution.from_probs(UNIFORM3)
    for seed in range(8):
        norm = gen_normalized_random(12, 40, 3, seed=seed)
        seq = sample_arrivals(dist, 12, seed + 100)
        alloc, rep = run_known_d(norm, dist, seq, eta=F(1, 2), epsilon=F(1, 10))
        assert rep.details["branch"] in ("lowC", "allC", "highC")
        if rep.succeeded_at_alpha:
            assert rep.min_ratio >= F(1, 3)
        if rep.details.get("allSaturated") and rep.details.get("countsWithinCaps"):
            assert rep.succeeded_at_alpha
        assert not rep.details.get("violations")


def test_run_known_d_failure_is_empty_reserve():
    # force a failure: distribution mass on rank 0 but arrivals all rank 2
    dist = TypeDistribution.from_probs([F(8, 10), F(1, 10), F(1, 10)])
    norm = gen_normalized_random(10, 40, 3, seed=2, weight_lo=2, weight_hi=4)
    seq = [dist.order[2]] * 10  # everyone is the rarest type
    _, rep = run_known_d(norm, dist, seq, eta=F(1, 2), epsilon=F(1, 10))
    assert not rep.succeeded_at_alpha
    assert rep.failure_reason is FailureReason.EMPTY_RESERVE


def test_sorted_rank_mapping_round_trip():
    # arrivals and reported types stay in original ids
    dist = TypeDistribution.from_probs([F(1, 5), F(1, 2), F(3, 10)])
    norm = gen_normalized_random(9, 27, 3, seed=1)
    seq = sample_arrivals(dist, 9, 3)
    alloc, rep = run_known_d(norm, dist, seq, eta=F(1, 2), epsilon=F(1, 10))
    assert [t for _, t, _ in alloc.entries] == seq
