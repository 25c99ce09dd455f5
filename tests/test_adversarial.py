import random
import re
from collections import Counter, deque
from fractions import Fraction as F
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from mmsonline import (
    InputError,
    InvariantViolation,
    PoolExhausted,
    gen_random,
    normalize,
    run_adversarial,
)
from mmsonline.adversarial import (
    TentativeState,
    adaptive_lower_bound_adversary,
    below_sqrt_bound,
    greedy_policy,
    preprocess,
    step_adversarial,
    tentative_policy,
)
from mmsonline.core import Bundle, Instance, NormalizedInstance, as_scaled, value
from mmsonline.generators import (
    all_sequences,
    gen_adv_counterexample,
    gen_lower_bound,
    gen_normalized_random,
)
from mmsonline.rng import substream


def _flat_norm(n, per_item, m):
    # single-type helper: m items each worth per_item with per-bundle sums of 1
    size = m // n
    inst = Instance(n, ((per_item,) * m,))
    wit = tuple(Bundle(tuple(range(j * size, (j + 1) * size))) for j in range(n))
    return NormalizedInstance(inst, (F(1),), (wit,))


def test_preprocess_reserves_high_singletons():
    # k=2, n=3: an item worth 3/5 >= 1/2 becomes a singleton reserve
    inst = Instance(3, (
        (F(3, 5), F(1, 5), F(1, 5), F(1, 2), F(1, 2), F(1)),
        (F(1, 10), F(1, 10), F(4, 5), F(1), F(1), F(0)),
    ))
    norm = NormalizedInstance(
        inst, (F(1), F(1)),
        ((Bundle((0, 1, 2)), Bundle((3, 4)), Bundle((5,))),
         (Bundle((0, 1, 2)), Bundle((3, 5)), Bundle((4,)))),
    )
    state = preprocess(norm)
    g0, g1 = list(state.reserves[0]), list(state.reserves[1])
    # type 0 has four qualifying items but reserves only n = 3 of them
    assert g0 == [(0,), (3,), (4,)]
    assert g1 == [(2,), (3,), (4,)]
    # an item high for both types appears in both reserve lists as one bundle
    assert state.reserves[0][g0.index((3,))] is state.reserves[1][g1.index((3,))]


def test_step_serves_reserve_first_and_removes_everywhere():
    inst = Instance(2, (
        (F(1), F(1, 2), F(1, 4), F(1, 4)),
        (F(1), F(1, 2), F(1, 4), F(1, 4)),
    ))
    norm = NormalizedInstance(
        inst, (F(1), F(1)),
        ((Bundle((0,)), Bundle((1, 2, 3))), (Bundle((0,)), Bundle((1, 2, 3)))),
    )
    state = preprocess(norm)
    b = step_adversarial(state, 0)
    assert b == Bundle((0,))
    assert all(Bundle((0,)) not in dq for dq in state.reserves)


def test_bag_filling_ascending_prefix():
    # twelve items each worth 1/6 to the arriving type: bag closes at {0,1,2}
    norm = _flat_norm(2, F(1, 6), 12)
    state = TentativeState.create(norm.scaled, range(12), 2,
                                  threshold=F(1, 2))
    b = step_adversarial(state, 0)
    assert b == Bundle((0, 1, 2))


def test_bag_reserved_for_other_type_then_agent_served():
    # the non-arriving type claims the first bag, which is reserved for it;
    # the arriving type keeps filling and takes the next bag
    inst = Instance(2, (
        (F(1, 6),) * 12,
        tuple([F(5, 12)] * 4 + [F(1, 24)] * 8),
    ))
    norm = NormalizedInstance(
        inst, (F(1), F(1)),
        ((Bundle(tuple(range(6))), Bundle(tuple(range(6, 12)))),
         (Bundle((0, 1, 8, 9, 10, 11)), Bundle((2, 3, 4, 5, 6, 7)))),
    )
    state = preprocess(norm)
    assert all(not dq for dq in state.reserves)  # nothing is worth 1/2 alone
    b = step_adversarial(state, 0)
    # the first two items formed a bag worth 5/6 to type 1, reserved for it
    assert list(state.reserves[1]) == [(0, 1)]
    assert 1 not in state.open_types(1)  # one reserve covers the one later agent
    assert b == Bundle((2, 3, 4))
    assert value(inst.type_values[0], b) == F(1, 2)
    # the reserved bag then serves the type-1 agent
    b2 = step_adversarial(state, 1)
    assert b2 == Bundle((0, 1))


def test_run_guarantee_exhaustive_small():
    for seed in (0, 1):
        norm = gen_normalized_random(4, 10, 2, seed=seed)
        for seq in all_sequences(2, 4):
            _, rep = run_adversarial(norm, seq)
            assert rep.min_ratio >= F(1, 2)
            assert rep.succeeded_at_alpha


def test_counterexample_instance_all_sequences():
    norm = gen_adv_counterexample(4, F(1, 32))
    for seq in all_sequences(2, 4):
        _, rep = run_adversarial(norm, seq)
        assert rep.min_ratio >= F(1, 2)


def test_run_guarantee_on_raw_positive_share_instances():
    # checked runs over every arrival order of normalized raw instances: a type
    # whose shared reserves were served to other agents claims bags again
    runs = 0
    for model, k, n, seed in product(("uniform", "binary", "clustered"), (2, 3), range(2, 6), (0, 1)):
        for m in range(n + 1, 13):
            norm = normalize(gen_random(n, m, k, model, seed=seed))
            if norm.zero_mms_types:
                continue
            for seq in all_sequences(k, n):
                _, rep = run_adversarial(norm, seq)
                assert rep.min_ratio >= F(1, k), (model, n, m, k, seed, seq)
                runs += 1
    assert runs == 13_786  # on 331 instances


def test_run_guarantee_on_raw_zero_share_instances():
    # the same sweep, seeds 0-2, over the instances with a zero-share type:
    # such a type sits out, so no check fails and no pool runs dry, each of
    # its agents gets the empty bundle, and every other agent gets >= 1/k
    runs = 0
    for model, k, n, seed in product(("uniform", "binary", "clustered"), (2, 3), range(2, 6), range(3)):
        for m in range(n + 1, 13):
            norm = normalize(gen_random(n, m, k, model, seed=seed))
            zero = norm.zero_mms_types
            if not zero:
                continue
            for seq in all_sequences(k, n):
                alloc, rep = run_adversarial(norm, seq)
                assert all(b == () for _, ti, b in alloc.entries if ti in zero), (model, n, m, k, seed, seq)
                assert rep.min_ratio >= F(1, k), (model, n, m, k, seed, seq)
                runs += 1
    assert runs == 7_094  # on 109 instances


def test_zero_share_agent_sits_out_and_traces_why():
    # type 0 has share 0: it reserves nothing, is never open, and its agent
    # gets the empty bundle at once, without filling
    norm = normalize(gen_random(2, 3, 2, "binary", seed=0))
    assert norm.zero_mms_types == {0}
    alloc, rep = run_adversarial(norm, [0, 1], trace=True)
    assert [b for _, _, b in alloc.entries] == [(), (0,)]
    assert rep.per_agent_ratio == (1, F(1, 2))
    assert rep.step_trace[:2] == [
        {"event": "preprocess", "reserveSizes": [0, 2], "unsaturated": []},
        {"event": "serveZeroShare", "agent": 1, "type": 0, "items": [], "reserveSizes": [0, 2], "remaining": 3},
    ]


def test_trace_logs_a_reserve_where_it_happens():
    # agent 1 (type 0) sees that type 1 could not be served from its unclaimed
    # items, so it reserves items 0-2 for type 1 before it takes its own bag
    norm = gen_normalized_random(2, 12, 2, seed=0)
    _, rep = run_adversarial(norm, [0, 0], trace=True)
    assert [e["event"] for e in rep.step_trace[:3]] == ["preprocess", "reserve", "serveBag"]
    assert rep.step_trace[1] == {"event": "reserve", "agent": 1, "for": [1], "items": [0, 1, 2],
                                 "reserveSizes": [0, 1], "unsaturated": [0]}


def test_k1_runs_serve_the_witness_partition_on_raw_instances():
    # at k = 1 agent t gets bundle t of the type's share partition, worth
    # exactly one share (or ratio 1 by convention for a zero share)
    runs = 0
    for model, n, seed in product(("uniform", "binary", "clustered"), range(2, 6), (0, 1)):
        for m in range(n + 1, 13):
            norm = normalize(gen_random(n, m, 1, model, seed=seed))
            alloc, rep = run_adversarial(norm, [0] * n, trace=True)
            assert [b for _, _, b in alloc.entries] == list(norm.witness_partitions[0])
            assert rep.per_agent_ratio == (1,) * n, (model, n, m, seed)
            assert rep.flags == ("k1Degenerate",) and rep.step_trace == []
            runs += 1
    assert runs == 204


@pytest.mark.parametrize("bad", [1.0, 0.5])
def test_step_rejects_non_integer_type_ids(bad):
    with pytest.raises(InputError, match="type ids must be integers"):
        step_adversarial(preprocess(gen_normalized_random(3, 8, 2, seed=0)), bad)
    with pytest.raises(InputError, match="type ids must be integers"):
        tentative_policy(gen_lower_bound(16, 4))(bad)


def test_step_reads_true_as_type_one():
    norm = gen_normalized_random(3, 8, 2, seed=0)
    assert step_adversarial(preprocess(norm), True) == step_adversarial(preprocess(norm), 1)
    cons = gen_lower_bound(16, 4)
    assert tentative_policy(cons)(True) == tentative_policy(cons)(1)


def test_last_agent_reserves_nothing():
    # at agent n no agent is left to come, so only the arriving type may claim
    norm = gen_normalized_random(5, 16, 2, seed=3)
    _, rep = run_adversarial(norm, [0, 0, 0, 0, 1], trace=True)
    assert not [e for e in rep.step_trace if e["event"] == "reserve" and e["agent"] == 5]
    assert rep.min_ratio == F(11, 20)


def presaturation_bundles(n: int) -> list[Bundle]:
    """The bundling that defeats up-front saturation on the counterexample:
    all n tiny items in one bag, then n - 1 single half-valued items."""
    bags = [Bundle(tuple(range(2 * n, 3 * n)))]
    bags.extend(Bundle((g,)) for g in range(n - 1))
    return bags


def test_presaturation_bundling_breaks_naive_reserving():
    # the scripted bundling denies the lopsided type a full set of 1/2-bags
    n = 4
    norm = gen_adv_counterexample(n, F(1, 32))
    row = norm.base.type_values[0]
    bags = presaturation_bundles(n)
    assert all(value(row, b) < F(1, 2) for b in bags)
    left = sorted(set(range(3 * n)) - {g for b in bags for g in b})
    # n + 1 items at 1/2 - eps remain; a 1/2-bag needs two of them,
    # so at most (n + 1) // 2 < n such bags can ever be formed
    assert len(left) == n + 1
    assert all(row[g] < F(1, 2) for g in left)
    assert (n + 1) // 2 < n


def test_bag_claimed_by_two_types_is_reserved_for_both():
    # items 0-1 make 1/2 for types 0 and 1 at once, and nothing for type 2,
    # so the arriving type-2 agent fills on and takes items 2-3
    quarter = (F(1, 4),) * 8
    rows = (quarter, quarter, (F(0), F(0)) + quarter[2:])
    state = TentativeState.create(as_scaled(rows), range(8), 3, threshold=F(1, 2), checked=False)
    assert step_adversarial(state, 2) == Bundle((2, 3))
    shared = Bundle((0, 1))
    assert [list(dq) for dq in state.reserves] == [[shared], [shared], []]
    assert state.bundle_refs[shared] == 2


def test_single_agent_always_served():
    norm = gen_normalized_random(1, 4, 3, seed=5)
    _, rep = run_adversarial(norm, [2])
    assert rep.min_ratio >= F(1, 3)


def test_k1_degenerate_flagged():
    norm = _flat_norm(2, F(1, 4), 8)
    _, rep = run_adversarial(norm, [0, 0])
    assert "k1Degenerate" in rep.flags
    assert rep.min_ratio >= 1  # threshold 1/k = 1 forces full-share bundles


def test_pool_exhaustion_raises():
    # item subset too poor for the claim level: no type ever claims, and the
    # checked state passes every check up to the dry pool
    state = TentativeState.create(as_scaled(((F(1, 4),) * 4,)), [0, 1], 2, threshold=F(3, 4))
    assert state.checked
    with pytest.raises(PoolExhausted, match=_exactly("agent 1 of type 0: pool exhausted before any claim")):
        step_adversarial(state, 0)


def _dry_then_reserved_state(checked: bool) -> TentativeState:
    # type 0 can never claim (item 1 alone is worth 1/4 < 1/2); type 1 holds
    # item 0 as a preprocessed singleton reserve
    rows = ((F(0), F(1, 4)), (F(1), F(0)))
    return TentativeState.create(as_scaled(rows), [0, 1], 2, checked=checked)


def test_serve_unchecked_gives_empty_bundle_and_goes_on():
    state = _dry_then_reserved_state(checked=False)
    assert step_adversarial(state, 0) is None  # the dry step still counts the agent
    assert state.arrived == 1
    assert step_adversarial(state, 1) == Bundle((0,))
    assert state.arrived == 2


def test_serve_checked_raises_on_dry_pool():
    state = _dry_then_reserved_state(checked=True)
    with pytest.raises(PoolExhausted):
        step_adversarial(state, 0)
    assert state.arrived == 0


def test_serve_reports_no_dry_pool_on_a_normal_run():
    norm = gen_normalized_random(4, 10, 2, seed=0)
    state = preprocess(norm)
    bundles = [step_adversarial(state, t) for t in [0, 1, 1, 0]]
    assert None not in bundles
    assert all(bundles)


def _assert_cursor_items_fillable(state, items, served):
    # the pool tail, the reserved bundles and the bundles served so far are
    # pairwise disjoint and together cover the state's items
    queued = [b for dq in state.reserves for b in dq]
    assert state.bundle_refs == Counter(queued)
    places = [state.pool[state.pool_pos:], *state.bundle_refs, *served]
    flat = [g for place in places for g in place]
    assert len(flat) == len(set(flat))
    assert set(flat) == set(items)


def test_pool_cursor_never_passes_over_taken_items():
    rng = random.Random(3)
    dry_runs = 0
    for seed in range(12):
        n, k = rng.randint(2, 6), rng.randint(2, 3)
        norm = gen_normalized_random(n, n * rng.randint(2, 4), k, seed=seed)
        seq = [rng.randrange(k) for _ in range(n)]
        basket = sorted(rng.sample(range(norm.m_items), norm.m_items // 2))
        states = [
            preprocess(norm),
            # half the items at claim level 1/2: the pool may run dry
            TentativeState.create(norm.scaled, basket, n, threshold=F(1, 2), checked=False),
        ]
        for state, items in zip(states, [range(norm.m_items), basket]):
            served = []
            _assert_cursor_items_fillable(state, items, served)
            for t in seq:
                bundle = step_adversarial(state, t)
                if bundle is None:
                    dry_runs += 1
                else:
                    served.append(bundle)
                _assert_cursor_items_fillable(state, items, served)
    assert dry_runs > 0


def _assert_marks_recount(state):
    # a mark is the last pool position of an item at the type's claim level
    rows, claim = state.view.ints, state.claim
    for j, mark in state.marks.items():
        assert mark == max((p for p, g in enumerate(state.pool) if rows[j][g] >= claim[j]),
                           default=-1)
    return len(state.marks)


def test_pool_purity_marks_match_a_recount():
    rng = random.Random(5)
    compared = 0
    for seed in range(12):
        n, k = rng.randint(2, 6), rng.randint(2, 3)
        norm = gen_normalized_random(n, n * rng.randint(2, 4), k, seed=seed)
        seq = [rng.randrange(k) for _ in range(n)]
        basket = sorted(rng.sample(range(norm.m_items), norm.m_items // 2))
        states = [
            (preprocess(norm), False),
            # half the items at claim level 1/2, checked: a check may fail
            (TentativeState.create(norm.scaled, basket, n, threshold=F(1, 2)), True),
        ]
        for state, may_fail in states:
            compared += _assert_marks_recount(state)
            for t in seq:
                try:
                    step_adversarial(state, t)
                except InvariantViolation:
                    assert may_fail
                    break  # the checked basket state stops at its first failed check
                compared += _assert_marks_recount(state)
    assert compared > 0


def test_pool_purity_flags_high_items_in_a_new_pool():
    # items 0-3 are worth 1/4 to both types, items 4-5 3/4 to type 0 only
    rows = ((F(1, 4),) * 4 + (F(3, 4),) * 2, (F(1, 4),) * 4 + (F(0),) * 2)
    state = TentativeState.create(as_scaled(rows), range(4), 2, threshold=F(1, 2))
    assert state.marks == {0: -1, 1: -1}
    state._merge_into_pool([4, 5])  # the pool is replaced, so the marks are redone
    assert state.pool == [0, 1, 2, 3, 4, 5] and state.marks == {}
    for pos, first in [(0, 4), (4, 4), (5, 5), (6, None)]:
        state.pool_pos = pos
        if first is None:
            state._check_pool_purity(current_t=0)
        else:
            with pytest.raises(InvariantViolation, match=_exactly(
                    f"pool purity: item {first} worth 3/4 to open type 0")):
                state._check_pool_purity(current_t=0)
    assert state.marks == {0: 5, 1: -1}


def _exactly(msg):
    return f"^{re.escape(msg)}$"


# -- the integer kernel against the Fraction implementation it replaced ----------


class _FractionState:
    """Reference: ``TentativeState`` and its step computed with Fraction
    values (the step trace left out), on instances with no zero-share type.
    A checked reference raises on a failed check, and every reference raises
    on a dry pool."""

    def __init__(self, values, items, n, threshold=None, check=True, rng=None):
        k = len(values)
        item_list = sorted(set(items))
        self.values, self.n, self.k = values, n, k
        self.threshold = F(1, k) if threshold is None else threshold
        self.scale = k * self.threshold
        self.check, self.rng = check, rng
        singletons = {}
        self.reserves = [deque() for _ in range(k)]
        for i in range(k):
            for g in item_list:
                if len(self.reserves[i]) >= n:
                    break
                if values[i][g] >= self.threshold:
                    self.reserves[i].append(singletons.setdefault(g, Bundle((g,))))
        self.bundle_refs = Counter(b for dq in self.reserves for b in dq)
        reserved = {g for b in self.bundle_refs for g in b}
        self.remaining = set(item_list)
        self.remaining_value = [sum((values[i][g] for g in item_list), F(0)) for i in range(k)]
        self.arrived = 0
        self.pool, self.pool_pos = [g for g in item_list if g not in reserved], 0
        if check:
            self.check_pool_purity(0)

    def saturated(self, j, current_t):
        return len(self.reserves[j]) >= self.n - current_t

    def open_types(self, current_t, arriving=None):
        return [j for j in range(self.k) if j == arriving or not self.saturated(j, current_t)]

    def rebuild_pool(self):
        reserved = {g for b in self.bundle_refs for g in b}
        self.pool = [g for g in sorted(self.remaining) if g not in reserved]
        if self.rng is not None:
            self.rng.shuffle(self.pool)
        self.pool_pos = 0

    def allocate(self, bundle):
        self.remaining.difference_update(bundle)
        for j in range(self.k):
            self.remaining_value[j] -= value(self.values[j], bundle)

    def check_pool_purity(self, current_t):
        open_types = self.open_types(current_t)
        for g in self.pool[self.pool_pos:]:
            for j in open_types:
                if self.values[j][g] >= self.threshold:
                    raise InvariantViolation(f"pool purity: item {g} worth {self.values[j][g]} to open type {j}")

    def check_invariant(self):
        left = self.n - self.arrived
        for j in range(self.k):
            if len(self.reserves[j]) != left and self.remaining_value[j] < left * self.scale:
                raise InvariantViolation(
                    f"invariant: type {j} has {len(self.reserves[j])} reserves and remaining "
                    f"value {self.remaining_value[j]} with {left} agents left")

    def fill_bag(self, current_t, arriving):
        open_types = self.open_types(current_t, arriving)
        bag, vals = [], [F(0)] * self.k
        while self.pool_pos < len(self.pool):
            g = self.pool[self.pool_pos]
            self.pool_pos += 1
            bag.append(g)
            for j in range(self.k):
                vals[j] += self.values[j][g]
            claimants = [j for j in open_types if vals[j] >= self.threshold]
            if claimants:
                return bag, vals, claimants
        return bag, vals, []

    def step(self, i):
        t = self.arrived + 1
        if self.reserves[i]:
            idx = self.rng.randrange(len(self.reserves[i])) if self.rng is not None else 0
            allocated = self.reserves[i][idx]
            for j in range(self.k):
                self.reserves[j] = deque(b for b in self.reserves[j] if b != allocated)
            del self.bundle_refs[allocated]
            self.allocate(allocated)
        else:
            while True:
                bag, bagvals, claimants = self.fill_bag(t, i)
                if not claimants:
                    self.rebuild_pool()
                    raise PoolExhausted(f"agent {t} of type {i}: pool exhausted before any claim")
                if bagvals[i] >= self.threshold:
                    allocated = Bundle(tuple(bag))
                    self.allocate(allocated)
                    break
                bundle = Bundle(tuple(bag))
                self.bundle_refs[bundle] += len(claimants)
                for j in claimants:
                    self.reserves[j].append(bundle)
                if self.check:
                    self.check_pool_purity(t)
                    for j in self.open_types(t):
                        if bagvals[j] > self.scale:
                            raise InvariantViolation(f"reserved bundle worth {bagvals[j]} > {self.scale} "
                                                     f"to open type {j}")
        self.arrived = t
        dirty = False
        for j in range(self.k):
            while len(self.reserves[j]) > self.n - t:
                if self.rng is not None:
                    pick = self.rng.randrange(len(self.reserves[j]))
                    dropped = self.reserves[j][pick]
                    del self.reserves[j][pick]
                else:
                    dropped = self.reserves[j].pop()
                self.bundle_refs[dropped] -= 1
                if not self.bundle_refs[dropped]:
                    del self.bundle_refs[dropped]
                    dirty = True
        if dirty:
            self.rebuild_pool()
        if self.check:
            self.check_invariant()
        return allocated


def _outcome(fn):
    try:
        return fn()
    except (InvariantViolation, PoolExhausted) as exc:
        return type(exc), str(exc)


def _snapshot(state, remaining_value):
    return (state.arrived, [list(dq) for dq in state.reserves], state.open_types(state.arrived),
            remaining_value, state.pool[state.pool_pos:])


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 6), st.integers(1, 3), st.integers(1, 4), st.integers(0, 2**32),
       st.sampled_from(["fifo", "dry", "dry-checked"]), st.data())
def test_tentative_state_matches_fraction_reference(n, k, mult, seed, mode, data):
    # FIFO runs on every item at 1/k; "dry" runs on a random basket at a
    # drawn claim level, unchecked, and "dry-checked" the same with the
    # checks.  The one dry-pool rule: a checked state raises the reference's
    # failed check or ``PoolExhausted`` at the same step (or creation), with
    # the same message, and an unchecked one gives None where the reference
    # raises ``PoolExhausted``.
    norm = gen_normalized_random(n, n * mult, k, seed=seed)
    rows = norm.base.type_values
    items, opts = range(norm.m_items), {}
    if mode.startswith("dry"):
        items = data.draw(st.sets(st.integers(0, norm.m_items - 1)))
        opts = {"threshold": data.draw(st.sampled_from([F(1, k), F(1, 2), F(1, 3), F(2, 3)]))}
    checked = mode != "dry"
    arrivals = data.draw(st.lists(st.integers(0, k - 1), min_size=n, max_size=n))

    got = _outcome(lambda: TentativeState.create(norm.scaled, items, n, **opts, checked=checked))
    want = _outcome(lambda: _FractionState(rows, items, n, **opts, check=checked))
    if isinstance(want, tuple):
        assert got == want
        return
    assert _snapshot(got, got.remaining_worth()) == _snapshot(want, want.remaining_value)
    for ti in arrivals:
        b_got = _outcome(lambda: step_adversarial(got, ti))
        b_want = _outcome(lambda: want.step(ti))
        if isinstance(b_want, tuple) and b_want[0] is PoolExhausted and not checked:
            # a dry unchecked step: the reference raises, the state counts
            # the agent and gives her None
            assert b_got is None
            want.arrived += 1
        else:
            assert b_got == b_want
            if isinstance(b_want, tuple):
                return
        assert _snapshot(got, got.remaining_worth()) == _snapshot(want, want.remaining_value)


def test_seeded_random_tie_break_variant_keeps_guarantee():
    # the reference's seeded-random serve, trim and pool order, over every
    # arrival order: no check fails and every bundle is worth >= 1/k
    norm = gen_normalized_random(4, 12, 3, seed=11)
    rows = norm.base.type_values
    for trial in range(6):
        rng = substream(trial, "tiebreak")
        for seq in all_sequences(3, 4):
            state = _FractionState(rows, range(norm.m_items), 4, rng=rng)
            for ti in seq:
                assert value(rows[ti], state.step(ti)) >= F(1, 3)


def test_reserved_bound_check_flags_exactly_the_bags_above_scale():
    # claim level 2/3 at k = 2 gives scale 4/3; over the unit L = 2 that is
    # 8/3 units, no integer, so a bag of 2 units passes and one of 3 does not
    rows = ((F(1, 2),) * 4, (F(1, 2),) * 4)
    state = TentativeState.create(as_scaled(rows), [], 2, threshold=F(2, 3))
    for x, j in product(range(6), (0, 1)):
        bagvals = [x if i == j else 0 for i in (0, 1)]
        if F(x, 2) > F(4, 3):
            with pytest.raises(InvariantViolation, match=_exactly(
                    f"reserved bundle worth {F(x, 2)} > 4/3 to open type {j}")):
                state._check_reserved_bound(bagvals, current_t=0)
        else:
            state._check_reserved_bound(bagvals, current_t=0)


def test_arrival_length_checked():
    norm = gen_normalized_random(3, 8, 2, seed=0)
    with pytest.raises(Exception):
        run_adversarial(norm, [0])


# -- the adaptive lower-bound game ---------------------------------------


def test_adversary_vs_reservation_algorithm():
    rep = adaptive_lower_bound_adversary(16, 6, tentative_policy)
    assert below_sqrt_bound(rep.min_ratio, 16)
    assert rep.min_ratio <= F(1, 2)  # 1/mu1 with mu1 = 2


def test_adversary_vs_greedy_forces_zero():
    rep = adaptive_lower_bound_adversary(16, 6, greedy_policy)
    assert rep.min_ratio == 0
    assert rep.details["branch"] in ("sameInterval", "twoIntervals")


def test_adversary_punishes_two_same_interval_items():
    def take_two_first_items(cons):
        state = {"first": True}

        def serve(type_id):
            if state["first"]:
                state["first"] = False
                return Bundle((0, 1))  # both inside the first block
            return Bundle(())

        return serve

    rep = adaptive_lower_bound_adversary(16, 4, take_two_first_items)
    assert rep.details["branch"] == "sameInterval"
    assert rep.min_ratio == 0


def test_adversary_pair_type_branch():
    def take_spread(cons):
        state = {"first": True}

        def serve(type_id):
            if state["first"]:
                state["first"] = False
                return Bundle((0, cons.n))  # one item in each of two blocks
            return Bundle(())

        return serve

    rep = adaptive_lower_bound_adversary(16, 4, take_spread)
    assert rep.details["branch"] == "twoIntervals"
    assert rep.min_ratio == 0


def test_adversary_validates_overlaps():
    def cheating(cons):
        return lambda t: Bundle((0,))

    with pytest.raises(Exception):
        adaptive_lower_bound_adversary(16, 4, cheating)
