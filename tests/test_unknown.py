import hashlib
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from mmsonline import (
    InputError,
    TypeDistribution,
    gen_random,
    normalize,
    run_adversarial,
    run_known_d,
    run_unknown_d,
    sample_arrivals,
)
from mmsonline.core import (
    Bundle,
    FailureReason,
    Instance,
    NormalizedInstance,
    value,
    verify_allocation,
)
from mmsonline.exactpow import ceil_pow
from mmsonline.generators import gen_normalized_random
from mmsonline.jsonio import allocation_to_obj, canonical_json, report_to_obj
from mmsonline.rng import bernoulli, substream
from mmsonline.unknown import UnknownParams, basket_value_ok, learn_distribution, random_split


def test_params_formulas():
    p = UnknownParams.for_instance(10_000, F(1, 20))
    assert p.epsilon == F(26, 90) == F(13, 45)
    assert p.epsilon_prime == F(41, 60)
    assert p.learn_window == ceil_pow(10_000, F(41, 60))
    with pytest.raises(InputError):
        UnknownParams.for_instance(100, F(1, 5))  # c too large
    with pytest.raises(InputError):
        UnknownParams.for_instance(100, F(0))


@pytest.mark.parametrize("eta", [F(-1, 2), F(-1)])
def test_run_unknown_d_rejects_negative_eta(eta):
    norm = gen_normalized_random(12, 40, 2, seed=1)
    seq = sample_arrivals(TypeDistribution.from_probs([F(1, 2)] * 2), 12, 2)
    with pytest.raises(InputError):
        run_unknown_d(norm, seq, eta=eta, c=F(1, 20))


def test_parameter_identities_hold_exactly():
    for c in (F(1, 20), F(1, 100), F(9, 100)):
        p = UnknownParams.for_instance(50, c)
        assert p.epsilon_prime <= F(3, 2) * p.epsilon + F(1, 4)
        assert 1 <= p.epsilon_prime / 2 - c / 2 + F(3, 2) * p.epsilon + F(1, 4)


def test_learn_distribution_examples():
    d = learn_distribution([0, 0, 1, 1], 2)
    assert d.original_probs() == (F(1, 2), F(1, 2))
    d2 = learn_distribution([0, 0, 0], 3)
    assert d2.original_probs() == (F(1), F(0), F(0))
    assert sum(d2.probs) == 1
    with pytest.raises(InputError):
        learn_distribution([], 2)


def test_learn_distribution_concentrates():
    # window 10_000 pins each frequency within 1/20 essentially always
    hidden = TypeDistribution.from_probs([F(7, 10), F(3, 10)])
    hits = 0
    reps = 200
    for seed in range(reps):
        sample = sample_arrivals(hidden, 10_000, substream(seed, "learn-test"))
        learned = learn_distribution(sample, 2)
        err = max(abs(a - b) for a, b in
                  zip(learned.original_probs(), hidden.original_probs()))
        hits += err <= F(1, 20)
    assert hits >= int(0.99 * reps)


def test_random_split_edges():
    rng = substream(0, "split-test")
    items = list(range(10))
    b1, b2 = random_split(items, F(1), rng)
    assert b1 == Bundle(tuple(items)) and not b2
    b1, b2 = random_split(items, F(0), rng)
    assert not b1 and b2 == Bundle(tuple(items))


@settings(max_examples=25)
@given(st.integers(0, 2**32), st.integers(0, 40),
       st.fractions(min_value=0, max_value=1, max_denominator=30))
def test_random_split_conserves(seed, m, p):
    items = list(range(m))
    b1, b2 = random_split(items, p, substream(seed, "split-prop"))
    assert sorted(b1 + b2) == items
    assert not (set(b1) & set(b2))


def _bernoulli_random_split(items, p, rng):
    """Reference: ``random_split`` as it was, one ``rng.bernoulli`` call per item."""
    b1, b2 = [], []
    for g in sorted(items):
        (b1 if bernoulli(rng, p) else b2).append(g)
    return Bundle(tuple(b1)), Bundle(tuple(b2))


@settings(max_examples=100)
@given(st.integers(0, 2**32), st.lists(st.integers(0, 200), max_size=60, unique=True),
       st.one_of(st.sampled_from([F(0), F(1), F(1, 2)]),
                 st.fractions(min_value=0, max_value=1, max_denominator=10**6)))
def test_random_split_matches_bernoulli_reference(seed, items, p):
    # same baskets from the same substream, and the stream is left in the
    # same place (no draw at p = 0 or p = 1)
    got_rng, want_rng = substream(seed, "split"), substream(seed, "split")
    assert random_split(items, p, got_rng) == _bernoulli_random_split(items, p, want_rng)
    assert got_rng.random() == want_rng.random()


@pytest.mark.parametrize("items", [[3, 3, 5], [2, -1], [2.7, 4], ["3"]])
def test_random_split_rejects_repeated_negative_and_non_integer_items(items):
    # a repeated item would land in both baskets when its copies drew apart
    with pytest.raises(InputError):
        random_split(items, F(1, 2), substream(1, "x"))


def test_random_split_binomial_band():
    # p=1/2, m=1000: |B1| within [400, 600] in every one of 200 seeded trials
    items = list(range(1000))
    for seed in range(200):
        b1, _ = random_split(items, F(1, 2), substream(seed, "split-band"))
        assert 400 <= len(b1) <= 600


def test_basket_value_check_exact():
    p = UnknownParams.for_instance(5000, F(1, 20))
    w = p.learn_window
    # delta = 5000^(-19/60) = 0.0674; threshold = (1-delta)*2kW
    assert basket_value_ok(F(2 * 3 * w), 3, p)                  # full expectation passes
    assert not basket_value_ok(F(2 * 3 * w) * F(9, 10), 3, p)  # 10% short fails
    assert basket_value_ok(F(2 * 3 * w) * F(95, 100), 3, p)    # 5% short is fine


def test_run_unknown_tiny_c_formula():
    p = UnknownParams.for_instance(100, F(1, 20))
    # epsilon' = 41/60: ceil(100^(41/60)) = ceil(23.3...) = 24
    assert p.learn_window == 24


def test_unknown_d_mechanics_mid_scale():
    # n = 600 sits far below the workable regime (the split sends most items
    # to the learning basket), so success is not expected; the staging,
    # conservation, learning and concentration mechanics are what counts
    norm = gen_normalized_random(600, 4800, 3, seed=21, weight_lo=2, weight_hi=4)
    hidden = TypeDistribution.from_probs([F(1, 2), F(3, 10), F(1, 5)])
    rows = norm.base.type_values  # rebuilt as Fractions on every read
    okc = 0
    for seed in range(5):
        seq = sample_arrivals(hidden, 600, substream(seed, "ukd-arr"))
        alloc, rep = run_unknown_d(norm, seq, eta=F(1, 2), c=F(1, 20), seed=seed)
        assert rep.details["branch"] == "splitAndLearn"
        assert rep.details["basket1"] + rep.details["basket2"] == 4800
        assert sum(F(x) for x in rep.details["learned"]) == 1
        okc += rep.details["basket1ConcentrationOk"]
        # learning-stage agents: bundle worth >= 1/2 unless the stage failed
        window = rep.details["window"]
        if rep.failure_reason is not FailureReason.VALUE_BELOW_ALPHA:
            for _, ti, b in alloc.entries[:window]:
                assert value(rows[ti], b) >= F(1, 2)
    assert okc == 5


def test_unknown_d_learn_from_universal_branch():
    # hand-build a normalized instance with >= window universal items
    from mmsonline.core import Instance, NormalizedInstance

    n, m = 9, 18
    window = UnknownParams.for_instance(n, F(1, 20)).learn_window  # ceil(9^.683) = 5
    rows = []
    for _ in range(2):
        rows.append(tuple([F(1, 2)] * m))
    wit = tuple(Bundle((2 * j, 2 * j + 1)) for j in range(n))
    norm = NormalizedInstance(Instance(n, tuple(rows)), (F(1), F(1)), (wit, wit))
    hidden = TypeDistribution.from_probs([F(3, 5), F(2, 5)])
    seq = sample_arrivals(hidden, n, substream(3, "ukd2"))
    alloc, rep = run_unknown_d(norm, seq, eta=F(1, 2), c=F(1, 20), seed=3)
    assert rep.details["branch"] == "learnFromUniversal"
    assert rep.details["window"] == window
    # the first window agents got universal singletons
    for _, ti, b in alloc.entries[:window]:
        assert len(b) == 1
    assert rep.succeeded_at_alpha


def test_learn_from_universal_high_c_past_the_solver_caps():
    # m = 2n, every item universal at 1/3: the window's singletons cut into
    # type partitions, and the 19 later agents take the high-C branch
    n = 30
    norm = gen_normalized_random(n, 2 * n, 2, seed=0)
    hidden = TypeDistribution.from_probs([F(1, 2), F(1, 2)])
    seq = sample_arrivals(hidden, n, 0)
    alloc, rep = run_unknown_d(norm, seq, eta=F(1, 2), c=F(1, 20), seed=0)
    assert rep.details["branch"] == "learnFromUniversal"
    assert rep.details["dispatch"]["branch"] == "highC"
    assert rep.succeeded_at_alpha
    assert verify_allocation(norm, alloc, rep.alpha).min_ratio == rep.min_ratio


def _three_runners(norm, seq):
    dist = TypeDistribution.from_probs([F(1, 2), F(1, 2)])
    return (lambda: run_unknown_d(norm, seq, eta=F(1, 2), c=F(1, 20)),
            lambda: run_known_d(norm, dist, seq, eta=F(1, 2), epsilon=F(1, 10)),
            lambda: run_adversarial(norm, seq))


@pytest.mark.parametrize("bad", [-1, 2, 1.0, 0.5])
def test_runners_reject_out_of_range_type_ids(bad):
    # a negative id would read another type's row; one past k would fail the
    # rank lookup after the window; a float is no type id, even when whole;
    # all are input errors up front
    norm = gen_normalized_random(30, 60, 2, seed=0)
    seq = [0, 1] * 15
    seq[0 if bad < 0 else -1] = bad
    match = "type ids must be integers" if isinstance(bad, float) else f"type id {bad} out of range"
    for run in _three_runners(norm, seq):
        with pytest.raises(InputError, match=match):
            run()


def test_runners_read_a_bool_type_id_as_an_int():
    # True is an integer type id, but the allocation JSON must say 1, not true
    norm = gen_normalized_random(30, 60, 2, seed=0)
    seq = [0, True] * 15
    for run in _three_runners(norm, seq):
        alloc, _ = run()
        entries = allocation_to_obj(alloc)["entries"]
        assert [(type(e["type"]), e["type"]) for e in entries] == [(int, 0), (int, 1)] * 15


def test_unknown_d_rejects_a_negative_id_served_a_universal_singleton():
    # items 0, 2 and 4 are the only universal ones (1/2 and 3/4), fewer than
    # the window of 6: agent 0 would take item 0 with a ratio read from the
    # last type's row through the negative index
    n = 12
    row0, row1 = [], []
    for j in range(n):
        row0 += [F(1, 2), F(1, 2)] if j < 3 else [F(3, 4), F(1, 4)]
        row1 += [F(3, 4), F(1, 4)] if j < 3 else [F(1, 4), F(3, 4)]
    witness = tuple(Bundle((2 * j, 2 * j + 1)) for j in range(n))
    norm = NormalizedInstance(Instance(n, (tuple(row0), tuple(row1))), (F(1), F(1)),
                              (witness, witness))
    with pytest.raises(InputError, match="type id -1 out of range"):
        run_unknown_d(norm, [-1] + [0, 1] * 5 + [0], eta=F(1, 2), c=F(1, 20))


def test_unknown_d_degenerate_window_flag():
    norm = gen_normalized_random(3, 9, 2, seed=0)
    _, rep = run_unknown_d(norm, [0, 1, 0], eta=F(1, 2), c=F(1, 20), seed=1)
    assert "degenerateScale" in rep.flags


def test_degenerate_run_with_a_dry_zero_share_agent_succeeds_without_a_reason():
    # type 0 has share 0, so both its agents sit out of the reservation state
    # with the empty bundle and ratio 1: the run meets alpha and names no failure
    norm = normalize(gen_random(2, 3, 2, "binary", seed=0))
    assert norm.zero_mms_types == {0}
    alloc, rep = run_unknown_d(norm, [0, 0], eta=F(1, 2), c=F(1, 20))
    assert rep.details == {"window": 2, "branch": "degenerate"}
    assert [b for _, _, b in alloc.entries] == [Bundle(()), Bundle(())]
    assert rep.succeeded_at_alpha and rep.failure_reason is FailureReason.NONE


def test_learning_stage_claims_at_half_with_scale_k_over_2(monkeypatch):
    import mmsonline.unknown as unknown

    real_step = unknown.step_adversarial
    seen = []

    def spy(state, type_id):
        seen.append(state)
        return real_step(state, type_id)

    monkeypatch.setattr(unknown, "step_adversarial", spy)
    k = 2
    norm = gen_normalized_random(6, 24, k, seed=13, weight_lo=3, weight_hi=4)
    seq = sample_arrivals(TypeDistribution.from_probs([F(1, 2), F(1, 2)]), 6,
                          substream(5, "ukd3"))
    _, rep = run_unknown_d(norm, seq, eta=F(1, 2), c=F(1, 20), seed=9)
    assert rep.details["branch"] == "splitAndLearn"
    assert seen and all(state is seen[0] for state in seen)  # one state, stepped per agent
    state = seen[0]
    assert state.claim == state.view.at_least(F(1, 2))
    assert state.scale == k * F(1, 2) == F(k, 2)
    assert not state.checked


def test_dry_learning_stage_reports_value_below_alpha(monkeypatch):
    import mmsonline.unknown as unknown

    real_split, real_low_c = unknown.random_split, unknown.run_low_c
    low_c_out = []

    def short_split(items, p, rng):
        # basket 1 keeps 6 items: far too few for a window of 15 learners
        basket1, basket2 = real_split(items, p, rng)
        return Bundle(basket1[:6]), basket2

    def spy(state, ranks):
        out = real_low_c(state, ranks)
        low_c_out.extend(out)
        return out

    monkeypatch.setattr(unknown, "random_split", short_split)
    monkeypatch.setattr(unknown, "run_low_c", spy)
    norm = gen_normalized_random(50, 400, 2, seed=0)
    alloc, rep = run_unknown_d(norm, [t % 2 for t in range(50)], eta=F(1, 2), c=F(1, 20))
    assert rep.details["branch"] == "splitAndLearn"
    assert (rep.details["window"], rep.details["basket1"]) == (15, 6)
    # the first learner takes 5 of the 6 items; the pool is then dry
    learners = [b for _, _, b in alloc.entries[:15]]
    assert len(learners[0]) == 5 and learners[1:] == [Bundle(())] * 14
    # at n = 50 the split probability is capped at 1, so basket 2 is empty and
    # low-C's reserves run dry too, but the earlier reason stands
    assert None in low_c_out
    assert rep.failure_reason is FailureReason.VALUE_BELOW_ALPHA
    assert rep.failure_reason.value == "valueBelowAlpha"


def test_restricted_share_layering_desk_scale():
    # verify the learning-stage layering literally at desk scale: the
    # basket-restricted share of every type is at least the k/2 floor the
    # stage's claim level assumes, so each learning bundle (worth >= 1/2)
    # clears one k-th of the restricted share floor, hence alpha
    from mmsonline.core import scale_row
    from mmsonline.solver import lpt_partition

    k, n, m = 2, 6, 24
    norm = gen_normalized_random(n, m, k, seed=13, weight_lo=3, weight_hi=4)
    hidden = TypeDistribution.from_probs([F(1, 2), F(1, 2)])
    seq = sample_arrivals(hidden, n, substream(5, "ukd3"))
    alloc, rep = run_unknown_d(norm, seq, eta=F(1, 2), c=F(1, 20), seed=9)
    assert rep.details["branch"] == "splitAndLearn"
    window = rep.details["window"]
    assert window < n
    # reconstruct the deterministic split (no universal items in this family)
    p = min(F(1), F(2 * k * window, n))
    b1, _ = random_split(range(m), p, substream(9, "split"))
    assert len(b1) == rep.details["basket1"]
    floor = F(k, 2)
    for ti in range(k):
        sub_vals = [norm.base.type_values[ti][g] for g in b1]
        ints, den = scale_row(sub_vals)
        # the least LPT bundle is a lower bound on the restricted share
        restricted_lower = F(min(sum(ints[g] for g in b) for b in lpt_partition(ints, window)), den)
        assert restricted_lower >= floor  # the pseudo-share never overshoots
    for _, ti, bundle in alloc.entries[:window]:
        assert bundle
        assert value(norm.base.type_values[ti], bundle) >= floor / k
        assert floor / k >= rep.alpha


def _few_universal_instance(n=12):
    # the two-type instance of the negative-id test: items 0, 2 and 4 are the
    # only universal ones, fewer than its window of 6
    row0, row1 = [], []
    for j in range(n):
        row0 += [F(1, 2), F(1, 2)] if j < 3 else [F(3, 4), F(1, 4)]
        row1 += [F(3, 4), F(1, 4)] if j < 3 else [F(1, 4), F(3, 4)]
    witness = tuple(Bundle((2 * j, 2 * j + 1)) for j in range(n))
    return NormalizedInstance(Instance(n, (tuple(row0), tuple(row1))), (F(1), F(1)), (witness, witness))


def _all_universal_instance(n=12):
    # every item is worth 1/2 to both types, so the window's singletons leave
    # a high-C remainder
    row = (F(1, 2),) * (2 * n)
    witness = tuple(Bundle((2 * j, 2 * j + 1)) for j in range(n))
    return NormalizedInstance(Instance(n, (row, row)), (F(1), F(1)), (witness, witness))


UNIFORM3_LAW = TypeDistribution.from_probs([F(1, 3)] * 3)
# (instance, arrivals, eta) per shape of the universal set C against the
# learning window; each shape's allocation and report, pinned before the
# universal singletons were served on one path
UNKNOWN_SHAPES = {
    "no-universal": (lambda: gen_normalized_random(20, 60, 3, seed=0), sample_arrivals(UNIFORM3_LAW, 20, 0), 0),
    "universal-below-window": (_few_universal_instance, [0, 1] * 6, F(1, 2)),
    "universal-below-window-random": (lambda: gen_normalized_random(20, 60, 3, seed=1),
                                      sample_arrivals(UNIFORM3_LAW, 20, 1), F(1, 2)),
    "universal-fills-window": (lambda: gen_normalized_random(20, 60, 3, seed=2),
                               sample_arrivals(UNIFORM3_LAW, 20, 2), F(1, 2)),
    "universal-fills-window-high-c": (_all_universal_instance, [0, 1, 1] * 4, F(1, 2)),
}
UNKNOWN_SHAPE_DIGESTS = {
    "no-universal": "9e6c8397b211fd81",
    "universal-below-window": "f47c7d2c8fd8f5a8",
    "universal-below-window-random": "4254b13a7359c05d",
    "universal-fills-window": "083b0fa79f5a2fe7",
    "universal-fills-window-high-c": "2382a9796634bb67",
}


def test_unknown_d_keeps_its_pinned_reports_on_each_universal_shape():
    got = {}
    for name, (make, seq, eta) in UNKNOWN_SHAPES.items():
        alloc, rep = run_unknown_d(make(), seq, eta=eta, c=F(1, 20), seed=3)
        got[name] = hashlib.sha256(canonical_json([allocation_to_obj(alloc), report_to_obj(rep)]).encode()
                                   ).hexdigest()[:16]
    assert got == UNKNOWN_SHAPE_DIGESTS
