"""Differential tests for the scans that read ``ScaledRows.maxima`` first.

Each scan for the items at or above a level is run twice: on the view as
built, where a type whose maximum is below the level skips its scan, and on
a copy whose maxima are raised past every level, so every scan runs in full.
The levels are taken at, just above and just below each type's maximum, so
the cases hold types below, exactly at and above their level.
"""

import math
import random
from fractions import Fraction as F

import pytest

from mmsonline.adversarial import TentativeState, step_adversarial
from mmsonline.core import (
    Bundle,
    InputError,
    InvariantViolation,
    ScaledRows,
    TypeDistribution,
    as_scaled,
    check_items,
    normalize,
)
from mmsonline.generators import gen_normalized_random, gen_random
from mmsonline.stochastic import preprocess_low_c, to_rank_space, universal_items


def _full_scan_view(view):
    """``view`` with every maximum raised past any level: no scan is skipped."""
    full = ScaledRows(view.ints, view.units)
    object.__setattr__(full, "maxima", (math.inf,) * len(view.ints))
    return full


def _instances():
    """Small witnessed and raw normalized instances, k in {2, 3}."""
    for seed in range(4):
        for n, m, k in ((3, 7, 2), (4, 12, 3), (5, 30, 2), (4, 28, 3)):
            yield gen_normalized_random(n, m, k, seed=seed, weight_lo=1, weight_hi=6)
        # every item worth exactly 1/3 to both types: each maximum is its level
        yield gen_normalized_random(3, 9, 2, seed=seed, weight_lo=2, weight_hi=2)
        yield normalize(gen_random(3, 7, 2, "uniform", seed=seed))
        yield normalize(gen_random(3, 8, 3, "clustered", seed=seed))


def _levels(view):
    """Claim levels at, just above and just below each type's maximum."""
    out = set()
    for top, unit in zip(view.maxima, view.units):
        for x in (top - 1, top, top + 1):
            if 0 < x <= unit:
                out.add(F(x, unit))
    return sorted(out)


def _cases():
    rng = random.Random(11)
    for norm in _instances():
        m = norm.m_items
        for alpha in _levels(norm.scaled):
            items = sorted(rng.sample(range(m), rng.randint(1, m)))
            yield norm, items, alpha


def _relation_counts(view, alpha):
    """How many types sit below, exactly at and above the level alpha."""
    below = at = above = 0
    for top, level in zip(view.maxima, view.at_least(alpha)):
        below, at, above = below + (top < level), at + (top == level), above + (top > level)
    return below, at, above


def test_every_view_holds_its_row_maxima():
    for norm in _instances():
        view, k = norm.scaled, norm.k_types
        assert view.maxima == tuple(max(row) for row in view.ints)
        # the least frequent type first, so the rank-space view permutes the rows
        ranked, _ = to_rank_space(norm, TypeDistribution.from_probs([F(2 * i + 1, k * k) for i in range(k)]), [])
        assert ranked.ints == view.ints[::-1] and ranked.units == view.units[::-1]
        assert ranked.maxima == tuple(max(row) for row in ranked.ints)
        assert ranked == ScaledRows(ranked.ints, ranked.units)
    assert as_scaled([[]]).maxima == (0,)
    # the maxima are no part of equality or repr
    view = as_scaled([[F(1, 2), F(1, 3)]])
    assert "maxima" not in repr(view) and view == _full_scan_view(view)
    assert hash(view) == hash(_full_scan_view(view))


def test_universal_items_match_a_full_scan():
    seen, found_at_level = [0, 0, 0], 0
    for norm, items, alpha in _cases():
        view = norm.scaled
        seen = [s + c for s, c in zip(seen, _relation_counts(view, alpha))]
        want = [g for g in items if all(row[g] >= level for row, level in zip(view.ints, view.at_least(alpha)))]
        assert universal_items(view, items, alpha) == want
        assert universal_items(_full_scan_view(view), items, alpha) == want
        found_at_level += bool(want) and _relation_counts(view, alpha)[1] > 0
    assert all(seen)  # some type below, some exactly at and some above its level
    assert found_at_level  # items found where some type's maximum is exactly its level


def test_tentative_state_create_matches_a_full_scan():
    rng = random.Random(3)
    for norm, items, alpha in _cases():
        view, n, k = norm.scaled, norm.n_agents, norm.k_types
        seq = [rng.randrange(k) for _ in range(n)]
        for checked in (False, True):
            got, want = (TentativeState.create(v, items, n, threshold=alpha, checked=checked)
                         for v in (view, _full_scan_view(view)))
            # the recount: each type's first n items at its claim, in item order
            claim = view.at_least(alpha)
            recount = [[g for g in items if view.ints[i][g] >= claim[i]][:n] for i in range(k)]
            assert [[b[0] for b in dq] for dq in got.reserves] == recount
            reserved = {g for r in recount for g in r}
            assert got.pool == [g for g in items if g not in reserved]
            for t in seq:
                assert [list(dq) for dq in got.reserves] == [list(dq) for dq in want.reserves]
                assert (got.pool, got.pool_pos, got.marks) == (want.pool, want.pool_pos, want.marks)
                outcome = []
                for state in (got, want):
                    try:
                        outcome.append(step_adversarial(state, t))
                    except InvariantViolation as exc:
                        outcome.append(str(exc))
                assert outcome[0] == outcome[1]
                if isinstance(outcome[0], str):
                    break


def _low_c_outcome(view, *args):
    try:
        state = preprocess_low_c(view, *args)
    except InvariantViolation as exc:
        return str(exc)
    return (state.high_sets, [list(dq) for dq in state.reserves], state.singleton_counts, state.order,
            state.unsaturated, state.bag_count)


def test_preprocess_low_c_matches_a_full_scan_on_rank_space_views_too():
    rng = random.Random(8)
    for norm, items, alpha in _cases():
        k = norm.k_types
        weights = [rng.randint(1, 9) for _ in range(k)]
        dist = TypeDistribution.from_probs([F(w, sum(weights)) for w in weights])
        ranked, _ = to_rank_space(norm, dist, [])
        nprime = rng.randint(1, 2 * norm.n_agents)
        for view, probs in ((norm.scaled, sorted(dist.probs, reverse=True)), (ranked, dist.probs)):
            args = (items, nprime, probs, alpha, F(1, 10))
            got = _low_c_outcome(view, *args)
            assert got == _low_c_outcome(_full_scan_view(view), *args)
            if not isinstance(got, str):
                claim = view.at_least(alpha)
                assert got[0] == [[g for g in items if row[g] >= level] for row, level in zip(view.ints, claim)]


def test_a_high_item_planted_in_the_pool_still_trips_the_purity_check():
    # type 0's maximum, item 4, sits exactly at the claim level 1/2; type 1's
    # maximum is below it, so type 1 never scans
    rows = ((F(1, 4),) * 4 + (F(1, 2),), (F(1, 8),) * 4 + (F(1, 4),))
    view = as_scaled(rows)
    state = TentativeState.create(view, range(4), 2, threshold=F(1, 2))
    assert state.marks == {0: -1, 1: -1} and view.maxima[0] == view.at_least(F(1, 2))[0]
    state._merge_into_pool([4])  # the pool is replaced, so the marks are redone
    with pytest.raises(InvariantViolation, match="^pool purity: item 4 worth 1/2 to open type 0$"):
        state._check_pool_purity(current_t=0)
    assert state.marks == {0: 4, 1: -1}


@pytest.mark.parametrize("ids, m, bad", [((0, 5), 5, 5), ((3, 9, 12), 10, 12), ((7,), 7, 7)])
def test_check_items_range_checks_a_bundle_like_the_equal_list(ids, m, bad):
    for items in (Bundle(ids), Bundle.from_sorted(ids), list(ids)):
        with pytest.raises(InputError, match=f"^item id {bad} out of range$"):
            check_items(items, m)
    got = check_items(Bundle(ids))
    assert got == list(ids) and type(got) is list
