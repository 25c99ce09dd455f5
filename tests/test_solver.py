from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings, strategies as st

from mmsonline import CapacityError, InputError
from mmsonline.core import Bundle, Instance, MmsResult, normalize, scale_row, value
from mmsonline.generators import gen_random
from mmsonline import solver
from mmsonline.rng import substream
from mmsonline.solver import (
    _REACH_BITS,
    _covers,
    lpt_partition,
    mms_brute_force,
    mms_exact,
    mms_exact_scaled,
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


def _reference_mms_exact(valuation, n):
    """The solver before it pruned by bundle deficits: the ``min(load) +
    remaining`` prune and the ``total // n`` cap, otherwise the same search
    (branch order, symmetry rule, LPT incumbent, memo)."""
    m = len(valuation)
    ints, den = scale_row(valuation)
    if m == 0:
        return MmsResult(F(0), tuple(Bundle(()) for _ in range(n)), nodes=1)
    if n == 1:
        return MmsResult(F(sum(ints), den), (Bundle(tuple(range(m))),), nodes=1)
    items = sorted((g for g in range(m) if ints[g] > 0), key=lambda g: (-ints[g], g))
    zeros = [g for g in range(m) if ints[g] == 0]
    mm = len(items)
    suffix = [0] * (mm + 1)
    for i in range(mm - 1, -1, -1):
        suffix[i] = suffix[i + 1] + ints[items[i]]
    ub_global = suffix[0] // n
    lpt = lpt_partition(ints, n)
    best = min(sum(ints[g] for g in b) for b in lpt)
    best_bundles = [[g for g in b if ints[g] > 0] for b in lpt]
    nodes = 1
    loads = [0] * n
    current = [[] for _ in range(n)]
    seen = set()

    class _Done(Exception):
        pass

    def rec(idx):
        nonlocal best, best_bundles, nodes
        nodes += 1
        if idx == mm:
            mn = min(loads)
            if mn > best:
                best = mn
                best_bundles = [b.copy() for b in current]
                if best >= ub_global:
                    raise _Done
            return
        if min(loads) + suffix[idx] <= best:
            return
        key = (idx, tuple(sorted(loads)))
        if key in seen:
            return
        seen.add(key)
        g = items[idx]
        v = ints[g]
        tried = set()
        for j in sorted(range(n), key=lambda j: loads[j]):
            if loads[j] in tried:
                continue
            tried.add(loads[j])
            loads[j] += v
            current[j].append(g)
            rec(idx + 1)
            loads[j] -= v
            current[j].pop()

    if best < ub_global:
        try:
            rec(0)
        except _Done:
            pass
    bundles = [sorted(b) for b in best_bundles]
    bundles[0].extend(zeros)
    return MmsResult(F(best, den), tuple(Bundle(tuple(b)) for b in bundles), nodes=nodes)


def _agrees_with_reference(vals, n):
    got, ref = mms_exact(vals, n), _reference_mms_exact(vals, n)
    assert (got.value, got.witness) == (ref.value, ref.witness)
    assert got.nodes <= ref.nodes
    return got, ref


_fractions = st.fractions(min_value=0, max_value=12, max_denominator=6)


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 6), st.one_of(
    st.lists(_fractions, max_size=10),
    st.lists(st.integers(0, 2).map(F), max_size=10),  # ties and zeros
    st.tuples(st.integers(20, 200).map(F), st.lists(_fractions, max_size=9)).map(
        lambda t: [t[0], *t[1]]),  # one dominant item
    st.lists(st.integers(0, 9).map(F), max_size=5).map(lambda r: r + [F(0)] * 5),  # few positive
))
def test_same_value_and_witness_as_the_reference(n, vals):
    _agrees_with_reference(vals, n)


def test_same_value_and_witness_as_the_reference_on_seeded_rows():
    for seed in range(24):
        rng = substream(seed, "solver-reference")
        m, n = rng.randint(12, 13), rng.randint(4, 6)
        if seed % 2:
            vals = [F(rng.randint(1, 100)) for _ in range(m)]
        else:
            vals = [F(rng.randint(0, 30), rng.randint(1, 7)) for _ in range(m)]
        _agrees_with_reference(vals, n)


def test_top_j_cap_ends_the_search_at_the_root():
    # the two bundles without the 100 share five 1s, so no split beats 2
    vals = [F(x) for x in (100, 1, 1, 1, 1, 1)]
    got, ref = _agrees_with_reference(vals, 3)
    assert (got.value, got.nodes) == (2, 1)
    assert ref.nodes > 1


@pytest.mark.parametrize("vals,n", [
    ([F(5), F(0), F(3)], 3), ([F(0)] * 3, 4), ([F(7)], 2), ([F(2), F(0), F(9)], 8),
    ([F(1)] * 7, 8),
])
def test_fewer_positive_items_than_bundles(vals, n):
    # some bundle stays empty, so the top-j cap is 0 and nothing is searched
    got, _ = _agrees_with_reference(vals, n)
    assert (got.value, got.nodes) == (0, 1)
    _check_witness(vals, n, got)


@pytest.mark.parametrize("vals,n,value,witness,exact_nodes,brute_nodes", [
    # no items, all-zero rows and n = 1 take the general path of both solvers;
    # value, witness and nodes are as the special-cased solvers returned them
    ([], 1, 0, [()], 1, 1),
    ([], 3, 0, [(), (), ()], 1, 1),
    ([F(0)] * 3, 1, 0, [(0, 1, 2)], 1, 4),
    ([F(0)] * 3, 2, 0, [(0, 1, 2), ()], 1, 8),
    ([F(0)] * 2, 4, 0, [(0, 1), (), (), ()], 1, 6),
    ([F(0), F(5, 2), F(0), F(1)], 1, F(7, 2), [(0, 1, 2, 3)], 1, 5),
    ([F(3)], 1, 3, [(0,)], 1, 2),
])
def test_edge_sizes_take_the_general_path(vals, n, value, witness, exact_nodes, brute_nodes):
    for solver, nodes in ((mms_exact, exact_nodes), (mms_brute_force, brute_nodes)):
        got = solver(vals, n)
        assert (got.value, got.witness, got.nodes) == (value, tuple(witness), nodes)
        _check_witness(vals, n, got)


def test_node_count_at_m20_stays_pruned():
    # a work count, not a wall-clock time, so a slow host cannot trip it;
    # the solver without the deficit bound needs millions of nodes here
    nodes = sum(mms_exact(gen_random(5, 20, 1, "uniform", seed=s).type_values[0], 5).nodes
                for s in range(4))
    assert nodes <= 150_000


@pytest.mark.parametrize("n,m,seed,value,witness,parent_nodes", [
    # LPT is optimal, one unit below the top-j cap
    (5, 22, 0, F(307, 6), [(19, 20, 21), (0, 1, 5, 14), (4, 6, 9, 15), (2, 7, 8, 12, 16, 17),
                           (3, 10, 11, 13, 18)], 1_257_560),
    (6, 24, 1, F(41), [(12, 15, 16), (0, 7, 8, 23), (2, 5, 6, 22), (14, 17, 18, 19),
                       (4, 11, 13, 20), (1, 3, 9, 10, 21)], 659_119),
    (6, 24, 2, F(251, 6), [(22,), (1, 15, 23), (2, 10, 13, 17, 18), (3, 6, 8, 19, 20),
                           (0, 4, 12, 14, 16), (5, 7, 9, 11, 21)], 659_104),
])
def test_optimum_one_below_the_cap_needs_no_proof_search(n, m, seed, value, witness, parent_nodes):
    # value and witness as the solver gave them when its search had to prove
    # the cap one unit too high, in parent_nodes nodes
    res = mms_exact(gen_random(n, m, 1, "uniform", seed=seed).type_values[0], n)
    assert (res.value, [tuple(b) for b in res.witness]) == (value, witness)
    assert res.nodes <= parent_nodes


@pytest.mark.parametrize("m,n,seed,max_nodes,rows", [
    (24, 7, 2, 3_816, [
        (F(391, 12), [(14,), (1, 13, 17), (7, 11, 16, 20), (3, 9, 19, 23), (0, 6, 10, 12, 18),
                      (5, 8, 15, 22), (2, 4, 21)]),
        (F(401, 12), [(21, 23), (0, 8, 19), (7, 12, 17), (3, 4, 15, 22), (5, 9, 10, 16),
                      (2, 11, 14, 18), (1, 6, 13, 20)]),
        (F(169, 6), [(2,), (20, 22), (16, 21, 23), (9, 11, 12, 17), (4, 8, 10, 15, 18),
                     (0, 3, 7, 13), (1, 5, 6, 14, 19)]),
    ]),
    (24, 8, 0, 6_769, [
        (F(467, 12), [(1,), (10,), (7, 20), (2, 15, 17, 22), (0, 4, 5, 12, 21), (9, 18, 23),
                      (6, 8, 14, 19), (3, 11, 13, 16)]),
        (F(93, 2), [(9, 14), (13, 16), (18, 23), (4, 5, 8, 21), (7, 10, 22), (0, 15, 17),
                    (1, 11, 19, 20), (2, 3, 6, 12)]),
        (F(37), [(6,), (2, 12, 20), (1, 22), (5, 8, 21), (4, 9, 14), (11, 18, 19),
                 (0, 7, 10, 13, 23), (3, 15, 16, 17)]),
    ]),
    (24, 5, 1, 1_080, [
        (F(178, 3), [(2, 6, 7, 23), (3, 9, 12, 18), (8, 14, 16, 19, 20), (0, 4, 5, 10, 21, 22),
                     (1, 11, 13, 15, 17)]),
        (F(85, 2), [(6, 15), (1, 9, 13, 16, 22), (4, 7, 11, 19, 21), (0, 3, 10, 14, 23),
                    (2, 5, 8, 12, 17, 18, 20)]),
        (F(139, 4), [(0, 3, 20), (4, 8, 9, 21), (5, 6, 7, 16, 18, 19), (1, 10, 11, 12, 14, 23),
                     (2, 13, 15, 17, 22)]),
    ]),
    (20, 6, 3, 734, [
        (F(107, 3), [(11,), (10, 13, 17, 19), (2, 14, 16), (4, 7, 9, 18), (3, 5, 6, 8), (0, 1, 12, 15)]),
        (F(32), [(11,), (1, 5, 7, 13), (4, 6, 9, 16), (0, 3, 12, 15), (8, 14, 18, 19), (2, 10, 17)]),
        (F(179, 4), [(3, 18), (2, 9, 17), (5, 14, 15, 16), (6, 8, 12, 19), (0, 1, 10), (4, 7, 11, 13)]),
    ]),
])
def test_long_rows_keep_their_witness_in_few_nodes(m, n, seed, max_nodes, rows):
    # value and witness as the search without the overshoot bound gave them,
    # in 6.6k to 2.2M nodes over the three types; a work count, not a time
    inst = gen_random(n, m, 3, "uniform", seed=seed)
    results = [mms_exact(row, n) for row in inst.type_values]
    assert [(r.value, [tuple(b) for b in r.witness]) for r in results] == rows
    assert sum(r.nodes for r in results) <= max_nodes


def test_rows_past_the_bitset_width_keep_the_deficit_bound():
    # denominators 7-23 scale these rows past _REACH_BITS, so the search runs
    # without subset-sum bitsets; it still meets the oracle and the reference
    for seed in range(1, 4):
        rng = substream(seed, "solver-wide")
        m, n = rng.randint(9, 12), rng.randint(3, 4)
        vals = [F(rng.randint(1, 60), rng.choice((7, 11, 13, 17, 19, 23))) for _ in range(m)]
        ints, den = scale_row(vals)
        got, _ = _agrees_with_reference(vals, n)
        assert got.value * den + max(ints) > _REACH_BITS
        assert got.nodes > 1  # LPT falls short, so the search runs
        assert got.value == mms_brute_force(vals, n).value
        _check_witness(vals, n, got)


def _covers_brute(vals, bins, target):
    # every assignment of the items to labelled parts
    def rec(i, loads):
        if i == len(vals):
            return min(loads) >= target
        return any(rec(i + 1, loads[:j] + (loads[j] + vals[i],) + loads[j + 1:])
                   for j in range(bins))
    return rec(0, (0,) * bins)


def test_covers_items_worth_the_target_fill_a_part_alone():
    assert _covers((10, 10, 10), 3, 10, set())  # one item a part, no pair needed
    assert _covers((12, 9, 3, 2), 3, 5, set())
    assert not _covers((12, 9, 1), 3, 5, set())


def test_covers_needs_two_items_per_open_part():
    # the sum 12 would cover two parts of 5, but three items cannot make two pairs
    assert not _covers((4, 4, 4), 2, 5, set())
    assert not _covers((9, 4, 4, 4), 3, 5, set())
    assert _covers((4, 4, 4, 1), 2, 5, set())


def test_covers_sum_bound():
    assert not _covers((4, 4, 3, 3, 1), 2, 8, set())  # 15 < 2 * 8
    assert _covers((4, 4, 3, 3, 1), 2, 7, set())


def test_covers_backtracks_past_a_failed_completion():
    # the first part tried, 8 + 3, leaves 7, 6, 5, 1, 1, which no two parts of
    # 10 can share; 8 + 1 + 1 leaves 7 + 3 and 6 + 5
    vals = (8, 7, 6, 5, 3, 1, 1)
    failed = set()
    assert _covers(vals, 3, 10, failed)
    assert failed == {((7, 6, 5, 1, 1), 2)}
    assert not _covers_brute((7, 6, 5, 1, 1), 2, 10)
    assert _covers_brute(vals, 3, 10)


def test_covers_agrees_with_brute_force_at_the_share():
    for seed in range(40):
        rng = substream(seed, "solver-covers")
        m, n = rng.randint(1, 10), rng.randint(1, 4)
        row = [F(rng.randint(0, 20), rng.choice((1, 2, 3))) for _ in range(m)]
        ints, den = scale_row(row)
        share = mms_brute_force(row, n).value * den
        vals = tuple(sorted((x for x in ints if x > 0), reverse=True))
        if share > 0:
            assert _covers(vals, n, share, set())
        assert not _covers(vals, n, share + 1, set())


def test_target_search_gallops_over_a_wide_fractional_gap(monkeypatch):
    from mmsonline import solver
    row = [F(x) for x in ("31/13", "41/9", "5/3", "7", "25/7", "43/7", "11/8", "3/11", "50/7", "53/11")]
    ints, _ = scale_row(row)
    srt = sorted(ints, reverse=True)
    cap = min(sum(srt[j:]) // (3 - j) for j in range(3))
    lpt = min(sum(ints[g] for g in b) for b in lpt_partition(ints, 3))
    assert cap - lpt > 5000
    targets = []

    def counting(vals, bins, target, failed):
        if bins == 3:
            targets.append(target)
        return _covers(vals, bins, target, failed)

    monkeypatch.setattr(solver, "_covers", counting)
    _agrees_with_reference(row, 3)
    # one decision per halving of the gap, not one per unit
    assert len(targets) <= 2 * (cap - lpt).bit_length()


# -- the integer kernel and the tie rules of its keys ------------------------


def _wide_instance():
    # denominators 7-23 scale type 0 past _REACH_BITS
    rng = substream(2, "solver-wide")
    m, n = rng.randint(9, 12), rng.randint(3, 4)
    return Instance(n, [[F(rng.randint(1, 60), rng.choice((7, 11, 13, 17, 19, 23))) for _ in range(m)],
                        [F(rng.randint(0, 9)) for _ in range(m)]])


@pytest.mark.parametrize("inst", [
    *(gen_random(n, m, 3, model, seed=seed) for model in ("uniform", "binary", "clustered")
      for n, m in ((3, 8), (5, 12), (6, 14)) for seed in range(2)),
    gen_random(4, 10, 3, "binary", seed=1, q=F(1, 5)),  # some types have fewer than n ones
    gen_random(6, 9, 3, "binary", seed=0, q=F(1, 3)),
    _wide_instance(),
])
def test_normalize_on_the_scaled_rows_equals_normalize_through_the_rationals(inst):
    got, want = normalize(inst), normalize(inst, mms_exact)
    assert got.original_mms == want.original_mms
    assert got.witness_partitions == want.witness_partitions
    assert got.zero_mms_types == want.zero_mms_types
    assert got.scaled == want.scaled
    assert got == want


def test_the_integer_path_covers_zero_shares_and_rows_past_the_bitset_width():
    assert normalize(gen_random(4, 10, 3, "binary", seed=1, q=F(1, 5))).zero_mms_types
    inst = _wide_instance()
    ints, unit = inst.scaled.ints[0], inst.scaled.units[0]
    assert normalize(inst).original_mms[0] * unit + max(ints) > _REACH_BITS


@pytest.mark.parametrize("row,n,error,match", [
    ([F(1), F(2)], 0, InputError, "need at least one bundle"),
    ([F(1)] * 30, 2, CapacityError, "got m=30, n=2"),
    ([F(1)] * 4, 9, CapacityError, "got m=4, n=9"),
])
def test_the_kernel_raises_as_the_rational_solver_does(row, n, error, match):
    raised = []
    for call in (lambda: mms_exact(row, n), lambda: mms_exact_scaled(*scale_row(row), n)):
        with pytest.raises(error, match=match) as info:
            call()
        raised.append((info.type, str(info.value)))
    assert raised[0] == raised[1]


def _reference_lpt(ints, n):
    """LPT on the keys the solver used before: items by (-value, id), the
    bundle by (load, index)."""
    loads, bundles = [0] * n, [[] for _ in range(n)]
    for g in sorted(range(len(ints)), key=lambda g: (-ints[g], g)):
        j = min(range(n), key=lambda j: (loads[j], j))
        loads[j] += ints[g]
        bundles[j].append(g)
    return bundles


_TIE_ROWS = [
    [F(3)] * 9,  # all equal
    [F(2), F(5), F(2), F(5), F(1), F(2), F(5), F(1), F(2), F(1)],  # repeated values
    [F(0), F(4), F(0), F(4), F(4), F(0), F(1), F(1), F(0)],  # zeros among ties
    [F(1, 2), F(1), F(1, 2), F(1, 2), F(1), F(0), F(1, 2), F(1), F(1, 2), F(1)],
    [F(0)] * 6,
]


def _graham_row(n):
    """Two items each of 2n-1 down to n+1 and three of n, shuffled among
    three zeros: LPT falls one short of the share n, so the search runs."""
    row = [F(v) for v in range(2 * n - 1, n, -1) for _ in range(2)] + [F(n)] * 3 + [F(0)] * 3
    rng = substream(n, "solver-ties")
    return [row.pop(rng.randrange(len(row))) for _ in range(len(row))]


@pytest.mark.parametrize("row", _TIE_ROWS)
@pytest.mark.parametrize("n", range(1, 9))
def test_ties_break_by_index_as_with_the_old_keys(row, n):
    ints, _ = scale_row(row)
    assert lpt_partition(ints, n) == _reference_lpt(ints, n)
    # the witness is the first optimal leaf in branch order, so it pins the
    # item order, the bundle order and the equal-load skip
    _agrees_with_reference(row, n)


@pytest.mark.parametrize("n", range(2, 9))
def test_ties_break_by_index_where_the_search_runs(n):
    row = _graham_row(n)
    ints, _ = scale_row(row)
    assert lpt_partition(ints, n) == _reference_lpt(ints, n)
    got, _ = _agrees_with_reference(row, n)
    assert got.value == 3 * n and got.nodes > 1


def _reference_covers(vals, bins, target, failed, ends):
    """``_covers`` as it rebuilt the items left with a membership test per
    item; ``ends`` collects, per rebuild, whether ``picked`` held the first
    and the last index of ``rest``."""
    big = next((i for i, v in enumerate(vals) if v < target), len(vals))
    vals, bins = vals[big:], bins - big
    slack = sum(vals) - bins * target
    if bins <= 1 and slack >= 0:
        return True
    if slack < 0 or len(vals) < 2 * bins or (vals, bins) in failed:
        return False
    rest = vals[1:]
    suffix = [sum(rest[j:]) for j in range(len(rest) + 1)]
    picked = []

    def complete(i, need):
        prev = 0
        for j in range(i, len(rest)):
            if suffix[j] < need:
                return False
            v = rest[j]
            if v == prev or v - need > slack:
                continue
            prev = v
            picked.append(j)
            if v < need:
                ok = complete(j + 1, need - v)
            else:
                ends.add((picked[0] == 0, picked[-1] == len(rest) - 1))
                ok = _reference_covers(tuple(x for t, x in enumerate(rest) if t not in picked), bins - 1,
                                       target, failed, ends)
            picked.pop()
            if ok:
                return True
        return False

    if complete(0, target - vals[0]):
        return True
    failed.add((vals, bins))
    return False


def test_covers_rebuilds_the_items_left_as_the_per_item_test_did():
    # same answer and the same failed states, so the same parts were tried
    ends = set()
    for seed in range(60):
        rng = substream(seed, "solver-rebuild")
        m, bins = rng.randint(4, 12), rng.randint(2, 4)
        vals = tuple(sorted((rng.randint(1, 12) for _ in range(m)), reverse=True))
        for target in range(max(1, sum(vals) // bins - 3), sum(vals) // bins + 2):
            got_failed, want_failed = set(), set()
            assert _covers(vals, bins, target, got_failed) == _reference_covers(vals, bins, target, want_failed, ends)
            assert got_failed == want_failed
    assert (True, True) in ends  # picked held both the first and the last index of rest
    assert ends == {(a, b) for a in (True, False) for b in (True, False)}


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 4), st.lists(st.integers(1, 12), max_size=9))
# a skipped item takes the remainder below need, by the waste rule
# ((8, 8, 8, 6), target 15) and by the equal-value rule ((9, 9, 9, 9, 8), target 19)
@example(bins=2, vals=[8, 8, 8, 6])
@example(bins=2, vals=[9, 9, 9, 9, 8])
def test_covers_decides_as_brute_force_and_fails_the_reference_states(bins, vals):
    vals = tuple(sorted(vals, reverse=True))
    complete, remains = solver._complete, []

    def checked(vals, remain, slack, picked, bins, target, failed, i, need):
        remains.append((remain, sum(vals[i:])))  # the remainder each completion is handed
        return complete(vals, remain, slack, picked, bins, target, failed, i, need)

    for target in range(1, sum(vals) // bins + 2):
        got_failed, want_failed = set(), set()
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(solver, "_complete", checked)
            got = _covers(vals, bins, target, got_failed)
        assert got == _covers_brute(vals, bins, target)
        assert got == _reference_covers(vals, bins, target, want_failed, set())
        assert got_failed == want_failed
    assert all(got == want for got, want in remains)


# -- no solve leaves cyclic garbage ------------------------------------------


_ROW, _N = [2, 23, 27, 28, 24, 24, 24, 29, 3, 18], 3


def test_the_garbage_row_runs_every_phase_of_a_solve():
    # LPT < optimum <= cap - 2: the gallop, the bisection and the witness search all run
    srt = sorted(_ROW, reverse=True)
    cap = min(sum(srt[j:]) // (_N - j) for j in range(_N))
    lpt = min(sum(_ROW[g] for g in b) for b in lpt_partition(_ROW, _N))
    res = mms_exact_scaled(_ROW, 1, _N)
    assert lpt < res.value < cap - 1 and res.nodes > 1


@pytest.mark.parametrize("call, args", [
    (mms_exact_scaled, (_ROW, 1, _N)),
    (mms_brute_force, ([F(x) for x in _ROW[:8]], _N)),
    (normalize, (gen_random(5, 13, 3, "uniform", seed=4),)),
], ids=["mms_exact_scaled", "mms_brute_force", "normalize"])
def test_a_solve_leaves_no_cyclic_garbage(cyclic_garbage, call, args):
    assert cyclic_garbage(call, *args) == 0


# -- pinned outputs ------------------------------------------------------------

# (value, nodes, each item's bundle) of every type's row of
# gen_random(n, m, 3, "uniform", seed) under mms_exact_scaled: the bench
# ladder's shapes (n 4-6, m 12-14) and a slice of the held-out shapes (m 16-24)
_PINNED = {
    (4, 12, 0): ('45 15 231330312322', '70/3 16 212130131023', '83/3 1 232132031203'),
    (4, 12, 1): ('51/2 1 213232122103', '39 27 333102233310', '32 34 122123010323'),
    (4, 13, 0): ('113/6 16 2013132310021', '18 16 3011132303220', '63/2 20 1020321332012'),
    (4, 13, 1): ('100/3 17 2211133231101', '63/2 53 1323223020301', '133/4 24 2203322331121'),
    (4, 14, 0): ('299/6 20 23202203131311', '79/2 17 31111133233022', '103/3 42 11133002132323'),
    (4, 14, 1): ('275/6 29 22311320221313', '36 30 00122330321231', '83/4 17 22233202313332'),
    (5, 12, 0): ('24 1 201324313244', '52/3 32 424331241002', '155/6 1 311043434122'),
    (5, 12, 1): ('25 15 041332210224', '65/3 15 423124130244', '175/12 16 304434422431'),
    (5, 13, 0): ('159/4 17 3213234403442', '28 29 3434410122423', '76/3 1 4330121124203'),
    (5, 13, 1): ('122/3 26 4321341103240', '79/3 21 2241434032314', '36 58 3344240112324'),
    (5, 14, 0): ('128/3 58 34044413230120', '497/12 34 44223043131123', '21 1 43224342301243'),
    (5, 14, 1): ('25 17 31444234423303', '203/6 20 23104333424422', '24 27 41423334242403'),
    (6, 12, 0): ('109/6 1 443035233514', '43/3 1 105435453221', '119/6 17 434150324552'),
    (6, 12, 1): ('47/3 16 450243315254', '40/3 16 140545323554', '61/4 1 425531304232'),
    (6, 13, 0): ('169/6 40 4443250355421', '47/2 16 2454145053132', '95/6 35 5331250512544'),
    (6, 13, 1): ('29/2 16 5534044415523', '20 16 0533551443524', '157/12 1 5451534430425'),
    (6, 14, 0): ('61/4 22 25243455133440', '39/2 19 34123455234150', '109/4 17 45305232412345'),
    (6, 14, 1): ('51/2 1 12345342001455', '135/4 28 14353215042354', '143/6 17 31222344515510'),
    (3, 16, 0): ('199/3 20 0022220121102120', '355/12 31 1212122102012002', '487/6 20 2222011110110202'),
    (5, 16, 0): ('319/6 89 1324341420134102', '25 22 2314123424343014', '112/3 145 3044413232231433'),
    (8, 16, 0): ('97/6 35 0556736371674422', '203/12 59 1257757627043643', '21 166 7456704313622765'),
    (3, 20, 0): ('218/3 24 11220020010001122112', '119/2 25 20012020122110011212', '779/6 24 11200001202200211112'),
    (5, 20, 0): ('245/6 40 42331021203112433443', '173/6 139 21403304142314122340', '111/4 217 23412340421331223414'),
    (8, 20, 0): ('257/12 56 64623537730415576573', '30 30 56536025761747344356', '22 1 57626374417055667657'),
    (3, 24, 0): ('321/4 67 220012111221102001112200', '1049/12 28 121010101101220122220220', '509/6 28 212200002111010111202122'),
    (5, 24, 0): ('301/6 56 213124224441403031223010', '493/12 80 330312434121231444423121', '195/4 1350 214442443431003221131432'),
    (8, 24, 0): ('467/12 4506 403744626517476373562435', '93/2 2236 567733743046710515266342', '37 27 621743063465164777551326'),
}


def test_the_kernel_keeps_its_pinned_outputs():
    for (n, m, seed), rows in _PINNED.items():
        inst = gen_random(n, m, 3, "uniform", seed=seed)
        for i, (ints, unit, want) in enumerate(zip(inst.scaled.ints, inst.scaled.units, rows)):
            res = mms_exact_scaled(ints, unit, n)
            value, nodes, owner = want.split()
            witness = tuple(tuple(g for g in range(m) if owner[g] == str(j)) for j in range(n))
            assert (res.value, res.nodes, tuple(map(tuple, res.witness))) == (F(value), int(nodes), witness), \
                f"gen_random({n}, {m}, 3, 'uniform', seed={seed}), type {i}"
