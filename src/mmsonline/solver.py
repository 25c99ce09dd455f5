"""Exact maximin-share solver.

``mms_exact`` finds the optimum by bin completion (Korf 2009) between a
longest-processing-time (LPT) split and the top-j cap of machine covering
(P||C_min), then a branch-and-bound with symmetry breaking, the bundle
deficit bound and the least-overshoot bound (over per-depth subset-sum
bitsets) finds the witness at that optimum; every size takes this path.
``mms_brute_force`` is the independent oracle: plain exhaustive enumeration,
kept free of any pruning the solver uses.

The search runs on a row scaled to integers over its common denominator, in
the kernel ``mms_exact_scaled``: ``core.normalize`` calls it on the rows an
instance holds, and ``mms_exact`` on a rational row it scales (``core.scale_row``).
It sorts the items once; LPT runs on that order.  The decision sums its items
only once: the slack and the remainder travel down its recursion.  Each
recursion is a module-level function over explicit state, never a closure (a
reference cycle, which keeps every call's memo alive until the collector runs).
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from .core import Bundle, CapacityError, InputError, MmsResult, scale_row

DEFAULT_ITEM_CAP = 24
DEFAULT_BUNDLE_CAP = 8
BRUTE_ITEM_CAP = 12
BRUTE_BUNDLE_CAP = 5
_MEMO_LIMIT = 2_000_000
_REACH_BITS = 1 << 16  # widest subset-sum bitset the witness search builds


def lpt_partition(ints: Sequence[int], n: int) -> list[list[int]]:
    """Greedy longest-processing-time split of a row scaled to integers
    (``core.scale_row``) into n bundles (item ids)."""
    if n < 1:
        raise InputError("need at least one bundle")
    return _lpt(ints, sorted(range(len(ints)), key=ints.__getitem__, reverse=True), n)[0]  # stable: ties by index


def _lpt(ints: Sequence[int], order: list[int], n: int) -> tuple[list[list[int]], list[int]]:
    """LPT over the item ids ``order`` (non-increasing value): bundles, loads."""
    loads = [0] * n
    bundles: list[list[int]] = [[] for _ in range(n)]
    for g in order:
        j = loads.index(min(loads))  # the least load, at the lowest index
        loads[j] += ints[g]
        bundles[j].append(g)
    return bundles, loads


def _covers(vals: tuple[int, ...], bins: int, target: int, failed: set[tuple]) -> bool:
    """Whether the positive ints ``vals`` (non-increasing) split into ``bins``
    parts each worth at least ``target``, by bin completion over the part
    holding the largest item; failed (items, bins) states go in ``failed``.
    Only this call sums the items; each state below gets its slack passed down."""
    # past the first call, every item is below the target
    big = next((i for i, v in enumerate(vals) if v < target), len(vals)) if vals and vals[0] >= target else 0
    vals, bins = vals[big:], bins - big  # an item worth the target fills a part alone
    return _decide(vals, bins, target, failed, sum(vals) - bins * target)


def _decide(vals: tuple[int, ...], bins: int, target: int, failed: set[tuple], slack: int) -> bool:
    """``_covers`` on items below the target worth ``bins * target + slack``."""
    if bins <= 1 and slack >= 0:  # slack: the most value the open parts may waste
        return True
    if slack < 0 or len(vals) < 2 * bins or (key := (vals, bins)) in failed:
        return False
    if _complete(vals, slack + bins * target - vals[0], slack, [], bins, target, failed, 1, target - vals[0]):
        return True
    if len(failed) < _MEMO_LIMIT:
        failed.add(key)
    return False


def _complete(vals: tuple[int, ...], remain: int, slack: int, picked: list[int],
              bins: int, target: int, failed: set[tuple], i: int, need: int) -> bool:
    """Complete ``_decide``'s part holding ``vals[0]``, which still needs
    ``need``: add items from ``vals[i]`` on (those at ``picked`` are in it) in
    order until it reaches the target, each equal value once per depth.
    ``remain``, the sum of ``vals[i:]``, drops by each item passed, picked or
    skipped; a completed part's waste ``v - need`` leaves its child less slack."""
    prev = 0
    for j in range(i, len(vals)):
        if remain < need:
            return False
        v = vals[j]
        remain -= v
        if v == prev or v - need > slack:
            continue
        prev = v
        picked.append(j)
        if v < need:
            ok = _complete(vals, remain, slack, picked, bins, target, failed, j + 1, need - v)
        else:  # the items left: vals[1:] without the ascending picked ones
            left, start = (), 1
            for t in picked:
                left, start = left + vals[start:t], t + 1
            ok = _decide(left + vals[start:], bins - 1, target, failed, slack - v + need)
        picked.pop()
        if ok:
            return True
    return False


def mms_brute_force(valuation: Sequence[Fraction], n: int) -> MmsResult:
    """Exhaustive oracle: try every assignment of items to n labeled bundles.

    The only shortcut is pinning item 0 to bundle 0, which discards exact
    copies of each partition under bundle relabeling.  Limits: m <= 12,
    n <= 5.
    """
    if n < 1:
        raise InputError("need at least one bundle")
    m = len(valuation)
    if m > BRUTE_ITEM_CAP or n > BRUTE_BUNDLE_CAP:
        raise CapacityError(f"brute force capped at m<={BRUTE_ITEM_CAP}, n<={BRUTE_BUNDLE_CAP}")
    ints, den = scale_row(valuation)
    best: list = [0, -1, []]  # nodes, the best least load, its assignment
    _enumerate(0, n, ints, [0] * n, [0] * m, best)
    nodes, value, best_assign = best
    bundles: list[list[int]] = [[] for _ in range(n)]
    for g, j in enumerate(best_assign):
        bundles[j].append(g)
    witness = tuple(Bundle(tuple(b)) for b in bundles)
    return MmsResult(Fraction(value, den), witness, nodes=nodes)


def _enumerate(idx: int, n: int, ints: list[int], loads: list[int], assign: list[int], best: list) -> None:
    """Give items idx.. of ``ints`` every bundle in turn (item 0 only bundle 0),
    counting nodes in ``best[0]`` and keeping the first assignment with the
    greatest least load in ``best[1:]``."""
    best[0] += 1
    if idx == len(ints):
        mn = min(loads)
        if mn > best[1]:
            best[1], best[2] = mn, assign.copy()
        return
    for j in range(1) if idx == 0 else range(n):
        loads[j] += ints[idx]
        assign[idx] = j
        _enumerate(idx + 1, n, ints, loads, assign, best)
        loads[j] -= ints[idx]


def mms_exact(valuation: Sequence[Fraction], n: int) -> MmsResult:
    """Exact share of a rational row: ``mms_exact_scaled`` on its integer view."""
    return mms_exact_scaled(*scale_row(valuation), n)


def mms_exact_scaled(ints: Sequence[int], unit: int, n: int) -> MmsResult:
    """Exact share of the row worth ``ints[g] / unit`` at item g (nonnegative
    ints, as ``core.scale_row`` gives them): decide the optimum, then find its
    first split in branch order.

    The optimum lies between the LPT split's value and the top-j cap: the
    n - j bundles without any of the j largest items share the rest, so no
    split beats ``(total - top_j) // (n - j)``.  It is found by galloping down
    from the cap, then bisecting, with ``_covers`` deciding each target.  If
    LPT reaches it, the LPT split is the witness.  Otherwise a branch-and-
    bound runs once and stops at its first leaf worth the optimum.  Items are
    branched in non-increasing value order (ties by index); bundles with equal
    loads are interchangeable and only the first is tried.  The deficit bound
    prunes a node when the bundles below the optimum need more value, or more
    items, than remain; states are memoized by (depth, sorted load profile).
    The overshoot bound sharpens it: at a leaf worth opt all bundles end
    ``total - n * opt`` above the optimum.  A bundle d short ends at least
    (its least reachable sum >= d) - d above it, one past it by its excess,
    so a node whose least overshoots exceed that spare, or where no subset
    of the items left reaches some d, holds no such leaf.  ``reach[i]`` has
    the subset sums of the items from depth i as bits below ``opt + vals[0]``
    (a least sum >= d lies below d plus its subset's smallest item); it is
    built only when that width is at most ``_REACH_BITS``, and wider rows
    (huge common denominators) keep the deficit bound alone.
    The leaf found is the first optimal leaf in branch order, where a search
    from the LPT incumbent keeping each strictly better leaf also ends: no
    prune or memo hit cuts a subtree holding a leaf above its incumbent, so
    the bounds change ``nodes`` only, never the witness.  ``nodes``
    counts this search only (1 if it does not run), not the decision states.
    LPT runs on this function's item order and returns its loads.  No decision
    state sums its items: slack and remainder travel down ``_complete``.
    Every size takes this path: at m = 0 or n = 1 the LPT split meets the cap.
    Above the caps (m > DEFAULT_ITEM_CAP or n > DEFAULT_BUNDLE_CAP) it raises
    :class:`CapacityError`.
    """
    if n < 1:
        raise InputError("need at least one bundle")
    m = len(ints)
    if m > DEFAULT_ITEM_CAP or n > DEFAULT_BUNDLE_CAP:
        raise CapacityError(
            f"exact solver capped at m<={DEFAULT_ITEM_CAP}, n<={DEFAULT_BUNDLE_CAP} "
            f"(got m={m}, n={n})")
    order = sorted(range(m), key=ints.__getitem__, reverse=True)  # stable: ties by index
    mm = m - ints.count(0)
    items, zeros = order[:mm], order[mm:]  # the zeros come last, ascending
    suffix = [0] * (mm + 1)
    for i in range(mm - 1, -1, -1):
        suffix[i] = suffix[i + 1] + ints[items[i]]
    cap = min(suffix[j] // (n - j) for j in range(min(n, mm + 1)))

    # LPT split over the positive items in this order: the zeros, which come
    # last and add to no load, are re-attached at the end
    best_bundles, loads = _lpt(ints, items, n)
    lpt_value = min(loads)

    # gallop down from the cap, then bisect: a split worth opt exists and none
    # worth hi does (fractional rows scale to gaps of thousands of units)
    opt, hi, step = lpt_value, cap + 1, 1
    vals = tuple(map(ints.__getitem__, items))
    while hi - opt > 1:
        t = max(hi - step, opt + 1) if step else (opt + hi) // 2
        if _covers(vals, n, t, set()):
            opt, step = t, 0
        else:
            hi, step = t, 2 * step

    # reach[i]: the subset sums of items[i:] as bits below opt + vals[0]
    reach: list[int] = []
    if lpt_value < opt and opt + vals[0] <= _REACH_BITS:
        mask = (1 << (opt + vals[0])) - 1
        reach = [1] * (mm + 1)
        for i in range(mm - 1, -1, -1):
            reach[i] = (reach[i + 1] | reach[i + 1] << vals[i]) & mask
    current: list[list[int]] = [[] for _ in range(n)]
    count = [1]
    if lpt_value < opt and _search(0, opt, n, mm, items, ints, suffix, reach, [0] * n, current, set(), count):
        best_bundles = current

    bundles = [sorted(b) for b in best_bundles]
    bundles[0].extend(zeros)
    witness = tuple(Bundle(tuple(b)) for b in bundles)
    return MmsResult(Fraction(opt, unit), witness, nodes=count[0])


def _search(idx: int, opt: int, n: int, mm: int, items: list[int], ints: Sequence[int], suffix: list[int],
            reach: list[int], loads: list[int], current: list[list[int]], seen: set[tuple], count: list[int]) -> bool:
    """``mms_exact_scaled``'s witness search from depth idx: True at the first
    leaf worth opt, which stays in ``current``; nodes are counted in ``count[0]``."""
    count[0] += 1
    if idx == mm:
        return min(loads) >= opt
    short = [opt - x for x in loads if x < opt]
    if len(short) > mm - idx or sum(short) > suffix[idx]:
        return False
    if reach:
        # the overshoot bound: each short bundle takes at least its least
        # reachable sum >= d, and those sums must fit in what remains
        r, fill = reach[idx], 0
        for d in short:
            s = r >> d
            if not s:
                return False
            fill += d + (s & -s).bit_length() - 1
        if fill > suffix[idx]:
            return False
    order = sorted(range(n), key=loads.__getitem__)
    key = (idx, tuple(map(loads.__getitem__, order)))
    if key in seen:
        return False
    if len(seen) < _MEMO_LIMIT:
        seen.add(key)
    g = items[idx]
    v = ints[g]
    prev = -1
    for j in order:
        if loads[j] == prev:  # equal loads sit side by side in order
            continue
        prev = loads[j]
        loads[j] += v
        current[j].append(g)
        if _search(idx + 1, opt, n, mm, items, ints, suffix, reach, loads, current, seen, count):
            return True
        loads[j] -= v
        current[j].pop()
    return False

