"""Exact maximin-share solver.

``mms_exact`` is a branch-and-bound over item-to-bundle assignments with
symmetry breaking, a longest-processing-time (LPT) incumbent, and the bundle
deficit bound and top-j cap of machine covering (P||C_min).
``mms_brute_force`` is the independent oracle: plain exhaustive enumeration,
kept free of any pruning the solver uses.

Values are scaled to integers by the common denominator
(``core.scale_row``) before searching; that is still exact arithmetic, just
faster than Fraction in the hot loop.
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


def lpt_partition(ints: Sequence[int], n: int) -> list[list[int]]:
    """Greedy longest-processing-time split of a row scaled to integers
    (``core.scale_row``) into n bundles (item ids)."""
    if n < 1:
        raise InputError("need at least one bundle")
    order = sorted(range(len(ints)), key=lambda g: (-ints[g], g))
    loads = [0] * n
    bundles: list[list[int]] = [[] for _ in range(n)]
    for g in order:
        j = min(range(n), key=lambda j: (loads[j], j))
        loads[j] += ints[g]
        bundles[j].append(g)
    return bundles


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
    if m == 0:
        return MmsResult(Fraction(0), tuple(Bundle(()) for _ in range(n)), nodes=1)

    loads = [0] * n
    assign = [0] * m
    best = -1
    best_assign: list[int] = []
    nodes = 0

    def rec(idx: int) -> None:
        nonlocal best, best_assign, nodes
        nodes += 1
        if idx == m:
            mn = min(loads)
            if mn > best:
                best = mn
                best_assign = assign.copy()
            return
        choices = range(1) if idx == 0 else range(n)
        for j in choices:
            loads[j] += ints[idx]
            assign[idx] = j
            rec(idx + 1)
            loads[j] -= ints[idx]

    rec(0)
    bundles: list[list[int]] = [[] for _ in range(n)]
    for g, j in enumerate(best_assign):
        bundles[j].append(g)
    witness = tuple(Bundle(tuple(b)) for b in bundles)
    return MmsResult(Fraction(best, den), witness, nodes=nodes)


def mms_exact(valuation: Sequence[Fraction], n: int) -> MmsResult:
    """Exact share via branch-and-bound.

    Items are branched in non-increasing value order (ties by index); bundles
    with equal current loads are interchangeable and only the first is tried.
    The incumbent starts from the LPT split and only a strictly better leaf
    replaces it.  The deficit bound prunes a node when the bundles below
    ``best + 1`` need more value, or more items, than remain.  The top-j cap
    ends the search: the n - j bundles without any of the j largest items
    share the rest, so no split beats ``(total - top_j) // (n - j)``.  States
    are memoized by (depth, sorted load profile).  So the witness is the LPT
    split when LPT is optimal, else the first optimal leaf in branch order:
    every prune depends only on (depth, load multiset, incumbent) and cuts
    only subtrees with no leaf above the incumbent, which that leaf is until
    it is found.  Above the caps (m > DEFAULT_ITEM_CAP or
    n > DEFAULT_BUNDLE_CAP) it raises :class:`CapacityError`.
    """
    if n < 1:
        raise InputError("need at least one bundle")
    m = len(valuation)
    if m > DEFAULT_ITEM_CAP or n > DEFAULT_BUNDLE_CAP:
        raise CapacityError(
            f"exact solver capped at m<={DEFAULT_ITEM_CAP}, n<={DEFAULT_BUNDLE_CAP} "
            f"(got m={m}, n={n})")
    ints, den = scale_row(valuation)
    if m == 0:
        return MmsResult(Fraction(0), tuple(Bundle(()) for _ in range(n)), nodes=1)
    if n == 1:
        return MmsResult(Fraction(sum(ints), den), (Bundle(tuple(range(m))),), nodes=1)

    items = sorted((g for g in range(m) if ints[g] > 0), key=lambda g: (-ints[g], g))
    zeros = [g for g in range(m) if ints[g] == 0]
    mm = len(items)
    suffix = [0] * (mm + 1)
    for i in range(mm - 1, -1, -1):
        suffix[i] = suffix[i + 1] + ints[items[i]]
    ub_global = min(suffix[j] // (n - j) for j in range(min(n, mm + 1)))

    # LPT incumbent (zero-valued items stripped; they are re-attached at the end)
    lpt = lpt_partition(ints, n)
    best = min(sum(ints[g] for g in b) for b in lpt)
    best_bundles = [[g for g in b if ints[g] > 0] for b in lpt]
    nodes = 1

    loads = [0] * n
    current: list[list[int]] = [[] for _ in range(n)]
    seen: set[tuple] = set()

    class _Done(Exception):
        pass

    def rec(idx: int) -> None:
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
        short = [best + 1 - x for x in loads if x <= best]
        if len(short) > mm - idx or sum(short) > suffix[idx]:
            return
        order = sorted(range(n), key=loads.__getitem__)
        key = (idx, tuple([loads[j] for j in order]))
        if key in seen:
            return
        if len(seen) < _MEMO_LIMIT:
            seen.add(key)
        g = items[idx]
        v = ints[g]
        tried: set[int] = set()
        for j in order:
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
    witness = tuple(Bundle(tuple(b)) for b in bundles)
    return MmsResult(Fraction(best, den), witness, nodes=nodes)

