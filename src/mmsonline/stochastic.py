"""Known-distribution online allocation.

Dispatch on the number of universally high-valued items C (worth >= alpha to
every type).  With many of them, the most frequent type's share partition,
which the instance carries (no solver call), is cut to the served items and
rearranged so every kept bundle carries exactly one C item and the C-free
bundles are reserved for that type.  Otherwise C is handed out as singletons
and the reduced instance runs the saturation pipeline: per-type reservation
caps ``M_i = floor(mu_i + n'^eps * sqrt(mu_i))`` (mu_i = n' p_i), singleton
reservation of each type's high-valued items in a computed order, then bag
filling until every type is saturated, with arrivals simply draining their
type's reserve queue.

Type indices inside this module are ranks in the probability-sorted order;
``known_d_engine`` translates its original-id arrivals into them.
"""

from __future__ import annotations

import operator
from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from itertools import islice
from typing import Iterable, Sequence

from .core import (
    Allocation,
    Bundle,
    InputError,
    InvariantViolation,
    NormalizedInstance,
    ScaledRows,
    TrialReport,
    TypeDistribution,
    as_fraction,
    check_arrivals,
    check_items,
    finish_run,
)
from .exactpow import floor_plus_pow_sqrt, pow_sqrt_le, pow_sqrt_sum_ge


def claim_level(alpha, eta) -> Fraction:
    """The run's claim level from exactly one of ``alpha`` and a prediction
    error eta >= 0, which sets it to 1/(2(1+eta))."""
    if (alpha is None) == (eta is None):
        raise InputError("give exactly one of alpha and eta")
    if alpha is not None:
        return as_fraction(alpha)
    if as_fraction(eta) < 0:
        raise InputError("eta must be nonnegative")
    return Fraction(1, 2 * (1 + as_fraction(eta)))


def reservation_cap(nprime: int, p: Fraction, epsilon: Fraction) -> int:
    """M = floor(n'p + n'^eps * sqrt(n'p)), computed exactly."""
    mu = nprime * as_fraction(p)
    return floor_plus_pow_sqrt(mu, nprime, as_fraction(epsilon), mu)


def universal_items(view: ScaledRows, items: Iterable[int], alpha: Fraction) -> list[int]:
    """The items worth at least alpha to every type of ``view``, ascending;
    none, with no item read, when some type's maximum is below alpha."""
    levels = view.at_least(as_fraction(alpha))
    if any(map(operator.lt, view.maxima, levels)):
        return []
    out = sorted(items)
    for row, level in zip(view.ints, levels):
        out = [g for g in out if row[g] >= level]
    return out


def high_c_condition(c_size: int, n: int, k: int, p1: Fraction, epsilon: Fraction) -> bool:
    """|C| >= n(1 - 1/k) + n^eps * sqrt(n p1), decided exactly."""
    slack = Fraction(c_size) - n * (1 - Fraction(1, k))
    return pow_sqrt_le(n, as_fraction(epsilon), n * as_fraction(p1), slack)


# -- saturation pipeline (no universally high-valued items) -------------------


@dataclass
class LowCState:
    """Preprocessing output: exclusive per-type reserve queues and the reached
    saturation status."""

    high_sets: list[list[int]]          # T_i, ascending item ids
    reserves: list[deque[Bundle]]       # G_i, disjoint across types
    caps: list[int]                     # M_i
    singleton_counts: list[int]         # reserved during the turn phase
    order: list[int]                    # the turn ordering L
    unsaturated: set[int]
    bag_count: int = 0

    @property
    def all_saturated(self) -> bool:
        return not self.unsaturated


def preprocess_low_c(
    view: ScaledRows,
    items: Iterable[int],
    nprime: int,
    probs: Sequence[Fraction],
    alpha: Fraction,
    epsilon: Fraction,
) -> LowCState:
    """Reserve high-valued singletons in turn order, then bag-fill.

    Ordering: the first pair (i, j), scanned lexicographically, whose
    high-value sets satisfy |T_i \\ T_j| >= n' p_i / 2 puts i first and j
    last; otherwise the least-frequent type goes last.  During its turn a
    type reserves available high-valued items as singletons, preferring
    items the last type does not value highly, until it holds M_i bundles
    or runs out.  Bag filling then grows bags from the remainder in
    ascending item order until some unsaturated type claims (>= alpha),
    giving each bag to the lowest-ranked unsaturated claimant.  It is one
    pass over the remainder: each open type's (rank, row, claim) is bound
    once, each item is added to the open types' running sums in rank order,
    and the bag closes at the first type whose sum reaches its claim, so
    the types after it are not summed for that item.

    An unsaturated outcome is a legal, reported state, not an error; a
    failed audit of the open types raises ``InvariantViolation``.
    """
    alpha = as_fraction(alpha)
    epsilon = as_fraction(epsilon)
    k = len(view.ints)
    probs = tuple(as_fraction(p) for p in probs)
    if len(probs) != k:
        raise InputError("probs length mismatch")
    item_list = check_items(items, len(view.ints[0]))

    rows, claim = view.ints, view.at_least(alpha)
    high_sets = [[g for g in item_list if row[g] >= level] if top >= level else []
                 for row, level, top in zip(rows, claim, view.maxima)]
    high_lookup = [set(t) for t in high_sets]
    caps = [reservation_cap(nprime, p, epsilon) for p in probs]

    pair = next(((i, j) for i in range(k) for j in range(k)
                 if i != j and 2 * len(high_lookup[i] - high_lookup[j]) >= nprime * probs[i]), None)
    # without a qualifying pair the least frequent type, the last rank, goes last
    order = list(range(k)) if pair is None else [pair[0], *(x for x in range(k) if x not in pair), pair[1]]

    reserves: list[deque[Bundle]] = [deque() for _ in range(k)]
    singleton_counts = [0] * k
    unsaturated = set(range(k))
    taken: set[int] = set()
    for i in order:
        # one walk: items the last type does not value highly first, each
        # group ascending (a stable sort on a boolean key)
        ranked = sorted(high_sets[i], key=high_lookup[order[-1]].__contains__)
        picks = list(islice((g for g in ranked if g not in taken), caps[i]))
        reserves[i].extend(Bundle.from_sorted((g,)) for g in picks)
        singleton_counts[i] = len(picks)
        taken.update(picks)
        if len(picks) == caps[i]:
            unsaturated.discard(i)

    # whoever is still open cannot hold too many high-valued items overall
    opened = sorted(unsaturated)  # ascending
    pk = probs[-1]
    mus = [nprime * p for p in probs]
    for i in opened:
        slack = Fraction(len(high_sets[i])) - nprime * (1 - pk / 2)
        if not pow_sqrt_sum_ge(nprime, epsilon, mus, slack):
            raise InvariantViolation(f"open type {i} holds {len(high_sets[i])} high-valued items")

    # bag filling, in units of each type's L_i.  An open type took every high
    # item left in its turn, so each scanned item is worth under its claim
    # c = ceil(alpha L) to it, and a bag stops once some open type reaches its
    # claim: no open type's bag is worth over 2c - 2 <= floor(2 alpha L)
    scan = [g for g in item_list if g not in taken] if taken else item_list
    cols = [(j, rows[j], claim[j]) for j in opened]  # the open types' (rank, row, claim), ascending
    sums, start, bag_count = [0] * k, 0, 0
    for pos, g in enumerate(scan if cols else (), 1):
        for j, row, c in cols:
            sums[j] += row[g]
            if sums[j] >= c:
                break  # j is the first claimant in rank order
        else:
            continue
        reserves[j].append(Bundle.from_sorted(scan[start:pos]))
        sums, start, bag_count = [0] * k, pos, bag_count + 1
        if len(reserves[j]) == caps[j]:
            cols = [col for col in cols if col[0] != j]
            if not cols:
                break
    # a scan that runs out mid-bag leaves those items unallocated

    return LowCState(high_sets=high_sets, reserves=reserves, caps=caps, singleton_counts=singleton_counts,
                     order=order, unsaturated={j for j, _, _ in cols}, bag_count=bag_count)


def run_low_c(state: LowCState, arrival_ranks: Sequence[int]) -> list[Bundle | None]:
    """Drain reserve queues; ``None`` marks an agent whose queue was empty."""
    out: list[Bundle | None] = []
    for rank in arrival_ranks:
        if state.reserves[rank]:
            out.append(state.reserves[rank].popleft())
        else:
            out.append(None)
    return out


def low_c_info(state: LowCState, arrival_ranks: Sequence[int]) -> dict:
    """Report view of a saturation run: the reserve caps against the arrival
    counts per rank and the saturation outcome; ``violations`` stays empty,
    since a failed audit raises."""
    counts = [arrival_ranks.count(rank) for rank in range(len(state.caps))]
    return {
        "caps": list(state.caps),
        "counts": counts,
        "countsWithinCaps": all(c <= cap for c, cap in zip(counts, state.caps)),
        "allSaturated": state.all_saturated,
        "unsaturated": sorted(state.unsaturated),
        "violations": [],
    }


# -- abundant universally high-valued items -----------------------------------


def run_high_c(
    partition: Sequence[Bundle],
    c_items: Sequence[int],
    arrival_ranks: Sequence[int],
) -> tuple[list[Bundle | None], dict]:
    """Route everyone through one rearranged share partition of rank 0's
    values over the served items.

    The partition is adjusted so each kept bundle carries exactly one
    universally high-valued item (extra ones split into fresh singletons);
    bundles with none are moved to a reserve only rank-0 agents may draw,
    capped at n - |C| for n arrivals.  Rank-0 agents drain that reserve
    first; everyone else, and rank-0 afterwards, draws from the main queue.
    """
    c_set = set(c_items)
    main: deque[Bundle] = deque()
    reserve0: deque[Bundle] = deque()
    for bundle in partition:
        cs = [g for g in bundle if g in c_set]
        if not cs:
            if len(reserve0) < len(arrival_ranks) - len(c_items):
                reserve0.append(bundle)
        else:
            main.append(Bundle(tuple(g for g in bundle if g not in cs[1:])))
            for g in cs[1:]:
                main.append(Bundle((g,)))
    info = {"branch": "highC", "mainBundles": len(c_items), "reserve0": len(reserve0)}

    out: list[Bundle | None] = []
    for rank in arrival_ranks:
        if rank == 0 and reserve0:
            out.append(reserve0.popleft())
        elif main:
            out.append(main.popleft())
        else:
            out.append(None)
    return out, info


# -- dispatch ------------------------------------------------------------------


def to_rank_space(norm: NormalizedInstance, dist: TypeDistribution, arrivals: Sequence[int]):
    """The scaled type rows in ``dist.order`` (shared, not copied) and the
    arrivals as ranks in that order."""
    rank = {t: r for r, t in enumerate(dist.order)}  # the inverse of dist.order
    return norm.scaled.reordered(dist.order), list(map(rank.__getitem__, arrivals))


def known_d_engine(
    norm: NormalizedInstance,
    law: TypeDistribution,
    items: Sequence[int],
    alpha: Fraction,
    epsilon: Fraction,
    arrivals: Sequence[int],
) -> tuple[list[Bundle | None], dict]:
    """Dispatch between the two regimes, one agent per arrival; returns
    per-agent bundles (None for a dry reserve) plus run metadata.

    Arrivals are original type ids; the engine works in ``law``'s rank space
    (see ``to_rank_space``), and the high-C regime routes everyone through
    the most probable type's share partition of all the instance's items.
    """
    alpha = as_fraction(alpha)
    view, arrival_ranks = to_rank_space(norm, law, arrivals)
    n_agents = len(arrival_ranks)
    c_items = universal_items(view, items, alpha)
    if high_c_condition(len(c_items), n_agents, norm.k_types, law.probs[0], epsilon):
        # the bundles within the served items are each worth a full share; the
        # served leftovers of the others join the first of them
        partition = norm.witness_partitions[law.order[0]]
        served = set(items)
        kept = [b for b in partition if served.issuperset(b)]
        cut = [g for b in partition if not served.issuperset(b) for g in b if g in served]
        kept[0] = Bundle(kept[0] + tuple(cut))
        return run_high_c(kept, c_items, arrival_ranks)

    served = min(len(c_items), n_agents)
    out: list[Bundle | None] = [Bundle.from_sorted((c_items[t],)) for t in range(served)]
    info: dict = {"branch": "allC" if served == n_agents else "lowC", "universal": len(c_items)}
    if served < n_agents:
        c_set = set(c_items)
        rest_items = [g for g in items if g not in c_set]
        state = preprocess_low_c(
            view, rest_items, n_agents - served, law.probs, alpha, epsilon)
        rest_ranks = arrival_ranks[served:]
        out.extend(run_low_c(state, rest_ranks))
        info.update(low_c_info(state, rest_ranks),
                    ordering=list(state.order), singletons=list(state.singleton_counts),
                    bags=state.bag_count)
    return out, info


def run_known_d(
    norm: NormalizedInstance,
    dist: TypeDistribution,
    arrivals: Sequence[int],
    *,
    alpha: Fraction | None = None,
    eta: Fraction | None = None,
    epsilon: Fraction,
) -> tuple[Allocation, TrialReport]:
    """Full run on a normalized instance with original-id arrivals, at claim
    level alpha in (0, 1] and concentration exponent epsilon in (0, 1/2)."""
    alpha, epsilon = claim_level(alpha, eta), as_fraction(epsilon)
    if not 0 < alpha <= 1:
        raise InputError("alpha must lie in (0, 1]")
    if not 0 < epsilon < Fraction(1, 2):
        raise InputError("epsilon must lie in (0, 1/2)")
    if dist.k != norm.k_types:
        raise InputError("distribution arity mismatch")
    seq = check_arrivals(arrivals, norm.n_agents, norm.k_types)
    bundles, info = known_d_engine(norm, dist, range(norm.m_items), alpha, epsilon, seq)
    return finish_run(norm, seq, bundles, alpha, details=info)
