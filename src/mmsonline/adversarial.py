"""Online allocation under adversarial type arrivals.

The allocator keeps, for every type, a collection of tentatively reserved
bundles each worth at least 1/k to that type (bundles may be shared across
types but never overlap in items).  An arriving agent takes her oldest
reserve when one exists; otherwise bags are grown from the unreserved pool
until some open type claims one (the arriving type, or one holding fewer
reserves than agents still to come), with unclaimed-by-the-agent bags
reserved for the claimants.  After every arrival each type's reserve list is
trimmed to the number of agents still to come.

A zero-share type sits out: it reserves nothing, never claims, is never
checked, and each of its agents gets the empty bundle at once.

All "arbitrary" choices of the procedure are pinned: FIFO reserve pick,
ascending-index bag filling, LIFO trimming, ascending type order when a bag
is reserved for several claimants.
``step_adversarial`` is the one per-arrival unit.  In a checked state a
failed check (pool purity, the reserved-bundle bound, the remaining-value
invariant) raises ``InvariantViolation``, and so does a dry pool, which the
invariant rules out (``PoolExhausted``).  An unchecked state (unknown-d's
learning stage) runs no checks, and on a dry pool gives ``None``, which
``core.finish_run`` turns into the empty bundle.
"""

from __future__ import annotations

import operator
from collections import Counter, deque
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import islice
from typing import Callable, Iterable

from .core import (
    Allocation,
    Bundle,
    EMPTY_BUNDLE,
    InputError,
    InvariantViolation,
    NormalizedInstance,
    PoolExhausted,
    ScaledRows,
    TrialReport,
    ValidationError,
    as_fraction,
    check_arrivals,
    check_items,
    fill_bag,
    finish_run,
    value,
)
from .exactpow import mul_sqrt_lt


@dataclass
class TentativeState:
    """Full mutable state of one online run.

    Every never-allocated item sits in exactly one place: in the unscanned
    pool tail ``pool[pool_pos:]`` (ascending), or in one reserved bundle,
    each counted in ``bundle_refs`` once per place it holds in the reserve
    queues.  Bags are cut from before the cursor, reserved bundles never
    overlap, and a served bundle leaves every queue, so no item set is kept
    beside them.  A trimmed bundle that loses its last queue place is merged
    back into the tail (``_merge_into_pool``), the one place the pool is
    replaced and its purity ``marks`` are reset.

    Every type claims at the ``threshold`` given to ``create``, and ``scale =
    k * threshold`` is the share unit of the checks; on a normalized instance
    these are 1/k and 1.  ``claim``, ``bound`` and ``remaining_value`` are the
    threshold, the scale and the unspent value in units of each L_i.  The
    ``zero_types`` sit out: no reserve, never open, never checked.  A
    ``checked`` state checks every other type (``step_adversarial``).
    """

    view: ScaledRows
    n: int
    k: int
    scale: Fraction
    claim: list[int]
    bound: list[int]
    reserves: list[deque[Bundle]]
    remaining_value: list[int]
    zero_types: frozenset[int] = frozenset()
    checked: bool = True
    arrived: int = 0
    pool: list[int] = field(default_factory=list)
    pool_pos: int = 0
    marks: dict[int, int] = field(default_factory=dict)
    bundle_refs: Counter[Bundle] = field(default_factory=Counter)
    trace: list[dict] | None = None

    # -- construction -----------------------------------------------------

    @classmethod
    def create(
        cls,
        view: ScaledRows,
        items: Iterable[int],
        n: int,
        *,
        threshold: Fraction | None = None,
        zero_types: frozenset[int] = frozenset(),
        checked: bool = True,
        trace: bool = False,
    ) -> "TentativeState":
        """Preprocessing: reserve up to n high-valued singletons per type.

        Scanning types in ascending order and items in ascending order, every
        item worth at least the type's claim threshold becomes a singleton
        reserve of that type (the same singleton may serve several types),
        until the type holds n of them; a type whose maximum is below its
        threshold, or one of the ``zero_types``, has none, and its scan is
        skipped.  Only the given items are read; each must be an item id of
        the view.
        """
        k = len(view.ints)
        item_list = check_items(items, len(view.ints[0]))
        threshold = Fraction(1, k) if threshold is None else as_fraction(threshold)
        claim = view.at_least(threshold)

        singletons: dict[int, Bundle] = {}
        reserves: list[deque[Bundle]] = [deque() for _ in range(k)]
        for i, row in enumerate(view.ints):
            scan = view.maxima[i] >= claim[i] and i not in zero_types
            high = (g for g in item_list if row[g] >= claim[i]) if scan else ()
            reserves[i].extend(singletons.setdefault(g, Bundle.from_sorted((g,))) for g in islice(high, n))
        refs = Counter(b for dq in reserves for b in dq)
        reserved = {g for b in refs for g in b}

        state = cls(
            view=view,
            n=n,
            k=k,
            scale=k * threshold,
            claim=claim,
            bound=view.at_most(k * threshold),
            reserves=reserves,
            remaining_value=[view.total(i, item_list) for i in range(k)],
            zero_types=zero_types,
            checked=checked,
            pool=[g for g in item_list if g not in reserved] if reserved else item_list,
            bundle_refs=refs,
            trace=[] if trace else None,
        )
        if trace:
            state.trace.append({
                "event": "preprocess",
                "reserveSizes": [len(dq) for dq in reserves],
                "unsaturated": state.open_types(0),
            })
        if checked:
            state._check_pool_purity(current_t=0)
        return state

    # -- bookkeeping helpers ----------------------------------------------

    def remaining_worth(self) -> list[Fraction]:
        """Each type's value of the never-allocated items, as rationals."""
        return [Fraction(x, unit) for x, unit in zip(self.remaining_value, self.view.units)]

    def open_types(self, current_t: int, arriving: int | None = None) -> list[int]:
        """Ascending, the types that may claim a bag while agent ``current_t``
        is served: those with fewer reserves than the ``n - current_t`` agents
        still to come, and ``arriving``, but never a zero-share type."""
        left, zero = self.n - current_t, self.zero_types
        return [j for j, dq in enumerate(self.reserves) if (len(dq) < left or j == arriving) and j not in zero]

    def _merge_into_pool(self, released: list[int]) -> None:
        # a new pool list: each purity mark, a position in the old one, is redone
        self.pool = sorted(self.pool[self.pool_pos:] + released)
        self.pool_pos = 0
        self.marks = {}

    def _allocate(self, bundle: Bundle) -> None:
        for j in range(self.k):
            self.remaining_value[j] -= self.view.total(j, bundle)

    # -- checks (run by a checked state on the types that do not sit out) ---

    def _check_pool_purity(self, current_t: int) -> None:
        """Raise if an open type values an unscanned pool item at its
        claim.  Only types whose mark, the last pool position of such an item
        (kept until the pool is replaced), is not behind the cursor scan; a
        type whose maximum is below its claim is marked -1 with no scan."""
        rows, claim, pool, marks = self.view.ints, self.claim, self.pool, self.marks
        open_types = self.open_types(current_t)
        for j in open_types:
            if j not in marks:
                marks[j] = -1 if self.view.maxima[j] < claim[j] else next(
                    (p for p in reversed(range(len(pool))) if rows[j][pool[p]] >= claim[j]), -1)
        hot = [j for j in open_types if marks[j] >= self.pool_pos]
        for g in pool[self.pool_pos:] if hot else ():
            for j in hot:
                if rows[j][g] >= claim[j]:
                    raise InvariantViolation(f"pool purity: item {g} worth "
                                             f"{Fraction(rows[j][g], self.view.units[j])} to open type {j}")

    def _check_reserved_bound(self, bagvals: list[int], current_t: int) -> None:
        for j in self.open_types(current_t):
            if bagvals[j] > self.bound[j]:
                raise InvariantViolation(f"reserved bundle worth {Fraction(bagvals[j], self.view.units[j])} "
                                         f"> {self.scale} to open type {j}")

    def _check_invariant(self) -> None:
        left = self.n - self.arrived
        a, b = self.scale.numerator, self.scale.denominator
        for j in self.open_types(self.arrived):
            # an open type, short of reserves after the trim, still holds left * scale of value
            if self.remaining_value[j] * b < left * a * self.view.units[j]:
                raise InvariantViolation(
                    f"invariant: type {j} has {len(self.reserves[j])} reserves and remaining "
                    f"value {Fraction(self.remaining_value[j], self.view.units[j])} with {left} agents left")
        if self.trace is not None:  # "ok" is always true: a failed check raised above
            self.trace.append({"event": "invariantCheck", "agentsLeft": left, "ok": True,
                               "reserveSizes": [len(dq) for dq in self.reserves],
                               "remainingValue": [str(v) for v in self.remaining_worth()]})


def preprocess(norm: NormalizedInstance, *, trace: bool = False) -> TentativeState:
    """High-valued-item preprocessing on a normalized instance, at claim
    level 1/k, with its zero-share types sitting out; the state is checked."""
    return TentativeState.create(norm.scaled, range(norm.m_items), norm.n_agents,
                                 zero_types=norm.zero_mms_types, trace=trace)


def step_adversarial(state: TentativeState, arrived_type: int) -> Bundle | None:
    """Serve one arriving agent of the given type; returns her bundle.

    An agent of a zero-share type gets the empty bundle at once, without
    filling.  A checked state raises :class:`InvariantViolation` on a failed
    check, and :class:`PoolExhausted` if bag filling runs dry before any open
    type (``TentativeState.open_types``) claims a bag, which its invariant
    rules out.  An unchecked one then counts the agent as arrived and
    returns ``None`` at once, with no trimming.
    """
    if state.arrived >= state.n:
        raise InputError("all agents already arrived")
    try:
        i = operator.index(arrived_type)
    except TypeError as exc:
        raise InputError(f"type ids must be integers: {exc}") from exc
    if not 0 <= i < state.k:
        raise InputError(f"type id {i} out of range")
    t = state.arrived + 1
    allocated: Bundle

    if i in state.zero_types:
        event, allocated = "serveZeroShare", EMPTY_BUNDLE
    elif state.reserves[i]:
        event, allocated = "serveReserve", state.reserves[i][0]
        for j in range(state.k):
            state.reserves[j] = deque(b for b in state.reserves[j] if b != allocated)
        del state.bundle_refs[allocated]
    else:
        event = "serveBag"
        while True:
            filled = fill_bag(state.view.ints, state.claim, state.pool, state.pool_pos,
                              state.open_types(t, i))
            if filled is None:
                if state.checked:
                    raise PoolExhausted(
                        f"agent {t} of type {i}: pool exhausted before any claim")
                state.arrived = t
                return None
            bag, bagvals, claimants, state.pool_pos = filled
            if bagvals[i] >= state.claim[i]:
                allocated = Bundle.from_sorted(bag)
                break
            bundle = Bundle.from_sorted(bag)
            state.bundle_refs[bundle] += len(claimants)
            for j in claimants:
                state.reserves[j].append(bundle)
            if state.trace is not None:
                state.trace.append({"event": "reserve", "agent": t, "for": claimants,
                                    "items": list(bundle),
                                    "reserveSizes": [len(dq) for dq in state.reserves],
                                    "unsaturated": state.open_types(t, i)})
            if state.checked:
                state._check_pool_purity(current_t=t)
                state._check_reserved_bound(bagvals, current_t=t)
    state._allocate(allocated)
    if state.trace is not None:
        state.trace.append({"event": event, "agent": t, "type": i, "items": list(allocated),
                            "reserveSizes": [len(dq) for dq in state.reserves],
                            "remaining": len(state.pool) - state.pool_pos + sum(map(len, state.bundle_refs))})

    state.arrived = t
    released: list[int] = []
    for j in range(state.k):
        while len(state.reserves[j]) > state.n - t:
            dropped = state.reserves[j].pop()  # most recently added
            state.bundle_refs[dropped] -= 1
            if not state.bundle_refs[dropped]:
                del state.bundle_refs[dropped]
                released.extend(dropped)
            if state.trace is not None:
                state.trace.append({"event": "release", "type": j, "items": list(dropped)})
    if released:
        state._merge_into_pool(released)
    if state.checked:
        state._check_invariant()
    return allocated


def run_adversarial(
    norm: NormalizedInstance,
    arrivals: Iterable[int],
    *,
    alpha: Fraction | None = None,
    trace: bool = False,
) -> tuple[Allocation, TrialReport]:
    """Run the full online allocation for one arrival sequence.

    Every agent of a positive-share type is guaranteed a bundle worth at
    least 1/k of her (normalized) share, and every agent of a zero-share
    type gets the empty bundle; the report's success verdict is taken at
    ``alpha`` in (0, 1] (default 1/k).  A failed check raises.  At k = 1
    agent t gets the share partition's bundle t, worth one share, and traces
    no step.
    """
    k = norm.k_types
    seq = check_arrivals(arrivals, norm.n_agents, k)
    alpha = as_fraction(alpha) if alpha is not None else Fraction(1, k)
    if not 0 < alpha <= 1:
        raise InputError("alpha must lie in (0, 1]")
    if k == 1:  # the one type's share partition is an exact 1-MMS allocation
        return finish_run(norm, seq, norm.witness_partitions[0], alpha, flags=["k1Degenerate"],
                          trace=[] if trace else None)
    state = preprocess(norm, trace=trace)
    bundles = [step_adversarial(state, t) for t in seq]
    return finish_run(norm, seq, bundles, alpha, trace=state.trace)


# -- the adaptive lower-bound adversary ------------------------------------


def tentative_policy(construction) -> Callable[[int], Bundle]:
    """The reservation allocator itself as an online policy for the
    lower-bound game (run on the construction's normalized view)."""
    norm = construction.normalized()
    state = preprocess(norm)
    return lambda type_id: step_adversarial(state, type_id)


def greedy_policy(construction) -> Callable[[int], Bundle]:
    """Baseline that grabs the best available items up to the arriving
    type's full share."""
    rows = construction.instance.type_values
    available = set(range(construction.instance.m_items))

    def serve(type_id: int) -> Bundle:
        vals = rows[type_id]
        target = construction.declared_mms[type_id]
        picked: list[int] = []
        total = Fraction(0)
        for g in sorted(available, key=lambda g: (-vals[g], g)):
            if total >= target or vals[g] == 0:
                break
            picked.append(g)
            total += vals[g]
        available.difference_update(picked)
        return Bundle(tuple(picked))

    return serve


def adaptive_lower_bound_adversary(
    k: int,
    n: int,
    policy_factory: Callable[[object], Callable[[int], Bundle]],
) -> TrialReport:
    """Play the binary hard instance against any online policy.

    The first agent is the type that values everything.  If her bundle holds
    two items of one block of n consecutive items, all remaining agents are
    of the type valuing exactly that block; if it holds items of two blocks,
    they are of the half-block pair type covering both; with at most one item
    her own ratio is already at most 1/floor(sqrt(k)/2).  Ratios are measured
    against the construction's true (unnormalized) shares.
    """
    from .generators import gen_lower_bound

    cons = gen_lower_bound(k, n)
    serve = policy_factory(cons)
    inst = cons.instance
    taken: dict[int, int] = {}
    entries: list[tuple[int, Bundle]] = []

    def receive(type_id: int) -> Bundle:
        b = serve(type_id)
        for g in b:
            if g >= inst.m_items:
                raise ValidationError(f"policy returned unknown item {g}")
            if g in taken:
                raise ValidationError(
                    f"policy reused item {g} (agents {taken[g]} and {len(entries)})")
            taken[g] = len(entries)
        entries.append((type_id, b))
        return b

    first = receive(0)
    by_interval: dict[int, list[int]] = {}
    for g in first:
        by_interval.setdefault(cons.interval_of(g), []).append(g)
    doubled = sorted(r for r, gs in by_interval.items() if len(gs) >= 2)
    if doubled:
        branch = "sameInterval"
        punished = cons.interval_types[doubled[0]]
    elif len(by_interval) >= 2:
        branch = "twoIntervals"
        l, r = sorted(by_interval)[:2]
        punished = cons.pair_types[(l, r, cons.half_of(min(by_interval[l])),
                                    cons.half_of(min(by_interval[r])))]
    else:
        branch = "tinyFirstBundle"
        punished = 0  # nothing to punish; the first agent is already capped
    for _ in range(n - 1):
        receive(punished)

    rows = inst.type_values
    ratios = [value(rows[ti], b) / cons.declared_mms[ti] for ti, b in entries]
    min_ratio = min(ratios)
    details = {
        "mu1": cons.mu1,
        "branch": branch,
        "punishedType": punished,
        "belowSqrtBound": below_sqrt_bound(min_ratio, k),
    }
    return TrialReport.build(ratios, Fraction(1, cons.mu1), details=details)


def below_sqrt_bound(min_ratio: Fraction, k: int) -> bool:
    """Exactly decide ``min_ratio < 2 / (sqrt(k) - 2)`` for k > 4."""
    if k <= 4:
        raise InputError("bound needs k > 4")
    # min_ratio * (sqrt(k) - 2) < 2  <=>  min_ratio * sqrt(k) < 2 + 2*min_ratio
    return mul_sqrt_lt(min_ratio, k, 2 + 2 * as_fraction(min_ratio))
