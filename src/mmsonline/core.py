"""Exact-arithmetic data model: instances, bundles, allocations, type
distributions, normalization, and ex-post verification.

Valuations are ``fractions.Fraction`` at the API and in reports.  An
:class:`Instance` holds them once, as the :class:`ScaledRows` view of every
type's row over its own unit L_i (the lcm of the row's denominators), and
derives the rational rows from it on demand; the allocators read the ints,
so a claim level is one integer compare and a bag value an int sum.
Floats are confined to statistics aggregation in the harness.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field, fields
from enum import Enum
from fractions import Fraction
from functools import cached_property
from itertools import chain, starmap
from typing import Callable, Iterable, Sequence


class MmsOnlineError(Exception):
    """Base class for library errors."""


class InputError(MmsOnlineError, ValueError):
    """Malformed or out-of-contract input."""


class ValidationError(InputError):
    """A produced object breaks a structural contract (e.g. overlapping bundles)."""


class CapacityError(MmsOnlineError):
    """Instance too large for the exact solver configuration."""


class InvariantViolation(MmsOnlineError):
    """A run broke an invariant that the algorithms are proven to maintain."""


class PoolExhausted(InvariantViolation):
    """Bag filling ran out of items before any eligible type claimed a bag."""


def as_fraction(x) -> Fraction:
    """Exact rational from an int, Fraction or ``"num/den"`` string; anything
    else (floats, None, malformed strings, an empty side of the slash, zero
    denominators) is an input error."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, float):
        raise InputError(f"refusing float value {x!r}; pass int, Fraction or 'num/den' string")
    try:
        if isinstance(x, str):
            num, slash, den = x.partition("/")  # an empty side fails int()
            return Fraction(int(num), int(den)) if slash else Fraction(int(num))
        return Fraction(x)
    except (TypeError, ValueError, ZeroDivisionError) as exc:
        raise InputError(f"bad rational {x!r}") from exc


class Bundle(tuple):
    """An immutable set of item indices: the tuple of its ids, strictly
    ascending, so building, hashing, comparing and scanning run as tuple
    code.  A bundle equals, and hashes like, the plain tuple of the same ids;
    slicing it or adding to it gives a plain tuple."""

    __slots__ = ()

    def __new__(cls, items: Iterable[int] = ()) -> "Bundle":
        try:
            norm = sorted(set(map(operator.index, items)))
        except TypeError as exc:
            raise InputError(f"item indices must be integers, got {items!r}") from exc
        if norm and norm[0] < 0:
            raise InputError("negative item index")
        return tuple.__new__(cls, norm)

    # Trusted constructor ``Bundle.from_sorted(items)``, no check and no sort: the caller
    # guarantees strictly increasing non-negative int items.  It is ``tuple.__new__``
    # itself, so building a bundle runs no Python frame.
    from_sorted = classmethod(tuple.__new__)

    def __repr__(self) -> str:
        return f"Bundle(items={tuple(self)!r})"


EMPTY_BUNDLE = Bundle(())

Valuation = tuple[Fraction, ...]


def value(valuation: Sequence[Fraction], bundle: Bundle) -> Fraction:
    """Additive value of a bundle; the empty bundle is worth 0."""
    total = Fraction(0)
    m = len(valuation)
    for g in bundle:
        if g >= m:
            raise InputError(f"item index {g} out of range (m={m})")
        total += valuation[g]
    return total


@dataclass(frozen=True)
class Instance:
    """``n_agents`` sequentially arriving agents, one of ``k`` known additive
    valuation types each, over ``m_items`` indivisible items.

    The rows are passed as rationals (ints, Fractions or ``"num/den"``
    strings) and held once, as their integer view ``scaled``."""

    n_agents: int
    scaled: ScaledRows
    type_names: tuple[str, ...] | None = None

    def __post_init__(self):
        if self.n_agents < 1:
            raise InputError("need at least one agent")
        object.__setattr__(self, "scaled", as_scaled(self.scaled))
        if self.type_names is not None:
            names = tuple(str(s) for s in self.type_names)
            if len(names) != self.k_types:
                raise InputError("type_names length mismatch")
            object.__setattr__(self, "type_names", names)

    @property
    def type_values(self) -> tuple[Valuation, ...]:
        """The rows as rationals, built afresh on every read."""
        return tuple(tuple(Fraction(x, unit) for x in ints)
                     for ints, unit in zip(self.scaled.ints, self.scaled.units))

    @property
    def k_types(self) -> int:
        return len(self.scaled.ints)

    @property
    def m_items(self) -> int:
        return len(self.scaled.ints[0])


def scale_row(row: Iterable, negative: str = "negative value") -> tuple[tuple[int, ...], int]:
    """``(ints, L)`` with ``row[g] == ints[g] / L`` and L the lcm of the row's
    denominators; equal ints share one object, so a row of few distinct
    values costs about a pointer per item.  A negative value raises
    ``InputError(negative)``."""
    vals = [as_fraction(v) for v in row]
    unit = math.lcm(*{v.denominator for v in vals})
    distinct: dict[int, int] = {}
    ints = tuple([distinct.setdefault(x, x) for x in [v.numerator * (unit // v.denominator) for v in vals]])
    if any(x < 0 for x in distinct):
        raise InputError(negative)
    return ints, unit


def scale_parts(parts: Iterable[tuple[Sequence[int], Sequence[int]]], m: int) -> tuple[tuple[int, ...], int]:
    """``(ints, L)`` for the row over m items that makes each ``(items, weights)``
    part, of nonnegative int weights with a positive sum, worth exactly 1: an
    item of weight w in a part of total T is worth w / T = x / L, with L the lcm
    over the parts of T / gcd(the part's weights), the row's least common
    denominator.  The totals and gcds are taken part by part at C level, each
    distinct (T, w) gives its x once, and equal ints share one object across
    parts, as in ``scale_row``."""
    parts = list(parts)
    weights = [ws for _, ws in parts]
    totals = list(map(sum, weights))
    unit = math.lcm(*map(operator.floordiv, totals, starmap(math.gcd, weights)))
    row, by_total, distinct = [0] * m, {}, {}
    for (items, ws), total in zip(parts, totals):
        xs = by_total.setdefault(total, {})  # w -> x for this T
        for g, w in zip(items, ws):
            x = xs.get(w)
            if x is None:
                x = w * unit // total
                x = xs[w] = distinct.setdefault(x, x)
            row[g] = x
    return tuple(row), unit


@dataclass(frozen=True)
class ScaledRows:
    """Integer view of k rational rows: type i values item g at
    ``ints[i][g] / units[i]``.  For an integer x, x / L >= t exactly when
    x >= ceil(t L), and x / L > t exactly when x > floor(t L).  ``maxima[i]``
    is type i's largest x, computed once per view and kept out of equality and
    repr; a scan for the items at or above a level skips a type below it."""

    ints: tuple[tuple[int, ...], ...]
    units: tuple[int, ...]
    maxima: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "maxima", tuple(max(row, default=0) for row in self.ints))

    def reordered(self, order: Sequence[int]) -> "ScaledRows":
        """The view with type ``order[r]`` as type r; the maxima are permuted, not recomputed."""
        view = object.__new__(ScaledRows)
        view.__dict__.update((f, tuple(map(getattr(self, f).__getitem__, order))) for f in ("ints", "units", "maxima"))
        return view

    def at_least(self, t: Fraction) -> list[int]:
        """Per type, the least x with x / L_i >= t."""
        return [-(-t.numerator * unit // t.denominator) for unit in self.units]

    def at_most(self, t: Fraction) -> list[int]:
        """Per type, the greatest x with x / L_i <= t."""
        return [t.numerator * unit // t.denominator for unit in self.units]

    def total(self, i: int, items: Iterable[int]) -> int:
        """Type i's value of the items, in units of L_i."""
        row = self.ints[i]
        return sum([row[g] for g in items])


def as_scaled(rows: Iterable[Sequence] | ScaledRows) -> ScaledRows:
    """The integer view of k >= 1 equally long rows of nonnegative rationals.
    A ``ScaledRows`` is checked as built: every x >= 0 and each unit L >= 1
    the least common denominator, gcd(L, *row) == 1, so equal rows compare equal."""
    if isinstance(rows, ScaledRows):
        if not rows.ints:
            raise InputError("need at least one type")
        if len(rows.units) != len(rows.ints):
            raise InputError(f"{len(rows.units)} units for {len(rows.ints)} types")
        for i, (ints, unit) in enumerate(zip(rows.ints, rows.units)):
            if len(ints) != len(rows.ints[0]):
                raise InputError(f"type {i} has {len(ints)} values, expected {len(rows.ints[0])}")
            if min(ints, default=0) < 0:
                raise InputError(f"type {i} has a negative value")
            if unit < 1 or math.gcd(unit, *ints) != 1:
                raise InputError(f"type {i}: unit {unit} is not the row's least common denominator")
        return rows
    scaled = []
    for i, row in enumerate(rows):
        if scaled and len(row) != len(scaled[0][0]):
            raise InputError(f"type {i} has {len(row)} values, expected {len(scaled[0][0])}")
        scaled.append(scale_row(row, f"type {i} has a negative value"))
    if not scaled:
        raise InputError("need at least one type")
    return ScaledRows(tuple(ints for ints, _ in scaled), tuple(unit for _, unit in scaled))


def fill_bag(rows: Sequence[Sequence[int]], claim: Sequence[int], scan: Sequence[int],
             pos: int, open_types: Sequence[int]) -> tuple[list[int], list[int], list[int], int] | None:
    """Grow one bag from ``scan[pos:]`` in order until some type of ``open_types``
    (ascending) values it at its claim level, all in scaled ints.  Returns
    ``(bag, per-type values, claimants, next pos)``, the claimants being the open
    types at their claim level, ascending; ``None`` if the scan runs out first.
    The values are summed for the open types only; every other type reads 0."""
    vals = [0] * len(rows)
    start, end = pos, len(scan)
    while pos < end:
        g = scan[pos]
        pos += 1
        for j in open_types:
            vals[j] += rows[j][g]
        for j in open_types:
            if vals[j] >= claim[j]:
                return scan[start:pos], vals, [c for c in open_types if vals[c] >= claim[c]], pos
    return None


def _int_ids(ids: Iterable[int], what: str) -> list[int]:
    try:
        return list(map(operator.index, ids))
    except TypeError as exc:
        raise InputError(f"{what} ids must be integers: {exc}") from exc


def check_arrivals(arrivals: Iterable[int], n: int, k: int) -> list[int]:
    """The arrival sequence as a list: exactly n integer type ids, each in range(k)."""
    seq = _int_ids(arrivals, "type")
    if len(seq) != n:
        raise InputError(f"arrival sequence has {len(seq)} types, expected {n}")
    if seq and not 0 <= min(seq) <= max(seq) < k:
        raise InputError(f"type id {next(t for t in seq if not 0 <= t < k)} out of range")
    return seq


def check_items(items: Iterable[int], m: int | None = None) -> list[int]:
    """The distinct item ids, ascending: integers from 0, and below m if given.
    A ``Bundle``'s ids are trusted to be strictly ascending: only their range is checked."""
    if isinstance(items, Bundle):
        ids = list(items)
    else:
        ids = _int_ids(items, "item")
        if any(map(operator.ge, ids, ids[1:])):  # not already strictly ascending
            ids = sorted(set(ids))
    if ids and (ids[0] < 0 or m is not None and ids[-1] >= m):
        raise InputError(f"item id {ids[0] if ids[0] < 0 else ids[-1]} out of range")
    return ids


@dataclass(frozen=True)
class MmsResult:
    """Maximin-share value of one valuation over ``n`` bundles, with the
    partition attaining it."""

    value: Fraction
    witness: tuple[Bundle, ...]
    nodes: int = 0


@dataclass(frozen=True)
class NormalizedInstance:
    """An instance rescaled so every positive-share type has maximin share
    exactly 1 and total value exactly ``n``; zero-share types are recorded
    and left unscaled."""

    base: Instance
    original_mms: tuple[Fraction, ...]
    witness_partitions: tuple[tuple[Bundle, ...], ...]
    zero_mms_types: frozenset[int] = frozenset()

    def __post_init__(self):
        inst = self.base
        n, m, k = inst.n_agents, inst.m_items, inst.k_types
        if len(self.original_mms) != k or len(self.witness_partitions) != k:
            raise ValidationError("per-type metadata length mismatch")
        object.__setattr__(self, "original_mms", tuple(as_fraction(v) for v in self.original_mms))
        object.__setattr__(self, "zero_mms_types", frozenset(self.zero_mms_types))
        if any(not 0 <= i < k for i in self.zero_mms_types):
            raise ValidationError(f"zero-share type ids must lie in 0..{k - 1}, "
                                  f"got {sorted(self.zero_mms_types)}")
        view = inst.scaled
        for i in range(k):
            part = self.witness_partitions[i]
            if len(part) != n:
                raise ValidationError(f"type {i}: witness has {len(part)} bundles, expected {n}")
            flat = list(chain.from_iterable(part))
            if len(set(flat)) < len(flat) or min(flat, default=0) < 0 or max(flat, default=-1) >= m:
                raise ValidationError(f"type {i}: witness is not a partition of the items")
            if len(flat) != m:
                raise ValidationError(f"type {i}: witness does not cover all items")
            if i in self.zero_mms_types:
                if self.original_mms[i] != 0:
                    raise ValidationError(f"type {i} flagged zero-share but has positive share")
                continue
            if self.original_mms[i] <= 0:
                raise ValidationError(f"type {i} has nonpositive share but is not flagged")
            row, unit = view.ints[i], view.units[i]  # list sums beat map(row.__getitem__) past ~4 items
            if any([sum([row[g] for g in b]) != unit for b in part]):
                raise ValidationError(f"type {i}: witness bundle value != 1 after rescaling")

    @property
    def scaled(self) -> ScaledRows:
        """The base instance's integer view of the normalized rows."""
        return self.base.scaled

    @property
    def n_agents(self) -> int:
        return self.base.n_agents

    @property
    def m_items(self) -> int:
        return self.base.m_items

    @property
    def k_types(self) -> int:
        return self.base.k_types


def normalize(instance: Instance, mms_solver: Callable[[Sequence[Fraction], int], MmsResult] | None = None) -> NormalizedInstance:
    """Rescale each type by its maximin-share partition.

    For a type with share > 0 and partition bundle values ``v_i(P_j)``, every
    item ``g`` in ``P_j`` is rescaled to ``v_i(g) / v_i(P_j)``, making each
    bundle worth exactly 1 and the grand total exactly ``n``.  Types whose
    share is 0 are left unscaled and flagged.

    ``mms_solver`` maps (valuation, n) to an :class:`MmsResult` and reads
    the rows as rationals.  By default the exact solver's integer kernel
    ``solver.mms_exact_scaled`` solves each row of ``instance.scaled`` as it
    is held, so the instance must be within its size caps.
    """
    from .solver import mms_exact_scaled  # local import avoids a cycle
    n, view = instance.n_agents, instance.scaled
    results = ([mms_exact_scaled(ints, unit, n) for ints, unit in zip(view.ints, view.units)] if mms_solver is None
               else [mms_solver(row, n) for row in instance.type_values])
    witnesses = tuple(tuple(res.witness) for res in results)
    zero_types = frozenset(i for i, res in enumerate(results) if res.value == 0)
    return NormalizedInstance(rescale(instance, witnesses, zero_types), tuple(res.value for res in results),
                              witnesses, zero_types)


def rescale(instance: Instance, partitions: Sequence[Sequence[Bundle]],
            unscaled: frozenset[int] = frozenset()) -> Instance:
    """``instance`` with each type's row rescaled by ``scale_parts`` so every
    bundle of the type's partition is worth exactly 1; the rows of the
    ``unscaled`` types are kept as they are."""
    view = instance.scaled
    rows = [(ints, unit) if i in unscaled else scale_parts(((b, [ints[g] for g in b]) for b in part), len(ints))
            for i, (ints, unit, part) in enumerate(zip(view.ints, view.units, partitions))]
    return Instance(instance.n_agents, ScaledRows(tuple(ints for ints, _ in rows), tuple(unit for _, unit in rows)),
                    instance.type_names)


def _in_order_and_disjoint(entries) -> bool:
    """Whether the entries' agents are non-negative and strictly increasing and no item repeats."""
    agents, bundles = [entry[0] for entry in entries], [entry[2] for entry in entries]
    return all(map(operator.lt, [-1, *agents], agents)) and \
        len(set(chain.from_iterable(bundles))) == sum(map(len, bundles))


@dataclass(frozen=True)
class Allocation:
    """Irrevocable per-agent grants: (agent_index, type_id, bundle)."""

    entries: tuple[tuple[int, int, Bundle], ...]

    def __post_init__(self):
        if _in_order_and_disjoint(self.entries):
            return  # otherwise the loop below names the first clash
        prev = -1
        seen: dict[int, int] = {}
        for agent, _type_id, bundle in self.entries:
            if agent <= prev:
                raise ValidationError("agent indices must be strictly increasing")
            prev = agent
            for g in bundle:
                if g in seen:
                    raise ValidationError(
                        f"item {g} allocated to both agent {seen[g]} and agent {agent}")
                seen[g] = agent


@dataclass(frozen=True)
class TypeDistribution:
    """Arrival distribution over the k types, stored sorted non-increasing
    with the permutation back to original type ids."""

    probs: tuple[Fraction, ...]
    order: tuple[int, ...]

    def __post_init__(self):
        probs = tuple(as_fraction(p) for p in self.probs)
        object.__setattr__(self, "probs", probs)
        if sum(probs) != 1:
            raise InputError("probabilities must sum to exactly 1")
        if any(p < 0 for p in probs):
            raise InputError("probabilities must be nonnegative")
        if any(probs[i] < probs[i + 1] for i in range(len(probs) - 1)):
            raise InputError("probs must be sorted non-increasing")
        if sorted(self.order) != list(range(len(probs))):
            raise InputError("order must be a permutation of type ids")

    @classmethod
    def from_probs(cls, probs: Sequence) -> "TypeDistribution":
        """Sort the given per-type probabilities, remembering original ids."""
        vals = [as_fraction(p) for p in probs]
        ranked = sorted(range(len(vals)), key=lambda i: (-vals[i], i))
        return cls(tuple(vals[i] for i in ranked), tuple(ranked))

    @property
    def k(self) -> int:
        return len(self.probs)

    def original_probs(self) -> tuple[Fraction, ...]:
        out = [Fraction(0)] * self.k
        for rank, orig in enumerate(self.order):
            out[orig] = self.probs[rank]
        return tuple(out)


class FailureReason(str, Enum):
    NONE = "none"
    EMPTY_RESERVE = "emptyReserve"
    VALUE_BELOW_ALPHA = "valueBelowAlpha"


@dataclass(eq=False)
class TrialReport:
    """Outcome of one online run against the (normalized) maximin shares: agent
    a's ratio is ``numerators[a] / denominators[a]``, exact ints whose Fractions
    ``per_agent_ratio`` builds on first read, and ``min_ratio`` the least.  The
    verdict ``min_ratio >= alpha`` is worked out on construction; reports compare
    by the ratios' values, however their pairs are reduced."""

    numerators: tuple[int, ...]
    denominators: tuple[int, ...]
    min_ratio: Fraction
    alpha: Fraction
    failure_reason: FailureReason = FailureReason.NONE
    flags: tuple[str, ...] = ()
    details: dict | None = None
    step_trace: list | None = None
    succeeded_at_alpha: bool = field(init=False)

    def __post_init__(self):
        self.numerators, self.denominators = tuple(self.numerators), tuple(self.denominators)
        self.alpha, self.flags = as_fraction(self.alpha), tuple(self.flags)
        self.succeeded_at_alpha = ok = not self.numerators or self.min_ratio >= self.alpha
        if ok or self.failure_reason is FailureReason.NONE:  # a reason only for a failed run
            self.failure_reason = FailureReason.NONE if ok else FailureReason.VALUE_BELOW_ALPHA

    @cached_property
    def per_agent_ratio(self) -> tuple[Fraction, ...]:
        return tuple(map(Fraction, self.numerators, self.denominators))

    def __eq__(self, other):
        if not isinstance(other, TrialReport):
            return NotImplemented
        rest = fields(self)[2:]  # all but the pairs, which compare as the ratios they stand for
        return self.per_agent_ratio == other.per_agent_ratio and \
            [getattr(self, f.name) for f in rest] == [getattr(other, f.name) for f in rest]

    @classmethod
    def build(cls, ratios: Iterable[Fraction], alpha: Fraction, failure_reason: FailureReason = FailureReason.NONE,
              details: dict | None = None) -> "TrialReport":
        """The report of these exact ratios."""
        ratios = tuple(ratios)
        return cls([r.numerator for r in ratios], [r.denominator for r in ratios], min(ratios, default=Fraction(1)),
                   alpha, failure_reason, details=details)


def agent_ratio(norm: NormalizedInstance, type_id: int, bundle: Bundle) -> Fraction:
    """A bundle's value over its agent's normalized share: its scaled value
    over L_i, since every positive-share type's share is exactly 1.  A zero
    share gets ratio 1 by convention, since any bundle meets a zero target."""
    if type_id in norm.zero_mms_types:
        return Fraction(1)
    return Fraction(norm.scaled.total(type_id, bundle), norm.scaled.units[type_id])


def finish_run(
    norm: NormalizedInstance,
    arrivals: Sequence[int],
    bundles: Iterable[Bundle | None],
    alpha: Fraction,
    reason: FailureReason = FailureReason.NONE,
    flags: Iterable[str] = (),
    details: dict | None = None,
    trace: list | None = None,
) -> tuple[Allocation, TrialReport]:
    """Assemble one online run's allocation and report from the bundle each
    arriving agent got.

    A ``None`` bundle marks an agent whose reserve or pool ran dry: that agent
    gets the empty bundle, and if the run fails, the first such agent sets the
    emptyReserve failure unless an earlier stage already set ``reason``.  This
    is the one place that turns "nothing" into the empty bundle.
    """
    entries = []
    for agent, (type_id, bundle) in enumerate(zip(arrivals, bundles)):
        if bundle is None:
            bundle = EMPTY_BUNDLE
            if reason is FailureReason.NONE:
                reason = FailureReason.EMPTY_RESERVE
        entries.append((agent, type_id, bundle))
    allocation = Allocation(tuple(entries))
    # agent_ratio as the int pair (scaled total, L_i), or (1, 1) at a zero
    # share, and the least ratio from each type's least total: k Fractions
    zero = norm.zero_mms_types
    rows = [None if i in zero else row for i, row in enumerate(norm.scaled.ints)]
    units = [1 if i in zero else unit for i, unit in enumerate(norm.scaled.units)]
    totals, least = [], {}
    for _, type_id, bundle in entries:
        row = rows[type_id]
        x = 1 if row is None else sum(map(row.__getitem__, bundle))
        totals.append(x)
        if least.setdefault(type_id, x) > x:
            least[type_id] = x
    min_ratio = min((Fraction(x, units[i]) for i, x in least.items()), default=Fraction(1))
    return allocation, TrialReport(totals, [units[t] for _, t, _ in entries], min_ratio, alpha, reason, flags,
                                   details, trace)


def verify_allocation(norm: NormalizedInstance, allocation: Allocation, alpha: Fraction) -> TrialReport:
    """Ex-post check of an allocation against the normalized shares.

    Each agent's ratio is :func:`agent_ratio`.  Success requires every
    ratio >= alpha, compared exactly; the boundary is inclusive.
    """
    ratios = []
    for _agent, type_id, bundle in allocation.entries:
        if not 0 <= type_id < norm.k_types:
            raise ValidationError(f"type id {type_id} out of range")
        if any(g >= norm.m_items for g in bundle):
            raise ValidationError("bundle references an item outside the instance")
        ratios.append(agent_ratio(norm, type_id, bundle))
    return TrialReport.build(ratios, alpha)
