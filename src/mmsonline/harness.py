"""Seeded Monte-Carlo experiment runner, prediction-error perturbation, and
report emission.

Every trial draws its randomness from named substreams of (master_seed,
trial_index), so aggregate reports are byte-identical regardless of the
parallelism level.  Failed trials are data; a broken run invariant aborts
the whole experiment with a reproducer.
"""

from __future__ import annotations

import csv
import inspect
import io
import os
from collections import Counter
from dataclasses import dataclass, fields
from fractions import Fraction
from functools import cached_property, reduce

from . import generators, jsonio
from .adversarial import run_adversarial
from .core import (
    Allocation,
    InputError,
    Instance,
    InvariantViolation,
    NormalizedInstance,
    TrialReport,
    TypeDistribution,
    as_fraction,
    normalize,
    value,
)
from .generators import enumeration_size, nth_sequence, sample_arrivals
from .rng import randbelow, substream, uniform_fraction
from .stochastic import run_known_d
from .unknown import run_unknown_d

# each algorithm's allocator, and the parameters its signature takes beside
# norm, arrivals and alpha, each with whether a run needs it (it has no
# default); the library and McConfig refuse any other one
RUNS = {"adversarial": run_adversarial, "known-d": run_known_d, "unknown-d": run_unknown_d}
READS = {algorithm: {name: p.default is p.empty for name, p in inspect.signature(run).parameters.items()
                     if name not in ("norm", "arrivals", "alpha")}
         for algorithm, run in RUNS.items()}
ALGORITHMS = tuple(READS)


class UnreadInputs(InputError):
    """Inputs set but never read by the run they were given to, listed in ``names``."""

    def __init__(self, what: str, names: list[str]):
        super().__init__(f"{what} never reads {', '.join(names)}")
        self.what, self.names = what, names


def run_algorithm(algorithm: str, norm: NormalizedInstance, arrivals, *, alpha=None,
                  **params) -> tuple[Allocation, TrialReport]:
    """Run one allocator on one arrival sequence of original type ids.

    Rationals may be Fractions, ints or "num/den" strings.  ``params`` are
    the algorithm's own, as ``READS`` lists them: known-d's distribution
    ``dist``, adversarial's step ``trace``, unknown-d's ``seed`` for the
    random split.  A parameter set (not None) that the algorithm never reads
    is an input error naming it.  Every run checks its invariants, and a
    failed check of the reservation state or of the low-C audit raises
    ``InvariantViolation``; known-d and unknown-d report an empty reserve as data.
    """
    if algorithm not in READS:
        raise InputError(f"unknown algorithm {algorithm!r}")
    params = {name: v for name, v in params.items() if v is not None}
    unread = [name for name in params if name not in READS[algorithm]]
    if unread:
        raise UnreadInputs(algorithm, unread)
    for name, needed in READS[algorithm].items():
        if needed and name not in params:
            raise InputError(f"{algorithm} needs {name}")
    return RUNS[algorithm](norm, arrivals=arrivals, alpha=alpha, **params)


def if_read(algorithm: str, dist, seed) -> tuple:
    """``(dist, seed())`` with each left None unless ``algorithm`` reads it, for
    callers that set both whatever the algorithm (to draw its arrivals, say);
    ``seed`` is called only when read, so a run that splits nothing draws none."""
    reads = READS.get(algorithm, ())
    return dist if "dist" in reads else None, seed() if "seed" in reads else None


@dataclass(frozen=True)
class McConfig:
    """Picklable experiment description.

    Exactly one of ``instance_obj`` (a parsed instance JSON object, fixed
    across trials) or ``generator``/``generator_params`` (fresh instance per
    trial, seeded per trial) must be given.  Rationals travel as strings.

    Beside the fields every config reads, a config reads its algorithm's
    ``READS`` (taken from the allocators' signatures), the law its iid
    arrivals draw from (``hidden_dist`` for unknown-d, ``dist`` otherwise)
    and, with a generator, ``generator_params`` and ``fresh_instance_per_trial``.
    Any other field set away from its default is an input error.
    """

    algorithm: str
    trials: int
    master_seed: int
    instance_obj: dict | None = None
    generator: str | None = None
    generator_params: dict | None = None
    fresh_instance_per_trial: bool = True
    dist: tuple[str, ...] | None = None         # known-d parameter / arrival law
    hidden_dist: tuple[str, ...] | None = None  # unknown-d arrival law (never shown)
    alpha: str | None = None
    eta: str | None = None
    epsilon: str | None = None
    c: str | None = None
    arrivals: str = "iid"                       # "iid" | "exhaustive"
    parallelism: int = 1

    def __post_init__(self):
        if self.algorithm not in ALGORITHMS:
            raise InputError(f"unknown algorithm {self.algorithm!r}")
        if (self.instance_obj is None) == (self.generator is None):
            raise InputError("give exactly one of instance_obj or generator")
        if self.arrivals not in ("iid", "exhaustive"):
            raise InputError("arrivals must be 'iid' or 'exhaustive'")
        if self.trials < 0 or self.trials == 0 and self.arrivals != "exhaustive":
            # 0 is legal only for exhaustive runs, which read it as "all k^n"
            raise InputError(f"trials must be positive, got {self.trials}")
        if self.parallelism < 1:
            raise InputError(f"parallelism must be positive, got {self.parallelism}")
        reads = {"algorithm", "trials", "master_seed", "instance_obj", "generator", "alpha", "arrivals",
                 "parallelism", *READS[self.algorithm]}  # the fields every config reads, and its own
        if self.arrivals == "iid":
            reads.add("hidden_dist" if self.algorithm == "unknown-d" else "dist")
        if self.generator is not None:
            reads |= {"generator_params", "fresh_instance_per_trial"}
        unread = [f.name for f in fields(self) if f.name not in reads and getattr(self, f.name) != f.default]
        if unread:
            source = "generated instances" if self.generator else "fixed instance"
            raise UnreadInputs(f"{self.algorithm} ({self.arrivals} arrivals, {source})", unread)
        if self.generator is not None:
            generators.check_params(self.generator, {} if self.generator_params is None else self.generator_params)

    @cached_property
    def fixed_instance(self) -> NormalizedInstance | None:
        """The one instance every trial runs on, or ``None`` when each trial
        generates its own.  Kept in the instance's ``__dict__`` after the
        first read, so it is pickled along to worker processes."""
        if self.instance_obj is not None:
            return jsonio.load_normalized(self.instance_obj)
        return None if self.fresh_instance_per_trial else _generate(self, 0)

    @cached_property
    def law(self) -> TypeDistribution | None:
        """The one law the config sets (``dist``, or unknown-d's ``hidden_dist``),
        or ``None``: the law iid arrivals draw from, and known-d's ``dist``.
        Cached and pickled like ``fixed_instance``."""
        probs = self.hidden_dist if self.dist is None else self.dist  # at most one is set
        return None if probs is None else TypeDistribution.from_probs(probs)

    def to_obj(self) -> dict:
        # the fields only, never a cached fixed_instance or law; parallelism is an
        # execution detail, not experiment identity; the laws (dist,
        # hidden_dist) are the tuple fields, written as lists
        obj = {f.name: getattr(self, f.name) for f in fields(self) if f.name != "parallelism"}
        return {k: list(v) if isinstance(v, tuple) else v for k, v in obj.items() if v is not None}


def _generate(config: McConfig, seed_key: int) -> NormalizedInstance:
    """The generator's instance, its seed drawn from the ``seed_key`` substream."""
    params = {} if config.generator_params is None else dict(config.generator_params)
    if "seed" in generators.parameters(config.generator):
        params.setdefault("seed", randbelow(substream(config.master_seed, "instance", seed_key), 2**48))
    inst, _ = generators.generate(config.generator, params)
    return inst if isinstance(inst, NormalizedInstance) else normalize(inst)


def run_trial(config: McConfig, trial: int) -> dict:
    """One seeded trial on the trial-th of all arrival sequences, or on i.i.d.
    draws from the one law the config sets; returns a flat JSON-able row.  An
    invariant violation aborts with a reproducer."""
    norm = config.fixed_instance
    if norm is None:
        norm = _generate(config, trial)
    law, n, k = config.law, norm.n_agents, norm.k_types
    if config.arrivals == "exhaustive":
        seq = nth_sequence(k, n, trial)
    elif law is None:
        raise InputError("iid arrivals need a distribution")
    elif law.k != k:
        raise InputError("arrival distribution arity mismatch")
    else:
        seq = sample_arrivals(law, n, substream(config.master_seed, "arrivals", trial))
    try:
        dist, seed = if_read(config.algorithm, law,
                             lambda: randbelow(substream(config.master_seed, "split", trial), 2**48))
        _, report = run_algorithm(config.algorithm, norm, seq, dist=dist, seed=seed, alpha=config.alpha,
                                  eta=config.eta, epsilon=config.epsilon, c=config.c)
    except InvariantViolation as exc:
        raise InvariantViolation(
            f"{exc}; reproduce with master_seed={config.master_seed}, trial={trial}") from exc
    return {
        "trial": trial,
        "seed": config.master_seed,
        "algorithm": config.algorithm,
        "n": n,
        "m": norm.m_items,
        "k": k,
        "alpha": jsonio.frac_to_str(report.alpha),
        "minRatio": jsonio.frac_to_str(report.min_ratio),
        "success": report.succeeded_at_alpha,
        "failureReason": report.failure_reason.value,
        "flags": list(report.flags),
        "details": report.details or {},
        # always 0 past the raise above, like the aggregate's invariantViolations;
        # both stay only because the golden and bench digests hash them
        "violations": 0,
    }


def _camel(name: str) -> str:
    head, *rest = name.split("_")
    return head + "".join(w.title() for w in rest)


@dataclass
class AggregateReport:
    config: dict
    rows: list[dict]
    success_rate: float
    failure_histogram: dict[str, int]
    invariant_violations: int
    min_ratio_overall: str
    mean_min_ratio: float
    quantiles: dict[str, float]

    def to_obj(self) -> dict:
        # JSON keys are the camelCase field names
        return {_camel(f.name): getattr(self, f.name) for f in fields(self)}

    @classmethod
    def from_obj(cls, obj) -> "AggregateReport":
        """Inverse of ``to_obj``; a missing key or a row without the CSV
        columns is an input error."""
        keys = {_camel(f.name): f.name for f in fields(cls)}
        missing = sorted(keys.keys() - (obj.keys() if isinstance(obj, dict) else set()))
        if missing:
            raise InputError(f"not an aggregate report: missing {', '.join(missing)}")
        rows = obj["rows"]
        if not (isinstance(rows, list) and all(isinstance(r, dict) and r.keys() >= set(CSV_COLUMNS)
                                               for r in rows)):
            raise InputError(f"aggregate rows need the keys {', '.join(CSV_COLUMNS)}")
        return cls(**{name: obj[key] for key, name in keys.items()})

    def canonical_json(self) -> str:
        return jsonio.canonical_json(self.to_obj())


def _mc_star(args: tuple[McConfig, int]) -> dict:
    return run_trial(*args)


def monte_carlo(config: McConfig) -> AggregateReport:
    """Run the experiment; deterministic for a fixed master seed at any
    parallelism level.  Any invariant violation aborts with a reproducer.
    Above parallelism 1 the workers are spawned, so a calling script needs
    the ``if __name__ == "__main__":`` guard."""
    trials = config.trials
    norm = config.fixed_instance  # resolved here, so no trial or worker resolves it again
    if config.arrivals == "exhaustive":
        if norm is None:
            raise InputError("exhaustive arrivals need a fixed instance")
        expected = enumeration_size(norm.k_types, norm.n_agents)
        if trials not in (0, expected):
            raise InputError(f"exhaustive enumeration has {expected} sequences")
        trials = expected
    config.law  # resolved here too, so it is pickled along to the workers
    workers = min(config.parallelism, trials, os.cpu_count() or 1)  # each one costs a start-up
    if workers > 1:
        # imported only for a pool, which spawns its workers on every platform:
        # a fork of this process may deadlock once it runs threads
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=workers, mp_context=multiprocessing.get_context("spawn")) as pool:
            rows = list(pool.map(_mc_star, ((config, t) for t in range(trials)), chunksize=16))
    else:
        rows = [run_trial(config, t) for t in range(trials)]
    rows.sort(key=lambda r: r["trial"])

    histogram = Counter(row["failureReason"] for row in rows if not row["success"])
    exact = [Fraction(row["minRatio"]) for row in rows]
    ratios = sorted(map(float, exact))
    def q(p: float) -> float:
        return ratios[min(len(ratios) - 1, int(p * (len(ratios) - 1)))]
    return AggregateReport(
        config=config.to_obj(),
        rows=rows,
        success_rate=sum(1 for r in rows if r["success"]) / len(rows),
        failure_histogram=dict(sorted(histogram.items())),
        invariant_violations=0,
        min_ratio_overall=jsonio.frac_to_str(min(exact)),
        # added left to right: sum() compensates float rounding from Python 3.12 on
        mean_min_ratio=reduce(float.__add__, ratios, 0.0) / len(ratios),
        quantiles={"p05": q(0.05), "p50": q(0.50), "p95": q(0.95)},
    )


# -- prediction-error perturbation ------------------------------------------


def perturb(instance: Instance, beta: Fraction, seed: int) -> Instance:
    """Multiply every value by an independent seeded factor in [1/beta, beta].

    Factors are rational (``rng.uniform_fraction`` draws), so the perturbed
    instance stays exact and satisfies v/beta <= v_perturbed <= v*beta
    entrywise by construction.
    """
    beta = as_fraction(beta)
    if beta < 1:
        raise InputError("beta must be at least 1")
    rng = substream(seed, "perturb")
    rows = tuple(tuple(v * uniform_fraction(rng, 1 / beta, beta) for v in row) for row in instance.type_values)
    return Instance(instance.n_agents, rows, instance.type_names)


def degradation_trial(
    algorithm: str,
    instance: Instance,
    beta: Fraction,
    seed: int,
    *,
    dist: TypeDistribution | None = None,
    **params,
) -> dict:
    """Run one algorithm on the perturbed view of an instance and audit the
    exact degradation guarantee against the true values.

    Arrivals are drawn from ``dist``, or uniformly without one; known-d also
    needs ``dist`` as its parameter, unknown-d splits by ``seed``, and every
    other parameter goes on to ``run_algorithm``, which refuses any the
    algorithm never reads.  Returns share brackets per type (beta * true >=
    perturbed >= true / beta) and, when the perturbed run met its claim
    level, whether every agent's true ratio reached alpha / beta**2.
    """
    beta = as_fraction(beta)
    true_norm = normalize(instance)
    perturbed = perturb(instance, beta, seed)
    pert_norm = normalize(perturbed)

    bracket_ok = all(beta * true_mms >= pert_mms >= true_mms / beta
                     for true_mms, pert_mms in zip(true_norm.original_mms, pert_norm.original_mms))

    k = instance.k_types
    seq = sample_arrivals(dist or TypeDistribution.from_probs([Fraction(1, k)] * k), instance.n_agents, seed)
    read_dist, read_seed = if_read(algorithm, dist, lambda: seed)
    allocation, report = run_algorithm(algorithm, pert_norm, seq, dist=read_dist, seed=read_seed, **params)

    degraded_alpha = report.alpha / beta ** 2
    shares, rows = true_norm.original_mms, instance.type_values
    # a zero share gets ratio 1 by convention, since any bundle meets it
    true_ratios = [value(rows[ti], bundle) / shares[ti] if shares[ti] else Fraction(1)
                   for _agent, ti, bundle in allocation.entries]
    degradation_ok = (not report.succeeded_at_alpha) or all(
        r >= degraded_alpha for r in true_ratios)
    return {
        "bracketOk": bracket_ok,
        "perturbedSuccess": report.succeeded_at_alpha,
        "degradationOk": degradation_ok,
        "alpha": report.alpha,
        "degradedAlpha": degraded_alpha,
        "trueMinRatio": min(true_ratios) if true_ratios else Fraction(1),
    }


# -- report emission ----------------------------------------------------------

CSV_COLUMNS = ("trial", "seed", "algorithm", "n", "m", "k", "alpha",
               "minRatio", "success", "failureReason")


def render_csv(aggregate: AggregateReport) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for row in aggregate.rows:
        cells = {**row, "success": "true" if row["success"] else "false"}
        writer.writerow([cells[column] for column in CSV_COLUMNS])
    return buf.getvalue()
