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
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, fields
from fractions import Fraction
from pathlib import Path

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
from .generators import nth_sequence, sample_arrivals
from .rng import substream, uniform_fraction
from .stochastic import run_known_d
from .unknown import run_unknown_d

ALGORITHMS = ("adversarial", "known-d", "unknown-d")

# Read once at import, so a registry entry that is later replaced by a
# wrapper still reports its generator's parameters and their annotations.
_GENERATOR_SIGNATURES = {name: inspect.signature(gen, eval_str=True)
                        for name, gen in generators.GENERATORS.items()}


def run_algorithm(
    algorithm: str,
    norm: NormalizedInstance,
    arrivals,
    *,
    dist: TypeDistribution | None = None,
    alpha=None,
    eta=None,
    epsilon=None,
    c=None,
    seed: int = 0,
    trace: bool = False,
) -> tuple[Allocation, TrialReport]:
    """Run one allocator on one arrival sequence of original type ids.

    Rationals may be Fractions, ints or "num/den" strings.  Every run checks
    its invariants.  Adversarial runs strict (a dry pool raises) and honours
    ``trace``; known-d and unknown-d report a failed check in ``violations``
    and an empty reserve as data.  ``dist`` is the known-d distribution;
    ``seed`` drives the unknown-d random split.
    """
    if algorithm == "adversarial":
        return run_adversarial(norm, arrivals, alpha=alpha, trace=trace)
    if algorithm == "known-d":
        if dist is None:
            raise InputError("known-d needs a distribution")
        if epsilon is None:
            raise InputError("known-d needs epsilon")
        return run_known_d(norm, dist, arrivals, alpha=alpha, eta=eta, epsilon=epsilon)
    if algorithm == "unknown-d":
        if c is None:
            raise InputError("unknown-d needs c")
        return run_unknown_d(norm, arrivals, alpha=alpha, eta=eta, c=c, seed=seed)
    raise InputError(f"unknown algorithm {algorithm!r}")


@dataclass(frozen=True)
class McConfig:
    """Picklable experiment description.

    Exactly one of ``instance_obj`` (a parsed instance JSON object, fixed
    across trials) or ``generator``/``generator_params`` (fresh instance per
    trial, seeded per trial) must be given.  Rationals travel as strings.
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
        if self.generator is not None:
            if self.generator not in _GENERATOR_SIGNATURES:
                raise InputError(f"unknown generator {self.generator!r}")
            signature = _GENERATOR_SIGNATURES[self.generator]
            try:  # a TypeError: not an object, or not the generator's parameters
                bound = signature.bind(**(self.generator_params or {}))
            except TypeError as exc:
                raise InputError(f"generator_params for {self.generator!r}: {exc}") from exc
            for name, given in bound.arguments.items():
                # exactly int: a JSON true/false is a bool, which is not a count
                if signature.parameters[name].annotation is int and type(given) is not int:
                    raise InputError(f"generator_params for {self.generator!r}: "
                                     f"{name} must be an integer, got {given!r}")

    def to_obj(self) -> dict:
        # parallelism is an execution detail, not experiment identity; the
        # laws (dist, hidden_dist) are the tuple fields, written as lists
        return {k: list(v) if isinstance(v, tuple) else v for k, v in self.__dict__.items()
                if v is not None and k != "parallelism"}


def _resolve_instance(config: McConfig, trial: int) -> NormalizedInstance:
    if config.instance_obj is not None:
        return jsonio.load_normalized(config.instance_obj)
    params = dict(config.generator_params or {})
    if "seed" in _GENERATOR_SIGNATURES[config.generator].parameters:
        seed_key = trial if config.fresh_instance_per_trial else 0
        params.setdefault("seed", substream(config.master_seed, "instance", seed_key).randrange(2**48))
    gen = generators.GENERATORS[config.generator]
    out = gen(**params)
    if isinstance(out, tuple):  # generators returning (instance, distribution)
        out = out[0]
    if isinstance(out, NormalizedInstance):
        return out
    if isinstance(out, Instance):
        return normalize(out)
    raise InputError(f"generator {config.generator!r} returned {type(out).__name__}")


def _law(probs: tuple[str, ...] | None) -> TypeDistribution | None:
    return TypeDistribution.from_probs(probs) if probs is not None else None


def _trial_arrivals(config: McConfig, norm: NormalizedInstance, trial: int,
                    dist: TypeDistribution | None) -> list[int]:
    """Trial ``trial``'s arrivals: the trial-th of all sequences, or i.i.d.
    draws from ``dist`` (the hidden law instead for unknown-d)."""
    n, k = norm.n_agents, norm.k_types
    if config.arrivals == "exhaustive":
        return nth_sequence(k, n, trial)
    if config.algorithm == "unknown-d":
        dist = _law(config.hidden_dist)
    if dist is None:
        raise InputError("iid arrivals need a distribution")
    if dist.k != k:
        raise InputError("arrival distribution arity mismatch")
    return sample_arrivals(dist, n, substream(config.master_seed, "arrivals", trial))


def run_trial(config: McConfig, trial: int) -> dict:
    """One seeded trial; returns a flat JSON-able row."""
    norm = _resolve_instance(config, trial)
    dist = _law(config.dist)
    seq = _trial_arrivals(config, norm, trial, dist)
    try:
        _, report = run_algorithm(
            config.algorithm, norm, seq, dist=dist,
            alpha=config.alpha or None, eta=config.eta or None,
            epsilon=config.epsilon, c=config.c,
            seed=substream(config.master_seed, "split", trial).randrange(2**48)
            if config.algorithm == "unknown-d" else 0)
    except InvariantViolation as exc:
        raise InvariantViolation(
            f"{exc}; reproduce with master_seed={config.master_seed}, trial={trial}") from exc
    violations = _violation_count(report)
    return {
        "trial": trial,
        "seed": config.master_seed,
        "algorithm": config.algorithm,
        "n": norm.n_agents,
        "m": norm.m_items,
        "k": norm.k_types,
        "alpha": jsonio.frac_to_str(report.alpha),
        "minRatio": jsonio.frac_to_str(report.min_ratio),
        "success": report.succeeded_at_alpha,
        "failureReason": report.failure_reason.value,
        "flags": list(report.flags),
        "details": report.details or {},
        "violations": violations,
    }


def _violation_count(report: TrialReport) -> int:
    det = report.details or {}
    return sum(len(d["violations"]) for d in (det, det.get("dispatch") or {})
               if isinstance(d.get("violations"), list))


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
    parallelism level.  Any invariant violation aborts with a reproducer."""
    trials = config.trials
    if config.arrivals == "exhaustive":
        if config.instance_obj is None and config.fresh_instance_per_trial:
            raise InputError("exhaustive arrivals need a fixed instance")
        probe = _resolve_instance(config, 0)
        expected = probe.k_types ** probe.n_agents
        if trials not in (0, expected):
            raise InputError(f"exhaustive enumeration has {expected} sequences")
        trials = expected
    if config.parallelism > 1 and trials > 1:
        with ProcessPoolExecutor(max_workers=config.parallelism) as pool:
            rows = list(pool.map(_mc_star, ((config, t) for t in range(trials)), chunksize=16))
    else:
        rows = [run_trial(config, t) for t in range(trials)]
    rows.sort(key=lambda r: r["trial"])

    for row in rows:
        if row["violations"]:
            raise InvariantViolation(
                f"trial {row['trial']} broke {row['violations']} invariant(s); "
                f"reproduce with master_seed={config.master_seed}, trial={row['trial']}")
    histogram: dict[str, int] = {}
    for row in rows:
        if not row["success"]:
            histogram[row["failureReason"]] = histogram.get(row["failureReason"], 0) + 1
    ratios = sorted(_ratio_float(row["minRatio"]) for row in rows)
    def q(p: float) -> float:
        if not ratios:
            return 0.0
        return ratios[min(len(ratios) - 1, int(p * (len(ratios) - 1)))]
    return AggregateReport(
        config=config.to_obj(),
        rows=rows,
        success_rate=(sum(1 for r in rows if r["success"]) / len(rows)) if rows else 0.0,
        failure_histogram=dict(sorted(histogram.items())),
        invariant_violations=0,
        min_ratio_overall=min((row["minRatio"] for row in rows), key=Fraction, default="1/1"),
        mean_min_ratio=(sum(ratios) / len(ratios)) if ratios else 0.0,
        quantiles={"p05": q(0.05), "p50": q(0.50), "p95": q(0.95)},
    )


def _ratio_float(s: str) -> float:
    num, den = s.split("/")
    return int(num) / int(den)


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
    rows = []
    for row in instance.type_values:
        rows.append(tuple(v * uniform_fraction(rng, 1 / beta, beta) for v in row))
    return Instance(instance.n_agents, tuple(rows), instance.type_names)


def degradation_trial(
    algorithm: str,
    instance: Instance,
    beta: Fraction,
    seed: int,
    *,
    dist: TypeDistribution | None = None,
    alpha: Fraction | None = None,
    eta: Fraction | None = None,
    epsilon: Fraction | None = None,
    c: Fraction | None = None,
) -> dict:
    """Run one algorithm on the perturbed view of an instance and audit the
    exact degradation guarantee against the true values.

    Arrivals are drawn from ``dist``, or uniformly without one; known-d
    also needs ``dist`` as its parameter.  Returns share brackets per type (beta * true >= perturbed >= true / beta)
    and, when the perturbed run met its claim level, whether every agent's
    true ratio reached alpha / beta**2.
    """
    beta = as_fraction(beta)
    true_norm = normalize(instance)
    perturbed = perturb(instance, beta, seed)
    pert_norm = normalize(perturbed)

    bracket_ok = all(beta * true_mms >= pert_mms >= true_mms / beta
                     for true_mms, pert_mms in zip(true_norm.original_mms, pert_norm.original_mms))

    n, k = instance.n_agents, instance.k_types
    if dist is not None:
        seq = sample_arrivals(dist, n, seed)
    else:
        rng = substream(seed, "arrivals")
        seq = [rng.randrange(k) for _ in range(n)]
    allocation, report = run_algorithm(
        algorithm, pert_norm, seq, dist=dist, alpha=alpha, eta=eta, epsilon=epsilon, c=c,
        seed=seed)

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


def emit_report(aggregate: AggregateReport, fmt: str, path: str | Path) -> None:
    if fmt == "json":
        jsonio.dump(aggregate.to_obj(), path)
    elif fmt == "csv":
        Path(path).write_text(render_csv(aggregate))
    else:
        raise InputError(f"unknown report format {fmt!r}")


def render_csv(aggregate: AggregateReport) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for row in aggregate.rows:
        writer.writerow([
            row["trial"], row["seed"], row["algorithm"], row["n"], row["m"], row["k"],
            row["alpha"], row["minRatio"],
            "true" if row["success"] else "false", row["failureReason"],
        ])
    return buf.getvalue()
