"""Command-line interface.

Exit codes: 0 clean, 1 input error, 2 invariant violation.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import generators, harness, jsonio
from .core import (
    CapacityError,
    InputError,
    InvariantViolation,
    NormalizedInstance,
    TypeDistribution,
    as_fraction,
)
from .generators import enumeration_size, nth_sequence, sample_arrivals
from .solver import mms_brute_force, mms_exact


def _load_dist(path: str) -> TypeDistribution:
    return jsonio.distribution_from_obj(jsonio.load(path))


def _json_arg(text: str):
    """A flag's JSON value; malformed JSON is an input error."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError(f"malformed JSON {text!r}: {exc}") from exc


def _probs(spec: str | None) -> tuple[str, ...] | None:
    """A JSON list of probabilities, or a distribution file's, as strings."""
    if spec and spec.startswith("["):
        return tuple(_json_arg(spec))
    return tuple(jsonio.distribution_to_obj(_load_dist(spec))["probs"]) if spec else None


def _write(text: str, out: str | None) -> None:
    """``text`` to the ``--out`` file, or to stdout."""
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


def _emit(obj: dict, out: str | None) -> None:
    _write(jsonio.canonical_json(obj) + "\n", out)


def _emit_aggregate(agg: harness.AggregateReport, fmt: str, out: str | None) -> None:
    """An aggregate report as CSV rows, or as canonical JSON."""
    _write(harness.render_csv(agg) if fmt == "csv" else agg.canonical_json() + "\n", out)


def _cmd_gen(args) -> int:
    flags = dict(n=args.n, m=args.m, k=args.k, seed=args.seed, epsilon=args.eps, value_model=args.model)
    given = {key: v for key, v in flags.items() if v is not None}
    # an unset flag leaves the generator's default; a parameter without one takes n=4, m=12 or k=2
    params = {key: given.get(key, dict(n=4, m=12, k=2).get(key))
              for key, p in generators.parameters(args.kind).items() if key in given or p.default is p.empty}
    inst, dist = generators.generate(args.kind, params)
    _emit(jsonio.instance_to_obj(inst.base, inst) if isinstance(inst, NormalizedInstance)
          else jsonio.instance_to_obj(inst), args.out)
    if dist is not None and args.dist_out:
        _emit(jsonio.distribution_to_obj(dist), args.dist_out)
    return 0


def _cmd_mms(args) -> int:
    obj = jsonio.load(args.instance)
    inst = jsonio.instance_from_obj(obj)
    if not 0 <= args.type < inst.k_types:
        raise InputError("type index out of range")
    valuation = inst.type_values[args.type]
    solver = mms_brute_force if args.brute_force else mms_exact
    res = solver(valuation, args.bundles)
    out = {
        "value": jsonio.frac_to_str(res.value),
        "exact": True,
        "witness": [list(b.items) for b in res.witness],
        "nodes": res.nodes,
    }
    _emit(out, args.out)
    return 0


def _cmd_run(args) -> int:
    if args.trials < 1:
        raise InputError(f"--trials must be at least 1, got {args.trials}")
    if args.algorithm == "adversarial" and args.trials > 1:
        raise InputError("run adversarial serves one arrival sequence; "
                         "use mc --algorithm adversarial for repeated trials")
    instance_obj = jsonio.load(args.instance)
    if args.trials > 1:
        # seeded repetition: route through the experiment runner
        law = _probs(args.dist)
        config = harness.McConfig(
            algorithm=args.algorithm, trials=args.trials, master_seed=args.seed,
            instance_obj=instance_obj,
            dist=law if args.algorithm == "known-d" else None,
            hidden_dist=law if args.algorithm == "unknown-d" else None,
            alpha=args.alpha, eta=args.eta,
            epsilon=args.epsilon if args.algorithm == "known-d" else None,
            c=args.c if args.algorithm == "unknown-d" else None)
        _emit_aggregate(harness.monte_carlo(config), "json", args.out)
        return 0

    norm = jsonio.load_normalized(instance_obj)
    dist = None
    params = dict(alpha=args.alpha or None, eta=args.eta or None, epsilon=args.epsilon, c=args.c)
    if args.algorithm == "adversarial":
        if args.enumerate:
            k, n = norm.k_types, norm.n_agents
            reports = (harness.run_algorithm("adversarial", norm, nth_sequence(k, n, t), **params)[1]
                       for t in range(enumeration_size(k, n)))
            _emit(jsonio.report_to_obj(min(reports, key=lambda rep: rep.min_ratio)), args.out)
            return 0
        if not args.arrivals:
            raise InputError("adversarial run needs --arrivals or --enumerate")
        seq = jsonio.sequence_from_obj(jsonio.load(args.arrivals))
    else:
        if not args.dist:
            raise InputError(f"{args.algorithm} needs --dist")
        dist = _load_dist(args.dist)
        seq = sample_arrivals(dist, norm.n_agents, args.seed)
    _, rep = harness.run_algorithm(args.algorithm, norm, seq, dist=dist, seed=args.seed,
                                   trace=args.trace, **params)
    for event in rep.step_trace or ():
        print(jsonio.canonical_json(event))  # one line per step
    _emit(jsonio.report_to_obj(rep), args.out)
    return 0


def _cmd_mc(args) -> int:
    config = harness.McConfig(
        algorithm=args.algorithm,
        trials=args.trials,
        master_seed=args.seed,
        instance_obj=jsonio.load(args.instance) if args.instance else None,
        generator=args.generator,
        generator_params=_json_arg(args.generator_params) if args.generator_params else None,
        fresh_instance_per_trial=not args.fixed_instance,
        dist=_probs(args.dist),
        hidden_dist=_probs(args.hidden_dist),
        alpha=args.alpha,
        eta=args.eta,
        epsilon=args.epsilon,
        c=args.c,
        arrivals=args.arrivals,
        parallelism=args.parallelism,
    )
    _emit_aggregate(harness.monte_carlo(config), args.format, args.out)
    return 0


def _cmd_perturb(args) -> int:
    inst = jsonio.instance_from_obj(jsonio.load(args.instance))
    out = harness.perturb(inst, as_fraction(args.beta), args.seed)
    _emit(jsonio.instance_to_obj(out), args.out)
    return 0


def _cmd_report(args) -> int:
    _emit_aggregate(harness.AggregateReport.from_obj(jsonio.load(args.aggregate)), args.format, args.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="mmsonline",
                                description="Online maximin-share allocation toolkit")
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen", help="emit a generated instance as JSON")
    g.add_argument("kind", choices=sorted(generators.GENERATORS))
    g.add_argument("--n", type=int)
    g.add_argument("--m", type=int)
    g.add_argument("--k", type=int)
    g.add_argument("--eps")
    g.add_argument("--model", choices=("uniform", "binary", "clustered"))
    g.add_argument("--seed", type=int)
    g.add_argument("--out")
    g.add_argument("--dist-out")
    g.set_defaults(fn=_cmd_gen)

    s = sub.add_parser("mms", help="solve for a type's maximin share")
    s.add_argument("action", choices=("solve",))
    s.add_argument("--instance", required=True)
    s.add_argument("--type", type=int, required=True)
    s.add_argument("--bundles", type=int, required=True)
    s.add_argument("--brute-force", action="store_true")
    s.add_argument("--out")
    s.set_defaults(fn=_cmd_mms)

    r = sub.add_parser("run", help="run one online allocation")
    r.add_argument("algorithm", choices=harness.ALGORITHMS)
    r.add_argument("--instance", required=True)
    r.add_argument("--arrivals")
    r.add_argument("--enumerate", action="store_true")
    r.add_argument("--trace", action="store_true")
    r.add_argument("--dist", help="distribution JSON (known-d parameter / unknown-d hidden law)")
    r.add_argument("--alpha")
    r.add_argument("--eta")
    r.add_argument("--epsilon", default="1/10")
    r.add_argument("--c", default="1/20")
    r.add_argument("--seed", type=int, default=0)
    r.add_argument("--trials", type=int, default=1,
                   help="repeat with per-trial arrival substreams and aggregate "
                        "(known-d, unknown-d)")
    r.add_argument("--out")
    r.set_defaults(fn=_cmd_run)

    mc = sub.add_parser("mc", help="seeded Monte-Carlo experiment")
    mc.add_argument("--algorithm", required=True, choices=harness.ALGORITHMS)
    mc.add_argument("--trials", type=int, required=True)
    mc.add_argument("--seed", type=int, default=0)
    mc.add_argument("--instance")
    mc.add_argument("--generator", choices=sorted(generators.GENERATORS))
    mc.add_argument("--generator-params", help='JSON object, e.g. \'{"n":200,"m":1000,"k":3}\'')
    mc.add_argument("--fixed-instance", action="store_true",
                    help="one generated instance reused across trials")
    mc.add_argument("--dist", help="JSON list of probs or a distribution file")
    mc.add_argument("--hidden-dist", help="JSON list of probs or a distribution file")
    mc.add_argument("--alpha")
    mc.add_argument("--eta")
    mc.add_argument("--epsilon")
    mc.add_argument("--c")
    mc.add_argument("--arrivals", default="iid", choices=("iid", "exhaustive"))
    mc.add_argument("--parallelism", type=int, default=1)
    mc.add_argument("--format", default="json", choices=("json", "csv"))
    mc.add_argument("--out")
    mc.set_defaults(fn=_cmd_mc)

    pe = sub.add_parser("perturb", help="multiplicative prediction-error noise")
    pe.add_argument("--instance", required=True)
    pe.add_argument("--beta", required=True)
    pe.add_argument("--seed", type=int, default=0)
    pe.add_argument("--out")
    pe.set_defaults(fn=_cmd_perturb)

    rp = sub.add_parser("report", help="re-render an aggregate report")
    rp.add_argument("--aggregate", required=True)
    rp.add_argument("--format", default="json", choices=("json", "csv"))
    rp.add_argument("--out")
    rp.set_defaults(fn=_cmd_report)
    return p


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except InvariantViolation as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return 2
    except (InputError, CapacityError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
