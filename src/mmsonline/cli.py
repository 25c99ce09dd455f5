"""Command-line interface.

Exit codes: 0 clean, 1 input error, 2 invariant violation.  A usage error (an
unknown, abbreviated, conflicting or missing flag, a bad choice, a non-integer)
exits 1 too, and so does a parameter the command would not read.
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


def _json_arg(text: str):
    """A flag's JSON value; malformed JSON is an input error."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError(f"malformed JSON {text!r}: {exc}") from exc


def _generator_params(args) -> dict | None:
    """``--generator-params`` as a JSON object; only an absent flag is unset,
    so a JSON null is refused like any other value that is not an object."""
    if args.generator_params is None:
        return None
    params = _json_arg(args.generator_params)
    if not isinstance(params, dict):
        name = "" if args.generator is None else f" for {args.generator!r}"
        raise InputError(f"generator_params{name} must be a JSON object")
    return params


def _probs(spec: str | None) -> tuple[str, ...] | None:
    """A JSON list of probabilities, or a distribution file's, as strings;
    only an absent flag (``None``) is unset."""
    if spec is None:
        return None
    if spec.startswith("["):
        return tuple(_json_arg(spec))
    law = jsonio.distribution_from_obj(jsonio.load(spec))
    return tuple(jsonio.distribution_to_obj(law)["probs"])


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


# each gen flag's generator parameter
_GEN_FLAGS = dict(n="n", m="m", k="k", seed="seed", eps="epsilon", model="value_model")


def _cmd_gen(args) -> int:
    declared = generators.parameters(args.kind)
    given = {key: getattr(args, flag) for flag, key in _GEN_FLAGS.items() if getattr(args, flag) is not None}
    unread = [f"--{flag}" for flag, key in _GEN_FLAGS.items() if key in given and key not in declared]
    if unread:
        raise InputError(f"gen {args.kind} does not take {', '.join(unread)}")
    # an unset flag leaves the generator's default; a parameter without one takes n=4, m=12 or k=2
    params = {key: given.get(key, dict(n=4, m=12, k=2).get(key))
              for key, p in declared.items() if key in given or p.default is p.empty}
    inst, dist = generators.generate(args.kind, params)
    if dist is None and args.dist_out:
        raise InputError(f"gen {args.kind} ships no arrival law for --dist-out")
    _emit(jsonio.instance_to_obj(inst.base, inst) if isinstance(inst, NormalizedInstance)
          else jsonio.instance_to_obj(inst), args.out)
    if args.dist_out:
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
        "witness": [list(b) for b in res.witness],
        "nodes": res.nodes,
    }
    _emit(out, args.out)
    return 0


def _cmd_run_adversarial(args) -> int:
    if args.trace and args.enumerate:
        raise InputError("--trace is for --arrivals; --enumerate has no step trace")
    norm = jsonio.load_normalized(jsonio.load(args.instance))
    if args.enumerate:
        k, n = norm.k_types, norm.n_agents
        reports = (harness.run_algorithm("adversarial", norm, nth_sequence(k, n, t), alpha=args.alpha)[1]
                   for t in range(enumeration_size(k, n)))
        _emit(jsonio.report_to_obj(min(reports, key=lambda rep: rep.min_ratio)), args.out)
        return 0
    seq = jsonio.sequence_from_obj(jsonio.load(args.arrivals))
    _, rep = harness.run_algorithm("adversarial", norm, seq, alpha=args.alpha, trace=args.trace)
    for event in rep.step_trace or ():
        print(jsonio.canonical_json(event))  # one line per step
    _emit(jsonio.report_to_obj(rep), args.out)
    return 0


def _cmd_run_stochastic(args) -> int:
    """known-d (``--epsilon``) or unknown-d (``--c``): arrivals drawn from ``--dist``."""
    norm = jsonio.load_normalized(jsonio.load(args.instance))
    dist = TypeDistribution.from_probs(_probs(args.dist))
    seq = sample_arrivals(dist, norm.n_agents, args.seed)
    dist, seed = harness.if_read(args.algorithm, dist, lambda: args.seed)
    _, rep = harness.run_algorithm(args.algorithm, norm, seq, dist=dist, seed=seed, alpha=args.alpha, eta=args.eta,
                                   epsilon=vars(args).get("epsilon"), c=vars(args).get("c"))
    _emit(jsonio.report_to_obj(rep), args.out)
    return 0


def _cmd_mc(args) -> int:
    try:
        config = harness.McConfig(
            algorithm=args.algorithm,
            trials=args.trials,
            master_seed=args.seed,
            instance_obj=None if args.instance is None else jsonio.load(args.instance),
            generator=args.generator,
            generator_params=_generator_params(args),
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
    except harness.UnreadInputs as exc:  # name the flags as typed, not the fields they set
        raise harness.UnreadInputs(f"mc --algorithm {exc.what}", [{"fresh_instance_per_trial": "--fixed-instance"}.get(
            name, "--" + name.replace("_", "-")) for name in exc.names]) from exc
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


class _Parser(argparse.ArgumentParser):
    """A usage error raises :class:`InputError` (exit 1) instead of exiting 2,
    and a flag must be typed in full: no prefix stands for it."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, allow_abbrev=False, **kwargs)

    def error(self, message):
        raise InputError(message)


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(prog="mmsonline", description="Online maximin-share allocation toolkit")
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

    common = _Parser(add_help=False)
    common.add_argument("--instance", required=True)
    common.add_argument("--alpha")
    common.add_argument("--out")
    algorithms = sub.add_parser("run", help="run one online allocation").add_subparsers(
        dest="algorithm", required=True)
    a = algorithms.add_parser("adversarial", parents=[common], help="one arrival sequence, or the worst of all",
                              description="Repeated adversarial trials go through mc --algorithm adversarial.")
    source = a.add_mutually_exclusive_group(required=True)
    source.add_argument("--arrivals")
    source.add_argument("--enumerate", action="store_true")
    a.add_argument("--trace", action="store_true")
    a.set_defaults(fn=_cmd_run_adversarial)
    for algorithm, flag, default in (("known-d", "--epsilon", "1/10"), ("unknown-d", "--c", "1/20")):
        r = algorithms.add_parser(algorithm, parents=[common], help="arrivals drawn from --dist",
                                  description=f"Repeated trials go through mc --algorithm {algorithm}.")
        r.add_argument("--dist", required=True, help="JSON list of probs or a distribution file")
        r.add_argument("--eta")
        r.add_argument(flag, default=default)
        r.add_argument("--seed", type=int, default=0)
        r.set_defaults(fn=_cmd_run_stochastic)

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
    try:
        args = build_parser().parse_args(argv)
        return args.fn(args)
    except InvariantViolation as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return 2
    except (InputError, CapacityError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
