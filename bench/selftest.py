"""Smoke-size self-test of the benchmark (about a minute):

    python3 bench/selftest.py

For a shrunken copy of every workload it runs the benchmark once untraced
and once traced, in this process, and checks that
- every end_to_end and per_layer metric of BENCHMARK.json is emitted, under
  the same name and unit, and nothing else;
- no op failed and the outputs passed their checks;
- the traced run's outputs hash to the same digests, unit by unit, as the
  untraced run's and as the untraced rerun of each traced unit.
Exits 1 and lists the problems if any check fails.
"""

from __future__ import annotations

import dataclasses
import sys

import run

SMOKE = {
    "known-d-mc": dict(n=20, m=100, trials_per_unit=4, warmup_trials=2),
    "unknown-d-n5000": dict(n=600, m=4800, arrival_sequences=2),
    "adversarial-exhaustive": dict(n=4, m=10, instances=2, warmup_trials=4),
    "solver-ladder": dict(ns=(3, 4), ms=(7, 8), per_rung=1),
}


def main() -> int:
    run.load_library()
    problems: list[str] = []
    for name, shrink in SMOKE.items():
        wl = dataclasses.replace(run.WORKLOADS[name], **shrink)
        plain = run.run_workload(wl, seed=1, seconds=0.3, trace=False, import_s=0.0)
        traced = run.run_workload(wl, seed=1, seconds=0.3, trace=True, import_s=0.0)
        for kind, out in (("end_to_end", plain), ("per_layer", traced)):
            want = {spec["name"]: spec["unit"] for spec in run.SPEC[kind]}
            got = {metric: entry["unit"] for metric, entry in out["result"]["metrics"].items()}
            if got != want:
                problems.append(f"{name}: {kind} metrics differ from BENCHMARK.json: "
                                f"{sorted(set(got.items()) ^ set(want.items()))}")
            if out["result"]["failed"]:
                problems.append(f"{name}: {kind} run failed {out['result']['failed']} ops: "
                                f"{out['record']['failures']}")
        plain_units = plain["record"]["unit_digests"]
        traced_units = traced["record"]["unit_digests"]
        shared = min(len(plain_units), len(traced_units))
        if not shared or plain_units[:shared] != traced_units[:shared]:
            problems.append(f"{name}: traced and untraced outputs differ")
        if traced["record"]["untraced_unit_digests"] != traced_units:
            problems.append(f"{name}: traced units and their untraced reruns differ")
        print(f"{name}: {plain['record']['ops']} untraced ops, "
              f"{traced['record']['ops']} traced ops, {shared} units compared", flush=True)
    for problem in problems:
        print(f"selftest: {problem}", file=sys.stderr)
    print("selftest: " + ("FAILED" if problems else "ok"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
