"""Recompute bench/pinned.json from the library as it is now.

    python3 bench/pin.py

It pins two things the benchmark checks against:
- ``digests``: sha256 of each workload's first unit of canonical output at
  the default seed (``digest_ok``).  Re-pin only when a change is meant to
  alter outputs, and say so.
- ``ladder_oracle``: ``mms_brute_force`` shares of every solver-ladder
  instance within the oracle caps, keyed "n/m/seed/type".  At m=12, n=5
  each takes about 40 s, so the benchmark reads them instead of solving.
  Values already pinned are kept; delete them to recompute.
"""

from __future__ import annotations

import json

import run


def main() -> None:
    run.load_library()
    from mmsonline import jsonio, solver

    ladder = run.WORKLOADS["solver-ladder"]
    oracle = {}
    for n, m, s, inst in ladder.make_inputs(run.DEFAULT_SEED):
        if m > solver.BRUTE_ITEM_CAP or n > solver.BRUTE_BUNDLE_CAP:
            continue
        for i, row in enumerate(inst.type_values):
            key = f"{n}/{m}/{s}/{i}"
            oracle[key] = run.PINNED["ladder_oracle"].get(key) or jsonio.frac_to_str(
                solver.mms_brute_force(row, n).value)
            print(f"oracle {key} = {oracle[key]}", flush=True)
    digests = {}
    for name, wl in run.WORKLOADS.items():
        digests[name] = run.default_digest(wl)
        print(f"digest {name} = {digests[name]}", flush=True)
    pinned = {"default_seed": run.DEFAULT_SEED, "digests": digests, "ladder_oracle": oracle}
    (run.BENCH_DIR / "pinned.json").write_text(json.dumps(pinned, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
