"""The mmsonline benchmark.

Run from the repository root:

    python3 bench/run.py --workload known-d-mc --seed 7 --seconds 20 --trace 0
    python3 bench/run.py                # all four workloads, one fresh process each

One run makes its inputs from ``--seed``, sets them up several times (the
median is ``setup_s``), warms up, then runs whole units of work for about
``--seconds`` seconds, one op at a time in this process.  Outputs are checked
outside the timed region.  With ``--trace 1`` every unit runs with each
public library function wrapped in a span, then again untraced, to measure
the tracing overhead and to compare the outputs.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the metrics are the
``end_to_end`` list of BENCHMARK.json (``--trace 0``) or its ``per_layer``
list (``--trace 1``).  Each run is also appended, with its environment, to
``.bench_out/runs.jsonl``.  See bench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import bisect
import dataclasses
import gc
import hashlib
import json
import math
import os
import platform
import random
import resource
import signal
import statistics
import subprocess
import sys
from contextlib import contextmanager
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from time import perf_counter
from typing import ClassVar

from tracing import Tracer

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
PINNED = json.loads((BENCH_DIR / "pinned.json").read_text())
OUT_DIR = ROOT / ".bench_out"

DEFAULT_SEED = PINNED["default_seed"]
SETUP_REPS = 3          # setup_s is the median of this many set-ups
TAIL_BEYOND = 10        # op_tail_ms: the slowest op with this many ops beyond it,
TAIL_MAX_PCT = 95       # at most at this percentile: beyond it, host and collector
                        # pauses make the value jump between runs
HARD_CAP_S = 100.0      # no unit starts after this long, whatever --seconds says
SETUP_BUDGET_S = 120.0  # wall-clock budget of one set-up
REF_NOMINAL_S = 0.0037  # reference() time that scaled times are relative to
GAUGE_EVERY_S = 0.5     # how often the host speed is gauged
SMOOTH_S = 1.0          # speed readings are averaged over this many seconds each way


def derive(*parts) -> int:
    """A 48-bit seed that depends only on ``parts``; independent of the library."""
    return random.Random(":".join(map(str, parts))).randrange(2**48)


def load_library() -> float:
    """Import mmsonline from the checkout's ``src``; returns the import time."""
    sys.path.insert(0, str(ROOT / "src"))
    start = perf_counter()
    try:
        import mmsonline  # noqa: F401
    except ImportError as exc:
        sys.exit(f"bench: cannot import mmsonline from {ROOT / 'src'}: {exc}")
    return perf_counter() - start


# -- op timing and budget ------------------------------------------------------


class OpTimeout(Exception):
    """An op ran past its wall-clock budget."""


def _on_alarm(_signum, _frame):
    raise OpTimeout("op ran past its budget")


def reference() -> float:
    """Seconds a fixed stdlib-only computation takes now (mean of three runs,
    with the collector off so that no garbage of the library is charged to it).

    The work is of the library's kind: exact rationals, sets, dicts, sorting."""
    total = 0.0
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        for _ in range(3):
            start = perf_counter()
            rng = random.Random(12345)
            vals = [Fraction(rng.randint(1, 48), rng.choice((1, 2, 3, 4, 6))) for _ in range(300)]
            acc = Fraction(0)
            high: set[int] = set()
            buckets: dict[int, Fraction] = {}
            for i, v in enumerate(vals):
                acc += v
                if v >= 4:
                    high.add(i)
                buckets[i % 37] = buckets.get(i % 37, Fraction(0)) + v
            vals.sort()
            total += perf_counter() - start
    finally:
        if was_enabled:
            gc.enable()
    return total / 3


class OpClock:
    """Times each op and enforces the per-op budget with an interval timer.

    The host's speed drifts by tens of percent over seconds, so the clock
    also gauges it: at most every GAUGE_EVERY_S, at an op or unit boundary,
    and once after the work, it times ``reference()``; the host speed is
    REF_NOMINAL_S over that time.  A speed reading is the mean of the
    readings within SMOOTH_S of it, and the speed at any moment is
    interpolated between readings.  Scaled times (each op's time, and each
    stretch of timed wall, times the speed at its middle) are what the
    end-to-end metrics report: seconds on a host where the reference takes
    REF_NOMINAL_S.  Gauging time is left out of the timed wall.
    """

    def __init__(self, budget_s: float, tracer: Tracer | None = None, gauge: bool = True) -> None:
        signal.signal(signal.SIGALRM, _on_alarm)
        self.budget_s = budget_s
        self.tracer = tracer
        self.latencies: list[float] = []
        self.tags: list[tuple] = []
        self.gauge_s = 0.0
        self.attempted = 0
        self.tag: tuple = ()
        self._gauge = gauge
        self._readings: list[tuple[float, float]] = []  # (time, speed)
        self._mids: list[float] = []                    # middle of each op
        self._stretches: list[tuple[float, float]] = []  # pieces of timed wall
        self._mark: float | None = None                 # start of the open piece

    def _maybe_gauge(self, force: bool = False) -> None:
        now = perf_counter()
        if not self._gauge or (not force and self._readings
                               and now - self._readings[-1][0] < GAUGE_EVERY_S):
            return
        if self._mark is not None:
            self._stretches.append((self._mark, now))
        speed = REF_NOMINAL_S / reference()
        end = perf_counter()
        self._readings.append(((now + end) / 2, speed))
        self.gauge_s += end - now
        if self._mark is not None:
            self._mark = end

    def open(self) -> None:
        """A unit starts: timed wall runs from here."""
        self._maybe_gauge()
        self._mark = perf_counter()

    def close(self) -> None:
        self._stretches.append((self._mark, perf_counter()))
        self._mark = None

    def run(self, tag: tuple, fn, *args, **kwargs):
        self._maybe_gauge()
        self.tag = tag
        if self.tracer is not None:
            self.tracer.op = self.attempted
        self.attempted += 1
        signal.setitimer(signal.ITIMER_REAL, self.budget_s)
        start = perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            if self.tracer is not None:
                self.tracer.op = -1
        latency = perf_counter() - start
        self.latencies.append(latency)
        self.tags.append(tag)
        self._mids.append(start + latency / 2)
        return result

    def scaled(self) -> tuple[list[float], float]:
        """(scaled op latencies, scaled timed wall), after one last gauge."""
        self._maybe_gauge(force=True)
        if not self._readings:
            return list(self.latencies), sum(b - a for a, b in self._stretches)
        times = [t for t, _ in self._readings]
        smooth = []
        for t, _ in self._readings:
            lo = bisect.bisect_left(times, t - SMOOTH_S)
            hi = bisect.bisect_right(times, t + SMOOTH_S)
            smooth.append(statistics.fmean(speed for _, speed in self._readings[lo:hi]))

        def speed_at(t: float) -> float:
            i = bisect.bisect_left(times, t)
            if i == 0:
                return smooth[0]
            if i == len(times):
                return smooth[-1]
            w = (t - times[i - 1]) / (times[i] - times[i - 1])
            return smooth[i - 1] + w * (smooth[i] - smooth[i - 1])

        latencies = [lat * speed_at(mid) for lat, mid in zip(self.latencies, self._mids)]
        wall = sum((b - a) * speed_at((a + b) / 2) for a, b in self._stretches)
        return latencies, wall

    @contextmanager
    def hooked(self, module, attr: str, tag_of):
        """Make every call of ``module.attr`` one op (for ops the library loops over)."""
        inner = getattr(module, attr)

        def op(*args, **kwargs):
            return self.run(tag_of(*args), inner, *args, **kwargs)

        setattr(module, attr, op)
        try:
            yield
        finally:
            setattr(module, attr, inner)


@dataclass
class Checked:
    bad_ops: int = 0
    judged: int = 0
    successes: int = 0


# -- workloads -----------------------------------------------------------------


@dataclass(frozen=True)
class KnownDMc:
    """harness.monte_carlo, known-d, a fresh normalized-random instance per trial."""

    name: ClassVar[str] = "known-d-mc"
    seeded: ClassVar[bool] = True
    n: int = 200
    m: int = 1000
    k: int = 3
    weight_lo: int = 3
    weight_hi: int = 5
    trials_per_unit: int = 20
    warmup_trials: int = 10
    budget_s: float = 10.0

    def config(self, master_seed: int, trials: int):
        from mmsonline.harness import McConfig
        return McConfig(
            algorithm="known-d", trials=trials, master_seed=master_seed,
            generator="normalized-random",
            generator_params={"n": self.n, "m": self.m, "k": self.k,
                              "weight_lo": self.weight_lo, "weight_hi": self.weight_hi},
            dist=tuple(f"1/{self.k}" for _ in range(self.k)), eta="1/2", epsilon="1/10")

    def make_inputs(self, seed: int):
        return seed  # each unit's master seed is derived from the run seed

    def warm_up(self, seed) -> None:
        from mmsonline import harness
        harness.monte_carlo(self.config(derive(seed, self.name, "warmup"), self.warmup_trials))

    def run_unit(self, seed, u: int, clock: OpClock):
        from mmsonline import harness
        cfg = self.config(derive(seed, self.name, "unit", u), self.trials_per_unit)
        with clock.hooked(harness, "run_trial", lambda config, trial: (config.master_seed, trial)):
            agg = harness.monte_carlo(cfg)
        return agg.canonical_json(), agg.rows

    def canonical(self, output) -> str:
        return output[0]

    def check(self, _state, output, out: Checked) -> None:
        # acceptance 5: saturated with counts within caps implies success,
        # and a successful trial left no type unsaturated
        for row in output[1]:
            det = row["details"]
            out.judged += 1
            out.successes += row["success"]
            if det.get("allSaturated") and det.get("countsWithinCaps") and not row["success"]:
                out.bad_ops += 1
            elif row["success"] and det.get("allSaturated") is False:
                out.bad_ops += 1


@dataclass(frozen=True)
class UnknownD:
    """unknown.run_unknown_d per trial on one n=5000 instance, as in acceptance 7."""

    name: ClassVar[str] = "unknown-d-n5000"
    seeded: ClassVar[bool] = True
    n: int = 5000
    m: int = 40000
    k: int = 3
    weight_lo: int = 2
    weight_hi: int = 4
    hidden: tuple[str, ...] = ("1/2", "3/10", "1/5")
    arrival_sequences: int = 24
    budget_s: float = 60.0

    def make_inputs(self, seed: int):
        from mmsonline import core, generators
        norm = generators.gen_normalized_random(
            self.n, self.m, self.k, seed=derive(seed, self.name, "instance"),
            weight_lo=self.weight_lo, weight_hi=self.weight_hi)
        dist = core.TypeDistribution.from_probs([Fraction(p) for p in self.hidden])
        arrivals = [generators.sample_arrivals(dist, self.n, derive(seed, self.name, "arrivals", t))
                    for t in range(self.arrival_sequences)]
        return {"seed": seed, "norm": norm, "arrivals": arrivals}

    def _trial(self, state, split_seed: int, arrivals, clock: OpClock):
        from mmsonline import unknown
        return clock.run((split_seed,), unknown.run_unknown_d, state["norm"], arrivals,
                         eta=Fraction(1, 2), c=Fraction(1, 20), seed=split_seed)

    def warm_up(self, state) -> None:
        self._trial(state, derive(state["seed"], self.name, "warmup"), state["arrivals"][-1],
                    OpClock(self.budget_s, gauge=False))

    def run_unit(self, state, u: int, clock: OpClock):
        arrivals = state["arrivals"][u % len(state["arrivals"])]
        return self._trial(state, derive(state["seed"], self.name, "split", u), arrivals, clock)

    def canonical(self, output) -> str:
        from mmsonline import jsonio
        allocation, report = output
        return jsonio.canonical_json({"allocation": jsonio.allocation_to_obj(allocation),
                                      "report": jsonio.report_to_obj(report)})

    def check(self, state, output, out: Checked) -> None:
        # an independent ex-post verification must reproduce the run's min ratio
        from mmsonline import core
        allocation, report = output
        out.judged += 1
        out.successes += report.succeeded_at_alpha
        again = core.verify_allocation(state["norm"], allocation, report.alpha)
        out.bad_ops += again.min_ratio != report.min_ratio


@dataclass(frozen=True)
class AdversarialExhaustive:
    """harness.monte_carlo over every arrival sequence of a few witnessed instances."""

    name: ClassVar[str] = "adversarial-exhaustive"
    seeded: ClassVar[bool] = True
    n: int = 7
    m: int = 20
    k: int = 3
    instances: int = 8
    warmup_trials: int = 300
    budget_s: float = 5.0

    def make_inputs(self, seed: int):
        from mmsonline import generators, jsonio
        objs = []
        for j in range(self.instances):
            norm = generators.gen_normalized_random(
                self.n, self.m, self.k, seed=derive(seed, self.name, "instance", j))
            objs.append(jsonio.instance_to_obj(norm.base, norm))
        return {"seed": seed, "objs": objs}

    def config(self, state, u: int):
        from mmsonline.harness import McConfig
        return McConfig(algorithm="adversarial", trials=0, master_seed=state["seed"],
                        instance_obj=state["objs"][u % len(state["objs"])], arrivals="exhaustive")

    def warm_up(self, state) -> None:
        from mmsonline import harness
        cfg = self.config(state, 0)
        for t in range(self.warmup_trials):
            harness.run_trial(cfg, t)

    def run_unit(self, state, u: int, clock: OpClock):
        from mmsonline import harness
        cfg = self.config(state, u)
        with clock.hooked(harness, "run_trial", lambda config, trial: (u, trial)):
            agg = harness.monte_carlo(cfg)
        return agg.canonical_json(), agg.rows

    def canonical(self, output) -> str:
        return output[0]

    def check(self, _state, output, out: Checked) -> None:
        # acceptance 3: every exhaustive run meets 1/k
        floor = Fraction(1, self.k)
        for row in output[1]:
            out.judged += 1
            out.successes += row["success"]
            out.bad_ops += Fraction(row["minRatio"]) < floor


@dataclass(frozen=True)
class SolverLadder:
    """core.normalize over a pinned ladder of raw uniform instances.

    The ladder does not depend on the run seed, so every run solves the same
    instances; rungs stop where every instance solves within seconds.
    """

    name: ClassVar[str] = "solver-ladder"
    seeded: ClassVar[bool] = False
    ns: tuple[int, ...] = (4, 5, 6)
    ms: tuple[int, ...] = (12, 13, 14)
    k: int = 3
    per_rung: int = 6
    budget_s: float = 60.0

    def make_inputs(self, _seed: int):
        from mmsonline import generators
        ladder = []
        for n in self.ns:
            for m in self.ms:
                for j in range(self.per_rung):
                    s = derive(DEFAULT_SEED, self.name, n, m, j)
                    ladder.append((n, m, s, generators.gen_random(n, m, self.k, "uniform", seed=s)))
        return ladder

    def warm_up(self, ladder) -> None:
        from mmsonline import core
        for _, _, _, inst in sorted(ladder, key=lambda rung: (rung[1], rung[0]))[:self.per_rung]:
            core.normalize(inst)

    def run_unit(self, ladder, _u: int, clock: OpClock):
        from mmsonline import core
        return [clock.run((n, m, s), core.normalize, inst) for n, m, s, inst in ladder]

    def canonical(self, output) -> str:
        from mmsonline import jsonio
        return "\n".join(jsonio.canonical_json(jsonio.instance_to_obj(norm.base, norm))
                         for norm in output)

    def oracle(self, n: int, m: int, s: int, i: int, row) -> Fraction | None:
        """Brute-force share of type ``i`` on rungs within the oracle caps.

        The full ladder's values are pinned in pinned.json (bench/pin.py
        recomputes them; they take minutes); others are computed here."""
        from mmsonline import solver
        if m > solver.BRUTE_ITEM_CAP or n > solver.BRUTE_BUNDLE_CAP:
            return None
        pinned = PINNED["ladder_oracle"].get(f"{n}/{m}/{s}/{i}")
        if pinned is not None:
            return Fraction(pinned)
        return solver.mms_brute_force(row, n).value

    def check(self, ladder, output, out: Checked) -> None:
        # every witness bundle is worth exactly 1 after normalize, and shares
        # within the oracle caps match the brute-force oracle
        from mmsonline import core
        for (n, m, s, inst), norm in zip(ladder, output):
            out.judged += 1
            ok = True
            for i, raw in enumerate(inst.type_values):
                if i not in norm.zero_mms_types:
                    row = norm.base.type_values[i]
                    ok &= all(core.value(row, b) == 1 for b in norm.witness_partitions[i])
                want = self.oracle(n, m, s, i, raw)
                ok &= want is None or want == norm.original_mms[i]
            out.bad_ops += not ok
            out.successes += ok


WORKLOADS = {wl.name: wl for wl in (KnownDMc(), UnknownD(), AdversarialExhaustive(), SolverLadder())}


# -- one run -------------------------------------------------------------------


@dataclass
class Timed:
    wall: float = 0.0           # time inside units; checks and hashing excluded
    units: int = 0
    failures: list[str] = dataclasses.field(default_factory=list)


def run_one_unit(wl, state, clock: OpClock, seed: int, timed: Timed, consume) -> None:
    """Run unit number ``timed.units`` into ``timed``.  Its output goes to
    ``consume`` outside the timed region, so no output outlives its check."""
    start = perf_counter()
    gauged = clock.gauge_s
    clock.open()
    try:
        output = wl.run_unit(state, timed.units, clock)
    except Exception as exc:  # a failed op is data: log it and go on
        output = None
        timed.failures.append(f"{wl.name} seed={seed} unit={timed.units} op={clock.tag}: "
                              f"{type(exc).__name__}: {exc}")
        print(f"bench: FAILED {timed.failures[-1]}", file=sys.stderr)
    clock.close()
    timed.wall += perf_counter() - start - (clock.gauge_s - gauged)
    timed.units += 1
    if output is not None:
        consume(output)


def more_units(timed: Timed, seconds: float) -> bool:
    """Whole units until the next would end past ``seconds``."""
    if not timed.units:
        return True
    return timed.wall * (1 + 1 / timed.units) <= seconds and timed.wall <= HARD_CAP_S


class Outputs:
    """Checks each unit's output and keeps only its digest."""

    def __init__(self, wl, state) -> None:
        self.wl = wl
        self.state = state
        self.checked = Checked()
        self.digests: list[str] = []

    def add(self, output) -> None:
        self.digests.append(unit_digest(self.wl, output))
        self.wl.check(self.state, output, self.checked)


def unit_digest(wl, output) -> str:
    return hashlib.sha256(wl.canonical(output).encode() + b"\n").hexdigest()


def default_digest(wl, seed: int | None = None, digests: list[str] | None = None) -> str:
    """Digest of the workload's first unit at the default seed, reusing a run's
    first unit when it is the same work."""
    if digests and (not wl.seeded or seed == DEFAULT_SEED):
        return digests[0]
    state = wl.make_inputs(DEFAULT_SEED)
    return unit_digest(wl, wl.run_unit(state, 0, OpClock(wl.budget_s, gauge=False)))


def tail(latencies: list[float]) -> tuple[float, float]:
    """(latency, percentile) at the highest percentile, up to TAIL_MAX_PCT,
    that has TAIL_BEYOND ops beyond it; the slowest op when there are too
    few ops for that."""
    ordered = sorted(latencies)
    n = len(ordered)
    idx = min(n - TAIL_BEYOND - 1, math.ceil(n * TAIL_MAX_PCT / 100) - 1)
    if idx < 0:
        idx = n - 1
    return ordered[idx], 100.0 * (idx + 1) / n


def per_op(latencies: list[float], tags: list[tuple]) -> list[float]:
    """One latency per distinct op: an op that ran several times in the run
    (the pinned solver ladder repeats every pass) counts at its median."""
    runs: dict[tuple, list[float]] = {}
    for tag, latency in zip(tags, latencies):
        runs.setdefault(tag, []).append(latency)
    return [statistics.median(v) for v in runs.values()]


def latency_metrics(latencies: list[float]) -> dict[str, float]:
    if not latencies:
        return {"op_p50_ms": 0.0, "op_tail_ms": 0.0}
    return {"op_p50_ms": statistics.median(latencies) * 1e3,
            "op_tail_ms": tail(latencies)[0] * 1e3}


def _read(path: str | Path) -> str | None:
    try:
        return Path(path).read_text()
    except OSError:
        return None


def _git_commit() -> str | None:
    head = _read(ROOT / ".git" / "HEAD")
    if head is None:
        return None
    head = head.strip()
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    direct = _read(ROOT / ".git" / ref)
    if direct is not None:
        return direct.strip()
    for line in (_read(ROOT / ".git" / "packed-refs") or "").splitlines():
        if line.endswith(" " + ref):
            return line.split()[0]
    return None


def environment(wl, seed: int, seconds: float, trace: bool) -> dict:
    cpu = next((line.split(":", 1)[1].strip()
                for line in (_read("/proc/cpuinfo") or "").splitlines()
                if line.startswith("model name")), platform.processor() or None)
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "loadavg_start": (_read("/proc/loadavg") or "").strip() or None,
        "git_commit": _git_commit(),
        "workload": wl.name,
        "params": dataclasses.asdict(wl),
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
    }


def _metrics(kind: str, values: dict) -> dict:
    return {spec["name"]: {"value": values[spec["name"]], "unit": spec["unit"]}
            for spec in SPEC[kind]}


def run_workload(wl, seed: int, seconds: float, trace: bool, import_s: float) -> dict:
    """One run of one workload; returns its JSON result and its record."""
    env = environment(wl, seed, seconds, trace)

    def set_up():
        state = wl.make_inputs(seed)
        wl.warm_up(state)
        return state

    setup_clock = OpClock(SETUP_BUDGET_S, gauge=not trace)
    state = None
    for _ in range(1 if trace else SETUP_REPS):
        state = None
        state = setup_clock.run(("setup",), set_up)
    gc.collect()

    outputs = Outputs(wl, state)
    timed = Timed()
    if trace:
        # each unit runs traced, then again untraced right after it, so
        # that both see the same host speed; the outputs must agree
        tracer = Tracer()
        clock = OpClock(wl.budget_s, tracer, gauge=False)
        untraced_clock = OpClock(wl.budget_s, gauge=False)
        untraced = Timed()
        untraced_outputs = Outputs(wl, state)
        while more_units(timed, seconds):
            traced_out: list = []
            with tracer.installed():
                run_one_unit(wl, state, clock, seed, timed, traced_out.append)
            for output in traced_out:
                outputs.add(output)
            run_one_unit(wl, state, untraced_clock, seed, untraced, untraced_outputs.add)
    else:
        clock = OpClock(wl.budget_s)
        while more_units(timed, seconds):
            run_one_unit(wl, state, clock, seed, timed, outputs.add)
        scaled, scaled_wall = clock.scaled()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    checked = outputs.checked
    failed = len(timed.failures) + checked.bad_ops
    attempted = max(clock.attempted, 1)
    record = {"env": env, "setup_runs_s": setup_clock.latencies, "import_s": import_s,
              "units": timed.units, "ops": len(clock.latencies), "timed_wall_s": timed.wall,
              "failures": timed.failures, "check_failures": checked.bad_ops,
              "fail_ratio": failed / attempted, "unit_digests": outputs.digests}

    if trace:
        layer = tracer.layer_metrics()
        layer["trace.overhead_ratio"] = timed.wall / untraced.wall - 1
        layer["trace.unattributed_s"] = timed.wall - tracer.total_self_s()
        record["layers"] = layer
        record["untraced_unit_digests"] = untraced_outputs.digests
        record["untraced_wall_s"] = untraced.wall
        correct = (failed == 0 and not untraced.failures
                   and untraced_outputs.digests == outputs.digests)
        metrics = _metrics("per_layer", layer)
        spans = OUT_DIR / f"spans-{wl.name}-seed{seed}.bin"
        tracer.write(spans)
        record["spans_file"] = str(spans.relative_to(ROOT))
        record["spans"] = len(tracer.span_name)
    else:
        record["default_digest"] = default_digest(wl, seed, outputs.digests)
        digest_ok = int(record["default_digest"] == PINNED["digests"].get(wl.name))
        scaled_setup, _ = setup_clock.scaled()
        raw_ops = per_op(clock.latencies, clock.tags)
        ops = per_op(scaled, clock.tags)
        record["raw"] = {"ops_per_s": len(clock.latencies) / timed.wall,
                         **latency_metrics(raw_ops),
                         "setup_s": import_s + statistics.median(setup_clock.latencies)}
        values = {
            "ops_per_s": len(scaled) / scaled_wall,
            **latency_metrics(ops),
            "setup_s": (import_s * scaled_setup[0] / setup_clock.latencies[0]
                        + statistics.median(scaled_setup)),
            "peak_rss_mb": peak_rss_mb,
            "success_rate": checked.successes / checked.judged if checked.judged else 0.0,
            "digest_ok": digest_ok,
            "fail_ratio": failed / attempted,
        }
        record["op_tail_percentile"] = tail(ops)[1] if ops else 0.0
        record["distinct_ops"] = len(ops)
        record["values"] = values
        correct = failed == 0 and digest_ok == 1
        metrics = _metrics("end_to_end", values)
    env["loadavg_end"] = (_read("/proc/loadavg") or "").strip() or None
    result = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    return {"result": result, "record": record}


def print_metrics(name: str, metrics: dict) -> None:
    for metric, entry in metrics.items():
        print(f"{name:24s} {metric:48s} {entry['value']:>16.6g} {entry['unit']}")


# -- command line ----------------------------------------------------------------


def run_all(args) -> int:
    """Every workload, one after another, each in a fresh process."""
    results = {}
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900, cwd=ROOT)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"bench: {name} exited with code {proc.returncode}", file=sys.stderr)
            return 1
        print("\n".join(lines[:-1]))
        results[name] = json.loads(lines[-1])
    print()
    for name, res in results.items():
        print(f"{name:24s} correct={res['correct']} attempted={res['attempted']} "
              f"failed={res['failed']} fail_ratio={res['failed'] / res['attempted']:.6g}")
    print(json.dumps(results))
    return 0 if all(r["correct"] for r in results.values()) else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    import_s = load_library()
    if args.workload == "all":
        return run_all(args)
    out = run_workload(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace),
                       import_s)
    result, record = out["result"], out["record"]
    OUT_DIR.mkdir(exist_ok=True)
    with (OUT_DIR / "runs.jsonl").open("a") as fh:
        fh.write(json.dumps({"result": result, **record}) + "\n")
    print("env " + json.dumps(record["env"]))
    print_metrics(args.workload, result["metrics"])
    if not args.trace:
        print_metrics(args.workload, {
            "fail_ratio": {"value": record["fail_ratio"], "unit": "ratio"}})
        print(f"{args.workload:24s} op_tail_ms is p{record['op_tail_percentile']:.4g} "
              f"of {record['distinct_ops']} distinct ops ({record['ops']} runs)")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
