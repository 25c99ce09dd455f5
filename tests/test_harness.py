import concurrent.futures
import dataclasses
import json
import os
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest

from mmsonline import (
    InputError,
    InvariantViolation,
    TypeDistribution,
    gen_random,
    normalize,
)
from mmsonline import harness
from mmsonline.harness import (
    AggregateReport,
    CSV_COLUMNS,
    McConfig,
    degradation_trial,
    monte_carlo,
    perturb,
    render_csv,
    run_trial,
)
from mmsonline.generators import sample_arrivals
from mmsonline.jsonio import canonical_json, instance_to_obj
from mmsonline.rng import randints, substream
from mmsonline.solver import mms_exact

UNIFORM2 = ("1/2", "1/2")
UNIFORM3 = ("1/3", "1/3", "1/3")


def _fixed_instance_obj(seed=0, n=3, m=8, k=2):
    from mmsonline.generators import gen_normalized_random
    from mmsonline.jsonio import instance_to_obj
    norm = gen_normalized_random(n, m, k, seed=seed)
    return instance_to_obj(norm.base, norm)


def test_single_trial_matches_direct_run():
    cfg = McConfig(algorithm="adversarial", trials=1, master_seed=5,
                   instance_obj=_fixed_instance_obj(), dist=UNIFORM2)
    agg = monte_carlo(cfg)
    row = agg.rows[0]
    again = run_trial(cfg, 0)
    assert row == again
    assert agg.success_rate == 1.0


def test_exhaustive_enumeration_success_rate_exactly_one():
    cfg = McConfig(algorithm="adversarial", trials=16, master_seed=1,
                   instance_obj=_fixed_instance_obj(n=4, m=10),
                   arrivals="exhaustive")
    agg = monte_carlo(cfg)
    assert len(agg.rows) == 16
    assert agg.success_rate == 1.0
    assert agg.invariant_violations == 0
    # wrong trial count is rejected
    with pytest.raises(Exception):
        monte_carlo(McConfig(algorithm="adversarial", trials=5, master_seed=1,
                             instance_obj=_fixed_instance_obj(n=4, m=10),
                             arrivals="exhaustive"))


def test_tightness_half_mc_all_fail_with_empty_reserve():
    from mmsonline.generators import gen_tightness_half
    from mmsonline.jsonio import instance_to_obj as i2o
    norm = gen_tightness_half(3, 30, F(1, 10))
    cfg = McConfig(algorithm="known-d", trials=6, master_seed=3,
                   instance_obj=i2o(norm.base, norm), dist=UNIFORM3,
                   alpha="3/5", epsilon="1/10")
    agg = monte_carlo(cfg)
    assert agg.success_rate == 0.0
    assert set(agg.failure_histogram) == {"emptyReserve"}


def test_determinism_across_parallelism():
    base = dict(algorithm="known-d", trials=12, master_seed=11,
                generator="normalized-random",
                generator_params={"n": 12, "m": 40, "k": 3},
                dist=UNIFORM3, eta="1/2", epsilon="1/10")
    serial = monte_carlo(McConfig(**base, parallelism=1))
    parallel = monte_carlo(McConfig(**base, parallelism=3))
    assert serial.canonical_json() == parallel.canonical_json()


@pytest.mark.parametrize("parallelism, trials, cpus, workers", [
    (100_000, 2, 8, [2]), (100_000, 20, 8, [8]), (3, 20, 8, [3]),
    (100_000, 20, None, []), (4, 1, 8, []),
])
def test_monte_carlo_caps_its_worker_count(monkeypatch, parallelism, trials, cpus, workers):
    # a fake pool records max_workers and maps in-process, so no process starts
    started = []

    class FakePool:
        def __init__(self, max_workers):
            started.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, iterable, chunksize=1):
            return map(fn, iterable)

    base = dict(algorithm="adversarial", trials=trials, master_seed=4,
                instance_obj=_fixed_instance_obj(), dist=UNIFORM2)
    serial = monte_carlo(McConfig(**base)).canonical_json()
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", FakePool)  # imported where the pool starts
    monkeypatch.setattr(harness.os, "cpu_count", lambda: cpus)
    assert monte_carlo(McConfig(**base, parallelism=parallelism)).canonical_json() == serial
    assert started == workers


def test_importing_the_harness_leaves_multiprocessing_unloaded():
    # the pool is imported where a parallel run starts it, so a serial run never pays for it
    src = Path(harness.__file__).resolve().parents[1]
    code = "import sys, mmsonline.harness; print(sorted(m for m in sys.modules if m.startswith('multiprocessing')))"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True,
                         env={**os.environ, "PYTHONPATH": str(src)})
    assert out.stdout == "[]\n"


def test_repeat_same_seed_byte_identical():
    cfg = McConfig(algorithm="unknown-d", trials=4, master_seed=9,
                   generator="normalized-random",
                   generator_params={"n": 40, "m": 160, "k": 2, "weight_lo": 2, "weight_hi": 4},
                   hidden_dist=UNIFORM2, eta="1/2", c="1/20")
    a = monte_carlo(cfg).canonical_json()
    b = monte_carlo(cfg).canonical_json()
    assert a == b
    assert monte_carlo(dataclasses.replace(cfg, master_seed=10)).canonical_json() != a


def test_perturb_identity_and_bounds():
    inst = gen_random(3, 8, 2, "uniform", seed=4)
    assert perturb(inst, F(1), seed=7) == inst
    beta = F(6, 5)
    pert = perturb(inst, beta, seed=7)
    for row, prow in zip(inst.type_values, pert.type_values):
        for v, pv in zip(row, prow):
            assert v / beta <= pv <= v * beta


def test_perturb_share_bracketing():
    beta = F(6, 5)
    for seed in range(10):
        inst = gen_random(3, 8, 2, "uniform", seed=seed)
        pert = perturb(inst, beta, seed=seed)
        for i in range(2):
            true_mms = mms_exact(inst.type_values[i], 3).value
            pert_mms = mms_exact(pert.type_values[i], 3).value
            assert true_mms / beta <= pert_mms <= true_mms * beta


def test_degradation_trial_adversarial():
    dist = TypeDistribution.from_probs([F(1, 2), F(1, 2)])
    out = degradation_trial("adversarial", gen_random(3, 8, 2, "uniform", seed=2),
                            F(6, 5), seed=3, dist=dist)
    assert out["bracketOk"]
    assert out["degradationOk"]
    if out["perturbedSuccess"]:
        assert out["trueMinRatio"] >= out["degradedAlpha"]


# each algorithm's own parameters, and every other one set, in the order run_algorithm names them
OWN = {
    "adversarial": (dict(trace=True), dict(eta=F(1, 2), epsilon=F(1, 10), c=F(1, 20), seed=3)),
    "known-d": (dict(eta=F(1, 2), epsilon=F(1, 10)), dict(c=F(1, 20), seed=3, trace=True)),
    "unknown-d": (dict(eta=F(1, 2), c=F(1, 20), seed=3), dict(epsilon=F(1, 10), trace=True)),
}


@pytest.mark.parametrize("algorithm", sorted(OWN))
def test_run_algorithm_refuses_every_parameter_its_algorithm_never_reads(algorithm):
    own, other = OWN[algorithm]
    law = TypeDistribution.from_probs(UNIFORM2)
    if algorithm == "known-d":
        own = {**own, "dist": law}
    else:
        other = {"dist": law, **other}
    norm = harness.jsonio.load_normalized(_fixed_instance_obj(n=12, m=40))
    seq = sample_arrivals(law, 12, 5)
    harness.run_algorithm(algorithm, norm, seq, **own, **dict.fromkeys(other))  # None is unset
    for name, val in other.items():
        with pytest.raises(InputError, match=rf"^{algorithm} never reads {name}$"):
            harness.run_algorithm(algorithm, norm, seq, **own, **{name: val})
    with pytest.raises(InputError, match=rf"^{algorithm} never reads {', '.join(other)}$"):
        harness.run_algorithm(algorithm, norm, seq, **own, **other)
    # degradation_trial draws the arrivals from dist and seeds them by seed,
    # so only the other rationals reach the algorithm unread
    rationals = [name for name in ("eta", "epsilon", "c") if name in other]
    with pytest.raises(InputError, match=rf"^{algorithm} never reads {', '.join(rationals)}$"):
        degradation_trial(algorithm, gen_random(3, 8, 2, "uniform", seed=2), F(6, 5), seed=3, dist=law,
                          **{name: val for name, val in own.items() if name in ("eta", "epsilon", "c")},
                          **{name: other[name] for name in rationals})


def test_degradation_trial_known_d_needs_distribution():
    with pytest.raises(InputError):
        degradation_trial("known-d", gen_random(3, 8, 2, "uniform", seed=2),
                          F(6, 5), seed=3, eta=F(1, 2), epsilon=F(1, 10))


def test_degradation_trial_draws_uniform_arrivals_without_a_law():
    # the uniform law's threshold table is 1..k, so each draw is the bare randint
    for k in range(1, 9):
        uniform = TypeDistribution.from_probs([F(1, k)] * k)
        for n in (1, 3, 8, 50):
            for seed in range(40):
                assert sample_arrivals(uniform, n, seed) == randints(substream(seed, "arrivals"), 0, k - 1, n)
    inst = gen_random(3, 8, 2, "uniform", seed=2)
    assert degradation_trial("adversarial", inst, F(6, 5), seed=3) == degradation_trial(
        "adversarial", inst, F(6, 5), seed=3, dist=TypeDistribution.from_probs(UNIFORM2))


@pytest.mark.parametrize("call, message", [
    (lambda: monte_carlo(McConfig(algorithm="adversarial", trials=1, master_seed=0,
                                  instance_obj=_fixed_instance_obj())),
     "iid arrivals need a distribution"),
    (lambda: monte_carlo(McConfig(algorithm="adversarial", trials=1, master_seed=0,
                                  instance_obj=_fixed_instance_obj(), dist=UNIFORM3)),
     "arrival distribution arity mismatch"),
    (lambda: monte_carlo(McConfig(algorithm="adversarial", trials=0, master_seed=0, arrivals="exhaustive",
                                  generator="normalized-random", generator_params={"n": 3, "m": 8, "k": 2})),
     "exhaustive arrivals need a fixed instance"),
    (lambda: perturb(gen_random(3, 8, 2, "uniform", seed=2), F(5, 6), seed=0), "beta must be at least 1"),
], ids=["iid-without-law", "iid-wrong-arity", "exhaustive-without-instance", "beta-below-1"])
def test_harness_rejects_unusable_inputs(call, message):
    with pytest.raises(InputError) as err:
        call()
    assert str(err.value) == message


@pytest.mark.parametrize("missing", ["epsilon", "c"])
def test_run_trial_missing_parameter_is_input_error(missing):
    algorithm, law = ("known-d", "dist") if missing == "epsilon" else ("unknown-d", "hidden_dist")
    cfg = McConfig(algorithm=algorithm, trials=1, master_seed=0,
                   instance_obj=_fixed_instance_obj(n=12, m=40), eta="1/2", **{law: UNIFORM2})
    with pytest.raises(InputError, match=missing):
        run_trial(cfg, 0)


def test_emit_report_roundtrip_and_csv():
    cfg = McConfig(algorithm="adversarial", trials=3, master_seed=2,
                   instance_obj=_fixed_instance_obj(), dist=UNIFORM2)
    agg = monte_carlo(cfg)
    parsed = json.loads(agg.canonical_json())
    assert canonical_json(parsed) == agg.canonical_json()
    assert AggregateReport.from_obj(parsed) == agg
    lines = render_csv(agg).strip().splitlines()
    assert lines[0] == ",".join(CSV_COLUMNS)
    assert len(lines) == 4  # header + 3 rows


def test_empty_aggregate_header_only():
    agg = AggregateReport(config={}, rows=[], success_rate=0.0, failure_histogram={},
                          invariant_violations=0, min_ratio_overall="1/1",
                          mean_min_ratio=0.0, quantiles={})
    assert render_csv(agg).strip() == ",".join(CSV_COLUMNS)


def test_mcconfig_validation():
    with pytest.raises(Exception):
        McConfig(algorithm="nope", trials=1, master_seed=0, generator="random")
    with pytest.raises(Exception):
        McConfig(algorithm="adversarial", trials=1, master_seed=0)  # no instance source


def test_min_ratio_overall_by_exact_order(monkeypatch):
    # the binary double nearest 1/3 lies just below it: as floats the two tie
    third, below = "1/3", "6004799503160661/18014398509481984"
    assert F(below) < F(third) and float(F(below)) == float(F(third))
    cfg = McConfig(algorithm="adversarial", trials=2, master_seed=0,
                   instance_obj=_fixed_instance_obj(), dist=UNIFORM2)
    for ratios in ([third, below], [below, third]):
        def fake_trial(config, trial, ratios=ratios):
            return {"trial": trial, "minRatio": ratios[trial], "success": True,
                    "failureReason": "none", "violations": 0}
        monkeypatch.setattr(harness, "run_trial", fake_trial)
        assert monte_carlo(cfg).min_ratio_overall == below


def test_mean_min_ratio_adds_left_to_right_on_every_python(monkeypatch):
    # ten tenths add up to just below 1 one at a time, and to exactly 1 with
    # the compensated float sum() of Python 3.12 on; the report keeps the former
    cfg = McConfig(algorithm="adversarial", trials=10, master_seed=0,
                   instance_obj=_fixed_instance_obj(), dist=UNIFORM2)
    monkeypatch.setattr(harness, "run_trial", lambda config, trial: {
        "trial": trial, "minRatio": "1/10", "success": True, "failureReason": "none", "violations": 0})
    assert monte_carlo(cfg).mean_min_ratio == 0.9999999999999999 / 10


@pytest.mark.parametrize("parallelism", [1, 2])
def test_raised_violation_aborts_at_its_trial(monkeypatch, tmp_path, capsys, parallelism):
    # of the 2^2 orders of a k = 2, n = 2 instance, trial 2's run raises a violation
    from mmsonline.cli import main
    inst = tmp_path / "inst.json"
    inst.write_text(canonical_json(_fixed_instance_obj(n=2, m=5)))
    run, served = harness.run_algorithm, []
    def planted(algorithm, norm, seq, **kw):
        served.append(seq)
        if seq == [1, 0]:
            raise InvariantViolation("planted")
        return run(algorithm, norm, seq, **kw)
    monkeypatch.setattr(harness, "run_algorithm", planted)
    assert main(["mc", "--algorithm", "adversarial", "--trials", "0", "--arrivals", "exhaustive",
                 "--instance", str(inst), "--parallelism", str(parallelism)]) == 2
    assert capsys.readouterr().err == ("invariant violation: planted; "
                                       "reproduce with master_seed=0, trial=2\n")
    if parallelism == 1:
        assert served == [[0, 0], [0, 1], [1, 0]]  # the experiment stops at the failing trial


# Fixed-instance configs: a witnessed instance file, a raw one (normalized by
# the exact solver) and a generator held fixed, each with exhaustive and with
# i.i.d. arrivals.
FIXED_CONFIGS = {
    "witnessed-exhaustive": dict(algorithm="adversarial", trials=0, arrivals="exhaustive",
                                 instance_obj=_fixed_instance_obj(seed=4, n=4, m=10, k=2)),
    "witnessed-iid": dict(algorithm="known-d", trials=10, dist=UNIFORM3, eta="1/2",
                          epsilon="1/10", instance_obj=_fixed_instance_obj(seed=5, n=6, m=18, k=3)),
    "raw-exhaustive": dict(algorithm="adversarial", trials=0, arrivals="exhaustive",
                           instance_obj=instance_to_obj(gen_random(3, 7, 2, "uniform", seed=1))),
    "raw-iid": dict(algorithm="unknown-d", trials=10, hidden_dist=UNIFORM2, alpha="1/3",
                    c="1/20", instance_obj=instance_to_obj(gen_random(4, 9, 2, "uniform", seed=2))),
    "generator-exhaustive": dict(algorithm="adversarial", trials=0, arrivals="exhaustive",
                                 generator="normalized-random", fresh_instance_per_trial=False,
                                 generator_params={"n": 4, "m": 10, "k": 3}),
    "generator-iid": dict(algorithm="adversarial", trials=10, dist=UNIFORM3,
                          generator="normalized-random", fresh_instance_per_trial=False,
                          generator_params={"n": 5, "m": 12, "k": 3}),
}


@pytest.mark.parametrize("parallelism", [1, 2])
@pytest.mark.parametrize("name", FIXED_CONFIGS)
def test_fixed_instance_once_matches_per_trial_resolution(monkeypatch, name, parallelism):
    config = McConfig(master_seed=6, parallelism=parallelism, **FIXED_CONFIGS[name])
    got = monte_carlo(config).canonical_json()
    # reference: every read of fixed_instance resolves the instance anew, so
    # each trial parses (or normalizes, or generates) it again
    resolve = McConfig.__dict__["fixed_instance"].func
    reads = []
    def resolve_every_read(self):
        reads.append(self)
        return resolve(self)
    monkeypatch.setattr(McConfig, "fixed_instance", property(resolve_every_read))
    reference = monte_carlo(dataclasses.replace(config, parallelism=1)).canonical_json()
    assert len(reads) == len(json.loads(reference)["rows"]) + 1  # the probe, then every trial
    assert got == reference


@pytest.mark.parametrize("parallelism", [1, 2])
@pytest.mark.parametrize("arrivals", ["iid", "exhaustive"])
def test_fixed_instance_resolved_once_per_experiment(monkeypatch, tmp_path, arrivals, parallelism):
    log = tmp_path / "resolved"
    load = harness.jsonio.load_normalized
    def counted(obj):
        with open(log, "a") as f:  # a file, so a forked worker's resolution counts too
            f.write("x")
        return load(obj)
    monkeypatch.setattr(harness.jsonio, "load_normalized", counted)
    cfg = McConfig(algorithm="adversarial", trials=0 if arrivals == "exhaustive" else 20,
                   master_seed=3, instance_obj=_fixed_instance_obj(),
                   dist=UNIFORM2 if arrivals == "iid" else None, arrivals=arrivals, parallelism=parallelism)
    assert len(monte_carlo(cfg).rows) == (8 if arrivals == "exhaustive" else 20)
    assert log.read_text() == "x"
    assert "fixed_instance" not in cfg.to_obj() and cfg.fixed_instance is not None


def test_raw_instance_exhaustive_normalizes_once(monkeypatch):
    # k = 3, n = 6: one exact normalization (about a second), then 729 runs
    normalized = []
    normalize = harness.jsonio.normalize
    def counted(inst):
        normalized.append(inst)
        return normalize(inst)
    monkeypatch.setattr(harness.jsonio, "normalize", counted)
    cfg = McConfig(algorithm="adversarial", trials=0, master_seed=0, arrivals="exhaustive",
                   instance_obj=instance_to_obj(gen_random(6, 14, 3, "uniform", seed=0)))
    agg = monte_carlo(cfg)
    assert len(agg.rows) == 3 ** 6 and len(normalized) == 1
    assert agg.success_rate == 1.0 and F(agg.min_ratio_overall) >= F(1, 3)
