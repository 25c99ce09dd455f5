"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -s`` to see the lines as they
complete.  Master seeds are pinned; every suite here is deterministic.
"""

import math
import time
from fractions import Fraction as F

import pytest

from mmsonline import (
    TypeDistribution,
    gen_random,
    normalize,
    run_adversarial,
    run_unknown_d,
    sample_arrivals,
)
from mmsonline.adversarial import (
    adaptive_lower_bound_adversary,
    below_sqrt_bound,
    greedy_policy,
    tentative_policy,
)
from mmsonline.core import value
from mmsonline.generators import all_sequences, gen_normalized_random, gen_tightness_half
from mmsonline.harness import McConfig, degradation_trial, monte_carlo
from mmsonline.rng import substream
from mmsonline.solver import mms_brute_force, mms_exact
from mmsonline.stochastic import preprocess_low_c, universal_items

MASTER = 20250811
UNIFORM3 = ("1/3", "1/3", "1/3")

pytestmark = pytest.mark.acceptance


def _line(idx: int, ok: bool, detail: str) -> None:
    print(f"\nACCEPTANCE {idx}: {'PASS' if ok else 'FAIL'} - {detail}")


def _multinomial_prob(n: int, probs, count_ok) -> F:
    """Exact Pr[count_ok(i, c_i) for every type i] when n draws follow the
    law ``probs``; the counts (c_1, ..., c_k) are multinomial(n; probs).

    With p_i = w_i / d, each count vector has weight
    n! / (c_1! ... c_k!) * prod w_i^c_i / d^n; the numerators are summed as
    integers, peeling off one type at a time with a binomial coefficient.
    """
    probs = [F(p) for p in probs]
    d = math.lcm(*(p.denominator for p in probs))
    weights = [p.numerator * (d // p.denominator) for p in probs]
    last = len(weights) - 1

    def mass(i: int, left: int) -> int:
        if i == last:
            return weights[i] ** left if count_ok(i, left) else 0
        return sum(math.comb(left, c) * weights[i] ** c * mass(i + 1, left - c)
                   for c in range(left + 1) if count_ok(i, c))

    return F(mass(0, n), d ** n)


def _within_3_sigma(rate: float, p: F, trials: int) -> bool:
    return abs(rate - float(p)) <= 3 * math.sqrt(float(p * (1 - p)) / trials)


def test_acceptance_1_solver_oracle_equivalence():
    t0 = time.monotonic()
    mismatches = 0
    for trial in range(500):
        rng = substream(MASTER, "c1", trial)
        m = rng.randint(1, 10)
        n = rng.randint(1, 4)
        vals = [F(rng.randint(0, 40), rng.choice((1, 2, 3, 4, 6))) for _ in range(m)]
        if mms_exact(vals, n).value != mms_brute_force(vals, n).value:
            mismatches += 1
    elapsed = time.monotonic() - t0
    ok = mismatches == 0 and elapsed < 60
    _line(1, ok, f"500 instances, {mismatches} mismatches, {elapsed:.1f}s")
    assert mismatches == 0
    assert elapsed < 60


def test_acceptance_2_normalization_exactness():
    bad = 0
    for trial in range(200):
        rng = substream(MASTER, "c2", trial)
        n = rng.randint(2, 4)
        m = rng.randint(n, 9)
        k = rng.randint(1, 3)
        inst = gen_random(n, m, k, "uniform", seed=rng.randrange(2**32))
        norm = normalize(inst)
        for i in range(k):
            if i in norm.zero_mms_types:
                continue
            row = norm.base.type_values[i]
            if any(value(row, b) != 1 for b in norm.witness_partitions[i]):
                bad += 1
            if sum(row) != n:
                bad += 1
    _line(2, bad == 0, f"200 instances, {bad} exactness violations")
    assert bad == 0


def test_acceptance_3_adversarial_guarantee_exhaustive():
    t0 = time.monotonic()
    runs = 0
    for k in (2, 3):
        for n in (3, 4, 5):
            m = 2 * n + n // 2 + 1
            for idx in range(100):
                seed = substream(MASTER, "c3", k, n, idx).randrange(2**32)
                norm = gen_normalized_random(n, m, k, seed=seed)
                for seq in all_sequences(k, n):
                    # strict mode: any broken invariant/claim raises
                    _, rep = run_adversarial(norm, seq)
                    assert rep.min_ratio >= F(1, k), (k, n, idx, seq)
                    runs += 1
    elapsed = time.monotonic() - t0
    _line(3, True, f"{runs} exhaustive runs, zero violations, {elapsed:.1f}s")
    assert runs == 100 * (2**3 + 2**4 + 2**5 + 3**3 + 3**4 + 3**5)


def test_acceptance_4_lower_bound_reproduction():
    details = []
    ok = True
    for k in (16, 36):
        for n in (4, 6):
            for name, policy in (("reservation", tentative_policy), ("greedy", greedy_policy)):
                rep = adaptive_lower_bound_adversary(k, n, policy)
                hit = below_sqrt_bound(rep.min_ratio, k)
                ok &= hit
                details.append(f"k={k},n={n},{name}:min={rep.min_ratio}")
                assert hit, (k, n, name, rep.min_ratio)
    _line(4, ok, "; ".join(details))


def test_acceptance_5_known_distribution_success():
    cfg = McConfig(
        algorithm="known-d", trials=1000, master_seed=MASTER,
        generator="normalized-random",
        generator_params={"n": 200, "m": 1000, "k": 3, "weight_lo": 3, "weight_hi": 5},
        dist=UNIFORM3, eta="1/2", epsilon="1/10")
    agg = monte_carlo(cfg)
    # No item is universally high-valued, so all n' = 200 agents meet the
    # saturation pipeline.  Each type's reservation cap is
    # floor(mu + n'^eps * sqrt(mu)) = floor(200/3 + 200^(1/10) * sqrt(200/3))
    # = floor(80.53...) = 80.  Every trial saturates, and then a trial
    # succeeds exactly when no type arrives more often than its cap.
    cap = 80
    saturated_in_success = True
    conditional_ok = True
    no_universal = True
    off_model = []
    for trial, row in enumerate(agg.rows):
        det = row["details"]
        no_universal &= det.get("universal", 0) == 0
        if row["success"]:
            saturated_in_success &= det["allSaturated"]
        if det.get("allSaturated") and det.get("countsWithinCaps"):
            conditional_ok &= row["success"]
        if not (det.get("caps") == [cap] * 3 and det.get("allSaturated")
                and row["success"] == det.get("countsWithinCaps")):
            off_model.append(trial)
    rate = agg.success_rate
    # So the success rate estimates P[max multinomial(200; 1/3, 1/3, 1/3)
    # count <= 80] = 0.93965..., which no instance family can lift to 0.95.
    ceiling = _multinomial_prob(200, [F(1, 3)] * 3, lambda i, c: c <= cap)
    rate_ok = _within_3_sigma(rate, ceiling, len(agg.rows))
    ok = (rate_ok and not off_model and saturated_in_success and conditional_ok
          and no_universal)
    _line(5, ok, f"success rate {rate:.3f} (exact {float(ceiling):.4f} +- 3 sigma), "
                 f"trials off the cap-80 model {len(off_model)}, saturated-in-success "
                 f"{saturated_in_success}, conditional {conditional_ok}, "
                 f"no-universal {no_universal}")
    assert no_universal
    assert saturated_in_success, "a successful trial left a type unsaturated"
    assert conditional_ok, "saturation + in-cap counts must imply success"
    assert not off_model, (
        f"trials {off_model[:10]} did not saturate with caps [80, 80, 80] or "
        "their success differed from their counts staying within the caps")
    assert rate_ok, (
        f"observed {rate:.4f}; exact P[max count <= {cap}] is {float(ceiling):.5f}")


def test_acceptance_6_tightness_of_one_half():
    norm = gen_tightness_half(3, 30, F(1, 10))
    rows = norm.scaled
    uniform = [F(1, 3)] * 3
    fail_all = True
    sat_all = True
    for rep in range(10):
        st_fail = preprocess_low_c(rows, range(60), 30, uniform, F(3, 5), F(1, 10))
        fail_all &= not st_fail.all_saturated
        st_ok = preprocess_low_c(rows, range(60), 30, uniform, F(1, 3), F(1, 10))
        sat_all &= st_ok.all_saturated
    _line(6, fail_all and sat_all,
          f"alpha=3/5 unsaturated in 10/10 runs: {fail_all}; "
          f"alpha=1/3 saturated in 10/10 runs: {sat_all}")
    assert fail_all
    assert sat_all


def test_acceptance_7_unknown_distribution_pipeline():
    n, k = 5000, 3
    hidden = TypeDistribution.from_probs([F(1, 2), F(3, 10), F(1, 5)])
    norm = gen_normalized_random(n, 8 * n, k, seed=substream(MASTER, "c7-inst").randrange(2**32),
                                 weight_lo=2, weight_hi=4)
    c_items = universal_items(norm.scaled, range(norm.m_items), F(1, 3))
    assert c_items == []  # the family has no universally high-valued items
    seeds = 200
    learn_hits = 0
    split_hits = 0
    successes = 0
    tol = F(1, 20)
    # The learning window is ceil(5000^((2+c)/3)) = ceil(5000^(41/60))
    # = ceil(336.9997...) = 337 draws, and the learned law is their empirical
    # frequencies.
    window = 337
    probs = hidden.original_probs()
    off_window = []
    for trial in range(seeds):
        seq = sample_arrivals(hidden, n, substream(MASTER, "c7-arr", trial))
        _, rep = run_unknown_d(
            norm, seq, eta=F(1, 2), c=F(1, 20),
            seed=substream(MASTER, "c7-split", trial).randrange(2**32))
        assert rep.details["branch"] == "splitAndLearn"
        learned = [F(s) for s in rep.details["learned"]]
        frequencies = [F(seq[:window].count(t), window) for t in range(k)]
        if rep.details["window"] != window or learned != frequencies:
            off_window.append(trial)
        err = max(abs(a - b) for a, b in zip(learned, probs))
        learn_hits += err <= tol
        split_hits += bool(rep.details["basket1ConcentrationOk"])
        successes += rep.succeeded_at_alpha
    learn_rate = learn_hits / seeds
    split_rate = split_hits / seeds
    succ_rate = successes / seeds
    # So the learning rate estimates the exact trinomial probability that all
    # three frequencies of 337 draws from (1/2, 3/10, 1/5) fall within 1/20:
    # 0.89113..., below 0.95 for any learner confined to this window.
    ceiling = _multinomial_prob(
        window, probs, lambda i, c: abs(F(c, window) - probs[i]) <= tol)
    learn_ok = _within_3_sigma(learn_rate, ceiling, seeds)
    ok = learn_ok and not off_window and split_rate >= 0.95
    _line(7, ok, f"learned max-error<=0.05 rate {learn_rate:.3f} (exact "
                 f"{float(ceiling):.4f} +- 3 sigma), trials off the 337-draw window "
                 f"{len(off_window)}, split concentration rate {split_rate:.3f} "
                 f"(gate 0.95), end-to-end success {succ_rate:.3f} "
                 f"(informative target 0.90)")
    assert split_rate >= 0.95
    assert not off_window, (
        f"trials {off_window[:10]} did not learn the exact frequencies of the "
        "first 337 arrivals")
    assert learn_ok, (
        f"observed {learn_rate:.4f}; exact probability of max-error <= 0.05 "
        f"with a 337-draw window is {float(ceiling):.5f}")


def test_acceptance_8_learning_augmented_degradation():
    beta = F(6, 5)
    bad_bracket = 0
    bad_degradation = 0
    met = 0
    # each algorithm gets only the parameters it reads; any other one is refused
    for algorithm, k, dist_probs, params in (
        ("adversarial", 2, (F(1, 2), F(1, 2)), {}),
        ("known-d", 3, (F(1, 2), F(3, 10), F(1, 5)), dict(eta=F(1, 2), epsilon=F(1, 10))),
        ("unknown-d", 2, (F(3, 5), F(2, 5)), dict(eta=F(1, 2), c=F(1, 20))),
    ):
        dist = TypeDistribution.from_probs(list(dist_probs))
        for trial in range(100):
            seed = substream(MASTER, "c8", algorithm, trial).randrange(2**32)
            inst = gen_random(4, 9, k, "uniform", seed=seed)
            out = degradation_trial(algorithm, inst, beta, seed, dist=dist, **params)
            bad_bracket += not out["bracketOk"]
            bad_degradation += not out["degradationOk"]
            met += out["perturbedSuccess"]
    ok = bad_bracket == 0 and bad_degradation == 0
    _line(8, ok, f"300 trials, bracket violations {bad_bracket}, "
                 f"degradation violations {bad_degradation}, perturbed runs met alpha {met}")
    assert bad_bracket == 0
    assert bad_degradation == 0
    assert met > 0  # the conditional guarantee must actually bite


def test_acceptance_9_determinism_at_any_parallelism():
    base = dict(
        algorithm="known-d", trials=60, master_seed=MASTER,
        generator="normalized-random",
        generator_params={"n": 200, "m": 1000, "k": 3, "weight_lo": 3, "weight_hi": 5},
        dist=UNIFORM3, eta="1/2", epsilon="1/10")
    serial = monte_carlo(McConfig(**base, parallelism=1)).canonical_json()
    parallel = monte_carlo(McConfig(**base, parallelism=4)).canonical_json()
    repeat = monte_carlo(McConfig(**base, parallelism=2)).canonical_json()
    ok = serial == parallel == repeat
    base2 = dict(
        algorithm="unknown-d", trials=6, master_seed=MASTER,
        generator="normalized-random", fresh_instance_per_trial=False,
        generator_params={"n": 600, "m": 4800, "k": 3, "weight_lo": 2, "weight_hi": 4},
        hidden_dist=("1/2", "3/10", "1/5"), eta="1/2", c="1/20")
    a = monte_carlo(McConfig(**base2, parallelism=1)).canonical_json()
    b = monte_carlo(McConfig(**base2, parallelism=3)).canonical_json()
    ok = ok and a == b
    _line(9, ok, "byte-identical canonical reports across parallelism 1/2/3/4 and reruns")
    assert serial == parallel == repeat
    assert a == b
