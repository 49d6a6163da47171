"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines stream; tolerances and budgets are fixed here, not calibrated.
"""

import math
import subprocess
import sys
import time
from functools import lru_cache

import numpy as np

from augmi import (
    AnalyticMiBackend,
    REWARD_CONSECUTIVE_MI,
    REWARD_INVOLVED_IG,
    SampleBudget,
    StateLayout,
    WeightedParticleSet,
    augmented_mi_analytic,
    evaluate_method,
    generate_scenario,
    joint_state_observation,
    mismc_context,
    mismc_estimate,
    mismc_update,
    observation_block_ids,
    resubstitution_entropy,
    run_actions_experiment,
    run_dimension_sweep,
    sample_particles,
    sequential_mi_direct,
    solve,
)
from augmi.analytic import entropy_from_cov
from augmi.bench import _trial_seed
from conftest import (
    CHAIN_MI,
    direct_mi_ref,
    make_chain_1d,
    mi_analytic,
    random_instance,
    random_plan_instance,
)

GAUSS_ENTROPY_1D = 1.4189385332046727


def report(number: int, ok: bool, detail: str) -> None:
    print(f"[criterion {number:2d}] {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {number}: {detail}"


@lru_cache(maxsize=1)
def identity_instances():
    """200 randomized linear-Gaussian instances shared by criteria 1 and 2."""
    rng = np.random.default_rng(20240)
    return [random_instance(rng) for _ in range(200)]


def test_criterion_1_involved_subset_exactness():
    start = time.perf_counter()
    worst = 0.0
    for prior, action, involved in identity_instances():
        full = augmented_mi_analytic(prior, action).value
        reduced = augmented_mi_analytic(prior, action, involved).value
        worst = max(worst, abs(full - reduced))
    elapsed = time.perf_counter() - start
    report(
        1,
        worst < 1e-9 and elapsed < 30.0,
        f"200 instances, max |full - involved| = {worst:.2e} (< 1e-9), "
        f"runtime {elapsed:.1f}s (< 30s)",
    )


def test_criterion_2_mi_identities():
    worst_decomposition = 0.0
    worst_superposition = 0.0
    for prior, action, involved in identity_instances():
        direct = direct_mi_ref(prior, action)
        joint = joint_state_observation(prior, action)
        state_ids = set(prior.layout.ids) | set(action.new_ids)
        obs_ids = set(observation_block_ids(action))
        mi_term = mi_analytic(joint, state_ids, obs_ids)
        idx = joint.layout.indices
        h_state = entropy_from_cov(
            joint.covariance[np.ix_(idx(state_ids), idx(state_ids))]
        )
        prior_ids = set(prior.layout.ids)
        h_prior = entropy_from_cov(
            joint.covariance[np.ix_(idx(prior_ids), idx(prior_ids))]
        )
        via_mi = mi_term - (h_state - h_prior)
        worst_decomposition = max(worst_decomposition, abs(direct - via_mi))
        split = augmented_mi_analytic(prior, action, involved).value
        worst_superposition = max(worst_superposition, abs(direct - split))
    report(
        2,
        worst_decomposition < 1e-9 and worst_superposition < 1e-9,
        f"MI-minus-conditional-entropy residual {worst_decomposition:.2e}, "
        f"three-entropy superposition residual {worst_superposition:.2e} (both < 1e-9)",
    )


def test_criterion_3_smc_consistency():
    prior, action = make_chain_1d()
    start = time.perf_counter()
    stats = {}
    for budget_n in (1000, 10_000):
        values = np.empty(100)
        for trial in range(100):
            rng = np.random.default_rng(600_000 + 1000 * budget_n + trial)
            particles = sample_particles(prior, budget_n, rng)
            values[trial] = mismc_estimate(
                particles, action, SampleBudget(n1=budget_n), rng
            ).value
        stats[budget_n] = (values.mean(), values.std(ddof=1))
    elapsed = time.perf_counter() - start
    ok = True
    parts = []
    for budget_n, (mean, std) in stats.items():
        sem = std / math.sqrt(100)
        ok &= abs(mean - CHAIN_MI) < 3.0 * sem
        parts.append(f"n={budget_n}: mean err {abs(mean - CHAIN_MI):.4f} vs 3*SEM {3*sem:.4f}")
    ratio = stats[1000][1] / stats[10_000][1]
    ok &= ratio > 2.0
    ok &= elapsed < 120.0
    report(
        3,
        ok,
        "; ".join(parts) + f"; std ratio {ratio:.2f} (> 2), runtime {elapsed:.0f}s (< 120s)",
    )


@lru_cache(maxsize=1)
def replica_rows():
    scenario = generate_scenario(150, 4, correlation_strength=0.3, seed=42)
    rows = run_actions_experiment(
        scenario,
        {"analytic", "naive_kde", "invmi_kde", "mismc"},
        n_particles=300,
        trials=100,
        seed=9000,
    )
    return scenario, rows


def test_criterion_4_action_comparison_replica():
    start = time.perf_counter()
    scenario, rows = replica_rows()
    elapsed = time.perf_counter() - start
    # 4 actions x (1 analytic + 3 estimators x 100 trials)
    assert len(rows) == 1204
    analytic = {
        r.action_id: r.mi_estimate for r in rows if r.method == "analytic"
    }
    best_action = max(analytic, key=analytic.get)

    by_method: dict[str, dict[str, np.ndarray]] = {}
    for method in ("naive_kde", "invmi_kde", "mismc"):
        per_action = {}
        for action_id in analytic:
            values = sorted(
                (r.trial, r.mi_estimate)
                for r in rows
                if r.method == method and r.action_id == action_id
            )
            per_action[action_id] = np.array([v for _t, v in values])
        by_method[method] = per_action

    ok = True
    parts = []
    for method in ("invmi_kde", "mismc"):
        per_action = by_method[method]
        hits = np.mean(
            [
                max(per_action, key=lambda a: per_action[a][t]) == best_action
                for t in range(100)
            ]
        )
        ok &= hits >= 0.90
        parts.append(f"{method} argmax recovery {hits:.0%} (>= 90%)")

    naive_std = {a: v.std(ddof=1) for a, v in by_method["naive_kde"].items()}
    for method in ("invmi_kde", "mismc"):
        wins = sum(
            naive_std[a] >= 2.0 * by_method[method][a].std(ddof=1) for a in analytic
        )
        ok &= wins >= 3
        parts.append(f"naive std >= 2x {method} on {wins}/4 actions (>= 3)")
    ok &= elapsed < 600.0
    report(4, ok, "; ".join(parts) + f"; runtime {elapsed:.0f}s (< 600s)")


def test_criterion_5_dimension_sweep():
    dims = [10, 50, 100, 150]
    reduced = ("invmi_kde", "mismc")
    methods = ("naive_kde", *reduced)
    start = time.perf_counter()
    # one warm pass keeps numpy/BLAS initialization out of the timing column
    warm = generate_scenario(10, 1, seed=1)
    for method in methods:
        evaluate_method(warm, "a1", method, 300, seed=0)
    rows = run_dimension_sweep(
        dims,
        set(methods),
        n_particles=300,
        trials=100,
        seed=777,
    )
    # The sweep runs one dim after another, so a drift in CPU speed during it
    # moves the per-dim times apart.  The time checks instead read runs that
    # visit the sweep's four scenarios round-robin.  naive_kde runs its rounds
    # apart: in the same rounds it lifted the reduced methods' time max/min
    # from about 1.05 to 1.24-1.44 on a 2-core machine.
    scenarios = [
        generate_scenario(dim, 1, correlation_strength=0.3, seed=_trial_seed(777, (dim,)) % 2**31)
        for dim in dims
    ]
    interleaved = {(method, dim): [] for method in methods for dim in dims}
    for group in (reduced, ("naive_kde",)):
        for round_ in range(30):
            for dim, scenario in zip(dims, scenarios):
                for method in group:
                    est = evaluate_method(scenario, scenario.actions[0].id, method, 300, seed=round_)
                    interleaved[method, dim].append(est.elapsed)
    elapsed = time.perf_counter() - start

    def stats(method):
        stds = [
            np.std([r.mi_estimate for r in rows if r.method == method and r.dim_full == dim], ddof=1)
            for dim in dims
        ]
        # medians: a burst of load on a few runs must not move the ratio
        times = [np.median(interleaved[method, dim]) for dim in dims]
        return np.array(stds), np.array(times)

    ok = True
    parts = []
    naive_std, naive_time = stats("naive_kde")
    ok &= bool(np.all(np.diff(naive_std) > 0))
    ok &= bool(np.all(np.diff(naive_time) > 0))
    parts.append(
        "naive std "
        + "/".join(f"{s:.2f}" for s in naive_std)
        + " strictly increasing; interleaved time "
        + "/".join(f"{t*1e3:.1f}ms" for t in naive_time)
        + " strictly increasing"
    )
    for method in reduced:
        stds, times = stats(method)
        std_ratio = stds.max() / stds.min()
        time_ratio = times.max() / times.min()
        ok &= std_ratio < 2.0 and time_ratio < 2.0
        parts.append(
            f"{method} std max/min {std_ratio:.2f}, interleaved time max/min "
            f"{time_ratio:.2f} (< 2)"
        )
    ok &= elapsed < 600.0
    report(5, ok, "; ".join(parts) + f"; runtime {elapsed:.0f}s (< 600s)")


def test_criterion_6_resubstitution_entropy():
    rng = np.random.default_rng(31337)
    ok = True
    parts = []
    for d in (1, 2, 4):
        layout = StateLayout.from_dims([("s", d)])
        samples = WeightedParticleSet(
            layout=layout,
            particles=rng.standard_normal((10_000, d)),
            weights=np.full(10_000, 1e-4),
        )
        estimate = resubstitution_entropy(samples)
        err = abs(estimate - d * GAUSS_ENTROPY_1D)
        ok &= err < 0.15 * d
        parts.append(f"d={d}: |err| {err:.3f} (< {0.15 * d:.2f})")
    report(6, ok, "; ".join(parts))


def test_criterion_7_planner_equivalence():
    rng = np.random.default_rng(424242)
    backend = AnalyticMiBackend()
    worst_gap = 0.0
    worst_enum = 0.0
    agree = True
    for _ in range(50):
        prior, steps = random_plan_instance(rng, horizon=2)
        ig = solve(prior, steps, 2, REWARD_INVOLVED_IG, backend, rng=1)
        mi = solve(prior, steps, 2, REWARD_CONSECUTIVE_MI, backend, rng=1)
        agree &= ig.best_sequence == mi.best_sequence
        worst_gap = max(worst_gap, abs(ig.value - mi.value))
        best = -np.inf
        for a1 in steps[0]:
            for a2 in steps[1]:
                objective = sum(
                    sequential_mi_direct(prior, [a1, a2], t, backend, rng=0)
                    for t in (1, 2)
                )
                best = max(best, objective)
        worst_enum = max(worst_enum, abs(best - ig.value))
    report(
        7,
        agree and worst_gap < 1e-9 and worst_enum < 1e-9,
        f"50 instances: reward modes agree on argmax ({agree}), "
        f"|dJ| max {worst_gap:.2e}, enumeration gap {worst_enum:.2e} (both < 1e-9)",
    )


def test_criterion_8_anytime_accumulation():
    prior, action = make_chain_1d()
    rng_batch = np.random.default_rng(4711)
    rng_inc = np.random.default_rng(4711)
    batch = mismc_estimate(
        sample_particles(prior, 300, rng_batch),
        action,
        SampleBudget(n1=300),
        rng_batch,
    )
    particles = sample_particles(prior, 300, rng_inc)
    ctx = mismc_context(particles, action, SampleBudget(n1=300), rng_inc)
    acc = ctx.empty_accumulator()
    acc = mismc_update(acc, 100, ctx)
    acc = mismc_update(acc, 200, ctx)
    gap = abs(acc.estimate - batch.value)
    report(8, gap < 1e-12, f"|incremental(100+200) - batch(300)| = {gap:.2e} (< 1e-12)")


def test_criterion_9_normalizer_scaling():
    prior, action = make_chain_1d()
    times = {16000: [], 32000: []}
    # The sizes alternate which runs first, so a CPU speed that drifts
    # within a round slows both alike.
    for rep in range(40):
        for n4 in (16000, 32000) if rep % 2 == 0 else (32000, 16000):
            rng = np.random.default_rng(88_000 + rep)
            particles = sample_particles(prior, 2000, rng)
            est = mismc_estimate(
                particles, action, SampleBudget(n1=2000, n4=n4), rng
            )
            times[n4].append(est.elapsed)
    factor = float(np.median(times[32000]) / np.median(times[16000]))
    report(
        9,
        1.5 <= factor <= 3.0,
        f"doubling n4 changes median wall time by x{factor:.2f} (within [1.5, 3])",
    )


def test_criterion_10_cli_determinism(tmp_path):
    scenario = tmp_path / "scenario.json"
    subprocess.run(
        [sys.executable, "-m", "augmi", "scenario", "generate", "--dim", "40",
         "--actions", "2", "--seed", "2718", "--out", str(scenario)],
        check=True,
    )

    def bench(out):
        return subprocess.run(
            [
                sys.executable, "-m", "augmi", "bench", "actions",
                "--scenario", str(scenario),
                "--methods", "analytic,naive-kde,invmi-kde,mismc",
                "--particles", "80", "--trials", "3", "--seed", "2718",
                "--out", str(out), "--zero-elapsed",
            ],
            capture_output=True,
            text=True,
        )

    out1, out2 = tmp_path / "run1.csv", tmp_path / "run2.csv"
    proc1, proc2 = bench(out1), bench(out2)
    ok = proc1.returncode == 0 and proc2.returncode == 0
    identical = out1.read_bytes() == out2.read_bytes()
    report(
        10,
        ok and identical,
        f"two identical CLI invocations byte-identical: {identical} "
        f"(exit codes {proc1.returncode}/{proc2.returncode})",
    )
