"""The benchmark's three closed-loop workloads.

Each workload is built from the workload seed alone and hands augmi only the
inputs it generated.  Op ``i`` is a pure function of (seed, size, i), so the
checks, which read the results of a fixed number of leading ops, give the
same values on every run of a seed however many ops the timed phase reached.

Calls go through the augmi module objects (``bench.evaluate_method``, not a
name imported from it) so that a traced run sees the patched functions.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import augmi.analytic as analytic
import augmi.bench as bench
import augmi.involved as involved
import augmi.planner as planner
import augmi.scenario as scenario
import augmi.smc as smc
import augmi.state as state
from augmi.mi import ALL_METHODS


def derived_seed(seed: int, *key: int) -> int:
    """A 63-bit seed drawn from the workload seed and a key path."""
    state_word = np.random.SeedSequence(seed, spawn_key=key).generate_state(1, np.uint64)[0]
    return int(state_word >> np.uint64(1))


@dataclass
class Verdict:
    """Outcome of a workload's correctness checks.

    ``checks`` maps a check name to pass/fail; ``values`` holds the numbers
    the checks read (they repeat exactly for a given seed and size);
    ``quality`` maps a reported end-to-end metric to ``(value, unit, n)``.
    """

    checks: dict[str, bool] = field(default_factory=dict)
    values: dict[str, object] = field(default_factory=dict)
    quality: dict[str, tuple[float, str, int]] = field(default_factory=dict)


def _rmse(errors) -> float:
    errors = np.asarray(errors, dtype=float)
    return float(np.sqrt(np.mean(errors**2)))


def _finite(values) -> bool:
    return all(v is not None and math.isfinite(v) for v in values)


class SlamD150:
    """The paper's action-comparison replica (``augmi bench actions``).

    One op is one ``bench.evaluate_method`` call plus its ``result_row``.
    Ops run trial by trial, action by action, over all four methods; the
    analytic method runs once per (trial, action) instead of the replica's
    once per action, so its median has as many samples as the others.
    Per-trial seeds follow the replica's protocol under an experiment seed
    drawn from the workload seed.

    The scenario is the replica's own (seed 42, as in acceptance criterion
    4), whose best action leads the next by 1.7 nats.  A scenario drawn from
    the workload seed can put the two best actions 0.65 nats apart, and
    there invmi_kde, whose RMSE is about 1 nat, recovered the best action in
    only 75% of trials, so the criterion-4 check would fail on such seeds.
    """

    name = "slam-d150"
    SIZES = {
        "full": {"dim": 150, "particles": 300, "trials": 100},
        "tiny": {"dim": 150, "particles": 300, "trials": 10},
    }
    latency = {m: f"{m}_p50_ms" for m in ALL_METHODS}

    def __init__(self, seed: int, size: str, out_dir: Path):
        self.size = self.SIZES[size]
        self.seed = seed
        self.csv_path = out_dir / f"{self.name}-{size}-seed{seed}.csv"
        self.scenario = scenario.generate_scenario(
            self.size["dim"], 4, correlation_strength=0.3, seed=42
        )
        self.experiment_seed = derived_seed(seed, 0, 1)
        self.actions = [a.id for a in self.scenario.actions]
        self.cycle = len(ALL_METHODS)
        self.verify_ops = self.size["trials"] * len(self.actions) * self.cycle
        for method in ALL_METHODS:
            bench.evaluate_method(
                self.scenario, self.actions[0], method, self.size["particles"], 0
            )

    def _coords(self, i: int) -> tuple[int, int, int]:
        trial, rest = divmod(i, len(self.actions) * self.cycle)
        a_idx, m_idx = divmod(rest, self.cycle)
        return trial, a_idx, m_idx

    def tag(self, i: int) -> str:
        return ALL_METHODS[self._coords(i)[2]]

    def op(self, i: int):
        trial, a_idx, m_idx = self._coords(i)
        # The replica's trial seed: (experiment seed, method, action, trial).
        seed = int(
            np.random.SeedSequence(
                self.experiment_seed, spawn_key=(m_idx, a_idx, trial)
            ).generate_state(1, np.uint64)[0]
        )
        n = self.size["particles"]
        action_id = self.actions[a_idx]
        est = bench.evaluate_method(self.scenario, action_id, ALL_METHODS[m_idx], n, seed)
        row = bench.result_row(est, self.scenario, action_id, trial, n, seed)
        return row.mi_estimate, row

    def verify(self, outs: list) -> Verdict:
        verdict = Verdict()
        rows = [None if out is None else out[1] for out in outs]
        prior = self.scenario.prior
        exact, gap = {}, 0.0
        for action in self.scenario.actions:
            exact[action.id] = analytic.augmented_mi_analytic(prior, action).value
            blocks = involved.determine_involved(prior.layout, action).blocks
            reduced = analytic.augmented_mi_analytic(prior, action, subset=blocks).value
            gap = max(gap, abs(reduced - exact[action.id]))
        best = max(exact, key=exact.get)
        verdict.values.update(analytic=exact, involved_gap=gap)
        verdict.checks["every estimate finite"] = _finite(
            None if out is None else out[0] for out in outs
        )
        verdict.checks["involved-subset analytic == full state (1e-9)"] = gap <= 1e-9
        if not verdict.checks["every estimate finite"]:
            return verdict
        trials = self.size["trials"]
        table = np.empty((len(ALL_METHODS), len(self.actions), trials))
        for i, row in enumerate(rows):
            trial, a_idx, m_idx = self._coords(i)
            table[m_idx, a_idx, trial] = row.mi_estimate
        truth = np.array([exact[a] for a in self.actions])
        verdict.checks["analytic ops match the oracle (1e-9)"] = bool(
            np.all(np.abs(table[0] - truth[:, None]) <= 1e-9)
        )
        hits = {}
        for m_idx, method in enumerate(ALL_METHODS[1:], 1):
            rmse = _rmse(table[m_idx] - truth[:, None])
            picked = np.argmax(table[m_idx], axis=0)
            hits[method] = float(np.mean(picked == self.actions.index(best)))
            verdict.values[f"{method}_rmse"] = rmse
            verdict.values[f"{method}_argmax_recovery"] = hits[method]
            verdict.quality[f"{method}_rmse_nats"] = (rmse, "nats", table[m_idx].size)
        for method in ("invmi_kde", "mismc"):
            verdict.checks[f"{method} argmax recovery >= 0.90"] = hits[method] >= 0.90
        verdict.quality["best_action_hit_ratio"] = (
            min(hits["invmi_kde"], hits["mismc"]),
            "ratio",
            trials,
        )
        bench.emit_csv(rows, self.csv_path)
        return verdict


def chain_1d() -> tuple[state.GaussianDensity, state.Action]:
    """The 1-D chain: x ~ N(0,1), new = x + w, z = new + v, unit noises."""
    layout = state.StateLayout.from_dims([("x", 1)])
    prior = state.GaussianDensity(layout=layout, mean=[0.0], covariance=[[1.0]])
    transition = state.LinearGaussianModel(
        inputs=("x",), output_dim=1, matrix=[[1.0]], noise_cov=[[1.0]]
    )
    observation = state.LinearGaussianModel(
        inputs=("a:x1",), output_dim=1, matrix=[[1.0]], noise_cov=[[1.0]]
    )
    action = state.Action(id="a", transitions=(transition,), observations=((1, observation),))
    return prior, action


# Posterior covariance of (x, new) given z has det 1/3, so the chain's MI is
# 0.5 ln 3 - 0.5 ln(2 pi e).
CHAIN_MI = 0.5 * math.log(3.0) - 0.5 * math.log(2.0 * math.pi * math.e)


class Chain1e4:
    """The 1-D chain through ``mismc_estimate`` at n1 = n4 = 10^4.

    One op samples fresh prior particles under its own seed and runs the
    estimator; the 10^8-cell normalizer grid is nearly all of its time.
    """

    name = "chain-1e4"
    SIZES = {
        "full": {"particles": 10_000, "verify_ops": 24},
        "tiny": {"particles": 1_000, "verify_ops": 24},
    }
    latency = {"mismc": "mismc_p50_ms"}
    cycle = 1

    def __init__(self, seed: int, size: str, out_dir: Path):
        self.size = self.SIZES[size]
        self.seed = seed
        self.verify_ops = self.size["verify_ops"]
        self.prior, self.action = chain_1d()
        n = self.size["particles"]
        self.budget = smc.SampleBudget(n1=n, n4=n)
        warm = state.sample_particles(self.prior, 1_000, 0)
        smc.mismc_estimate(warm, self.action, smc.SampleBudget(n1=1_000), 0)

    def tag(self, i: int) -> str:
        return "mismc"

    def _inputs(self, i: int):
        rng = np.random.default_rng(derived_seed(self.seed, 1, i))
        return state.sample_particles(self.prior, self.budget.n1, rng), rng

    def op(self, i: int):
        particles, rng = self._inputs(i)
        return (smc.mismc_estimate(particles, self.action, self.budget, rng).value,)

    def verify(self, outs: list) -> Verdict:
        verdict = Verdict()
        values = [None if out is None else out[0] for out in outs]
        exact = analytic.augmented_mi_analytic(self.prior, self.action).value
        verdict.checks["oracle == closed form (1e-12)"] = abs(exact - CHAIN_MI) <= 1e-12
        verdict.checks["every estimate finite"] = _finite(values)
        if not verdict.checks["every estimate finite"]:
            return verdict
        mean = statistics.fmean(values)
        sem = statistics.stdev(values) / math.sqrt(len(values))
        verdict.checks["mean within 3 SEM of exact"] = abs(mean - exact) < 3.0 * sem
        # Replay op 0 through the anytime API in three installments.
        particles, rng = self._inputs(0)
        context = smc.mismc_context(particles, self.action, self.budget, rng)
        acc = context.empty_accumulator()
        n = self.budget.n1
        for step in (n // 3, n // 3, n - 2 * (n // 3)):
            acc = smc.mismc_update(acc, step, context)
        diff = acc.estimate - values[0]
        # Acceptance criterion 8's tolerance; whether the replay is also bit
        # for bit is reported, since installments sum in another order.
        verdict.checks["installment replay == batch (1e-12)"] = abs(diff) <= 1e-12
        verdict.values.update(
            exact=exact,
            mean=mean,
            sem=sem,
            replay_diff=diff,
            replay_bitwise=diff == 0.0,
            estimates=list(values),
        )
        rmse = _rmse(np.asarray(values) - exact)
        verdict.values["mismc_rmse"] = rmse
        verdict.quality["mismc_rmse_nats"] = (rmse, "nats", len(values))
        return verdict


def plan_steps(slam: scenario.SlamScenario, horizon: int) -> list[list[state.Action]]:
    """Per-step candidates built from the scenario's own action models.

    At step t every candidate moves from pose x_{t-1} (the scenario's newest
    pose at t = 1) to x_t with its action's transition noise, then observes
    its action's landmark with its action's sensor.
    """
    steps = []
    for t in range(1, horizon + 1):
        candidates = []
        for action in slam.actions:
            move = action.transitions[0]
            (_step, sensor), = action.observations
            previous = move.inputs[0] if t == 1 else f"x{t - 1}"
            candidates.append(
                state.Action(
                    id=f"s{t}{action.id}",
                    transitions=(
                        state.LinearGaussianModel(
                            inputs=(previous,),
                            output_dim=move.output_dim,
                            matrix=move.matrix,
                            noise_cov=move.noise_cov,
                        ),
                    ),
                    observations=(
                        (
                            1,
                            state.LinearGaussianModel(
                                inputs=(f"x{t}", sensor.inputs[1]),
                                output_dim=sensor.output_dim,
                                matrix=sensor.matrix,
                                noise_cov=sensor.noise_cov,
                            ),
                        ),
                    ),
                    new_ids=(f"x{t}",),
                )
            )
        steps.append(candidates)
    return steps


class PlanH3:
    """A horizon-3 belief-tree solve on a D=150 scenario with the SMC backend.

    Ops alternate between the two reward modes; every solve gets its own
    seed, drawn from the workload seed.  The scenario is the replica's own
    (seed 42), as on slam-d150: a solve's cost depends on the scenario by
    up to a fifth, which would hide a change of that size behind the seed.
    The analytic-backend plan is the reference for the checks.
    """

    name = "plan-h3"
    SIZES = {
        "full": {"dim": 150, "horizon": 3, "particles": 300, "verify_ops": 4},
        "tiny": {"dim": 30, "horizon": 2, "particles": 100, "verify_ops": 4},
    }
    MODES = (planner.REWARD_INVOLVED_IG, planner.REWARD_CONSECUTIVE_MI)
    latency = {
        planner.REWARD_INVOLVED_IG: "solve_ig_p50_ms",
        planner.REWARD_CONSECUTIVE_MI: "solve_cmi_p50_ms",
    }
    OBS_SAMPLES = 2

    def __init__(self, seed: int, size: str, out_dir: Path):
        self.size = self.SIZES[size]
        self.seed = seed
        self.verify_ops = self.size["verify_ops"]
        self.cycle = len(self.MODES)
        slam = scenario.generate_scenario(
            self.size["dim"], 4, correlation_strength=0.3, seed=42
        )
        self.prior = slam.prior
        self.steps = plan_steps(slam, self.size["horizon"])
        self._solve(self.steps[:1], 1, self.MODES[1], self._backend(), 0)

    def _backend(self):
        return planner.SmcMiBackend(smc.SampleBudget(n1=self.size["particles"]))

    def _solve(self, steps, horizon, mode, backend, seed):
        return planner.solve(
            self.prior, steps, horizon, mode, backend, obs_samples=self.OBS_SAMPLES, rng=seed
        )

    def tag(self, i: int) -> str:
        return self.MODES[i % len(self.MODES)]

    def op(self, i: int):
        result = self._solve(
            self.steps, self.size["horizon"], self.tag(i), self._backend(),
            derived_seed(self.seed, 2, 1, i),
        )
        return result.value, result.best_sequence

    def verify(self, outs: list) -> Verdict:
        verdict = Verdict()
        horizon = self.size["horizon"]
        exact = {
            mode: self._solve(self.steps, horizon, mode, planner.AnalyticMiBackend(), 0)
            for mode in self.MODES
        }
        ig, cmi = (exact[mode] for mode in self.MODES)
        verdict.checks["analytic reward modes agree (1e-9)"] = (
            abs(ig.value - cmi.value) <= 1e-9 and ig.best_sequence == cmi.best_sequence
        )
        verdict.checks["every estimate finite"] = _finite(
            None if out is None else out[0] for out in outs
        )
        verdict.values.update(
            analytic_value=ig.value, analytic_plan=list(ig.best_sequence)
        )
        if not verdict.checks["every estimate finite"]:
            return verdict
        by_id = [{a.id: a for a in step} for step in self.steps]
        regrets, hits = [], []
        for _value, sequence in outs:
            chosen = [by_id[t][action_id] for t, action_id in enumerate(sequence)]
            # The solver's objective sums the information gained by each depth.
            achieved = sum(
                planner.sequential_mi_direct(
                    self.prior, chosen, depth, planner.AnalyticMiBackend()
                )
                for depth in range(1, horizon + 1)
            )
            regrets.append(ig.value - achieved)
            hits.append(sequence[0] == ig.best_sequence[0])
        verdict.checks["no plan beats the analytic optimum (1e-9)"] = min(regrets) >= -1e-9
        verdict.values.update(
            smc_values=[out[0] for out in outs],
            smc_plans=[list(out[1]) for out in outs],
            regrets=regrets,
        )
        verdict.quality["best_action_hit_ratio"] = (
            float(np.mean(hits)), "ratio", len(hits)
        )
        verdict.quality["plan_regret_nats"] = (
            float(np.mean(regrets)), "nats", len(regrets)
        )
        return verdict


WORKLOADS = {cls.name: cls for cls in (SlamD150, Chain1e4, PlanH3)}
