"""Benchmark experiments over generated scenarios, with CSV output.

Everything is reproducible from (configuration, seed): per-trial seeds are
derived from (experiment seed, method, action, trial [, dimension]), so the
emitted estimates are independent of trial scheduling and method subsets.
Timing is monotonic wall time around the estimator call alone.
"""

from __future__ import annotations

import csv
import logging
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .involved import AnalyticMiBackend, SmcMiBackend, determine_involved, invmi
from .kde import invmi_kde_augmented_mi, naive_kde_augmented_mi
from .mi import (
    ALL_METHODS,
    METHOD_ANALYTIC,
    METHOD_INVMI_KDE,
    METHOD_MISMC,
    METHOD_NAIVE_KDE,
    MiEstimate,
)
from .scenario import SlamScenario, generate_scenario
from .smc import SampleBudget

log = logging.getLogger(__name__)

CSV_HEADER = (
    "method,action_id,trial,dim_full,dim_involved,n_particles,"
    "mi_estimate,elapsed_ns,seed"
)

_METHOD_INDEX = {m: i for i, m in enumerate(ALL_METHODS)}


# Per method: one run ``(prior, action, n, seed) -> MiEstimate`` on the full
# prior with ``n`` particles.  The analytic and mismc calculators go through
# invmi, which marginalizes onto the action's involved blocks first; the
# involved-subset KDE pipeline marginalizes itself, and naive_kde runs on the
# full prior.  The SMC calculator samples the prior particles itself, which
# is input preparation, outside the estimator's elapsed time.
_METHODS = {
    METHOD_ANALYTIC: lambda prior, action, n, seed: invmi(
        prior, action, AnalyticMiBackend(), seed
    ),
    METHOD_NAIVE_KDE: lambda prior, action, n, seed: naive_kde_augmented_mi(
        prior, action, n, rng=seed
    ),
    METHOD_INVMI_KDE: lambda prior, action, n, seed: invmi_kde_augmented_mi(
        prior, action, n, rng=seed
    ),
    METHOD_MISMC: lambda prior, action, n, seed: invmi(
        prior, action, SmcMiBackend(SampleBudget(n1=n, n4=n)), seed
    ),
}


@dataclass(frozen=True)
class ResultRow:
    """One estimator evaluation, as emitted to CSV."""

    method: str
    action_id: str
    trial: int
    dim_full: int
    dim_involved: int
    n_particles: int
    mi_estimate: float
    elapsed_ns: int
    seed: int

    def __post_init__(self):
        if not np.isfinite(self.mi_estimate):
            raise ValueError("mi_estimate must be finite")
        if self.elapsed_ns < 0:
            raise ValueError("elapsed_ns must be >= 0")


def _trial_seed(seed: int, spawn_key: tuple[int, ...]) -> int:
    ss = np.random.SeedSequence(entropy=seed, spawn_key=spawn_key)
    return int(ss.generate_state(1, np.uint64)[0])


def evaluate_method(
    scenario: SlamScenario,
    action_id: str,
    method: str,
    n_particles: int,
    seed: int,
) -> MiEstimate:
    """Run one estimator once on one scenario action.

    The integer seed fully determines the result; the analytic method
    ignores it.
    """
    if method not in _METHODS:
        raise ValueError(f"unknown method {method!r}; choose from {ALL_METHODS}")
    return _METHODS[method](scenario.prior, scenario.action(action_id), n_particles, seed)


def result_row(
    est: MiEstimate,
    scenario: SlamScenario,
    action_id: str,
    trial: int,
    n_particles: int,
    seed: int,
) -> ResultRow:
    """Assemble the CSV record for one finished estimate."""
    involved = determine_involved(
        scenario.prior.layout, scenario.action(action_id)
    )
    return ResultRow(
        method=est.method,
        action_id=action_id,
        trial=trial,
        dim_full=scenario.prior.dim,
        dim_involved=involved.dim,
        n_particles=n_particles,
        mi_estimate=est.value,
        elapsed_ns=max(0, round(est.elapsed * 1e9)),
        seed=seed,
    )


def _ordered_methods(methods: Iterable[str]) -> list[str]:
    methods = set(methods)
    unknown = methods - set(ALL_METHODS)
    if unknown:
        raise ValueError(f"unknown methods {sorted(unknown)}; choose from {ALL_METHODS}")
    return [m for m in ALL_METHODS if m in methods]


def _run_trials(
    rows: list[ResultRow],
    failures: list[str] | None,
    label: str,
    scenario: SlamScenario,
    action_id: str,
    method: str,
    n_particles: int,
    trials: int,
    seed: int,
    seed_key: tuple,
) -> None:
    """Append one row per trial of ``method`` on one action.

    The analytic method is deterministic and runs once (trial 0); trial
    seeds derive from ``seed_key + (trial,)``.  An estimator failure is
    recorded in ``failures`` under ``label``, or logged when ``failures`` is
    None, and the run continues.
    """
    for trial in range(1 if method == METHOD_ANALYTIC else trials):
        trial_seed = _trial_seed(seed, (*seed_key, trial))
        try:
            est = evaluate_method(scenario, action_id, method, n_particles, trial_seed)
            rows.append(result_row(est, scenario, action_id, trial, n_particles, trial_seed))
        except Exception as exc:  # noqa: BLE001 - record and continue
            message = f"{label}/trial {trial}: {exc}"
            if failures is None:
                log.warning("estimator failure: %s", message)
            else:
                failures.append(message)


def run_actions_experiment(
    scenario: SlamScenario,
    methods: Iterable[str],
    n_particles: int,
    trials: int,
    seed: int,
    failures: list[str] | None = None,
) -> list[ResultRow]:
    """Estimate every candidate action's MI, repeatedly, per method.

    The analytic method is deterministic and runs once per action (trial 0);
    sampling methods run ``trials`` times with derived per-trial seeds.
    Estimator failures are recorded in ``failures`` (logged when it is
    None); the run continues.
    """
    rows: list[ResultRow] = []
    for method in _ordered_methods(methods):
        m_idx = _METHOD_INDEX[method]
        for a_idx, action in enumerate(scenario.actions):
            _run_trials(
                rows, failures, f"{method}/{action.id}", scenario, action.id, method,
                n_particles, trials, seed, (m_idx, a_idx),
            )
    return rows


def run_dimension_sweep(
    dims: Sequence[int],
    methods: Iterable[str],
    n_particles: int,
    trials: int,
    seed: int,
    correlation_strength: float = 0.3,
    failures: list[str] | None = None,
) -> list[ResultRow]:
    """The same single-landmark action evaluated at growing state dimension.

    Each dimension gets its own deterministic scenario with one candidate
    action, so the involved dimension stays constant while the full
    dimension sweeps.
    """
    dims = list(dims)
    if dims != sorted(dims) or len(set(dims)) != len(dims):
        raise ValueError("dims must be strictly ascending")
    rows: list[ResultRow] = []
    for dim in dims:
        scenario = generate_scenario(
            dim,
            n_actions=1,
            correlation_strength=correlation_strength,
            seed=_trial_seed(seed, (dim,)) % (2**31),
        )
        action = scenario.actions[0]
        for method in _ordered_methods(methods):
            _run_trials(
                rows, failures, f"dim {dim}/{method}", scenario, action.id, method,
                n_particles, trials, seed, (dim, _METHOD_INDEX[method], 0),
            )
    return rows


def zero_elapsed(rows: Iterable[ResultRow]) -> list[ResultRow]:
    """Copies with elapsed_ns zeroed, for byte-reproducible CSV output."""
    return [replace(r, elapsed_ns=0) for r in rows]


def format_row(row: ResultRow) -> str:
    return ",".join(
        (
            row.method,
            row.action_id,
            str(row.trial),
            str(row.dim_full),
            str(row.dim_involved),
            str(row.n_particles),
            f"{row.mi_estimate:.17g}",
            str(row.elapsed_ns),
            str(row.seed),
        )
    )


def emit_csv(rows: Iterable[ResultRow], path: str | Path) -> None:
    """Write rows sorted by (method, action_id, trial), 17-significant-digit
    floats, LF line endings."""
    ordered = sorted(rows, key=lambda r: (r.method, r.action_id, r.trial))
    text = "\n".join([CSV_HEADER] + [format_row(r) for r in ordered]) + "\n"
    try:
        Path(path).write_text(text, encoding="utf-8", newline="\n")
    except OSError as exc:
        raise OSError(f"cannot write CSV to {path}: {exc}") from exc


def read_csv(path: str | Path) -> list[ResultRow]:
    """Parse a result CSV back into rows (exact float round-trip)."""
    rows = []
    with open(path, newline="", encoding="utf-8") as handle:
        for record in csv.DictReader(handle):
            rows.append(
                ResultRow(
                    method=record["method"],
                    action_id=record["action_id"],
                    trial=int(record["trial"]),
                    dim_full=int(record["dim_full"]),
                    dim_involved=int(record["dim_involved"]),
                    n_particles=int(record["n_particles"]),
                    mi_estimate=float(record["mi_estimate"]),
                    elapsed_ns=int(record["elapsed_ns"]),
                    seed=int(record["seed"]),
                )
            )
    return rows
