"""Benchmark experiments over generated scenarios, with CSV output.

Everything is reproducible from (configuration, seed): per-trial seeds are
derived from (experiment seed, [dimension,] method, action, trial), so the
emitted estimates are independent of trial scheduling and method subsets.
Timing is monotonic wall time around the estimator call alone.

:class:`ResultRow`'s fields are the CSV schema: the header, the row writer
and :func:`read_csv` all follow them.  Lines are written by ``csv.writer``,
so a field is quoted only when it holds a comma, a quote or a line break.
"""

from __future__ import annotations

import csv
import io
import logging
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Iterable, Sequence, get_type_hints

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
from .state import _check_count

log = logging.getLogger(__name__)

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


# column name -> type, in field order
_COLUMNS = get_type_hints(ResultRow)
CSV_HEADER = ",".join(_COLUMNS)


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
    _check_count("n_particles", n_particles)
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


def _run_scenario(
    scenario: SlamScenario,
    methods: Iterable[str],
    n_particles: int,
    trials: int,
    seed: int,
    failures: list[str] | None,
    key: tuple[int, ...] = (),
) -> list[ResultRow]:
    """One row per trial of each method on each of the scenario's actions.

    The analytic method runs once (trial 0).  Trial seeds derive from ``key
    + (method index, action index, trial)``; ``key`` holds the sweep's
    dimension, if any.  An estimator failure is recorded in ``failures``, or
    logged when ``failures`` is None, and the run continues.
    """
    _check_count("n_particles", n_particles)
    _check_count("trials", trials)
    methods = set(methods)
    if not methods:
        raise ValueError("methods must name at least one method")
    unknown = methods - set(ALL_METHODS)
    if unknown:
        raise ValueError(f"unknown methods {sorted(unknown)}; choose from {ALL_METHODS}")
    label = "".join(f"dim {dim}/" for dim in key)
    rows: list[ResultRow] = []
    for m_idx, method in enumerate(ALL_METHODS):
        if method not in methods:
            continue
        for a_idx, action in enumerate(scenario.actions):
            for trial in range(1 if method == METHOD_ANALYTIC else trials):
                trial_seed = _trial_seed(seed, (*key, m_idx, a_idx, trial))
                try:
                    est = evaluate_method(scenario, action.id, method, n_particles, trial_seed)
                    rows.append(
                        result_row(est, scenario, action.id, trial, n_particles, trial_seed)
                    )
                except Exception as exc:  # noqa: BLE001 - record and continue
                    message = f"{label}{method}/{action.id}/trial {trial}: {exc}"
                    if failures is None:
                        log.warning("estimator failure: %s", message)
                    else:
                        failures.append(message)
    return rows


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
    return _run_scenario(scenario, methods, n_particles, trials, seed, failures)


def _check_dims(name: str, dims: Iterable[int], error: type[Exception]) -> list[int]:
    """``dims`` as a list, or ``error`` unless it names at least one state
    dimension, each a count of at least 6, in strictly ascending order."""
    dims = list(dims)
    if not dims:
        raise error(f"{name} must name at least one dimension")
    for dim in dims:
        _check_count(f"{name} items", dim, error, least=6)
    if dims != sorted(set(dims)):
        raise error(f"{name} must be strictly ascending, got {dims}")
    return dims


def run_dimension_sweep(
    dims: Sequence[int],
    methods: Iterable[str],
    n_particles: int,
    trials: int,
    seed: int,
    failures: list[str] | None = None,
) -> list[ResultRow]:
    """The same single-landmark action evaluated at growing state dimension.

    Each dimension gets its own deterministic scenario with one candidate
    action, so the involved dimension stays constant while the full
    dimension sweeps.
    """
    dims = _check_dims("dims", dims, ValueError)
    rows: list[ResultRow] = []
    for dim in dims:
        scenario = generate_scenario(dim, n_actions=1, seed=_trial_seed(seed, (dim,)) % (2**31))
        rows += _run_scenario(scenario, methods, n_particles, trials, seed, failures, (dim,))
    return rows


def zero_elapsed(rows: Iterable[ResultRow]) -> list[ResultRow]:
    """Copies with elapsed_ns zeroed, for byte-reproducible CSV output."""
    return [replace(r, elapsed_ns=0) for r in rows]


def format_row(row: ResultRow) -> str:
    """One row as a CSV line, without its line end; 17-digit floats."""
    line = io.StringIO()
    # A "\r\n" line end makes the writer quote a field holding either character.
    csv.writer(line, lineterminator="\r\n").writerow(
        f"{getattr(row, name):.17g}" if kind is float else str(getattr(row, name))
        for name, kind in _COLUMNS.items()
    )
    return line.getvalue()[:-2]


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
    with open(path, newline="", encoding="utf-8") as handle:
        return [
            ResultRow(**{name: kind(record[name]) for name, kind in _COLUMNS.items()})
            for record in csv.DictReader(handle)
        ]
