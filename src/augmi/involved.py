"""Involved-subset reduction: find the prior blocks an action touches,
marginalize the belief onto them, and hand the reduced problem to any MI
calculator.

The subset determination is exact syntactic dependency analysis on the
declared model footprints, never a geometric heuristic; a calculator is an
opaque callable ``(belief, action, rng) -> MiEstimate`` so KDE, SMC, and the
analytic oracle all plug in the same way.  The three stock calculators below
are the only code that turns a belief and an action into an estimate: the
bench runner and the planner backends call them, with or without
:func:`invmi` in front.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace
from typing import Callable, Iterable, Union

import numpy as np

from .analytic import augmented_mi_analytic
from .kde import KdeConfig, invmi_kde_augmented_mi, naive_kde_augmented_mi
from .mi import METHOD_ANALYTIC, MiEstimate
from .smc import SampleBudget, mismc_estimate
from .state import (
    Action,
    GaussianDensity,
    StateLayout,
    WeightedParticleSet,
    ensure_rng,
    marginalize_gaussian,
    marginalize_particles,
    prior_footprint,
    sample_particles,
)

SOURCE_EXACT = "exact_footprint"
SOURCE_UNION = "union_over_actions"
SOURCE_USER = "user_supplied"

Belief = Union[WeightedParticleSet, GaussianDensity]
# ``rng`` is a Generator or an integer seed; an integer becomes the estimate's
# seed label.
MiCalculator = Callable[[Belief, Action, Union[np.random.Generator, int]], MiEstimate]


class CalculatorError(RuntimeError):
    """An MI calculator failed; carries the involved-set context."""


@dataclass(frozen=True)
class InvolvedSet:
    """A set of prior blocks known to cover an action's dependency footprint."""

    layout: StateLayout
    blocks: frozenset[str]
    source: str = SOURCE_USER

    def __post_init__(self):
        object.__setattr__(self, "blocks", frozenset(self.blocks))
        if not self.blocks:
            raise ValueError("involved set must be non-empty")
        unknown = self.blocks - set(self.layout.ids)
        if unknown:
            raise ValueError(f"involved set references unknown blocks {sorted(unknown)}")
        if self.source not in (SOURCE_EXACT, SOURCE_UNION, SOURCE_USER):
            raise ValueError(f"unknown source tag {self.source!r}")

    @property
    def dim(self) -> int:
        return sum(self.layout.block(b).dim for b in self.blocks)

    def ordered(self) -> tuple[str, ...]:
        """Block ids in layout order (deterministic)."""
        return tuple(b.id for b in self.layout.blocks if b.id in self.blocks)


def determine_involved(layout: StateLayout, action: Action) -> InvolvedSet:
    """Exact involved subset: prior blocks read by any model of the action.

    New blocks the action creates are inherently involved but excluded here;
    the set is a subset of the prior by definition.
    """
    return InvolvedSet(
        layout=layout,
        blocks=prior_footprint(layout, action),
        source=SOURCE_EXACT,
    )


def union_involved(sets: Iterable[InvolvedSet]) -> InvolvedSet:
    """Union of per-action involved sets, for one-time marginalization."""
    sets = list(sets)
    if not sets:
        raise ValueError("need at least one involved set")
    layout = sets[0].layout
    for inv in sets[1:]:
        if inv.layout != layout:
            raise ValueError("involved sets disagree on the state layout")
    blocks = frozenset().union(*(inv.blocks for inv in sets))
    return InvolvedSet(layout=layout, blocks=blocks, source=SOURCE_UNION)


def invmi(
    prior_belief: Belief,
    action: Action,
    calc: MiCalculator,
    rng: np.random.Generator | int,
) -> MiEstimate:
    """Reduce-then-calculate: marginalize the prior onto the exact involved
    subset of ``action`` and evaluate the MI calculator there.

    The result equals the full-state value for any calculator that respects
    the models' footprints; the point is that the calculator only ever sees
    a d-dimensional problem.  ``rng`` reaches the calculator as given, so an
    integer seed labels the estimate.
    """
    inv = determine_involved(prior_belief.layout, action)
    if isinstance(prior_belief, WeightedParticleSet):
        reduced: Belief = marginalize_particles(prior_belief, inv.blocks)
    else:
        reduced = marginalize_gaussian(prior_belief, inv.blocks)
    try:
        return calc(reduced, action, rng)
    except Exception as exc:
        raise CalculatorError(
            f"MI calculator failed on action {action.id!r} over involved set "
            f"{sorted(inv.blocks)}: {exc}"
        ) from exc


# ---------------------------------------------------------------------------
# Stock calculators
# ---------------------------------------------------------------------------


def analytic_calculator() -> MiCalculator:
    """Calculator wrapping the closed-form Gaussian oracle."""

    def calc(belief: Belief, action: Action, rng: np.random.Generator | int) -> MiEstimate:
        if not isinstance(belief, GaussianDensity):
            raise TypeError("analytic calculator needs a GaussianDensity belief")
        _rng, seed = ensure_rng(rng)
        start = time.perf_counter()
        result = augmented_mi_analytic(belief, action, subset=None)
        return MiEstimate(
            value=result.value,
            method=METHOD_ANALYTIC,
            elapsed=time.perf_counter() - start,
            sample_counts={"dim": belief.dim},
            seed=seed,
        )

    return calc


def kde_calculator(n: int, cfg: KdeConfig | None = None, z_draws: int = 1) -> MiCalculator:
    """Calculator running the re-substitution KDE pipeline on the belief it
    receives.

    A belief already marginalized onto the action's footprint (as
    :func:`invmi` hands it over) runs the involved-subset pipeline; a wider
    belief was not reduced and runs the naive full-state pipeline.
    """

    def calc(belief: Belief, action: Action, rng: np.random.Generator | int) -> MiEstimate:
        if not isinstance(belief, GaussianDensity):
            raise TypeError("KDE calculator needs a GaussianDensity belief")
        if prior_footprint(belief.layout, action) == set(belief.layout.ids):
            return invmi_kde_augmented_mi(
                belief, action, belief.layout.ids, n, cfg, rng, z_draws=z_draws
            )
        return naive_kde_augmented_mi(belief, action, n, cfg, rng, z_draws=z_draws)

    return calc


def mismc_calculator(budget: SampleBudget) -> MiCalculator:
    """Calculator running the sequential Monte Carlo estimator.

    Accepts a particle belief directly, or a Gaussian belief from which it
    draws the budget's prior particles first (input preparation, outside
    the estimate's elapsed time).
    """

    def calc(belief: Belief, action: Action, rng: np.random.Generator | int) -> MiEstimate:
        rng, seed = ensure_rng(rng)
        if isinstance(belief, GaussianDensity):
            belief = sample_particles(belief, budget.n1, rng)
        return replace(mismc_estimate(belief, action, budget, rng), seed=seed)

    return calc
