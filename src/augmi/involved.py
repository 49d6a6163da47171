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
from dataclasses import dataclass
from typing import Callable, Union

import numpy as np

from .analytic import augmented_mi_analytic
from .kde import invmi_kde_augmented_mi
from .mi import METHOD_ANALYTIC, MiEstimate
from .smc import SampleBudget, mismc_estimate
from .state import (
    Action,
    GaussianDensity,
    StateLayout,
    WeightedParticleSet,
    _prior_footprint,
    ensure_rng,
    marginalize_gaussian,
    marginalize_particles,
    sample_particles,
)

Belief = Union[WeightedParticleSet, GaussianDensity]
MiCalculator = Callable[[Belief, Action, Union[np.random.Generator, int]], MiEstimate]


class CalculatorError(RuntimeError):
    """An MI calculator failed; carries the involved-set context."""


@dataclass(frozen=True)
class InvolvedSet:
    """A set of prior blocks known to cover an action's dependency footprint."""

    layout: StateLayout
    blocks: frozenset[str]

    def __post_init__(self):
        object.__setattr__(self, "blocks", frozenset(self.blocks))
        if not self.blocks:
            raise ValueError("involved set must be non-empty")
        unknown = self.blocks - set(self.layout.ids)
        if unknown:
            raise ValueError(f"involved set references unknown blocks {sorted(unknown)}")

    @property
    def dim(self) -> int:
        return sum(self.layout.block(b).dim for b in self.blocks)


def determine_involved(layout: StateLayout, action: Action) -> InvolvedSet:
    """Exact involved subset: prior blocks read by any model of the action.

    New blocks the action creates are inherently involved but excluded here;
    the set is a subset of the prior by definition.
    """
    return InvolvedSet(layout=layout, blocks=_prior_footprint(layout, action))


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
    a d-dimensional problem.  ``rng`` reaches the calculator as given.
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
    """Calculator wrapping the closed-form Gaussian oracle; it ignores ``rng``."""

    def calc(belief: Belief, action: Action, rng: np.random.Generator | int) -> MiEstimate:
        if not isinstance(belief, GaussianDensity):
            raise TypeError("analytic calculator needs a GaussianDensity belief")
        start = time.perf_counter()
        result = augmented_mi_analytic(belief, action, subset=None)
        return MiEstimate(
            value=result.value,
            method=METHOD_ANALYTIC,
            elapsed=time.perf_counter() - start,
            sample_counts={"dim": belief.dim},
        )

    return calc


def kde_calculator(n: int) -> MiCalculator:
    """Calculator running the involved-subset KDE pipeline over every block
    of the belief it receives, which :func:`invmi` has marginalized onto the
    action's footprint."""

    def calc(belief: Belief, action: Action, rng: np.random.Generator | int) -> MiEstimate:
        if not isinstance(belief, GaussianDensity):
            raise TypeError("KDE calculator needs a GaussianDensity belief")
        return invmi_kde_augmented_mi(belief, action, belief.layout.ids, n, rng=rng)

    return calc


def mismc_calculator(budget: SampleBudget) -> MiCalculator:
    """Calculator running the sequential Monte Carlo estimator.

    Accepts a particle belief directly, or a Gaussian belief from which it
    draws the budget's prior particles first (input preparation, outside
    the estimate's elapsed time).
    """

    def calc(belief: Belief, action: Action, rng: np.random.Generator | int) -> MiEstimate:
        rng = ensure_rng(rng)
        if isinstance(belief, GaussianDensity):
            belief = sample_particles(belief, budget.n1, rng)
        return mismc_estimate(belief, action, budget, rng)

    return calc
