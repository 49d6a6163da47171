"""Involved-subset reduction: find the prior blocks an action touches,
marginalize the belief onto them, and hand the reduced problem to any MI
calculator.

The subset determination is exact syntactic dependency analysis on the
declared model footprints, never a geometric heuristic; a calculator is an
opaque callable ``(belief, action, rng) -> MiEstimate`` so the SMC
estimator and the analytic oracle plug in the same way.  Each of the two has
one stock calculator below, :class:`AnalyticMiBackend` and
:class:`SmcMiBackend`; the bench runner calls them through :func:`invmi`,
the planner on its node beliefs directly.  The involved-subset KDE pipeline,
:func:`augmi.kde.invmi_kde_augmented_mi`, marginalizes onto
:func:`determine_involved`'s blocks itself.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Union

import numpy as np

from .analytic import augmented_mi_analytic
from .mi import MiEstimate
from .smc import SampleBudget, mismc_estimate
from .state import (
    Action,
    GaussianDensity,
    StateLayout,
    WeightedParticleSet,
    _check_rng,
    _marginalize,
    _prior_footprint,
    ensure_rng,
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
        unknown = self.blocks.difference(self.layout._index)
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
    reduced = _marginalize(prior_belief, inv.blocks)
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


class AnalyticMiBackend:
    """The closed-form Gaussian oracle as a calculator.  It draws nothing
    from ``rng`` but rejects one of a type the sampling calculators reject;
    its values do not depend on the observations, so it is ``exact``."""

    exact = True

    def __call__(
        self, belief: Belief, action: Action, rng: np.random.Generator | int
    ) -> MiEstimate:
        _check_rng(rng)
        if not isinstance(belief, GaussianDensity):
            raise TypeError("analytic calculator needs a GaussianDensity belief")
        return augmented_mi_analytic(belief, action)


class SmcMiBackend:
    """The sequential Monte Carlo estimator as a calculator.  A particle
    belief goes in as given; from a Gaussian one it draws the budget's prior
    particles first, outside the estimate's elapsed time."""

    exact = False

    def __init__(self, budget: SampleBudget):
        self.budget = budget

    def __call__(
        self, belief: Belief, action: Action, rng: np.random.Generator | int
    ) -> MiEstimate:
        rng = ensure_rng(rng)
        if isinstance(belief, GaussianDensity):
            belief = sample_particles(belief, self.budget.n1, rng)
        return mismc_estimate(belief, action, self.budget, rng)
