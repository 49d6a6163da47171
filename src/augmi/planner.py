"""Open-loop belief-tree solver with involved-subset information rewards.

The solver maximizes the expected sum of information rewards over action
sequences by sparse sampling: each action node draws a few observation
sequences, propagates the node belief per draw, and backs values up with the
Bellman recursion (expectations as sample means, max over actions).

Two equivalent reward formulations are provided:

``involved_ig``
    The node at depth t carries the information gained about the involved
    prior state since the root, evaluated on the composed action path.

``consecutive_mi``
    Each edge carries the one-step augmented MI of its action from the
    parent's belief, and node rewards accumulate those increments, so a
    child's reward is its parent's plus the connecting edge's MI.

For linear-Gaussian models the information quantities do not depend on the
realized observation values, so the analytic backend skips observation
branching entirely and the two modes agree to numerical precision, which is
what the tests pin down.  The tree is built once over the union of the
candidate actions' involved blocks; everything else is marginalized out up
front.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .analytic import _condition_on_draw, joint_state_observation
from .involved import analytic_calculator, determine_involved, mismc_calculator
from .smc import SampleBudget
from .state import (
    Action,
    GaussianDensity,
    StateLayout,
    compose_actions,
    ensure_rng,
    marginalize_gaussian,
)

REWARD_INVOLVED_IG = "involved_ig"
REWARD_CONSECUTIVE_MI = "consecutive_mi"

MiBackend = Callable[[GaussianDensity, Action, np.random.Generator], float]


class PlannerError(RuntimeError):
    """Estimation failed at a tree node; the message carries the node path."""


@dataclass(frozen=True)
class History:
    """Actions taken and observations received along a tree path.

    ``exclude_last_observation`` marks the half-step state in which the last
    action has been taken but its observation not yet received.
    """

    actions: tuple[str, ...] = ()
    observations: tuple[np.ndarray, ...] = ()
    exclude_last_observation: bool = False

    def __post_init__(self):
        expected = len(self.actions) - (1 if self.exclude_last_observation else 0)
        if len(self.observations) != max(expected, 0):
            raise ValueError(
                f"history with {len(self.actions)} actions and "
                f"exclude_last={self.exclude_last_observation} needs "
                f"{max(expected, 0)} observations, got {len(self.observations)}"
            )


@dataclass
class BeliefNode:
    """One node of the search tree.

    ``accumulated_reward`` is the consecutive-MI running sum in
    ``consecutive_mi`` mode and the node's own sequential information gain in
    ``involved_ig`` mode.  ``children[action_id]`` lists
    ``(observation, child)`` pairs; the observation is ``None`` on the
    deterministic analytic path.
    """

    belief: GaussianDensity
    depth: int
    accumulated_reward: float
    history: History
    children: dict[str, list[tuple[np.ndarray | None, "BeliefNode"]]] = field(
        default_factory=dict
    )


@dataclass(frozen=True)
class ObjectiveValue:
    """Optimum of the planning objective and the action ids achieving it."""

    value: float
    best_sequence: tuple[str, ...]
    root: BeliefNode | None = field(default=None, repr=False, compare=False)


class AnalyticMiBackend:
    """Exact one-step augmented MI from the Gaussian oracle.

    ``exact = True`` tells the solver that rewards are observation-
    independent, so one propagated child per action suffices.
    """

    exact = True

    def __call__(
        self, belief: GaussianDensity, action: Action, rng: np.random.Generator
    ) -> float:
        return analytic_calculator()(belief, action, rng).value


class SmcMiBackend:
    """One-step augmented MI via the SMC estimator.

    Draws the budget's prior particles from the node belief, then runs the
    estimator; stochastic, so the solver branches on sampled observations.
    """

    exact = False

    def __init__(self, budget: SampleBudget):
        self.budget = budget

    def __call__(
        self, belief: GaussianDensity, action: Action, rng: np.random.Generator
    ) -> float:
        return mismc_calculator(self.budget)(belief, action, rng).value


def consecutive_mi(
    belief_at_t: GaussianDensity,
    action: Action,
    mi_backend: MiBackend,
    rng: np.random.Generator | int,
) -> float:
    """One-step augmented MI of ``action`` from the node belief."""
    rng, _ = ensure_rng(rng)
    return float(mi_backend(belief_at_t, action, rng))


def _steps_argument(
    actions: Sequence[Action] | Sequence[Sequence[Action]], horizon: int
) -> list[list[Action]]:
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    items = list(actions)
    if not items:
        raise ValueError("need a non-empty candidate action set")
    if isinstance(items[0], Action):
        steps = [list(items)] * horizon  # same candidates at every depth
    else:
        steps = [list(s) for s in items]
        if len(steps) != horizon:
            raise ValueError(f"got {len(steps)} per-step action sets, horizon is {horizon}")
    for t, step in enumerate(steps):
        if not step:
            raise ValueError(f"empty candidate action set at step {t}")
    return steps


def _plan_involved_union(
    layout: StateLayout, steps: list[list[Action]]
) -> frozenset[str]:
    """Union of involved sets over every candidate at every step.

    Later steps may reference new blocks created at earlier steps; those are
    resolved against an extended layout and excluded from the prior union.
    Candidates at the same step must agree on the (id, dim) of the new
    blocks they create, otherwise deeper actions would be ill-defined.
    """
    prior_ids = set(layout.ids)
    union: set[str] = set()
    extended = layout
    for t, step in enumerate(steps):
        new_decl: dict[str, int] = {}
        for action in step:
            for new_id, dim in zip(action.new_ids, action.new_dims):
                if new_decl.setdefault(new_id, dim) != dim:
                    raise ValueError(
                        f"step {t}: candidates disagree on dim of new block {new_id!r}"
                    )
            union |= determine_involved(extended, action).blocks & prior_ids
        extended = extended.concat(sorted(new_decl.items()))
    if not union:
        raise ValueError("no candidate action touches the prior state")
    return frozenset(union)


def _root(
    prior: GaussianDensity,
    steps: list[list[Action]],
    mi_backend: MiBackend,
    obs_samples: int,
    rng: np.random.Generator | int,
) -> tuple[GaussianDensity, bool, int, Callable[[tuple[int, ...]], np.random.Generator]]:
    """Root set-up shared by the solver and the direct evaluation.

    Returns the prior marginalized onto the plan's involved union, whether
    the backend is exact, the observation branch count per action node, and
    ``node_rng``, which derives a node's generator from its tree path.
    """
    rng, _ = ensure_rng(rng)
    involved = _plan_involved_union(prior.layout, steps)
    root_belief = (
        prior
        if involved == set(prior.layout.ids)
        else marginalize_gaussian(prior, involved)
    )
    exact = bool(getattr(mi_backend, "exact", False))
    branches = 1 if exact else max(1, int(obs_samples))
    root_entropy = [int(v) for v in rng.integers(0, 2**63, size=2)]

    def node_rng(path_key: tuple[int, ...]) -> np.random.Generator:
        ss = np.random.SeedSequence(entropy=root_entropy, spawn_key=path_key)
        return np.random.Generator(np.random.PCG64(ss))

    return root_belief, exact, branches, node_rng


def solve(
    prior: GaussianDensity,
    actions: Sequence[Action] | Sequence[Sequence[Action]],
    horizon: int,
    reward_mode: str,
    mi_backend: MiBackend,
    obs_samples: int = 1,
    rng: np.random.Generator | int = 0,
    step_reward: float = 0.0,
) -> ObjectiveValue:
    """Maximize the expected information objective over action sequences.

    Ties between equal-valued actions break toward the lowest action id.
    ``step_reward`` is a constant added at every decision depth (a stand-in
    for state-based reward terms); it shifts the optimum by
    ``horizon * step_reward`` without changing the argmax.
    """
    if reward_mode not in (REWARD_INVOLVED_IG, REWARD_CONSECUTIVE_MI):
        raise ValueError(f"unknown reward mode {reward_mode!r}")
    steps = _steps_argument(actions, horizon)
    root_belief, exact, branches, node_rng = _root(
        prior, steps, mi_backend, obs_samples, rng
    )

    def expand(
        belief: GaussianDensity,
        depth: int,
        acc_reward: float,
        path_actions: tuple[Action, ...],
        history: History,
        path_key: tuple[int, ...],
    ) -> tuple[float, tuple[str, ...], BeliefNode]:
        if reward_mode == REWARD_INVOLVED_IG:
            if depth == 0:
                node_reward = 0.0
            else:
                composed = compose_actions(path_actions)
                try:
                    node_reward = float(
                        mi_backend(root_belief, composed, node_rng(path_key + (0,)))
                    )
                except Exception as exc:
                    raise PlannerError(
                        f"backend failed at depth {depth} after actions "
                        f"{[a.id for a in path_actions]}: {exc}"
                    ) from exc
        else:
            node_reward = acc_reward
        node = BeliefNode(
            belief=belief, depth=depth, accumulated_reward=node_reward, history=history
        )
        if depth == horizon:
            terminal = node_reward if reward_mode == REWARD_INVOLVED_IG else 0.0
            return terminal, (), node

        best_value = -np.inf
        best_action: str | None = None
        best_tail: tuple[str, ...] = ()
        for a_index, action in enumerate(sorted(steps[depth], key=lambda a: a.id)):
            a_key = path_key + (1, a_index)
            if reward_mode == REWARD_CONSECUTIVE_MI:
                try:
                    edge = float(mi_backend(belief, action, node_rng(a_key + (0,))))
                except Exception as exc:
                    raise PlannerError(
                        f"backend failed at depth {depth} on action {action.id!r} "
                        f"(path {[a.id for a in path_actions]}): {exc}"
                    ) from exc
                acc_child = acc_reward + edge
            else:
                acc_child = 0.0

            future = 0.0
            pairs: list[tuple[np.ndarray | None, BeliefNode]] = []
            joint = joint_state_observation(belief, action)
            for branch in range(branches):
                child_belief, z_rec = _condition_on_draw(
                    joint, action, None if exact else node_rng(a_key + (2, branch))
                )
                child_hist = History(
                    actions=history.actions + (action.id,),
                    observations=history.observations
                    + ((z_rec,) if z_rec is not None else (np.empty(0),)),
                )
                value, tail, child = expand(
                    child_belief,
                    depth + 1,
                    acc_child,
                    path_actions + (action,),
                    child_hist,
                    a_key + (3, branch),
                )
                future += value / branches
                pairs.append((z_rec, child))
            node.children[action.id] = pairs

            if reward_mode == REWARD_CONSECUTIVE_MI:
                candidate = acc_child + future
            else:
                candidate = future
            candidate += step_reward
            # Actions iterate in id order, so strict > keeps the lowest id on ties.
            if candidate > best_value:
                best_value = candidate
                best_action = action.id
                best_tail = tail

        total = best_value if reward_mode == REWARD_CONSECUTIVE_MI else node_reward + best_value
        return total, (best_action,) + best_tail, node

    value, sequence, root = expand(
        root_belief, 0, 0.0, (), History(), ()
    )
    return ObjectiveValue(value=float(value), best_sequence=sequence, root=root)


def sequential_mi_direct(
    prior: GaussianDensity,
    action_sequence: Sequence[Action],
    horizon: int,
    mi_backend: MiBackend,
    obs_samples: int = 1,
    rng: np.random.Generator | int = 0,
) -> float:
    """Information of a fixed action sequence by summed one-step increments.

    Evaluates ``sum_i E[consecutive MI at step i]`` with the expectations
    over earlier observations taken as sample means (exact backends collapse
    each to a single propagated branch).  This is the no-max degenerate
    evaluation used as the brute-force oracle for the solver.
    """
    seq = list(action_sequence)
    if horizon < 1 or horizon > len(seq):
        raise ValueError(f"horizon {horizon} out of range 1..{len(seq)}")
    seq = seq[:horizon]
    belief0, exact, branches, node_rng = _root(
        prior, [[a] for a in seq], mi_backend, obs_samples, rng
    )

    def recurse(belief: GaussianDensity, i: int, path_key: tuple[int, ...]) -> float:
        if i == horizon:
            return 0.0
        action = seq[i]
        increment = float(mi_backend(belief, action, node_rng(path_key + (0,))))
        future = 0.0
        joint = joint_state_observation(belief, action)
        for branch in range(branches):
            child, _z = _condition_on_draw(
                joint, action, None if exact else node_rng(path_key + (1, branch))
            )
            future += recurse(child, i + 1, path_key + (2, branch)) / branches
        return increment + future

    return recurse(belief0, 0, ())
