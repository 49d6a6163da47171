"""Open-loop belief-tree solver with involved-subset information rewards.

The solver maximizes the expected sum of information rewards over action
sequences.  A node's ``accumulated_reward`` is the information gained from
the root to that node, and every node backs up values the same way: a leaf
is worth 0, and a node is worth the max over actions of its child's reward
plus the mean value of that action's children.

Two equivalent reward formulations estimate a child's reward, and the tree
holds only what its formulation reads.  ``obs_samples`` means something
different in each; an exact backend uses 1 in both.

``involved_ig``
    The gain is evaluated from the root belief on the composed action path.
    It reads no belief and no observation, so the solve is a search over
    action paths: each node has one child per action, holding the composed
    prefix instead of a belief, rewarded by the mean of ``obs_samples``
    seeded estimates of that prefix.

``consecutive_mi``
    The gain is summed edge by edge: a child's reward is its parent's plus
    the one-step augmented MI of the connecting action from the parent's
    belief.  Each action node has ``obs_samples`` observation branches
    (sparse sampling); each draws an observation and conditions the belief
    on it.

The involved gain of a prefix equals the sum of its consecutive MIs, so for
linear-Gaussian models, where the information does not depend on the
realized observation values, the analytic backend skips observation
branching and the two modes agree to numerical precision, which is what the
tests pin down.  The tree is built once over the union of the candidate
actions' involved blocks; everything else is marginalized out up front.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .analytic import _condition_on_draw, joint_state_observation
from .involved import Belief, analytic_calculator, determine_involved, mismc_calculator
from .smc import SampleBudget
from .state import (
    Action,
    GaussianDensity,
    StateLayout,
    _derived_rng,
    _is_count,
    compose_actions,
    ensure_rng,
    marginalize_gaussian,
    marginalize_particles,
)

REWARD_INVOLVED_IG = "involved_ig"
REWARD_CONSECUTIVE_MI = "consecutive_mi"

MiBackend = Callable[[Belief, Action, np.random.Generator], float]


class PlannerError(RuntimeError):
    """Estimation failed at a tree node; the message carries the node path."""


def _estimate(
    mi_backend: MiBackend, belief: Belief, action: Action,
    rng: np.random.Generator, path: tuple[str, ...],
) -> float:
    """One backend call; a failure raises PlannerError naming the depth, action and path."""
    try:
        return float(mi_backend(belief, action, rng))
    except Exception as exc:
        raise PlannerError(
            f"backend failed at depth {len(path)} on action {action.id!r} "
            f"(path {list(path)}): {exc}"
        ) from exc


@dataclass
class BeliefNode:
    """One node of the search tree.

    ``accumulated_reward`` is the information gained from the root to this
    node, 0 at the root.  ``children[action_id]`` lists ``(observation,
    child)`` pairs, so a node's actions and observations are its path from
    the root: ``obs_samples`` pairs per action in ``consecutive_mi`` mode,
    and in ``involved_ig`` mode one pair whose observation and belief are
    ``None``, as that mode reads neither.  The analytic path draws no
    observation either.
    """

    belief: Belief | None
    depth: int
    accumulated_reward: float
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

    Draws the budget's prior particles from a Gaussian node belief (a
    particle belief goes in as given), then runs the estimator.  It is
    stochastic, so the solver uses ``obs_samples`` branches or estimates per
    action, as :func:`solve` describes.
    """

    exact = False

    def __init__(self, budget: SampleBudget):
        self.budget = budget

    def __call__(
        self, belief: Belief, action: Action, rng: np.random.Generator
    ) -> float:
        return mismc_calculator(self.budget)(belief, action, rng).value


def _steps_argument(
    actions: Sequence[Action] | Sequence[Sequence[Action]], horizon: int
) -> list[list[Action]]:
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    items = list(actions)
    if not items:
        raise ValueError("need a non-empty candidate action set")
    if isinstance(items[0], Action):
        # Every action creates a new block, so the same candidates at a
        # second depth would re-create the first depth's ids.
        if horizon > 1:
            raise ValueError(
                f"a flat candidate list only plans horizon 1, got horizon {horizon}: "
                "pass one candidate list per step"
            )
        steps = [items]
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
            # Checked up front: involved_ig mode never conditions on a draw,
            # and both modes must reject such an action alike.
            if not action.observations:
                raise ValueError(f"step {t}: action {action.id!r} has no observations")
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
    prior: Belief,
    steps: list[list[Action]],
    mi_backend: MiBackend,
    obs_samples: int,
    rng: np.random.Generator | int,
    reward_mode: str,
) -> tuple[Belief, bool, int, Callable[[tuple[int, ...]], np.random.Generator]]:
    """Root set-up shared by the solver and the direct evaluation.

    Returns the prior marginalized onto the plan's involved union, whether
    the backend is exact, the observation branch count per action node, and
    ``node_rng``, which derives a node's generator from its tree path.
    ``obs_samples`` that is not an integer, or is below 1, raises
    ``ValueError`` whatever the backend.  ``consecutive_mi`` conditions each
    belief on drawn observations, so a prior that is not a GaussianDensity
    raises ``TypeError`` there.
    """
    if reward_mode == REWARD_CONSECUTIVE_MI and not isinstance(prior, GaussianDensity):
        raise TypeError(
            f"{reward_mode} needs a posterior update after each observation, which only a "
            f"GaussianDensity prior has; got {type(prior).__name__} (use {REWARD_INVOLVED_IG})"
        )
    if not _is_count(obs_samples):
        raise ValueError(f"obs_samples must be an integer, got {obs_samples!r}")
    if obs_samples < 1:
        raise ValueError(f"obs_samples must be >= 1, got {obs_samples}")
    rng = ensure_rng(rng)
    involved = _plan_involved_union(prior.layout, steps)
    if involved != set(prior.layout.ids):
        gaussian = isinstance(prior, GaussianDensity)
        prior = (marginalize_gaussian if gaussian else marginalize_particles)(prior, involved)
    exact = bool(getattr(mi_backend, "exact", False))
    branches = 1 if exact else int(obs_samples)
    root_entropy = [int(v) for v in rng.integers(0, 2**63, size=2)]
    return prior, exact, branches, functools.partial(_derived_rng, root_entropy)


def solve(
    prior: Belief,
    actions: Sequence[Action] | Sequence[Sequence[Action]],
    horizon: int,
    reward_mode: str,
    mi_backend: MiBackend,
    obs_samples: int = 1,
    rng: np.random.Generator | int = 0,
) -> ObjectiveValue:
    """Maximize the expected information objective over action sequences.

    ``actions`` is one candidate list per step, or a flat candidate list
    when ``horizon`` is 1.  ``obs_samples`` is the number of observation
    branches per action node in ``consecutive_mi`` mode and the number of
    seeded estimates averaged per composed prefix in ``involved_ig`` mode;
    an exact backend uses 1 in both.  The result's ``root`` is the searched
    tree; in both modes a node's ``accumulated_reward`` is the information
    gained from the root to it.  Ties between equal-valued actions break
    toward the lowest action id.  A ``WeightedParticleSet`` prior plans in
    ``involved_ig`` mode only.
    """
    if reward_mode not in (REWARD_INVOLVED_IG, REWARD_CONSECUTIVE_MI):
        raise ValueError(f"unknown reward mode {reward_mode!r}")
    steps = _steps_argument(actions, horizon)
    root_belief, exact, branches, node_rng = _root(
        prior, steps, mi_backend, obs_samples, rng, reward_mode
    )
    involved_ig = reward_mode == REWARD_INVOLVED_IG

    def expand(
        belief: Belief | None, prefix: Action | None, acc_reward: float,
        path: tuple[str, ...], key: tuple[int, ...],
    ) -> tuple[float, tuple[str, ...], BeliefNode]:
        depth = len(path)
        node = BeliefNode(belief=belief, depth=depth, accumulated_reward=acc_reward)
        if depth == horizon:
            return 0.0, (), node

        best_value, best_sequence = -np.inf, ()
        for a_index, action in enumerate(sorted(steps[depth], key=lambda a: a.id)):
            a_key = key + (1, a_index)
            child_path = path + (action.id,)
            if involved_ig:
                # One child per action: its reward reads no observation, so
                # observation branches would only re-estimate the same prefix.
                # Estimate b is keyed by the child's key, a_key + (3, 0), plus (0, b).
                child_prefix = action if prefix is None else compose_actions((prefix, action))
                acc_child = sum(
                    _estimate(
                        mi_backend, root_belief, child_prefix,
                        node_rng(a_key + (3, 0, 0, branch)), child_path,
                    )
                    for branch in range(branches)
                ) / branches
                draws = [(None, None)]
            else:
                child_prefix = None
                acc_child = acc_reward + _estimate(
                    mi_backend, belief, action, node_rng(a_key + (0,)), path
                )
                draws = _condition_on_draw(
                    joint_state_observation(belief, action), action,
                    None if exact else [node_rng(a_key + (2, b)) for b in range(branches)],
                )

            future = 0.0
            pairs: list[tuple[np.ndarray | None, BeliefNode]] = []
            for branch, (child_belief, z) in enumerate(draws):
                value, tail, child = expand(
                    child_belief, child_prefix, acc_child, child_path, a_key + (3, branch)
                )
                future += value / len(draws)
                pairs.append((z, child))
            node.children[action.id] = pairs

            candidate = acc_child + future
            # Actions iterate in id order, so strict > keeps the lowest id on ties.
            if candidate > best_value:
                best_value, best_sequence = candidate, (action.id,) + tail

        return best_value, best_sequence, node

    value, sequence, root = expand(root_belief, None, 0.0, (), ())
    return ObjectiveValue(value=float(value), best_sequence=sequence, root=root)


def sequential_mi_direct(
    prior: Belief,
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
        prior, [[a] for a in seq], mi_backend, obs_samples, rng, REWARD_CONSECUTIVE_MI
    )
    ids = tuple(a.id for a in seq)

    def recurse(belief: GaussianDensity, i: int, path_key: tuple[int, ...]) -> float:
        if i == horizon:
            return 0.0
        action = seq[i]
        increment = _estimate(mi_backend, belief, action, node_rng(path_key + (0,)), ids[:i])
        future = 0.0
        draws = _condition_on_draw(
            joint_state_observation(belief, action), action,
            None if exact else [node_rng(path_key + (1, b)) for b in range(branches)],
        )
        for branch, (child, _z) in enumerate(draws):
            future += recurse(child, i + 1, path_key + (2, branch)) / branches
        return increment + future

    return recurse(belief0, 0, ())
