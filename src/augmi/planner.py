"""Open-loop belief-tree solver with involved-subset information rewards.

The solver maximizes the expected sum of information rewards over action
sequences.  Every node has one child per action.  A node's
``accumulated_reward`` is the information gained from the root to that
node, and every node backs up values the same way: a leaf is worth 0, and a
node is worth the max over actions of its child's reward plus that child's
value.

A child's reward is the mean of ``obs_samples`` seeded estimates (one for an
exact backend).  The two reward formulations differ only in what those
estimates are of:

``involved_ig``
    The gain of the composed action path, from the root belief.  The tree
    holds the composed prefix instead of a belief.

``consecutive_mi``
    The parent's reward plus the one-step augmented MI of the connecting
    action, from the parent's belief.  Below the horizon a child holds its
    parent's belief conditioned on the action's observations at their
    predictive mean.

``consecutive_mi`` takes a ``GaussianDensity`` root and linear-Gaussian
models, so a conditioned belief's covariance, and with it every information
value below it, does not depend on the observed values: one belief per
action stands for every observation, and sampled observation branches
would only re-seed estimates of the same problem.  Observation branches
come back if ``consecutive_mi`` ever gets a non-Gaussian or nonlinear
posterior update.

In both modes a child at the horizon is a leaf holding no belief: it is
worth 0 and nothing reads its belief, so nothing is conditioned there.

The involved gain of a prefix equals the sum of its consecutive MIs, so
under the analytic backend the two modes agree to numerical precision,
which is what the tests pin down.  The tree is built once over the union of
the candidate actions' involved blocks; everything else is marginalized out
up front.

A backend is any MI calculator of :mod:`augmi.involved`, such as its
:class:`AnalyticMiBackend` and :class:`SmcMiBackend` (importable from here
too); the solver reads each estimate's ``value``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .analytic import _condition_on_draw, joint_state_observation
from .involved import AnalyticMiBackend, SmcMiBackend  # noqa: F401  (re-exported)
from .involved import Belief, MiCalculator, determine_involved
from .state import (
    Action,
    GaussianDensity,
    StateLayout,
    _check_count,
    _derived_rng,
    _marginalize,
    compose_actions,
    ensure_rng,
)

REWARD_INVOLVED_IG = "involved_ig"
REWARD_CONSECUTIVE_MI = "consecutive_mi"


class PlannerError(RuntimeError):
    """Estimation failed at a tree node; the message carries the node path."""


# reward(belief, action, key, path) -> mean of the seeded estimates
_Reward = Callable[[Belief, Action, tuple[int, ...], tuple[str, ...]], float]


@dataclass
class BeliefNode:
    """One node of the search tree.

    ``accumulated_reward`` is the information gained from the root to this
    node, 0 at the root.  ``children[action_id]`` is ``[(None, child)]``:
    one child per action, in an ``(observation, child)`` pair whose
    observation is always ``None`` (``perfbench/spans.py`` walks the tree
    by pairs).  ``belief`` is ``None`` at the horizon and, below the root,
    in ``involved_ig`` mode, which reads only the root's.
    """

    belief: Belief | None
    depth: int
    accumulated_reward: float
    children: dict[str, list[tuple[None, "BeliefNode"]]] = field(default_factory=dict)


@dataclass(frozen=True)
class ObjectiveValue:
    """Optimum of the planning objective and the action ids achieving it."""

    value: float
    best_sequence: tuple[str, ...]
    root: BeliefNode | None = field(default=None, repr=False, compare=False)


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
    blocks they create, otherwise deeper actions would be ill-defined.  A
    step-0 candidate reads only prior blocks, and :func:`determine_involved`
    rejects one that reads none, so the union is never empty.
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
    return frozenset(union)


def _root(
    prior: Belief,
    steps: list[list[Action]],
    mi_backend: MiCalculator,
    obs_samples: int,
    rng: np.random.Generator | int,
    reward_mode: str,
) -> tuple[Belief, _Reward]:
    """Root set-up shared by the solver and the direct evaluation.

    Returns the prior marginalized onto the plan's involved union and
    ``reward(belief, action, key, path)``: the mean of ``obs_samples``
    seeded estimates of ``action`` from ``belief`` (one for an exact
    backend), estimate ``b`` drawing from the stream derived from the
    child's tree ``key`` plus ``(0, b)``.  A backend failure raises
    PlannerError naming the depth and ``path`` of the parent node, and the
    action.  ``obs_samples`` that is not an integer, or is below 1, raises
    ``ValueError`` whatever the backend.  ``consecutive_mi`` conditions each
    belief on its action's observations, so a prior that is not a
    GaussianDensity raises ``TypeError`` there.
    """
    if reward_mode == REWARD_CONSECUTIVE_MI and not isinstance(prior, GaussianDensity):
        raise TypeError(
            f"{reward_mode} needs a posterior update after each observation, which only a "
            f"GaussianDensity prior has; got {type(prior).__name__} (use {REWARD_INVOLVED_IG})"
        )
    _check_count("obs_samples", obs_samples)
    rng = ensure_rng(rng)
    involved = _plan_involved_union(prior.layout, steps)
    if involved != set(prior.layout.ids):
        prior = _marginalize(prior, involved)
    n_estimates = 1 if getattr(mi_backend, "exact", False) else int(obs_samples)
    root_entropy = [int(v) for v in rng.integers(0, 2**63, size=2)]

    def reward(
        belief: Belief, action: Action, key: tuple[int, ...], path: tuple[str, ...]
    ) -> float:
        try:
            values = [
                float(mi_backend(belief, action, _derived_rng(root_entropy, key + (0, b))).value)
                for b in range(n_estimates)
            ]
        except Exception as exc:
            raise PlannerError(
                f"backend failed at depth {len(path)} on action {action.id!r} "
                f"(path {list(path)}): {exc}"
            ) from exc
        return sum(values) / n_estimates

    return prior, reward


def solve(
    prior: Belief,
    actions: Sequence[Action] | Sequence[Sequence[Action]],
    horizon: int,
    reward_mode: str,
    mi_backend: MiCalculator,
    obs_samples: int = 1,
    rng: np.random.Generator | int = 0,
) -> ObjectiveValue:
    """Maximize the expected information objective over action sequences.

    ``actions`` is one candidate list per step, or a flat candidate list
    when ``horizon`` is 1.  ``mi_backend(belief, action, rng)`` returns an
    ``MiEstimate`` whose ``value`` is the reward.  ``obs_samples`` is the
    number of seeded estimates averaged per child reward, in both modes; an
    exact backend uses 1.  The result's ``root`` is the searched tree, one
    child per action; in both modes a node's ``accumulated_reward`` is the
    information gained from the root to it, and a child at the horizon is a
    leaf holding no belief, built without a joint or a conditioning.  Ties
    between equal-valued actions break toward the lowest action id.  A
    ``WeightedParticleSet`` prior plans in ``involved_ig`` mode only.
    """
    if reward_mode not in (REWARD_INVOLVED_IG, REWARD_CONSECUTIVE_MI):
        raise ValueError(f"unknown reward mode {reward_mode!r}")
    steps = _steps_argument(actions, horizon)
    root_belief, reward = _root(prior, steps, mi_backend, obs_samples, rng, reward_mode)
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
            # The child's stream key; estimate b draws from child_key + (0, b).
            child_key = key + (1, a_index, 3, 0)
            child_belief = child_prefix = None
            if involved_ig:
                # the composed prefix's gain, from the root belief
                child_prefix = action if prefix is None else compose_actions((prefix, action))
                acc_child = reward(root_belief, child_prefix, child_key, path)
            else:
                # the parent's gain plus one step from the parent's belief
                acc_child = acc_reward + reward(belief, action, child_key, path)
                if depth + 1 < horizon:
                    child_belief, _z = _condition_on_draw(
                        joint_state_observation(belief, action), action, None
                    )
            value, tail, child = expand(
                child_belief, child_prefix, acc_child, path + (action.id,), child_key
            )
            node.children[action.id] = [(None, child)]

            candidate = acc_child + value
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
    mi_backend: MiCalculator,
    obs_samples: int = 1,
    rng: np.random.Generator | int = 0,
) -> float:
    """Information of a fixed action sequence by summed one-step increments.

    Evaluates ``sum_i E[consecutive MI at step i]``.  Each increment is the
    mean of ``obs_samples`` seeded estimates (one for an exact backend) from
    the belief conditioned on the earlier steps' observations at their
    predictive mean, with the keys ``solve`` gives that path when every
    step has one candidate.  The last step is not conditioned on, as the
    solver builds its horizon leaves.  This is the no-max degenerate
    evaluation used as the brute-force oracle for the solver.
    """
    seq = list(action_sequence)
    if horizon < 1 or horizon > len(seq):
        raise ValueError(f"horizon {horizon} out of range 1..{len(seq)}")
    seq = seq[:horizon]
    belief, reward = _root(
        prior, [[a] for a in seq], mi_backend, obs_samples, rng, REWARD_CONSECUTIVE_MI
    )
    increments, key = [], ()
    for depth, action in enumerate(seq):
        key += (1, 0, 3, 0)  # solve's child key for a step's only candidate
        increments.append(reward(belief, action, key, tuple(a.id for a in seq[:depth])))
        if depth + 1 < horizon:
            belief, _z = _condition_on_draw(joint_state_observation(belief, action), action, None)
    # Summed from the last step back; seeded values depend on this order.
    return sum(reversed(increments))
