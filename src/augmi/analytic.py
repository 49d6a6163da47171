"""Closed-form Gaussian information quantities.

For linear-Gaussian transition and observation models the joint density over
(prior state, new blocks, observations) is itself Gaussian, so entropies and
augmented mutual information have exact values.  These are the ground truth
every sampling estimator in this package is checked against.

All quantities are in nats.  Conditioning goes through Schur complements;
log-determinants through Cholesky factorizations (see :mod:`augmi.linalg`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .linalg import cholesky_psd, conditional_parts
from .state import (
    Action,
    GaussianDensity,
    _bind_inputs,
    _prior_footprint,
    marginalize_gaussian,
)

LOG_TWO_PI_E = math.log(2.0 * math.pi) + 1.0


class FootprintError(ValueError):
    """The supplied subset misses prior blocks the action's models read.

    Evaluating mutual information over such a subset would silently return a
    wrong value, so this is always a hard error.
    """


@dataclass(frozen=True)
class AugmentedMiResult:
    """Augmented MI split into its two entropy terms.

    ``value == prior_entropy - posterior_entropy`` where the posterior
    entropy is the expected joint entropy of (state, new blocks) given the
    observations.  ``dims`` records (full prior D, subset d used, new dim).
    """

    value: float
    prior_entropy: float
    posterior_entropy: float
    dims: tuple[int, int, int]


def entropy_from_cov(cov: np.ndarray) -> float:
    """Differential entropy 0.5 * log((2 pi e)^d det Sigma) in nats."""
    cov = np.asarray(cov, dtype=float)
    d = cov.shape[0]
    if d == 0:
        return 0.0
    log_det = 2.0 * float(np.sum(np.log(np.diag(cholesky_psd(cov)))))
    return 0.5 * (d * LOG_TWO_PI_E + log_det)


def joint_state_observation(prior: GaussianDensity, action: Action) -> GaussianDensity:
    """Joint Gaussian over (prior blocks, new blocks, observation blocks).

    New blocks keep the action's declared ids; observation ``j`` (1-based,
    declaration order) gets the block id ``"<action id>:z<j>"``.  Built by
    propagating the linear maps: for output ``y = M u + noise`` the new mean
    is ``M mu_u``, the cross covariance against everything existing is
    ``M S[u, :]``, and the marginal covariance is ``M S[u,u] M' + noise``.
    """
    bound = _bind_inputs(prior.layout, action)
    dim0 = prior.dim
    total = dim0 + action.new_dim_total + action.obs_dim_total

    mean = np.zeros(total)
    cov = np.zeros((total, total))
    mean[:dim0] = prior.mean
    cov[:dim0, :dim0] = prior.covariance
    cursor = dim0
    for model, cols in bound:
        out = slice(cursor, cursor + model.output_dim)
        mean[out] = model.matrix @ mean[cols]
        cross = model.matrix @ cov[np.ix_(cols, np.arange(cursor))]
        cov[out, :cursor] = cross
        cov[:cursor, out] = cross.T
        cov[out, out] = (
            model.matrix @ cov[np.ix_(cols, cols)] @ model.matrix.T + model.noise_cov
        )
        cursor += model.output_dim

    ids = action.new_ids + observation_block_ids(action)
    layout = prior.layout.concat((i, model.output_dim) for i, (model, _cols) in zip(ids, bound))
    return GaussianDensity(layout=layout, mean=mean, covariance=cov)


def observation_block_ids(action: Action) -> tuple[str, ...]:
    """Block ids the joint density assigns to the action's observations."""
    return tuple(f"{action.id}:z{j}" for j in range(1, len(action.observations) + 1))


def condition_gaussian(
    density: GaussianDensity, given: Iterable[str], values: np.ndarray
) -> GaussianDensity | list[GaussianDensity]:
    """Condition a joint Gaussian on exact values of some blocks.

    Returns the conditional density over the remaining blocks (original
    order), with mean shifted by the Kalman-style gain and the Schur
    complement as covariance.  A 2-D ``values`` is a stack of value rows and
    returns one density per row; the gain and the Schur complement are
    computed once, and the densities share the covariance and its factor.
    """
    given = set(given)
    keep_ids = [b.id for b in density.layout.blocks if b.id not in given]
    if not keep_ids:
        raise ValueError("conditioning on every block leaves nothing")
    keep_idx = density.layout.indices(keep_ids)
    given_idx = density.layout.indices(given)
    values = np.asarray(values, dtype=float)
    rows = values if values.ndim == 2 else values.reshape(1, -1)
    if rows.shape[1] != given_idx.size:
        raise ValueError(f"values have shape {values.shape}, expected ([rows,] {given_idx.size})")
    gain, schur = conditional_parts(density.covariance, keep_idx, given_idx)
    mean_keep, mean_given = density.mean[keep_idx], density.mean[given_idx]
    conditional = GaussianDensity(
        layout=density.layout.sublayout(keep_ids), mean=mean_keep, covariance=schur
    )
    out = [conditional._with_mean(mean_keep + gain @ (row - mean_given)) for row in rows]
    return out if values.ndim == 2 else out[0]


def _condition_on_draw(
    joint: GaussianDensity, action: Action, rngs: Sequence[np.random.Generator] | None
) -> list[tuple[GaussianDensity, np.ndarray | None]]:
    """Beliefs over a :func:`joint_state_observation` joint's state blocks
    (prior and new), each given one draw ``z`` of the action's observations
    from the joint's predictive, and its ``z``.

    Branch ``b`` draws its ``z`` from ``rngs[b]``; the z factor and the
    conditioning are computed once for all branches.  ``rngs = None``
    conditions once at the predictive mean and returns no ``z``; that leaves
    the covariance, hence any linear-Gaussian information value, unchanged.
    """
    obs_ids = observation_block_ids(action)
    if not obs_ids:
        raise ValueError(f"action {action.id!r} has no observations to condition on")
    obs_idx = joint.layout.indices(obs_ids)
    if rngs is None:
        return [(condition_gaussian(joint, obs_ids, joint.mean[obs_idx]), None)]
    z_chol = cholesky_psd(joint.covariance[np.ix_(obs_idx, obs_idx)])
    zs = [joint.mean[obs_idx] + z_chol @ rng.standard_normal(obs_idx.size) for rng in rngs]
    stack = np.reshape(zs, (len(zs), obs_idx.size))
    return list(zip(condition_gaussian(joint, obs_ids, stack), zs))


def _conditional_entropy(density: GaussianDensity, of: set[str], given: set[str]) -> float:
    """H[of | given] for jointly Gaussian blocks, via the Schur complement."""
    if not given:
        return entropy_from_cov(
            density.covariance[np.ix_(density.layout.indices(of), density.layout.indices(of))]
        )
    _gain, schur = conditional_parts(
        density.covariance, density.layout.indices(of), density.layout.indices(given)
    )
    return entropy_from_cov(schur)


def _reduced_joint(
    prior: GaussianDensity, action: Action, subset: Iterable[str] | None
) -> tuple[GaussianDensity, GaussianDensity]:
    """The prior marginalized onto ``subset`` (``None`` keeps it whole), and its
    joint with the action's new blocks and observations.  A subset naming an
    unknown block or missing part of the footprint raises FootprintError."""
    subset = None if subset is None else set(subset)
    # the whole prior needs no footprint check; the joint validates the action
    if subset is not None and subset != set(prior.layout.ids):
        footprint = _prior_footprint(prior.layout, action)
        unknown = subset - set(prior.layout.ids)
        if unknown:
            raise FootprintError(f"subset contains unknown blocks {sorted(unknown)}")
        missing = footprint - subset
        if missing:
            raise FootprintError(
                f"subset misses involved prior blocks {sorted(missing)}; mutual "
                "information over it would be wrong, not approximate"
            )
        prior = marginalize_gaussian(prior, subset)
    return prior, joint_state_observation(prior, action)


def augmented_mi_analytic(
    prior: GaussianDensity, action: Action, subset: Iterable[str] | None = None
) -> AugmentedMiResult:
    """Exact augmented MI: H[X_s] - H[X_s, X_new | Z].

    ``subset`` restricts the prior to the named blocks before building the
    joint; it must contain every prior block the action's models read
    (``None`` means the full state).  With that hypothesis satisfied the
    result is independent of the subset choice.
    """
    reduced, joint = _reduced_joint(prior, action, subset)
    state_ids = set(reduced.layout.ids) | set(action.new_ids)
    obs_ids = set(observation_block_ids(action))

    prior_entropy = entropy_from_cov(reduced.covariance)
    posterior_entropy = _conditional_entropy(joint, state_ids, obs_ids)
    return AugmentedMiResult(
        value=prior_entropy - posterior_entropy,
        prior_entropy=prior_entropy,
        posterior_entropy=posterior_entropy,
        dims=(prior.dim, reduced.dim, action.new_dim_total),
    )


def mi_analytic(
    joint: GaussianDensity, part_a: Iterable[str], part_b: Iterable[str]
) -> float:
    """Mutual information between two disjoint block sets of a joint Gaussian.

    Computed as H[A] + H[B] - H[A, B].
    """
    part_a, part_b = set(part_a), set(part_b)
    if not part_a or not part_b:
        raise ValueError("both parts must be non-empty")
    if part_a & part_b:
        raise ValueError(f"parts overlap on {sorted(part_a & part_b)}")
    cov = joint.covariance
    idx = joint.layout.indices
    h_a = entropy_from_cov(cov[np.ix_(idx(part_a), idx(part_a))])
    h_b = entropy_from_cov(cov[np.ix_(idx(part_b), idx(part_b))])
    h_ab = entropy_from_cov(cov[np.ix_(idx(part_a | part_b), idx(part_a | part_b))])
    return h_a + h_b - h_ab


def superposition_mi_analytic(
    prior: GaussianDensity, action: Action, involved: Iterable[str] | None = None
) -> float:
    """Augmented MI as -H[X_new | X_s] - H[Z | X_s, X_new] + H[Z].

    The three-term superposition form; must agree with
    :func:`augmented_mi_analytic` to numerical precision.  This is the
    identity the sequential Monte Carlo estimator targets term by term.
    """
    reduced, joint = _reduced_joint(prior, action, involved)
    inv_ids = set(reduced.layout.ids)
    new_ids = set(action.new_ids)
    obs_ids = set(observation_block_ids(action))

    h_new_given_inv = _conditional_entropy(joint, new_ids, inv_ids)
    h_obs_given_state = _conditional_entropy(joint, obs_ids, inv_ids | new_ids)
    h_obs = _conditional_entropy(joint, obs_ids, set())
    return -h_new_given_inv - h_obs_given_state + h_obs
