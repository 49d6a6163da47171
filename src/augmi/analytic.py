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
import time
from typing import Iterable

import numpy as np

from .linalg import cholesky_psd, conditional_parts
from .mi import METHOD_ANALYTIC, MiEstimate
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
) -> GaussianDensity:
    """Condition a joint Gaussian on exact values of some blocks.

    ``values`` is one 1-D row over the given blocks, in layout order.
    Returns the conditional density over the remaining blocks (original
    order), with mean shifted by the Kalman-style gain and the Schur
    complement as covariance.
    """
    given = set(given)
    keep_ids = [b.id for b in density.layout.blocks if b.id not in given]
    if not keep_ids:
        raise ValueError("conditioning on every block leaves nothing")
    keep_idx = density.layout.indices(keep_ids)
    given_idx = density.layout.indices(given)
    values = np.asarray(values, dtype=float)
    if values.shape != (given_idx.size,):
        raise ValueError(f"values have shape {values.shape}, expected ({given_idx.size},)")
    gain, schur = conditional_parts(density.covariance, keep_idx, given_idx)
    return GaussianDensity(
        layout=density.layout.sublayout(keep_ids),
        mean=density.mean[keep_idx] + gain @ (values - density.mean[given_idx]),
        covariance=schur,
    )


def _condition_on_draw(
    joint: GaussianDensity, action: Action, rng: np.random.Generator | None
) -> tuple[GaussianDensity, np.ndarray | None]:
    """The belief over a :func:`joint_state_observation` joint's state blocks
    (prior and new) given one draw ``z`` of the action's observations from
    the joint's predictive, and that ``z``.

    ``rng = None`` conditions at the predictive mean and returns no ``z``;
    for linear-Gaussian models that leaves the covariance, hence any
    information value, unchanged.
    """
    obs_ids = observation_block_ids(action)
    if not obs_ids:
        raise ValueError(f"action {action.id!r} has no observations to condition on")
    obs_idx = joint.layout.indices(obs_ids)
    z_mean = joint.mean[obs_idx]
    if rng is None:
        return condition_gaussian(joint, obs_ids, z_mean), None
    z_chol = cholesky_psd(joint.covariance[np.ix_(obs_idx, obs_idx)])
    z = z_mean + z_chol @ rng.standard_normal(obs_idx.size)
    return condition_gaussian(joint, obs_ids, z), z


def augmented_mi_analytic(
    prior: GaussianDensity, action: Action, subset: Iterable[str] | None = None
) -> MiEstimate:
    """Exact augmented MI in the superposition form
    -H[X_new | X_s] - H[Z | X_s, X_new] + H[Z].

    The models add Gaussian noise whose covariance does not depend on the
    state, so the first two terms are the action's noise entropies; only
    H[Z] is read from the joint.  H[Z] stays finite when the prior is
    singular, so the prior is factored all the same, and a singular one
    raises :class:`~augmi.linalg.NotPositiveDefiniteError`.

    ``subset`` restricts the prior to the named blocks before building the
    joint; it must contain every prior block the action's models read
    (``None`` means the full state), or FootprintError is raised.  With that
    hypothesis satisfied the value is independent of the subset choice.  The
    elapsed time starts after the restriction; ``sample_counts["dim"]`` is
    the dimension of the prior the joint is built on.
    """
    subset = None if subset is None else set(subset)
    # the whole prior needs no footprint check; the joint validates the action
    if subset is not None and subset != set(prior.layout.ids):
        unknown = subset - set(prior.layout.ids)
        if unknown:
            raise FootprintError(f"subset contains unknown blocks {sorted(unknown)}")
        missing = _prior_footprint(prior.layout, action) - subset
        if missing:
            raise FootprintError(
                f"subset misses involved prior blocks {sorted(missing)}; mutual "
                "information over it would be wrong, not approximate"
            )
        prior = marginalize_gaussian(prior, subset)
    start = time.perf_counter()
    joint = joint_state_observation(prior, action)
    prior._chol  # factors the prior or raises; H[Z] alone would not
    obs_idx = joint.layout.indices(observation_block_ids(action))
    h_obs = entropy_from_cov(joint.covariance[np.ix_(obs_idx, obs_idx)])
    return MiEstimate(
        value=h_obs - action._noise_entropy,
        method=METHOD_ANALYTIC,
        elapsed=time.perf_counter() - start,
        sample_counts={"dim": prior.dim},
    )
