"""Kernel density estimation and the two KDE-based MI pipelines.

The entropy estimator here is the classic re-substitution scheme: fit a
Gaussian-kernel KDE to the weighted sample, evaluate the log density back at
the sample points, and average.  Cost is O(N^2 d), which is exactly why the
full-state pipeline degrades with dimension while the involved-subset
pipeline does not.

Both MI pipelines assume a perfect inference engine: posterior samples are
drawn from the true conditional Gaussian given a sampled observation
sequence.  That is a test-harness convenience for benchmarking estimator
noise in isolation, not part of either estimation method.
"""

from __future__ import annotations

import time

import numpy as np

from .analytic import _condition_on_draw, joint_state_observation
from .involved import determine_involved
from .mi import METHOD_INVMI_KDE, METHOD_NAIVE_KDE, MiEstimate
from .state import (
    LOG_TWO_PI,
    Action,
    GaussianDensity,
    WeightedParticleSet,
    _check_count,
    _draws,
    _log_kernel_sum,
    ensure_rng,
    marginalize_gaussian,
)

# Log densities below this count as clamp events in sample_counts, and are
# kept as computed: with a positive weight the log-space sum is finite.
LOG_DENSITY_FLOOR = -700.0


class BandwidthError(ValueError):
    """The bandwidth matrix is singular (e.g. all particles identical)."""


def bandwidth_vector(particles: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Per-coordinate Scott's-rule bandwidths for a weighted sample.

    Each coordinate's weighted standard deviation is scaled by
    ``n_eff ** (-1 / (d + 4))``, with the effective sample size
    ``n_eff = 1 / sum(w^2)`` in place of N, so heavily non-uniform weights
    widen the kernels.
    """
    d = particles.shape[1]
    if particles.shape[0] < 2:
        raise BandwidthError("Scott bandwidth needs at least 2 particles")
    mean = weights @ particles
    deviation = particles - mean
    deviation *= deviation
    var = weights @ deviation
    if np.any(var <= 0.0):
        raise BandwidthError(
            "singular bandwidth matrix: a coordinate has zero weighted variance"
        )
    n_eff = 1.0 / float(weights @ weights)
    return np.sqrt(var) * n_eff ** (-1.0 / (d + 4))


def _log_mixture(
    particles: np.ndarray, weights: np.ndarray, bandwidth: np.ndarray
) -> tuple[np.ndarray, int]:
    """Log KDE density at each of its own sample rows; returns (values, clamp count)."""
    log_norm = 0.5 * particles.shape[1] * LOG_TWO_PI + float(np.sum(np.log(bandwidth)))
    centers = particles / bandwidth
    vals = _log_kernel_sum(centers, centers, weights, log_norm)
    return vals, int(np.count_nonzero(vals < LOG_DENSITY_FLOOR))


def _resubstitution(particles: np.ndarray, weights: np.ndarray) -> tuple[float, int]:
    bandwidth = bandwidth_vector(particles, weights)
    log_vals, clamps = _log_mixture(particles, weights, bandwidth)
    return -float(weights @ log_vals), clamps


def resubstitution_entropy(samples: WeightedParticleSet) -> float:
    """Entropy estimate -sum_i w_i log b_hat(X_i) in nats.

    The density estimate is the KDE over the same weighted sample, hence
    re-substitution; complexity O(N^2 d).
    """
    value, _clamps = _resubstitution(samples.particles, samples.weights)
    return value


def _kde_augmented_mi(
    prior: GaussianDensity,
    action: Action,
    n: int,
    rng: np.random.Generator | int,
    involved: bool,
) -> MiEstimate:
    """Shared body of the naive and involved-subset KDE pipelines.

    With ``involved`` the prior is first marginalized onto the action's
    involved blocks, outside the elapsed time.  Draws n prior samples for
    the prior entropy, then one sampled observation sequence, and n samples
    from the true posterior (conditional Gaussian) given it for the
    posterior entropy; both entropies are Scott-bandwidth re-substitution
    estimates.  RNG consumption depends only on the belief the KDE runs on,
    so a fully-involved reduced run replays a full-state run bit for bit.
    """
    if not isinstance(prior, GaussianDensity):
        raise TypeError("KDE pipelines need a GaussianDensity belief")
    _check_count("n", n, least=2)
    if involved:
        prior = marginalize_gaussian(prior, determine_involved(prior.layout, action).blocks)
    rng = ensure_rng(rng)
    start = time.perf_counter()
    joint = joint_state_observation(prior, action)

    uniform = np.full(n, 1.0 / n)
    h_prior, prior_clamps = _resubstitution(_draws(prior, n, rng), uniform)
    posterior, _z = _condition_on_draw(joint, action, rng)
    h_post, post_clamps = _resubstitution(_draws(posterior, n, rng), uniform)

    counts = {"n": n, "z_draws": 1, "clamp_events": prior_clamps + post_clamps}
    if involved:
        counts["involved_dim"] = prior.dim
    return MiEstimate(
        value=h_prior - h_post,
        method=METHOD_INVMI_KDE if involved else METHOD_NAIVE_KDE,
        elapsed=time.perf_counter() - start,
        sample_counts=counts,
    )


def naive_kde_augmented_mi(
    prior: GaussianDensity,
    action: Action,
    n: int,
    rng: np.random.Generator | int = 0,
) -> MiEstimate:
    """Augmented MI by re-substitution KDE over the entire state.

    This is the baseline whose variance and cost grow with the full state
    dimension D; it exists to be beaten.
    """
    return _kde_augmented_mi(prior, action, n, rng, involved=False)


def invmi_kde_augmented_mi(
    prior: GaussianDensity,
    action: Action,
    n: int,
    rng: np.random.Generator | int = 0,
) -> MiEstimate:
    """Augmented MI by re-substitution KDE over the involved subset only.

    Identical procedure to the naive pipeline, run on the marginal prior
    over the action's involved blocks (:func:`augmi.involved.determine_involved`),
    so the KDE works in d dimensions instead of D.
    """
    return _kde_augmented_mi(prior, action, n, rng, involved=True)
