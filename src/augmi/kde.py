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
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .analytic import _condition_on_draw, _reduced_joint
from .mi import METHOD_INVMI_KDE, METHOD_NAIVE_KDE, MiEstimate
from .state import (
    LOG_TWO_PI,
    Action,
    GaussianDensity,
    WeightedParticleSet,
    _draws,
    _is_count,
    _log_kernel_sum,
    ensure_rng,
)

# Log densities are clamped here to keep -inf out of the sums; clamp events
# are counted and surfaced in the estimate's sample_counts.
LOG_DENSITY_FLOOR = -700.0


class BandwidthError(ValueError):
    """The bandwidth matrix is singular (e.g. all particles identical)."""


@dataclass(frozen=True)
class KdeConfig:
    """Gaussian-kernel KDE configuration.

    ``bandwidth_rule`` is one of ``"scott"``, ``"silverman"`` or ``"fixed"``;
    the fixed rule applies ``bandwidth`` to every coordinate, the data-driven
    rules scale the per-coordinate weighted standard deviation.
    """

    bandwidth_rule: str = "scott"
    bandwidth: float | None = None

    def __post_init__(self):
        if self.bandwidth_rule not in ("scott", "silverman", "fixed"):
            raise ValueError(f"unknown bandwidth rule {self.bandwidth_rule!r}")
        if self.bandwidth_rule == "fixed":
            if self.bandwidth is None or not self.bandwidth > 0.0:
                raise BandwidthError("fixed bandwidth must be positive")


def bandwidth_vector(
    particles: np.ndarray, weights: np.ndarray, cfg: KdeConfig
) -> np.ndarray:
    """Per-coordinate bandwidths for a weighted sample.

    Data-driven rules use the effective sample size ``1 / sum(w^2)`` in
    place of N, so heavily non-uniform weights widen the kernels.
    """
    d = particles.shape[1]
    if cfg.bandwidth_rule == "fixed":
        return np.full(d, float(cfg.bandwidth))
    if particles.shape[0] < 2:
        raise BandwidthError(
            f"{cfg.bandwidth_rule} bandwidth needs at least 2 particles"
        )
    mean = weights @ particles
    var = weights @ (particles - mean) ** 2
    if np.any(var <= 0.0):
        raise BandwidthError(
            "singular bandwidth matrix: a coordinate has zero weighted variance; "
            "use a fixed bandwidth for degenerate samples"
        )
    n_eff = 1.0 / float(weights @ weights)
    if cfg.bandwidth_rule == "scott":
        factor = n_eff ** (-1.0 / (d + 4))
    else:  # silverman
        factor = (n_eff * (d + 2) / 4.0) ** (-1.0 / (d + 4))
    return np.sqrt(var) * factor


def _log_mixture(
    queries: np.ndarray,
    particles: np.ndarray,
    weights: np.ndarray,
    bandwidth: np.ndarray,
) -> tuple[np.ndarray, int]:
    """Log KDE density at each query row; returns (values, clamp count)."""
    log_norm = 0.5 * particles.shape[1] * LOG_TWO_PI + float(np.sum(np.log(bandwidth)))
    vals = _log_kernel_sum(queries / bandwidth, particles / bandwidth, weights, log_norm)
    low = vals < LOG_DENSITY_FLOOR
    return np.where(low, LOG_DENSITY_FLOOR, vals), int(np.count_nonzero(low))


def _resubstitution(
    particles: np.ndarray, weights: np.ndarray, cfg: KdeConfig
) -> tuple[float, int]:
    bandwidth = bandwidth_vector(particles, weights, cfg)
    log_vals, clamps = _log_mixture(particles, particles, weights, bandwidth)
    return -float(weights @ log_vals), clamps


def resubstitution_entropy(samples: WeightedParticleSet, cfg: KdeConfig) -> float:
    """Entropy estimate -sum_i w_i log b_hat(X_i) in nats.

    The density estimate is the KDE over the same weighted sample, hence
    re-substitution; complexity O(N^2 d).
    """
    value, _clamps = _resubstitution(samples.particles, samples.weights, cfg)
    return value


def _kde_augmented_mi(
    prior: GaussianDensity,
    action: Action,
    involved: Iterable[str] | None,
    n: int,
    cfg: KdeConfig | None,
    rng: np.random.Generator | int,
    z_draws: int,
) -> MiEstimate:
    """Shared body of the naive (``involved=None``) and involved-subset KDE
    pipelines.

    Draws n prior samples for the prior entropy, then for each of
    ``z_draws`` sampled observation sequences draws n samples from the true
    posterior (conditional Gaussian) and re-substitutes; the posterior
    entropy is the average over draws.  RNG consumption depends only on the
    belief the KDE runs on, so a fully-involved reduced run replays a
    full-state run bit for bit.
    """
    for name, count in (("n", n), ("z_draws", z_draws)):
        if not _is_count(count):
            raise ValueError(f"{name} must be an integer, got {count!r}")
    if n < 2:
        raise ValueError("need n >= 2 samples for data-driven KDE entropy")
    if z_draws < 1:
        raise ValueError(f"need z_draws >= 1 observation draws, got {z_draws}")
    cfg = cfg or KdeConfig()
    rng = ensure_rng(rng)
    counts = {"n": n, "z_draws": z_draws, "clamp_events": 0}
    start = time.perf_counter()
    prior, joint = _reduced_joint(prior, action, involved)
    if involved is not None:
        counts["involved_dim"] = prior.dim

    # Prior entropy from n fresh prior samples.
    uniform = np.full(n, 1.0 / n)
    h_prior, clamps = _resubstitution(_draws(prior, n, rng), uniform, cfg)
    counts["clamp_events"] += clamps

    # Posterior term: condition the joint per sampled observation sequence.
    h_post = 0.0
    for _ in range(z_draws):
        [(posterior, _z)] = _condition_on_draw(joint, action, [rng])
        h_i, clamps = _resubstitution(_draws(posterior, n, rng), uniform, cfg)
        counts["clamp_events"] += clamps
        h_post += h_i / z_draws

    return MiEstimate(
        value=h_prior - h_post,
        method=METHOD_NAIVE_KDE if involved is None else METHOD_INVMI_KDE,
        elapsed=time.perf_counter() - start,
        sample_counts=counts,
    )


def naive_kde_augmented_mi(
    prior: GaussianDensity,
    action: Action,
    n: int,
    cfg: KdeConfig | None = None,
    rng: np.random.Generator | int = 0,
    z_draws: int = 1,
) -> MiEstimate:
    """Augmented MI by re-substitution KDE over the entire state.

    This is the baseline whose variance and cost grow with the full state
    dimension D; it exists to be beaten.
    """
    return _kde_augmented_mi(prior, action, None, n, cfg, rng, z_draws)


def invmi_kde_augmented_mi(
    prior: GaussianDensity,
    action: Action,
    involved: Iterable[str],
    n: int,
    cfg: KdeConfig | None = None,
    rng: np.random.Generator | int = 0,
    z_draws: int = 1,
) -> MiEstimate:
    """Augmented MI by re-substitution KDE over the involved subset only.

    Identical procedure to the naive pipeline, run on the marginal prior
    over ``involved`` (which must cover the action's prior footprint), so
    the KDE works in d dimensions instead of D.
    """
    return _kde_augmented_mi(prior, action, involved, n, cfg, rng, z_draws)
