"""Sequential Monte Carlo estimation of augmented mutual information.

The estimator never reconstructs a posterior belief surface.  It works from
the superposition form

    MI = -H[new | state] - H[obs | state, new] + H[obs]

by propagating prior particles through the declared transition and
observation models and averaging log model densities:

    sum1  weights x mean log F_T   at sampled new blocks
    sum2  weights x mean log F_Z   at sampled observations
    sum3  weights x mean log eta^{-1}(z), the sampled observations' marginal
          likelihood under the prior, estimated from a second particle pass

and returns ``sum1 + sum2 - sum3``.

Determinism contract: every outer particle draws its noise from a
counter-based stream keyed by (run root, particle index), so an incremental
run that consumes the particles in installments draws exactly the noise of a
single batch run, and independent particles may be processed in any
schedule.  The installments' sums add in another order, so the estimates
agree to 1e-12 (acceptance criterion 8), not bit for bit; bitwise agreement
is ROADMAP item 5.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace
from typing import Mapping

import numpy as np

from .mi import METHOD_MISMC, MiEstimate
from .state import (
    Action,
    SequentialObservation,
    SequentialTransition,
    WeightedParticleSet,
    ensure_rng,
)

# Marginal observation likelihoods are floored here before the log; floor
# events indicate the sampled z landed where the prior-predictive mass is
# numerically zero and are reported, not hidden.
ETA_FLOOR = 1e-300

_NORMALIZER_KEY = 0

# The counter-based generator emits 4 uint64 words per counter step.
_PHILOX_BLOCK = 4


class BudgetError(ValueError):
    """Sample budget inconsistent with the prior particle set."""


class ContextMismatchError(ValueError):
    """Accumulator and context come from different estimator runs."""


@dataclass(frozen=True)
class SampleBudget:
    """Per-loop sample counts of the estimator.

    ``n1`` outer prior particles, ``n2`` transition samples per particle,
    ``n3`` observation samples per transition sample, ``n4`` prior particles
    and ``n5`` transition samples per particle inside the normalizer.
    """

    n1: int
    n2: int = 1
    n3: int = 1
    n4: int | None = None
    n5: int = 1

    def __post_init__(self):
        if self.n4 is None:
            object.__setattr__(self, "n4", self.n1)
        for name in ("n1", "n2", "n3", "n4", "n5"):
            if getattr(self, name) < 1:
                raise BudgetError(f"{name} must be >= 1, got {getattr(self, name)}")

    @property
    def m(self) -> int:
        """Total number of sampled observation instances."""
        return self.n1 * self.n2 * self.n3

    @property
    def n(self) -> int:
        """Total number of normalizer samples."""
        return self.n4 * self.n5


@dataclass(frozen=True)
class MismcAccumulator:
    """Running state of an (anytime) estimator pass.

    ``estimate`` is ``sum1 + sum2 - sum3`` at every checkpoint; feeding more
    particles through :func:`mismc_update` refines it without restarting.
    """

    sum1: float = 0.0
    sum2: float = 0.0
    sum3: float = 0.0
    consumed: int = 0
    rng_state: tuple[int, ...] = ()
    eta_floor_events: int = 0
    elapsed_ns: int = 0

    @property
    def estimate(self) -> float:
        return self.sum1 + self.sum2 - self.sum3


class _NormalizerSamples:
    """The second particle pass: propagated samples the marginal observation
    likelihood is averaged over.

    Drawn once per run and reused for every sampled observation, as a
    particle filter would reuse its weighted set.  When ``n4`` equals the
    prior size the set is the prior itself with its weights and the
    transition noise is keyed per particle index (so the whole estimator is
    invariant to particle replication); otherwise ``n4`` particles are drawn
    weight-proportionally and averaged uniformly.
    """

    def __init__(
        self,
        prior: WeightedParticleSet,
        transition: SequentialTransition,
        observation: SequentialObservation,
        n4: int,
        n5: int,
        norm_root: tuple[int, ...],
        stream_indices: np.ndarray,
    ):
        if n4 == prior.n:
            x = prior.particles
            w = np.asarray(prior.weights)
            indices = stream_indices
        else:
            sel_rng = _derived_rng(norm_root, (_NORMALIZER_KEY,))
            sel = sel_rng.choice(prior.n, size=n4, p=prior.weights)
            x = prior.particles[sel]
            w = np.full(n4, 1.0 / n4)
            indices = np.arange(n4)
        noise = _particle_noise(norm_root, indices, n5 * transition.new_dim)
        x_rep = np.repeat(x, n5, axis=0)
        self.weights_rep = np.repeat(w / n5, n5)
        new, _logp = transition.sample_with_noise(
            x_rep, noise.reshape(n4 * n5, transition.new_dim)
        )
        self.evaluator = observation.grid_evaluator(x_rep, new)

    def eta_inverse(self, z: np.ndarray) -> tuple[np.ndarray, int]:
        """Marginal likelihood estimate per row of ``z``; floored positive."""
        eta = self.evaluator.mixture_likelihood(z, self.weights_rep)
        low = eta < ETA_FLOOR
        floors = int(np.count_nonzero(low))
        if floors:
            eta = np.where(low, ETA_FLOOR, eta)
        return eta, floors


def estimate_normalizer(
    prior: WeightedParticleSet,
    transition: SequentialTransition,
    observation: SequentialObservation,
    z: np.ndarray,
    n4: int,
    n5: int,
    rng: np.random.Generator | int,
) -> float:
    """Estimate the observation's marginal likelihood under the prior.

    Returns ``sum_l w_l (1/n5) sum_m F_Z(z | x_l, new_lm)`` with the new
    blocks sampled from the transition models; strictly positive after
    flooring.
    """
    rng, _ = ensure_rng(rng)
    if n4 < 1 or n5 < 1:
        raise BudgetError("n4 and n5 must be >= 1")
    norm_root = tuple(int(v) for v in rng.integers(0, 2**63, size=2))
    samples = _NormalizerSamples(
        prior, transition, observation, n4, n5, norm_root, np.arange(prior.n)
    )
    z = np.asarray(z, dtype=float).ravel()
    if z.shape != (observation.obs_dim,):
        raise ValueError(f"z has shape {z.shape}, expected ({observation.obs_dim},)")
    eta, _floors = samples.eta_inverse(z[None, :])
    return float(eta[0])


class MismcContext:
    """Everything an estimator run needs: prior, compiled models, budget,
    the run's RNG root, and the shared normalizer samples."""

    def __init__(
        self,
        prior: WeightedParticleSet,
        action: Action,
        budget: SampleBudget,
        rng: np.random.Generator | int,
        stream_indices: np.ndarray | None = None,
    ):
        rng, seed = ensure_rng(rng)
        if budget.n1 != prior.n:
            raise BudgetError(
                f"budget n1={budget.n1} must equal the prior particle count {prior.n}; "
                "sample the prior at the budget size"
            )
        self.prior = prior
        self.action = action
        self.budget = budget
        self.seed = seed
        self.transition = SequentialTransition(prior.layout, action)
        self.observation = SequentialObservation(prior.layout, action)
        if not action.observations:
            raise ValueError(f"action {action.id!r} has no observations")
        if stream_indices is None:
            stream_indices = np.arange(prior.n)
        else:
            stream_indices = np.asarray(stream_indices, dtype=int)
            if stream_indices.shape != (prior.n,):
                raise ValueError("need one stream index per particle")
        self.stream_indices = stream_indices
        # Two independent stream keys: outer-particle noise and normalizer.
        self.root = tuple(int(v) for v in rng.integers(0, 2**63, size=4))
        self.normalizer = _NormalizerSamples(
            prior,
            self.transition,
            self.observation,
            budget.n4,
            budget.n5,
            self.root[2:],
            stream_indices,
        )

    def empty_accumulator(self) -> MismcAccumulator:
        return MismcAccumulator(rng_state=self.root)

    def result(self, acc: MismcAccumulator) -> MiEstimate:
        """Package a finished (or partial) accumulation as an estimate."""
        counts: Mapping[str, int] = {
            "n1": acc.consumed,
            "n2": self.budget.n2,
            "n3": self.budget.n3,
            "n4": self.budget.n4,
            "n5": self.budget.n5,
            "m": acc.consumed * self.budget.n2 * self.budget.n3,
            "n": self.budget.n,
            "eta_floor_events": acc.eta_floor_events,
        }
        return MiEstimate(
            value=acc.estimate,
            method=METHOD_MISMC,
            elapsed=acc.elapsed_ns / 1e9,
            sample_counts=counts,
            seed=self.seed,
        )


def _derived_rng(root: tuple[int, ...], spawn_key: tuple[int, ...]) -> np.random.Generator:
    ss = np.random.SeedSequence(entropy=list(root), spawn_key=spawn_key)
    return np.random.Generator(np.random.PCG64(ss))


def _uniform_stride(per_particle: int) -> int:
    """Uniform draws reserved per particle, padded to whole counter blocks."""
    blocks = (per_particle + _PHILOX_BLOCK - 1) // _PHILOX_BLOCK
    return max(1, blocks) * _PHILOX_BLOCK


def _box_muller(uniforms: np.ndarray) -> np.ndarray:
    """Standard normals from uniform pairs (fixed consumption per normal)."""
    u1 = np.maximum(uniforms[:, 0::2], 1e-300)
    angle = (2.0 * np.pi) * uniforms[:, 1::2]
    radius = np.sqrt(-2.0 * np.log(u1))
    out = np.empty_like(uniforms)
    out[:, 0::2] = radius * np.cos(angle)
    out[:, 1::2] = radius * np.sin(angle)
    return out


def _particle_noise(
    root: tuple[int, ...], indices: np.ndarray, per_particle: int
) -> np.ndarray:
    """Standard-normal innovations, one row per requested particle index.

    Each index owns a fixed counter window of the keyed Philox stream, so a
    row's draws depend only on (root, index): batch splits cannot change
    them, and repeated indices reproduce identical rows.  Normals come from
    uniform pairs via Box-Muller because uniform generation consumes a fixed
    word count, which keeps the per-index windows aligned.
    """
    stride = _uniform_stride(per_particle)
    key = np.array(root, dtype=np.uint64)
    n = indices.size
    first = int(indices[0]) if n else 0
    if n and np.array_equal(indices, np.arange(first, first + n)):
        bit_gen = np.random.Philox(key=key)
        bit_gen.advance(first * (stride // _PHILOX_BLOCK))
        uniforms = np.random.Generator(bit_gen).random((n, stride))
    else:
        uniforms = np.empty((n, stride))
        for row, index in enumerate(indices):
            bit_gen = np.random.Philox(key=key)
            bit_gen.advance(int(index) * (stride // _PHILOX_BLOCK))
            uniforms[row] = np.random.Generator(bit_gen).random(stride)
    return _box_muller(uniforms)[:, :per_particle]


def mismc_context(
    prior: WeightedParticleSet,
    action: Action,
    budget: SampleBudget,
    rng: np.random.Generator | int,
    stream_indices: np.ndarray | None = None,
) -> MismcContext:
    """Prepare an anytime estimator run (see :class:`MismcContext`)."""
    return MismcContext(prior, action, budget, rng, stream_indices)


def mismc_update(
    acc: MismcAccumulator, additional_n1: int, context: MismcContext
) -> MismcAccumulator:
    """Consume the next ``additional_n1`` prior particles.

    The returned accumulator's ``estimate`` matches, to 1e-12, what a batch
    run over all particles consumed so far would produce, because each
    particle's noise comes from its own (root, index) stream; the sums add in
    another order, so the match is not bit for bit.
    """
    if additional_n1 < 0:
        raise ValueError("additional_n1 must be >= 0")
    if acc.rng_state != context.root:
        raise ContextMismatchError(
            "accumulator was started under a different context (RNG root differs)"
        )
    if additional_n1 == 0:
        return acc
    if acc.consumed + additional_n1 > context.prior.n:
        raise BudgetError(
            f"cannot consume {additional_n1} more particles: "
            f"{acc.consumed} of {context.prior.n} already used"
        )
    start_ns = time.perf_counter_ns()
    budget = context.budget
    n2, n3 = budget.n2, budget.n3
    trans, obs = context.transition, context.observation
    lo, hi = acc.consumed, acc.consumed + additional_n1

    x = context.prior.particles[lo:hi]
    w = context.prior.weights[lo:hi]
    per_particle = n2 * trans.new_dim + n2 * n3 * obs.obs_dim
    noise = _particle_noise(
        context.root[:2], context.stream_indices[lo:hi], per_particle
    )

    split = n2 * trans.new_dim
    noise_t = noise[:, :split].reshape(additional_n1 * n2, trans.new_dim)
    noise_o = noise[:, split:].reshape(additional_n1 * n2 * n3, obs.obs_dim)

    x_rep = np.repeat(x, n2, axis=0)
    new, log_ft = trans.sample_with_noise(x_rep, noise_t)
    x_rep2 = np.repeat(x_rep, n3, axis=0)
    new_rep2 = np.repeat(new, n3, axis=0)
    z, log_fz = obs.sample_with_noise(x_rep2, new_rep2, noise_o)

    eta, floors = context.normalizer.eta_inverse(z)
    log_eta = np.log(eta)

    sum1 = float(w @ log_ft.reshape(additional_n1, n2).mean(axis=1))
    sum2 = float(w @ log_fz.reshape(additional_n1, n2 * n3).mean(axis=1))
    sum3 = float(w @ log_eta.reshape(additional_n1, n2 * n3).mean(axis=1))

    return replace(
        acc,
        sum1=acc.sum1 + sum1,
        sum2=acc.sum2 + sum2,
        sum3=acc.sum3 + sum3,
        consumed=hi,
        eta_floor_events=acc.eta_floor_events + floors,
        elapsed_ns=acc.elapsed_ns + (time.perf_counter_ns() - start_ns),
    )


def mismc_estimate(
    prior: WeightedParticleSet,
    action: Action,
    budget: SampleBudget,
    rng: np.random.Generator | int,
    stream_indices: np.ndarray | None = None,
) -> MiEstimate:
    """Batch run of the estimator over the whole budget.

    ``prior`` should be the involved-marginal belief; the full belief works
    too, the models simply ignore coordinates outside their footprints.
    """
    start_ns = time.perf_counter_ns()
    context = mismc_context(prior, action, budget, rng, stream_indices)
    acc = mismc_update(context.empty_accumulator(), budget.n1, context)
    total_ns = time.perf_counter_ns() - start_ns
    acc = replace(acc, elapsed_ns=total_ns)
    return context.result(acc)
