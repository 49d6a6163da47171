"""Sequential Monte Carlo estimation of augmented mutual information.

The estimator never reconstructs a posterior belief surface.  It works from
the superposition form

    MI = -H[new | state] - H[obs | state, new] + H[obs]

by propagating prior particles through the declared transition and
observation models and averaging log model densities:

    sum1  weights x mean log F_T   at sampled new blocks
    sum2  weights x mean log F_Z   at sampled observations
    sum3  weights x mean log eta(z), the sampled observations' marginal
          likelihood under the prior, estimated from a second particle pass
          that :class:`MismcContext` draws once per run

and returns ``sum1 + sum2 - sum3``.  log eta is computed in log space, so it
stays accurate however far in the tail a sampled z lands; rows where eta is
below 1e-300 are counted as ``eta_floor_events``.

Determinism contract: every outer particle draws its noise from a
counter-based stream keyed by (run root, particle index), so an incremental
run that consumes the particles in installments draws exactly the noise of a
single batch run.  The accumulator keeps each particle's three terms in index
order and every update sums them once over all particles consumed, so any
installment schedule reproduces the batch estimate bit for bit.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, replace
from typing import Mapping

import numpy as np

from .mi import METHOD_MISMC, MiEstimate
from .state import (
    Action,
    SequentialObservation,
    SequentialTransition,
    WeightedParticleSet,
    _bind_inputs,
    _derived_rng,
    _is_count,
    ensure_rng,
)

# Log marginal likelihoods below this count as floor events: the sampled z
# landed where the prior-predictive mass is numerically zero.  The values are
# kept as computed; the count is reported, not hidden.
_LOG_ETA_FLOOR = math.log(1e-300)

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
            count = getattr(self, name)
            if not _is_count(count):
                raise BudgetError(f"{name} must be an integer, got {count!r}")
            if count < 1:
                raise BudgetError(f"{name} must be >= 1, got {count}")

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
    ``terms`` holds one column per consumed particle, in index order: its
    mean log F_T, mean log F_Z and mean log eta; each sum is the prior
    weights' dot product with one row.
    """

    sum1: float = 0.0
    sum2: float = 0.0
    sum3: float = 0.0
    consumed: int = 0
    rng_state: tuple[int, ...] = ()
    eta_floor_events: int = 0
    elapsed_ns: int = 0
    terms: np.ndarray = field(default_factory=lambda: np.empty((3, 0)), compare=False)

    @property
    def estimate(self) -> float:
        return self.sum1 + self.sum2 - self.sum3


class MismcContext:
    """Everything an estimator run needs: prior, compiled models, budget,
    the run's RNG root, the normalizer pass, and ``elapsed_ns``, the time
    the build took.

    The normalizer pass is the second particle set that log eta(z) is
    averaged over, drawn once per run and reused for every sampled
    observation, as a particle filter would reuse its weighted set:
    ``normalizer`` holds its propagated batch and ``normalizer_weights`` its
    weights.  When ``n4`` equals the prior size the set is the prior itself
    with its weights; otherwise ``n4`` particles are drawn
    weight-proportionally and averaged uniformly.  Each set member is
    propagated ``n5`` times, member ``i`` with the noise of counter window
    ``i`` of the normalizer stream.
    """

    def __init__(
        self,
        prior: WeightedParticleSet,
        action: Action,
        budget: SampleBudget,
        rng: np.random.Generator | int,
    ):
        start_ns = time.perf_counter_ns()
        rng = ensure_rng(rng)
        if budget.n1 != prior.n:
            raise BudgetError(
                f"budget n1={budget.n1} must equal the prior particle count {prior.n}; "
                "sample the prior at the budget size"
            )
        self.prior = prior
        self.action = action
        self.budget = budget
        bound = _bind_inputs(prior.layout, action)
        self.transition = SequentialTransition(prior.layout, action, bound)
        self.observation = SequentialObservation(prior.layout, action, bound)
        if not action.observations:
            raise ValueError(f"action {action.id!r} has no observations")
        # Two independent stream keys: outer-particle noise and normalizer.
        self.root = tuple(int(v) for v in rng.integers(0, 2**63, size=4))
        norm_root = self.root[2:]
        n4, n5, new_dim = budget.n4, budget.n5, self.transition.new_dim
        if n4 == prior.n:
            x, w = prior.particles, np.asarray(prior.weights)
        else:
            sel_rng = _derived_rng(norm_root, (_NORMALIZER_KEY,))
            sel = sel_rng.choice(prior.n, size=n4, p=prior.weights)
            x, w = prior.particles[sel], np.full(n4, 1.0 / n4)
        noise = _particle_noise(norm_root, 0, n4, n5 * new_dim)
        states, _logp = self.transition.sample_with_noise(
            np.repeat(x, n5, axis=0), noise.reshape(n4 * n5, new_dim)
        )
        self.normalizer = self.observation.grid_evaluator(states)
        self.normalizer_weights = np.repeat(w / n5, n5)
        self.elapsed_ns = time.perf_counter_ns() - start_ns

    def empty_accumulator(self) -> MismcAccumulator:
        return MismcAccumulator(rng_state=self.root)

    def result(self, acc: MismcAccumulator) -> MiEstimate:
        """Package a finished (or partial) accumulation as an estimate; its
        elapsed time is the context build plus every update so far."""
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
            elapsed=(self.elapsed_ns + acc.elapsed_ns) / 1e9,
            sample_counts=counts,
        )


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
    root: tuple[int, ...], start: int, count: int, per_particle: int
) -> np.ndarray:
    """Standard-normal innovations for particle indices ``start`` to
    ``start + count - 1``, one row each.

    Each index owns a fixed counter window of the keyed Philox stream, so a
    row's draws depend only on (root, index) and batch splits cannot change
    them.  Normals come from uniform pairs via Box-Muller because uniform
    generation consumes a fixed word count, which keeps the per-index
    windows aligned.
    """
    stride = _uniform_stride(per_particle)
    bit_gen = np.random.Philox(key=np.array(root, dtype=np.uint64))
    bit_gen.advance(int(start) * (stride // _PHILOX_BLOCK))
    uniforms = np.random.Generator(bit_gen).random((count, stride))
    return _box_muller(uniforms)[:, :per_particle]


def mismc_context(
    prior: WeightedParticleSet,
    action: Action,
    budget: SampleBudget,
    rng: np.random.Generator | int,
) -> MismcContext:
    """Prepare an anytime estimator run (see :class:`MismcContext`)."""
    return MismcContext(prior, action, budget, rng)


def mismc_update(
    acc: MismcAccumulator, additional_n1: int, context: MismcContext
) -> MismcAccumulator:
    """Consume the next ``additional_n1`` prior particles.

    The returned accumulator's ``estimate`` is bit for bit what a batch run
    over all particles consumed so far would produce: each particle's noise
    comes from its own (root, index) stream, its terms are appended to
    ``terms``, and the sums are taken once over all of them in index order.
    """
    if not _is_count(additional_n1):
        raise BudgetError(f"additional_n1 must be an integer, got {additional_n1!r}")
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
    per_particle = n2 * trans.new_dim + n2 * n3 * obs.obs_dim
    noise = _particle_noise(context.root[:2], lo, additional_n1, per_particle)

    split = n2 * trans.new_dim
    noise_t = noise[:, :split].reshape(additional_n1 * n2, trans.new_dim)
    noise_o = noise[:, split:].reshape(additional_n1 * n2 * n3, obs.obs_dim)

    states, log_ft = trans.sample_with_noise(np.repeat(x, n2, axis=0), noise_t)
    z, log_fz = obs.sample_with_noise(np.repeat(states, n3, axis=0), noise_o)

    log_eta = context.normalizer.mixture_likelihood(z, context.normalizer_weights)
    floors = int(np.count_nonzero(log_eta < _LOG_ETA_FLOOR))

    new_terms = [v.reshape(additional_n1, -1).mean(axis=1) for v in (log_ft, log_fz, log_eta)]
    terms = np.concatenate([acc.terms, new_terms], axis=1)
    sum1, sum2, sum3 = (float(context.prior.weights[:hi] @ row) for row in terms)
    return replace(
        acc,
        sum1=sum1,
        sum2=sum2,
        sum3=sum3,
        consumed=hi,
        terms=terms,
        eta_floor_events=acc.eta_floor_events + floors,
        elapsed_ns=acc.elapsed_ns + (time.perf_counter_ns() - start_ns),
    )


def mismc_estimate(
    prior: WeightedParticleSet,
    action: Action,
    budget: SampleBudget,
    rng: np.random.Generator | int,
) -> MiEstimate:
    """Batch run of the estimator over the whole budget.

    ``prior`` should be the involved-marginal belief; the full belief works
    too, the models simply ignore coordinates outside their footprints.
    """
    context = mismc_context(prior, action, budget, rng)
    return context.result(mismc_update(context.empty_accumulator(), budget.n1, context))
